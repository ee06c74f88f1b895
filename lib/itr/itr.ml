module Interval = Ssd_util.Interval
module Types = Ssd_core.Types
module Delay_model = Ssd_core.Delay_model
module Corner_batch = Ssd_core.Corner_batch
module Netlist = Ssd_circuit.Netlist
module Frontier = Ssd_circuit.Frontier
module Gate = Ssd_circuit.Gate
module Sta = Ssd_sta.Sta
module Plane_sweep = Ssd_sta.Plane_sweep

type t = {
  it_cb : Corner_batch.t;  (* the one-corner kernel, shared by copies *)
  it_rule : Corner_batch.rule;
  it_slots : int array;  (* each gate's table slot, shared by copies *)
  it_max_fanin : int;
  it_pi_win : Types.win;  (* a PI's window while it may switch *)
  it_impl : Implication.t;
  it_in_focus : bool array;  (* lines whose windows are maintained *)
  it_win : float array;
      (* 8 floats per line in {!Ssd_sta.Windows} slot order: rise
         arrival lo/hi, rise tt lo/hi, then the fall window *)
  it_has : Bytes.t;
      (* per line, which windows exist: bit 0 the rise, bit 1 the fall;
         an absent window's floats are stale *)
}

let implication t = t.it_impl

let state t i tr = Value2f.state (Implication.value t.it_impl i) tr

(* transition [k] of a line: 0 the rise, 1 the fall *)
let[@inline] has t i k = Char.code (Bytes.get t.it_has i) land (1 lsl k) <> 0

(* Store line [i]'s windows from [out], [present] as in [it_has];
   [true] when they changed on float bits, so a [0.] / [-0.] change is
   never cut off. *)
let store t i (out : float array) present =
  let changed = ref (Char.code (Bytes.get t.it_has i) <> present) in
  for f = 0 to 7 do
    if present land (1 lsl (f / 4)) <> 0 then begin
      let v = out.(f) in
      if Int64.bits_of_float t.it_win.((8 * i) + f) <> Int64.bits_of_float v
      then changed := true;
      t.it_win.((8 * i) + f) <- v
    end
  done;
  Bytes.set t.it_has i (Char.chr present);
  !changed

(* Gate [i]'s output windows into [sc.out], with Table 1's rules (see
   the interface): the kernel over each side's kept inputs, then the
   definite inputs' clamps.  Returns which windows exist, as in
   [it_has]. *)
let eval_gate t (sc : Plane_sweep.scratch) i =
  let nl = Implication.netlist t.it_impl in
  let m = Netlist.fanin_count nl i in
  (* every primitive inverts: NAND (and NOT) inputs fall to control the
     output's rise, NOR inputs rise to control its fall *)
  let k_ctl = match Netlist.gate_kind nl i with Gate.Nor -> 0 | _ -> 1 in
  let k_non = 1 - k_ctl in
  let tr k = if k = 0 then Value2f.Rise else Value2f.Fall in
  let inp = sc.Plane_sweep.inp and out = sc.Plane_sweep.out in
  let dly = sc.Plane_sweep.dly and acc = sc.Plane_sweep.acc in
  (* the kept inputs of each side, and the definite ones among them; an
     output transition the line's own state rules out keeps none *)
  let ctl = ref 0 and non = ref 0 and ctl_def = ref 0 and non_def = ref 0 in
  for p = 0 to m - 1 do
    let j = Netlist.fanin_nth nl i p in
    Array.blit t.it_win (8 * j) inp (8 * p) 8;
    let s_ctl = state t j (tr k_ctl) and s_non = state t j (tr k_non) in
    if s_ctl <> -1 && has t j k_ctl then ctl := !ctl lor (1 lsl p);
    if s_ctl = 1 then ctl_def := !ctl_def lor (1 lsl p);
    if s_non <> -1 && has t j k_non then non := !non lor (1 lsl p);
    if s_non = 1 then non_def := !non_def lor (1 lsl p)
  done;
  let ctl = if state t i (tr k_non) = -1 then 0 else !ctl in
  let non = if state t i (tr k_ctl) = -1 then 0 else !non in
  let ctl_def = !ctl_def land ctl and non_def = !non_def land non in
  let slot = t.it_slots.(i) and fanout = Netlist.load_of nl i in
  Corner_batch.eval_node t.it_cb ~rule:t.it_rule ~slot ~fanout ~m
    ~ctl_mask:ctl ~non_mask:non ~c0:0 ~c1:1 ~inputs:inp ~outputs:out ~acc;
  if ctl_def lor non_def <> 0 then
    Corner_batch.eval_pin_delays t.it_cb ~slot ~fanout ~m ~c0:0 ~c1:1
      ~inputs:inp ~outputs:dly;
  (* per pin, [dly] holds a rising input's delay min/max, then a falling
     one's; [acc.(0)] folds each clamp without boxing a float ref *)
  let o_ctl = 4 * k_non and o_non = 4 * k_ctl in
  if ctl <> 0 then begin
    acc.(0) <- infinity;
    for p = 0 to m - 1 do
      if ctl_def land (1 lsl p) <> 0 then
        acc.(0) <-
          Float.min acc.(0)
            (inp.((8 * p) + (4 * k_ctl) + 1) +. dly.((4 * p) + (2 * k_ctl) + 1))
    done;
    out.(o_ctl + 1) <- Float.max out.(o_ctl) (Float.min out.(o_ctl + 1) acc.(0))
  end;
  if non <> 0 then begin
    acc.(0) <- neg_infinity;
    for p = 0 to m - 1 do
      if non_def land (1 lsl p) <> 0 then
        acc.(0) <-
          Float.max acc.(0)
            (inp.((8 * p) + (4 * k_non)) +. dly.((4 * p) + (2 * k_non)))
    done;
    out.(o_non) <- Float.min out.(o_non + 1) (Float.max out.(o_non) acc.(0))
  end;
  (if ctl <> 0 then 1 lsl k_non else 0) lor if non <> 0 then 1 lsl k_ctl else 0

(* Re-time line [i] into the store; [true] when its windows changed. *)
let refresh_line t sc i =
  let out = sc.Plane_sweep.out in
  let present =
    if Netlist.is_pi (Implication.netlist t.it_impl) i then begin
      (* PI windows shrink only via state (value) changes *)
      Plane_sweep.put_win out ~off:0 t.it_pi_win;
      Plane_sweep.put_win out ~off:4 t.it_pi_win;
      (if state t i Value2f.Rise = -1 then 0 else 1)
      lor if state t i Value2f.Fall = -1 then 0 else 2
    end
    else eval_gate t sc i
  in
  store t i out present

let push_fanouts t fr i =
  let nl = Implication.netlist t.it_impl in
  for p = 0 to Netlist.fanout_count nl i - 1 do
    let j = Netlist.fanout_nth nl i p in
    if t.it_in_focus.(j) then Frontier.push fr j
  done

(* Re-time the pushed lines level by level: a line's windows are a pure
   function of its own states and its fan-ins' states and windows, so
   only a line whose windows changed bit for bit pushes its fan-outs. *)
let drain t fr =
  let sc = Plane_sweep.scratch_for ~planes:1 ~max_fanin:t.it_max_fanin in
  Frontier.drain fr (fun fr i -> if refresh_line t sc i then push_fanouts t fr i)

let create ?(pi_spec = Sta.default_pi_spec) ?focus ~library ~model nl =
  let rule =
    match Corner_batch.rule_of model with
    | Some rule -> rule
    | None ->
      invalid_arg
        (Printf.sprintf "Itr.create: model %S has no window kernel"
           model.Delay_model.name)
  in
  let n = Netlist.size nl in
  let it_in_focus =
    match focus with
    | None -> Array.make n true
    | Some lines ->
      let mask = Array.make n false in
      List.iter
        (fun i ->
          mask.(i) <- true;
          List.iter (fun j -> mask.(j) <- true) (Netlist.transitive_fanin nl i))
        lines;
      mask
  in
  (* the table and slots {!Plane_sweep.nominal} resolves for STA *)
  let cb = Plane_sweep.nominal_kernel library in
  let slots, max_fanin = Plane_sweep.resolve_slots (Corner_batch.table cb) nl in
  let t =
    {
      it_cb = cb;
      it_rule = rule;
      it_slots = slots;
      it_max_fanin = max_fanin;
      it_pi_win = Sta.pi_window pi_spec;
      it_impl = Implication.create nl;
      it_in_focus;
      it_win = Array.make (8 * n) 0.;
      it_has = Bytes.make n '\000';
    }
  in
  let fr = Frontier.get nl in
  for i = 0 to n - 1 do
    if it_in_focus.(i) then Frontier.push fr i
  done;
  drain t fr;
  t

let copy t =
  {
    t with
    it_impl = Implication.copy t.it_impl;
    it_win = Array.copy t.it_win;
    it_has = Bytes.copy t.it_has;
  }

let assign t i v =
  match Implication.assign_opt t.it_impl i v with
  | None -> false
  | Some changed ->
    (* a changed line's states feed its own windows and its fan-outs' *)
    let fr = Frontier.get (Implication.netlist t.it_impl) in
    List.iter
      (fun i ->
        if t.it_in_focus.(i) then begin
          Frontier.push fr i;
          push_fanouts t fr i
        end)
      changed;
    drain t fr;
    true

let window t i k =
  let b = (8 * i) + (4 * k) and w = t.it_win in
  if not (has t i k) then None
  else
    Some
      { Types.w_arr = Interval.make w.(b) w.(b + 1);
        w_tt = Interval.make w.(b + 2) w.(b + 3) }

let rise_window t i = window t i 0
let fall_window t i = window t i 1

let window_width_sum t =
  let acc = ref 0. in
  for i = 0 to Netlist.size (Implication.netlist t.it_impl) - 1 do
    for k = 0 to 1 do
      let b = (8 * i) + (4 * k) in
      if has t i k then acc := !acc +. (t.it_win.(b + 1) -. t.it_win.(b))
    done
  done;
  !acc
