module Interval = Ssd_util.Interval
module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Types = Ssd_core.Types
module Delay_model = Ssd_core.Delay_model
module Cellfn = Ssd_core.Cellfn
module Netlist = Ssd_circuit.Netlist
module Frontier = Ssd_circuit.Frontier
module Sta = Ssd_sta.Sta

type line_windows = {
  rise : Types.win option;
  fall : Types.win option;
}

type t = {
  it_library : Charlib.t;
  it_windowing : Delay_model.windowing;
  it_pi_win : Types.win;  (* a PI's window while it may switch *)
  it_impl : Implication.t;
  it_windows : line_windows array;
  it_in_focus : bool array;  (* lines whose windows are maintained *)
}

let implication t = t.it_impl

let state t i tr = Value2f.state (Implication.value t.it_impl i) tr

(* The inputs of [ins] (per input position, the state and optional
   window of the causal input transition) that may switch and carry a
   window, and the same as the window functions take them. *)
let switching ins =
  let present =
    List.filter_map
      (fun (pos, st, w) ->
        match (st, w) with
        | -1, _ | _, None -> None
        | _, Some window -> Some (pos, st, window))
      ins
  in
  (present, List.map (fun (pos, _, w) -> { Types.wpos = pos; window = w }) present)

(* One gate-output transition window under transition states. *)
let ctl_window_refined ~windowing ~cell ~load ins =
  match switching ins with
  | [], _ -> None
  | present, win_ins ->
    (* the model's ctl_window gives the correct earliest side (all possible
       switchers participate) and the pin-to-pin latest side *)
    let base = windowing.Delay_model.ctl_window cell ~fanout:load win_ins in
    (* Table-1 refinement of the latest arrival: every definite switcher i
       bounds the response by A_i,L + d_i,max, because additional
       simultaneous transitions can only speed a to-controlling response
       up. *)
    let a_l_refined =
      List.fold_left
        (fun acc (pos, st, w) ->
          if st <> 1 then acc
          else
            let _, d_max =
              Cellfn.max_delay_over cell ~fanout:load Cellfn.Ctl ~pos
                w.Types.w_tt
            in
            Float.min acc (Interval.hi w.Types.w_arr +. d_max))
        infinity present
    in
    let a_s = Interval.lo base.Types.w_arr in
    let a_l = Float.max a_s (Float.min (Interval.hi base.Types.w_arr) a_l_refined) in
    Some { Types.w_arr = Interval.make a_s a_l; w_tt = base.Types.w_tt }

let non_window_refined ~windowing ~cell ~load ins =
  match switching ins with
  | [], _ -> None
  | present, win_ins ->
    let base = windowing.Delay_model.non_window cell ~fanout:load win_ins in
    (* refinement of the earliest arrival: the response cannot precede any
       definite switcher's earliest contribution *)
    let a_s_refined =
      List.fold_left
        (fun acc (pos, st, w) ->
          if st <> 1 then acc
          else
            let _, d_min =
              Cellfn.min_delay_over cell ~fanout:load Cellfn.Non ~pos
                w.Types.w_tt
            in
            Float.max acc (Interval.lo w.Types.w_arr +. d_min))
        neg_infinity present
    in
    let a_l = Interval.hi base.Types.w_arr in
    let a_s = Float.min a_l (Float.max (Interval.lo base.Types.w_arr) a_s_refined) in
    Some { Types.w_arr = Interval.make a_s a_l; w_tt = base.Types.w_tt }

let gate_windows t i =
  let nl = Implication.netlist t.it_impl in
  let n_in = Netlist.fanin_count nl i in
  let cell = Sta.cell_of_gate t.it_library (Netlist.gate_kind nl i) n_in in
  let load = Netlist.load_of nl i in
  let ctl_in_is_fall =
    match cell.Charlib.kind with Sweep.Nand -> true | Sweep.Nor -> false
  in
  (* per input position, the state and window of transition [tr] *)
  let input_info tr =
    List.init n_in (fun pos ->
        let j = Netlist.fanin_nth nl i pos in
        let w = t.it_windows.(j) in
        (pos, state t j tr, if tr = Value2f.Rise then w.rise else w.fall))
  in
  (* to-controlling: NAND needs falling inputs and produces a rise; every
     primitive inverts, so each response runs opposite to its inputs *)
  let ctl_tr = if ctl_in_is_fall then Value2f.Fall else Value2f.Rise in
  let non_tr = if ctl_in_is_fall then Value2f.Rise else Value2f.Fall in
  let windowing = t.it_windowing in
  let out_ctl =
    if state t i non_tr = -1 then None
    else ctl_window_refined ~windowing ~cell ~load (input_info ctl_tr)
  in
  let out_non =
    if state t i ctl_tr = -1 then None
    else non_window_refined ~windowing ~cell ~load (input_info non_tr)
  in
  if ctl_in_is_fall then { rise = out_ctl; fall = out_non }
  else { rise = out_non; fall = out_ctl }

let beq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let iv_beq a b =
  beq (Interval.lo a) (Interval.lo b) && beq (Interval.hi a) (Interval.hi b)

(* bitwise, so a [0.] / [-0.] change counts as a change *)
let win_beq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    iv_beq a.Types.w_arr b.Types.w_arr && iv_beq a.Types.w_tt b.Types.w_tt
  | Some _, None | None, Some _ -> false

let refresh_line t i =
  let nl = Implication.netlist t.it_impl in
  let w =
    if Netlist.is_pi nl i then
      (* PI windows shrink only via state (value) changes *)
      let w tr = if state t i tr = -1 then None else Some t.it_pi_win in
      { rise = w Value2f.Rise; fall = w Value2f.Fall }
    else gate_windows t i
  in
  let old = t.it_windows.(i) in
  t.it_windows.(i) <- w;
  not (win_beq old.rise w.rise && win_beq old.fall w.fall)

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
  Frontier.drain fr (fun fr i -> if refresh_line t i then push_fanouts t fr i)

let create ?(pi_spec = Sta.default_pi_spec) ?focus ~library ~model nl =
  let windowing =
    match model.Delay_model.windowing with
    | Some w -> w
    | None ->
      invalid_arg
        (Printf.sprintf "Itr.create: model %S cannot identify corners"
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
  let t =
    {
      it_library = library;
      it_windowing = windowing;
      it_pi_win = Sta.pi_window pi_spec;
      it_impl = Implication.create nl;
      it_windows = Array.make n { rise = None; fall = None };
      it_in_focus;
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
    it_windows = Array.copy t.it_windows;
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

let rise_window t i = t.it_windows.(i).rise
let fall_window t i = t.it_windows.(i).fall

let window_width_sum t =
  Array.fold_left
    (fun acc w ->
      let add acc = function
        | None -> acc
        | Some win -> acc +. Interval.width win.Types.w_arr
      in
      add (add acc w.rise) w.fall)
    0. t.it_windows
