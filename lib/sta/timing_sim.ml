module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Types = Ssd_core.Types
module Delay_model = Ssd_core.Delay_model
module Netlist = Ssd_circuit.Netlist
module Frontier = Ssd_circuit.Frontier

(* Structure-of-arrays line store: one flag byte per line (bit 0 = frame-1
   value, bit 1 = frame-2 value, bit 2 = event present) plus two flat
   float arrays for the event's arrival and transition time.  A 100k-line
   result costs ~17 bytes/line in three allocations instead of a record
   (plus an event box) per line, and the simulation inner loop reads the
   fan-in events without chasing per-line pointers. *)
type lines = {
  ln_flags : Bytes.t;
  ln_arr : float array;
  ln_tt : float array;
}

let f_v1 = 1
let f_v2 = 2
let f_event = 4

let create n =
  { ln_flags = Bytes.make n '\000';
    ln_arr = Array.make n 0.;
    ln_tt = Array.make n 0. }

let empty = create 0

let length t = Bytes.length t.ln_flags

let copy t =
  { ln_flags = Bytes.copy t.ln_flags;
    ln_arr = Array.copy t.ln_arr;
    ln_tt = Array.copy t.ln_tt }

let flags t i = Char.code (Bytes.get t.ln_flags i)
let v1 t i = flags t i land f_v1 <> 0
let v2 t i = flags t i land f_v2 <> 0
let has_event t i = flags t i land f_event <> 0

let rising_at t i =
  let f = flags t i in
  f land f_v1 = 0 && f land f_v2 <> 0

let falling_at t i =
  let f = flags t i in
  f land f_v1 <> 0 && f land f_v2 = 0

let event_arr t i = t.ln_arr.(i)
let event_tt t i = t.ln_tt.(i)

let event t i =
  if has_event t i then Some { Types.e_arr = t.ln_arr.(i); e_tt = t.ln_tt.(i) }
  else None

let set t i ~v1 ~v2 ~event =
  let f =
    (if v1 then f_v1 else 0)
    lor (if v2 then f_v2 else 0)
    lor (match event with Some _ -> f_event | None -> 0)
  in
  Bytes.set t.ln_flags i (Char.chr f);
  match event with
  | Some e ->
    t.ln_arr.(i) <- e.Types.e_arr;
    t.ln_tt.(i) <- e.Types.e_tt
  | None ->
    t.ln_arr.(i) <- 0.;
    t.ln_tt.(i) <- 0.

(* Event computation for one gate, shared by the full simulation and the
   incremental re-simulation.  [src] is the line store the fan-in events
   are read from; both callers perform the same floating-point operations
   in the same order, which is what makes re-simulation bit-identical to
   a full run. *)
let gate_event ~library ~model ~pi_tt ~extra_delay nl ~src i kind out1 out2 =
  let n_in = Netlist.fanin_count nl i in
  let cell =
    (* reuse the STA cell lookup (including its unsupported-gate error
       reporting); looked up even for a static output so non-primitive
       gates are always rejected *)
    Sta.cell_of_gate library kind n_in
  in
  if out1 = out2 then None
  else begin
    let load = Netlist.load_of nl i in
    let ctl_in_is_fall =
      match cell.Charlib.kind with
      | Sweep.Nand -> true
      | Sweep.Nor -> false
    in
    let out_rises = (not out1) && out2 in
    (* which input transition direction caused this response *)
    let causal_is_ctl = out_rises = ctl_in_is_fall in
    let wanted j =
      if causal_is_ctl then
        if ctl_in_is_fall then falling_at src j else rising_at src j
      else if ctl_in_is_fall then rising_at src j
      else falling_at src j
    in
    let transitions =
      let acc = ref [] in
      for pos = n_in - 1 downto 0 do
        let j = Netlist.fanin_nth nl i pos in
        if has_event src j && wanted j then
          acc :=
            { Types.pos; arrival = event_arr src j; t_tr = event_tt src j }
            :: !acc
      done;
      !acc
    in
    match transitions with
    | [] ->
      (* a static output change without a causal input event can only
         arise from a hazard we do not model; treat as instantaneous
         inheritance of the latest input event *)
      let latest = ref 0. in
      for pos = 0 to n_in - 1 do
        let j = Netlist.fanin_nth nl i pos in
        if has_event src j then latest := Float.max !latest (event_arr src j)
      done;
      Some { Types.e_arr = !latest +. extra_delay i; e_tt = pi_tt }
    | _ ->
      let e =
        if causal_is_ctl then
          model.Delay_model.ctl_event cell ~fanout:load transitions
        else model.Delay_model.non_event cell ~fanout:load transitions
      in
      Some { e with Types.e_arr = e.Types.e_arr +. extra_delay i }
  end

(* A switching PI's event: the point arrival plus its extra delay. *)
let pi_event ~pi_arrival ~pi_tt ~extra_delay i a1 a2 =
  if a1 <> a2 then
    Some { Types.e_arr = pi_arrival +. extra_delay i; e_tt = pi_tt }
  else None

let simulate ?(pi_arrival = 0.) ?(pi_tt = 0.25e-9) ?(extra_delay = fun _ -> 0.)
    ~library ~model nl vectors =
  let pis = Netlist.inputs nl in
  if Array.length vectors <> List.length pis then
    invalid_arg "Timing_sim.simulate: PI vector arity mismatch";
  let n = Netlist.size nl in
  let out = create n in
  List.iteri
    (fun rank i ->
      let a1, a2 = vectors.(rank) in
      set out i ~v1:a1 ~v2:a2
        ~event:(pi_event ~pi_arrival ~pi_tt ~extra_delay i a1 a2))
    pis;
  Array.iter
    (fun i ->
      if not (Netlist.is_pi nl i) then begin
        let kind = Netlist.gate_kind nl i in
        let n_in = Netlist.fanin_count nl i in
        let a1 =
          Ssd_circuit.Gate.eval_fanin kind
            (fun p -> v1 out (Netlist.fanin_nth nl i p))
            n_in
        in
        let a2 =
          Ssd_circuit.Gate.eval_fanin kind
            (fun p -> v2 out (Netlist.fanin_nth nl i p))
            n_in
        in
        let event =
          gate_event ~library ~model ~pi_tt ~extra_delay nl ~src:out i kind a1
            a2
        in
        set out i ~v1:a1 ~v2:a2 ~event
      end)
    (Netlist.topo_order nl);
  out

(* A line's event moved iff it switches and its arrival or transition
   time differs from the fault-free run's bit for bit; logic frames never
   change under an extra delay, so the flag byte cannot. *)
let moved ~base out i =
  has_event base i
  && not
       (Int64.equal
          (Int64.bits_of_float (event_arr base i))
          (Int64.bits_of_float (event_arr out i))
       && Int64.equal
            (Int64.bits_of_float (event_tt base i))
            (Int64.bits_of_float (event_tt out i)))

let resimulate ?(pi_arrival = 0.) ?(pi_tt = 0.25e-9) ~library ~model nl ~base
    ~line ~delta =
  let n = Netlist.size nl in
  if length base <> n then
    invalid_arg "Timing_sim.resimulate: line store size mismatch";
  if line < 0 || line >= n then
    invalid_arg "Timing_sim.resimulate: line out of range";
  if not (Float.is_finite delta) then
    invalid_arg "Timing_sim.resimulate: delta is not finite";
  let extra_delay i = if i = line then delta else 0. in
  (* every line starts at its fault-free record; the domain's frontier
     then re-times only lines whose fan-in events moved.  A re-timed
     line whose event moved pushes each of its switching fan-outs (a
     static line has no event to move), so each node is re-timed once,
     after every fan-in it reads, through the same [gate_event]
     arithmetic as [simulate] *)
  let out = copy base in
  let fr = Frontier.get nl in
  Frontier.push fr line;
  Frontier.drain fr (fun fr i ->
      let a1 = v1 base i and a2 = v2 base i in
      let event =
        if Netlist.is_pi nl i then
          pi_event ~pi_arrival ~pi_tt ~extra_delay i a1 a2
        else
          gate_event ~library ~model ~pi_tt ~extra_delay nl ~src:out i
            (Netlist.gate_kind nl i) a1 a2
      in
      set out i ~v1:a1 ~v2:a2 ~event;
      if moved ~base out i then
        for p = 0 to Netlist.fanout_count nl i - 1 do
          let j = Netlist.fanout_nth nl i p in
          if has_event base j then Frontier.push fr j
        done);
  out

let po_latest nl lines =
  List.fold_left
    (fun acc i ->
      if has_event lines i then
        let a = event_arr lines i in
        match acc with
        | Some best -> Some (Float.max best a)
        | None -> Some a
      else acc)
    None (Netlist.outputs nl)
