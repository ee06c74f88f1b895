module Interval = Ssd_util.Interval
module Types = Ssd_core.Types
module Netlist = Ssd_circuit.Netlist
module Sta = Ssd_sta.Sta
module Engine = Ssd_sta.Engine
module Run_opts = Ssd_sta.Run_opts
module Windows = Ssd_sta.Windows
module Delay_model = Ssd_core.Delay_model
module Obs = Ssd_obs.Obs
module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Cellfn = Ssd_core.Cellfn

let beq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let iv_beq a b =
  beq (Interval.lo a) (Interval.lo b) && beq (Interval.hi a) (Interval.hi b)

let win_beq (a : Types.win) (b : Types.win) =
  iv_beq a.Types.w_arr b.Types.w_arr && iv_beq a.Types.w_tt b.Types.w_tt

let lt_beq (a : Sta.line_timing) (b : Sta.line_timing) =
  win_beq a.Sta.rise b.Sta.rise && win_beq a.Sta.fall b.Sta.fall

let sta_beq a b =
  Windows.plane_eq (Sta.windows a) ~plane:0 (Sta.windows b) ~plane:0

let analyze_ref ~library ~model nl =
  let windowing = Sta.windowing_of model in
  let pi_win = Sta.pi_window Sta.default_pi_spec in
  let timing =
    Array.make (Netlist.size nl) { Sta.rise = pi_win; fall = pi_win }
  in
  Array.iter
    (fun i ->
      timing.(i) <-
        Sta.eval_node ~windowing ~library nl
          (fun j -> timing.(j))
          ~pi_win ~extra:0. i)
    (Netlist.topo_order nl);
  timing

(* [remap_cells Fun.id] keeps every transfer function but yields a new
   model value, and only the registry value selects the flat kernel *)
let reference_model = Delay_model.remap_cells Fun.id Delay_model.proposed

let analyze_reference ?extra_delay ?pi_override opts ~library nl =
  Sta.analyze_with ?extra_delay ?pi_override opts ~library
    ~model:reference_model nl

let engine_reference ~library eng =
  let model =
    if Engine.model eng == Delay_model.proposed then reference_model
    else Engine.model eng
  in
  let nl = Engine.edited_netlist eng in
  Sta.analyze_with
    ~extra_delay:(Engine.extra_delay_of eng)
    ~pi_override:(fun i ->
      if Netlist.is_pi nl i then Some (Engine.pi_spec_of eng i) else None)
    Run_opts.(Engine.opts eng |> with_jobs 1 |> with_obs Obs.disabled)
    ~library ~model nl

(* ---- the record-array required-time walk ---------------------------- *)

type required = {
  q_rise : Interval.t;
  q_fall : Interval.t;
}

(* Backward required-time propagation.  For each gate, a required window on
   an output transition imposes windows on the input transitions that can
   cause it, offset by the pin delay bounds over the input's transition-time
   window. *)
let compute_required t ~clock_period =
  let nl = Sta.netlist t in
  let n = Netlist.size nl in
  let top = Interval.make 0. clock_period in
  let none = Interval.make neg_infinity infinity in
  let q = Array.make n { q_rise = none; q_fall = none } in
  let is_po =
    let arr = Array.make n false in
    List.iter (fun i -> arr.(i) <- true) (Netlist.outputs nl);
    arr
  in
  for i = 0 to n - 1 do
    if is_po.(i) then q.(i) <- { q_rise = top; q_fall = top }
  done;
  let tighten idx ~rise iv =
    let cur = q.(idx) in
    let merge a b =
      (* the line must satisfy every sink: latest-allowed shrinks to the
         min, earliest-allowed grows to the max *)
      let lo = Float.max (Interval.lo a) (Interval.lo b) in
      let hi = Float.min (Interval.hi a) (Interval.hi b) in
      (* a crossed requirement stays representable as an empty-ish window:
         collapse to [lo, lo] so violation checks still fire via A_L > Q_L *)
      if lo <= hi then Interval.make lo hi else Interval.make lo lo
    in
    if rise then q.(idx) <- { cur with q_rise = merge cur.q_rise iv }
    else q.(idx) <- { cur with q_fall = merge cur.q_fall iv }
  in
  (* walk gates in reverse topological order *)
  let order = Netlist.topo_order nl in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    if not (Netlist.is_pi nl i) then begin
      let kind = Netlist.gate_kind nl i in
      let n_in = Netlist.fanin_count nl i in
      let cell = Sta.cell_of_gate (Sta.library t) kind n_in in
      let load = Netlist.load_of nl i in
      let ctl_in_is_fall =
        match cell.Charlib.kind with Sweep.Nand -> true | Sweep.Nor -> false
      in
      let qi = q.(i) in
      for pos = 0 to n_in - 1 do
        let j = Netlist.fanin_nth nl i pos in
        let in_lt = Sta.timing t j in
        let propagate resp ~out_iv ~in_rise =
          let tt_win =
            if in_rise then in_lt.Sta.rise.Types.w_tt
            else in_lt.Sta.fall.Types.w_tt
          in
          let _, d_min = Cellfn.min_delay_over cell ~fanout:load resp ~pos tt_win in
          let _, d_max = Cellfn.max_delay_over cell ~fanout:load resp ~pos tt_win in
          let lo = Interval.lo out_iv -. d_min in
          let hi = Interval.hi out_iv -. d_max in
          let iv = if lo <= hi then Interval.make lo hi else Interval.make lo lo in
          tighten j ~rise:in_rise iv
        in
        (* to-controlling response *)
        let ctl_out = if ctl_in_is_fall then qi.q_rise else qi.q_fall in
        propagate Cellfn.Ctl ~out_iv:ctl_out ~in_rise:(not ctl_in_is_fall);
        (* to-non-controlling response *)
        let non_out = if ctl_in_is_fall then qi.q_fall else qi.q_rise in
        propagate Cellfn.Non ~out_iv:non_out ~in_rise:ctl_in_is_fall
      done
    end
  done;
  q

let violations t required =
  let nl = Sta.netlist t in
  let issues = ref [] in
  for i = Netlist.size nl - 1 downto 0 do
    let lt = Sta.timing t i in
    let r = required.(i) in
    let check label (w : Types.win) q =
      if Interval.hi w.Types.w_arr > Interval.hi q +. 1e-15 then
        issues :=
          ( i,
            Printf.sprintf "%s %s: arrives by %.3f ns but required by %.3f ns"
              (Netlist.signal_name nl i) label
              (Interval.hi w.Types.w_arr *. 1e9)
              (Interval.hi q *. 1e9) )
          :: !issues
      else if Interval.lo w.Types.w_arr < Interval.lo q -. 1e-15 then
        issues :=
          ( i,
            Printf.sprintf
              "%s %s: can arrive at %.3f ns but not allowed before %.3f ns"
              (Netlist.signal_name nl i) label
              (Interval.lo w.Types.w_arr *. 1e9)
              (Interval.lo q *. 1e9) )
          :: !issues
    in
    if Float.is_finite (Interval.hi r.q_rise) then check "rise" lt.Sta.rise r.q_rise;
    if Float.is_finite (Interval.hi r.q_fall) then check "fall" lt.Sta.fall r.q_fall
  done;
  !issues

let required_beq ?(plane = 0) packed oracle =
  let ok = ref true in
  Array.iteri
    (fun i r ->
      ok :=
        !ok
        && iv_beq (Sta.required_window ~plane packed i ~rise:true) r.q_rise
        && iv_beq (Sta.required_window ~plane packed i ~rise:false) r.q_fall)
    oracle;
  !ok
