module Interval = Ssd_util.Interval
module Types = Ssd_core.Types
module Netlist = Ssd_circuit.Netlist
module Sta = Ssd_sta.Sta
module Engine = Ssd_sta.Engine
module Run_opts = Ssd_sta.Run_opts
module Windows = Ssd_sta.Windows
module Delay_model = Ssd_core.Delay_model
module Obs = Ssd_obs.Obs

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
