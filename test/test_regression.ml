(* Cross-cutting regression and stress tests: end-to-end flows, numeric
   edge cases, and invariants that span several libraries. *)

module Ck = Ssd_circuit
module S = Ssd_spice
module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module DM = Ssd_core.Delay_model
module Types = Ssd_core.Types
module Vshape = Ssd_core.Vshape
module Cellfn = Ssd_core.Cellfn
module Sta = Ssd_sta.Sta
module RO = Ssd_sta.Run_opts
module TS = Ssd_sta.Timing_sim
module Interval = Ssd_util.Interval
module Rng = Ssd_util.Rng

let tech = S.Tech.default
let lib = lazy (Charlib.default ~profile:Charlib.coarse ())

let tr pos arrival t_tr = { Types.pos; arrival; t_tr }

(* ---------- cross-library end-to-end flows ---------- *)

let test_generated_circuit_full_flow () =
  (* generate -> decompose -> STA both models -> timing sim containment *)
  let nl =
    Ck.Generator.generate
      { Ck.Generator.default_params with
        Ck.Generator.n_inputs = 10; n_outputs = 4; n_gates = 60; seed = 77L }
  in
  let prim = Ck.Decompose.to_primitive nl in
  let pi_spec =
    { Sta.pi_arrival = Interval.point 0.; pi_tt = Interval.point 0.25e-9 }
  in
  let analyze model =
    Sta.analyze_with (RO.make ~pi_spec ()) ~library:(Lazy.force lib) ~model prim
  in
  let prop = analyze DM.proposed in
  let p2p = analyze DM.pin_to_pin in
  Alcotest.(check (float 1e-15)) "same max" (Sta.max_delay p2p) (Sta.max_delay prop);
  Alcotest.(check bool) "proposed min <= p2p min" true
    (Sta.min_delay prop <= Sta.min_delay p2p +. 1e-15);
  (* timing-sim events stay inside the proposed-model windows *)
  let rng = Rng.create 3L in
  for _ = 1 to 5 do
    let npi = List.length (Ck.Netlist.inputs prim) in
    let vec = Array.init npi (fun _ -> (Rng.bool rng, Rng.bool rng)) in
    let lines =
      TS.simulate ~pi_arrival:0. ~pi_tt:0.25e-9 ~library:(Lazy.force lib)
        ~model:DM.proposed prim vec
    in
    for i = 0 to Ck.Netlist.size prim - 1 do
      match TS.event lines i with
      | None -> ()
      | Some e ->
        let lt = Sta.timing prop i in
        let w = if not (TS.v1 lines i) then lt.Sta.rise else lt.Sta.fall in
        Alcotest.(check bool)
          (Printf.sprintf "event at node %d inside window" i)
          true
          (Interval.contains w.Types.w_arr e.Types.e_arr
          && Interval.contains w.Types.w_tt e.Types.e_tt)
    done
  done

let test_nor_cells_model_accuracy () =
  (* the NOR side of the library gets the same treatment as NAND *)
  let cell = Charlib.find (Lazy.force lib) Sweep.Nor 2 in
  let t = 0.5e-9 in
  let sim skew =
    (Sweep.pair ~sim_h:4e-12 tech Sweep.Nor ~n:2 ~fanout:1 ~pos_a:0 ~pos_b:1
       ~t_a:t ~t_b:t ~skew)
      .Sweep.m_delay
  in
  List.iter
    (fun skew ->
      let m = Vshape.pair_delay cell ~fanout:1 ~a:(tr 0 0. t) ~b:(tr 1 skew t) in
      let s = sim skew in
      Alcotest.(check bool)
        (Printf.sprintf "NOR model within 45ps at %.0fps (err %.0fps)"
           (skew *. 1e12)
           (Float.abs (m -. s) *. 1e12))
        true
        (Float.abs (m -. s) < 45e-12))
    [ -0.8e-9; 0.; 0.8e-9 ];
  (* the V minimum for NOR is also at zero skew *)
  Alcotest.(check bool) "nor valley at zero" true (sim 0. < sim 0.4e-9)

let test_inverter_cell_as_nand1 () =
  let cell = Charlib.find (Lazy.force lib) Sweep.Nand 1 in
  Alcotest.(check int) "single input" 1 cell.Charlib.n;
  Alcotest.(check bool) "no pairs" true (cell.Charlib.pairs = []);
  let e = Vshape.ctl_event cell ~fanout:1 [ tr 0 1e-9 0.4e-9 ] in
  Alcotest.(check bool) "inverter event sane" true
    (e.Types.e_arr > 1e-9 && e.Types.e_arr < 1.5e-9)

(* ---------- numeric edge cases ---------- *)

let test_model_at_range_boundaries () =
  let cell = Charlib.find (Lazy.force lib) Sweep.Nand 2 in
  let lo, hi = cell.Charlib.t_range in
  (* extreme transition times clamp instead of extrapolating *)
  List.iter
    (fun t ->
      let d =
        Vshape.pair_delay cell ~fanout:1 ~a:(tr 0 0. t) ~b:(tr 1 0. t)
      in
      Alcotest.(check bool)
        (Printf.sprintf "delay finite and positive at T=%.2e" t)
        true
        (Float.is_finite d && d > -50e-12 && d < 2e-9))
    [ lo /. 10.; lo; hi; hi *. 3. ]

let test_model_extreme_skews () =
  let cell = Charlib.find (Lazy.force lib) Sweep.Nand 2 in
  let d skew =
    Vshape.pair_delay cell ~fanout:1 ~a:(tr 0 0. 0.5e-9) ~b:(tr 1 skew 0.5e-9)
  in
  (* ±1 µs skew: fully saturated, exactly the pin-to-pin delays *)
  Alcotest.(check (float 1e-15)) "huge positive skew" (d 1e-9 *. 0. +. d 1e-6)
    (d 1e-6);
  Alcotest.(check bool) "finite at huge skews" true
    (Float.is_finite (d 1e-6) && Float.is_finite (d (-1e-6)))

let test_window_functions_degenerate_inputs () =
  let cell = Charlib.find (Lazy.force lib) Sweep.Nand 2 in
  let w =
    {
      Types.w_arr = Interval.point 1e-9;
      w_tt = Interval.point 0.3e-9;
    }
  in
  let out =
    Vshape.ctl_window cell ~fanout:1
      [ { Types.wpos = 0; window = w }; { Types.wpos = 1; window = w } ]
  in
  Alcotest.(check bool) "degenerate inputs give tight output" true
    (Interval.width out.Types.w_arr < 120e-12);
  (* single-input window list also works *)
  let out1 =
    Vshape.ctl_window cell ~fanout:1 [ { Types.wpos = 0; window = w } ]
  in
  Alcotest.(check bool) "single-input window" true
    (Interval.lo out1.Types.w_arr > 1e-9)

let test_load_monotonicity_in_models () =
  let cell = Charlib.find (Lazy.force lib) Sweep.Nand 2 in
  let e fanout =
    (Vshape.ctl_event cell ~fanout [ tr 0 0. 0.5e-9; tr 1 0. 0.5e-9 ])
      .Types.e_arr
  in
  Alcotest.(check bool) "more load, later arrival" true (e 6 >= e 1)

(* ---------- bench/CLI building blocks ---------- *)

let test_fig10_cell_characterizes_without_pairs () =
  let cell =
    Charlib.characterize_cell ~with_pairs:false Charlib.coarse tech Sweep.Nand
      ~n:5
  in
  Alcotest.(check int) "five pins" 5 (Array.length cell.Charlib.to_ctl);
  Alcotest.(check bool) "no pairs" true (cell.Charlib.pairs = []);
  (* the model still answers single and (fallback) pair queries *)
  let d = DM.proposed.DM.single_delay cell ~fanout:1 ~pos:4 ~t_in:0.5e-9 in
  Alcotest.(check bool) "position-4 delay" true (d > 0. && d < 1e-9);
  let pair =
    DM.proposed.DM.pair_delay cell ~fanout:1 ~a:(tr 0 0. 0.5e-9)
      ~b:(tr 4 0. 0.5e-9)
  in
  Alcotest.(check bool) "pair falls back to pin composition" true
    (Float.is_finite pair && pair > 0.)

let test_table2_suite_decomposes_and_analyzes () =
  (* the full Table 2 pipeline runs end to end on every suite member *)
  List.iter
    (fun nl ->
      let prim = Ck.Decompose.to_primitive nl in
      let sta =
        Sta.analyze_with RO.default ~library:(Lazy.force lib)
          ~model:DM.proposed prim
      in
      Alcotest.(check bool)
        (Ck.Netlist.name nl ^ " sane window")
        true
        (Sta.min_delay sta > 0. && Sta.max_delay sta > Sta.min_delay sta))
    (Ck.Benchmarks.table2_suite ())

let suites =
  [
    ( "regression.flows",
      [
        Alcotest.test_case "generated circuit full flow" `Slow
          test_generated_circuit_full_flow;
        Alcotest.test_case "NOR cells" `Slow test_nor_cells_model_accuracy;
        Alcotest.test_case "inverter as NAND1" `Slow test_inverter_cell_as_nand1;
        Alcotest.test_case "table2 suite end-to-end" `Slow
          test_table2_suite_decomposes_and_analyzes;
      ] );
    ( "regression.edges",
      [
        Alcotest.test_case "range boundaries" `Slow test_model_at_range_boundaries;
        Alcotest.test_case "extreme skews" `Slow test_model_extreme_skews;
        Alcotest.test_case "degenerate windows" `Slow
          test_window_functions_degenerate_inputs;
        Alcotest.test_case "load monotone" `Slow test_load_monotonicity_in_models;
        Alcotest.test_case "pairless characterization" `Slow
          test_fig10_cell_characterizes_without_pairs;
      ] );
  ]
