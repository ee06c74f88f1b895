(* Tests for the toolkit extensions: SDF I/O, path reporting, the
   table-lookup comparator, crosstalk fault simulation and VCD export. *)

module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module RO = Ssd_sta.Run_opts
module Sdf = Ssd_sta.Sdf
module Path_report = Ssd_sta.Path_report
module DM = Ssd_core.Delay_model
module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Lookup = Ssd_cell.Lookup
module A = Ssd_atpg
module V = Ssd_itr.Value2f
module Interval = Ssd_util.Interval
module S = Ssd_spice

let tech = S.Tech.default
let lib = lazy (Charlib.default ~profile:Charlib.coarse ())
let c17_prim () = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ())
let tt_range = Interval.make 0.2e-9 1.5e-9

(* shared lookup table for the interpolation property (built once) *)
let lut_min = ref infinity
let lut_max = ref neg_infinity

let shared_lut =
  lazy
    (let t =
       Lookup.build ~t_grid:[ 0.3e-9; 0.9e-9 ]
         ~skew_grid:[ -0.5e-9; 0.; 0.5e-9 ] tech Sweep.Nand ~n:2 ~pos_a:0
         ~pos_b:1
     in
     (* extrema by dense probing of the grid corners *)
     List.iter
       (fun ta ->
         List.iter
           (fun tb ->
             List.iter
               (fun sk ->
                 let v = Lookup.pair_delay t ~t_a:ta ~t_b:tb ~skew:sk in
                 if v < !lut_min then lut_min := v;
                 if v > !lut_max then lut_max := v)
               [ -0.5e-9; 0.; 0.5e-9 ])
           [ 0.3e-9; 0.9e-9 ])
       [ 0.3e-9; 0.9e-9 ];
     t)

(* ---------- SDF ---------- *)

let test_sdf_roundtrip () =
  let nl = c17_prim () in
  let sdf = Sdf.of_netlist ~library:(Lazy.force lib) ~tt_range nl in
  Alcotest.(check int) "one cell per gate" (Ck.Netlist.gate_count nl)
    (List.length sdf.Sdf.cells);
  let text = Sdf.to_string sdf in
  let back = Sdf.parse_string text in
  Alcotest.(check string) "design preserved" sdf.Sdf.design back.Sdf.design;
  Alcotest.(check int) "cells preserved" (List.length sdf.Sdf.cells)
    (List.length back.Sdf.cells);
  (* numeric round trip within the printed precision *)
  let first t = List.hd t.Sdf.cells in
  let p1 = List.hd (first sdf).Sdf.paths and p2 = List.hd (first back).Sdf.paths in
  Alcotest.(check (float 1e-14)) "min delay survives" p1.Sdf.rise.Sdf.d_min
    p2.Sdf.rise.Sdf.d_min

let test_sdf_triples_ordered () =
  let nl = c17_prim () in
  let sdf = Sdf.of_netlist ~library:(Lazy.force lib) ~tt_range nl in
  List.iter
    (fun c ->
      List.iter
        (fun p ->
          let ordered t = t.Sdf.d_min <= t.Sdf.d_typ +. 1e-15 && t.Sdf.d_typ <= t.Sdf.d_max +. 1e-15 in
          Alcotest.(check bool) "rise min<=typ<=max" true (ordered p.Sdf.rise);
          Alcotest.(check bool) "fall min<=typ<=max" true (ordered p.Sdf.fall))
        c.Sdf.paths)
    sdf.Sdf.cells

let test_sdf_annotated_sta () =
  let nl = c17_prim () in
  let sdf = Sdf.of_netlist ~library:(Lazy.force lib) ~tt_range nl in
  let ann = Sdf.Annotated.create sdf nl in
  let sta =
    Sta.analyze_with
      (RO.make
         ~pi_spec:{ Sta.pi_arrival = Interval.point 0.; pi_tt = tt_range }
         ())
      ~library:(Lazy.force lib) ~model:DM.pin_to_pin nl
  in
  (* the SDF-annotated sweep is the pin-to-pin STA without transition-time
     propagation, so its bounds must agree with the pin-to-pin model's
     within the fit range (here: exactly, because both extremize the same
     fitted curves over the same tt window) *)
  let a = Sdf.Annotated.max_delay ann in
  let b = Sta.max_delay sta in
  Alcotest.(check bool)
    (Printf.sprintf "annotated max %.3f ~ sta max %.3f" (a *. 1e9) (b *. 1e9))
    true
    (Float.abs (a -. b) < 0.25 *. b);
  Alcotest.(check bool) "annotated min positive" true
    (Sdf.Annotated.min_delay ann > 0.)

let test_sdf_parse_errors () =
  let bad s =
    match Sdf.parse_string s with
    | exception Sdf.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "garbage" true (bad "(DELAYFILE (CELL (WHAT)))");
  Alcotest.(check bool) "unbalanced" true (bad "(DELAYFILE");
  Alcotest.(check bool) "not sdf" true (bad "(SOMETHING)")

(* ---------- Path report ---------- *)

let test_path_report_c17 () =
  let nl = c17_prim () in
  let sta =
    Sta.analyze_with RO.default ~library:(Lazy.force lib) ~model:DM.proposed nl
  in
  let paths = Path_report.critical_paths sta ~k:3 in
  Alcotest.(check int) "three paths" 3 (List.length paths);
  let worst = List.hd paths in
  Alcotest.(check (float 1e-15)) "worst path = max delay" (Sta.max_delay sta)
    worst.Path_report.p_delay;
  (* stages alternate transitions (all primitives invert) and end at the
     endpoint *)
  let rec alternates = function
    | a :: (b :: _ as rest) ->
      a.Path_report.s_transition <> b.Path_report.s_transition
      && alternates rest
    | _ -> true
  in
  Alcotest.(check bool) "transitions alternate" true
    (alternates worst.Path_report.stages);
  (match List.rev worst.Path_report.stages with
  | last :: _ ->
    Alcotest.(check int) "ends at endpoint" worst.Path_report.endpoint
      last.Path_report.node
  | [] -> Alcotest.fail "empty path");
  (* arrivals are non-decreasing along the path *)
  let rec nondecreasing = function
    | a :: (b :: _ as rest) ->
      b.Path_report.at >= a.Path_report.at -. 1e-15 && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "arrivals non-decreasing" true
    (nondecreasing worst.Path_report.stages)

let test_min_path_flags_speedup () =
  let nl = c17_prim () in
  let sta =
    Sta.analyze_with RO.default ~library:(Lazy.force lib) ~model:DM.proposed nl
  in
  let min_paths = Path_report.min_paths sta ~k:4 in
  Alcotest.(check bool) "have paths" true (min_paths <> []);
  let best = List.hd min_paths in
  Alcotest.(check (float 1e-15)) "min path = min delay" (Sta.min_delay sta)
    best.Path_report.p_delay;
  (* c17's min-delay under the proposed model involves a simultaneous
     speed-up (that is why Table 2 shows ratio > 1) *)
  Alcotest.(check bool) "speed-up stage flagged" true
    (List.exists (fun s -> s.Path_report.simultaneous) best.Path_report.stages);
  (* render *)
  let text = Path_report.to_string sta best in
  Alcotest.(check bool) "report mentions simultaneous" true
    (String.length text > 0)

(* ---------- Lookup table ---------- *)

let test_lookup_matches_simulator_on_grid () =
  let t =
    Lookup.build ~t_grid:[ 0.3e-9; 0.8e-9 ] ~skew_grid:[ -0.4e-9; 0.; 0.4e-9 ]
      tech Sweep.Nand ~n:2 ~pos_a:0 ~pos_b:1
  in
  Alcotest.(check int) "entries" 12 (Lookup.entries t);
  (* exact at grid points *)
  let sim =
    (Sweep.pair tech Sweep.Nand ~n:2 ~fanout:1 ~pos_a:0 ~pos_b:1 ~t_a:0.3e-9
       ~t_b:0.8e-9 ~skew:0.)
      .Sweep.m_delay
  in
  Alcotest.(check (float 1e-14)) "grid point exact" sim
    (Lookup.pair_delay t ~t_a:0.3e-9 ~t_b:0.8e-9 ~skew:0.)

let test_lookup_interpolates_and_clamps () =
  let t =
    Lookup.build ~t_grid:[ 0.3e-9; 0.9e-9 ] ~skew_grid:[ -0.5e-9; 0.; 0.5e-9 ]
      tech Sweep.Nand ~n:2 ~pos_a:0 ~pos_b:1
  in
  let mid = Lookup.pair_delay t ~t_a:0.6e-9 ~t_b:0.6e-9 ~skew:0.25e-9 in
  Alcotest.(check bool) "interpolation in range" true
    (mid > 10e-12 && mid < 1e-9);
  let clamped = Lookup.pair_delay t ~t_a:5e-9 ~t_b:5e-9 ~skew:10e-9 in
  let corner = Lookup.pair_delay t ~t_a:0.9e-9 ~t_b:0.9e-9 ~skew:0.5e-9 in
  Alcotest.(check (float 1e-14)) "clamps to corner" corner clamped

(* ---------- Fault simulation ---------- *)

let test_fault_sim_detects_atpg_vector () =
  let nl = c17_prim () in
  let id s = Option.get (Ck.Netlist.find nl s) in
  let site =
    {
      A.Fault.aggressor = id "10";
      victim = id "19";
      agg_tr = V.Fall;
      vic_tr = V.Rise;
      delta = 150e-12;
      align_window = 400e-12;
    }
  in
  let sta =
    Sta.analyze_with RO.default ~library:(Lazy.force lib) ~model:DM.proposed nl
  in
  let cfg = A.Atpg.default_config ~clock_period:(Sta.max_delay sta) in
  let r = A.Atpg.generate cfg ~library:(Lazy.force lib) ~model:DM.proposed nl site in
  match r.A.Atpg.outcome with
  | A.Atpg.Detected vector ->
    let res =
      A.Fault_sim.simulate_with RO.default ~library:(Lazy.force lib)
        ~model:DM.proposed ~clock_period:(Sta.max_delay sta) nl [ site ]
        [ vector ]
    in
    Alcotest.(check (float 1e-9)) "100% coverage" 100. res.A.Fault_sim.coverage;
    Alcotest.(check bool) "detected by vector 0" true
      (res.A.Fault_sim.detected = [ (0, 0) ])
  | _ -> Alcotest.fail "expected a detection on c17"

let test_fault_sim_random_baseline () =
  let nl = c17_prim () in
  let id s = Option.get (Ck.Netlist.find nl s) in
  let site =
    {
      A.Fault.aggressor = id "10";
      victim = id "19";
      agg_tr = V.Fall;
      vic_tr = V.Rise;
      delta = 150e-12;
      align_window = 400e-12;
    }
  in
  let sta =
    Sta.analyze_with RO.default ~library:(Lazy.force lib) ~model:DM.proposed nl
  in
  let vectors = A.Fault_sim.random_vectors ~seed:5L ~count:64 nl in
  Alcotest.(check int) "vector count" 64 (List.length vectors);
  let res =
    A.Fault_sim.simulate_with RO.default ~library:(Lazy.force lib)
      ~model:DM.proposed ~clock_period:(Sta.max_delay sta) nl [ site ] vectors
  in
  Alcotest.(check bool) "coverage bounded" true
    (res.A.Fault_sim.coverage >= 0. && res.A.Fault_sim.coverage <= 100.);
  Alcotest.(check bool) "bookkeeping consistent" true
    (List.length res.A.Fault_sim.detected
     + List.length res.A.Fault_sim.undetected
    = 1)

(* ---------- VCD ---------- *)

let test_vcd_export () =
  let c = S.Circuit.create tech in
  let input = S.Circuit.node c "in" and output = S.Circuit.node c "out" in
  S.Gates.inverter c ~input ~output;
  S.Circuit.drive c input
    (S.Gates.rising_input tech ~arrival:0.5e-9 ~t_transition:0.3e-9);
  let fz = S.Circuit.freeze c in
  let result =
    S.Transient.simulate
      ~options:{ S.Transient.default_options with S.Transient.t_stop = 2e-9 }
      fz
  in
  let vcd = S.Vcd.of_result fz result ~nodes:[ input; output ] in
  Alcotest.(check bool) "has header" true
    (String.length vcd > 0
    && String.sub vcd 0 5 = "$date");
  let count_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  in
  Alcotest.(check int) "two variables declared" 2 (count_sub "$var real" vcd);
  Alcotest.(check bool) "has timesteps" true (count_sub "#" vcd > 10)

(* ---------- property tests over generated circuits ---------- *)

let prop_sdf_roundtrip_generated =
  QCheck.Test.make ~name:"SDF roundtrip on generated circuits" ~count:8
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let nl =
        Ck.Decompose.to_primitive
          (Ck.Generator.generate
             { Ck.Generator.default_params with
               Ck.Generator.n_inputs = 6; n_outputs = 3; n_gates = 25;
               seed = Int64.of_int seed })
      in
      let sdf = Sdf.of_netlist ~library:(Lazy.force lib) ~tt_range nl in
      let back = Sdf.parse_string (Sdf.to_string sdf) in
      List.length back.Sdf.cells = Ck.Netlist.gate_count nl
      && List.for_all2
           (fun a b ->
             a.Sdf.instance = b.Sdf.instance
             && List.length a.Sdf.paths = List.length b.Sdf.paths)
           sdf.Sdf.cells back.Sdf.cells)

let prop_paths_match_po_windows =
  QCheck.Test.make ~name:"traced path delay equals the PO window bound"
    ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let nl =
        Ck.Decompose.to_primitive
          (Ck.Generator.generate
             { Ck.Generator.default_params with
               Ck.Generator.n_inputs = 8; n_outputs = 4; n_gates = 40;
               seed = Int64.of_int seed })
      in
      let sta =
        Sta.analyze_with RO.default ~library:(Lazy.force lib)
          ~model:DM.proposed nl
      in
      List.for_all
        (fun po ->
          let lt = Sta.timing sta po in
          let p = Path_report.longest_path sta ~endpoint:po Path_report.Rise in
          let m = Path_report.shortest_path sta ~endpoint:po Path_report.Fall in
          Float.abs
            (p.Path_report.p_delay
            -. Interval.hi lt.Sta.rise.Ssd_core.Types.w_arr)
          < 1e-15
          && Float.abs
               (m.Path_report.p_delay
               -. Interval.lo lt.Sta.fall.Ssd_core.Types.w_arr)
             < 1e-15)
        (Ck.Netlist.outputs nl))

let prop_lookup_within_table_range =
  QCheck.Test.make ~name:"lookup interpolation stays within cell bounds"
    ~count:30
    QCheck.(triple (float_range 0.3e-9 0.9e-9) (float_range 0.3e-9 0.9e-9)
              (float_range (-0.5e-9) 0.5e-9))
    (fun (t_a, t_b, skew) ->
      (* shared small table: trilinear interpolation of a bounded table is
         bounded by the table's extrema *)
      let t = Lazy.force shared_lut in
      let v = Lookup.pair_delay t ~t_a ~t_b ~skew in
      v >= !lut_min -. 1e-15 && v <= !lut_max +. 1e-15)

let suites =
  [
    ( "sta.sdf",
      [
        Alcotest.test_case "roundtrip" `Slow test_sdf_roundtrip;
        Alcotest.test_case "triples ordered" `Slow test_sdf_triples_ordered;
        Alcotest.test_case "annotated sta" `Slow test_sdf_annotated_sta;
        Alcotest.test_case "parse errors" `Quick test_sdf_parse_errors;
      ] );
    ( "sta.paths",
      [
        Alcotest.test_case "critical paths" `Slow test_path_report_c17;
        Alcotest.test_case "min path speedup flag" `Slow
          test_min_path_flags_speedup;
      ] );
    ( "cell.lookup",
      [
        Alcotest.test_case "grid exact" `Slow test_lookup_matches_simulator_on_grid;
        Alcotest.test_case "interpolate & clamp" `Slow
          test_lookup_interpolates_and_clamps;
      ] );
    ( "atpg.fault_sim",
      [
        Alcotest.test_case "detects ATPG vector" `Slow
          test_fault_sim_detects_atpg_vector;
        Alcotest.test_case "random baseline" `Slow test_fault_sim_random_baseline;
      ] );
    ("spice.vcd", [ Alcotest.test_case "export" `Quick test_vcd_export ]);
    ( "extras.props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_sdf_roundtrip_generated;
          prop_paths_match_po_windows;
          prop_lookup_within_table_range;
        ] );
  ]
