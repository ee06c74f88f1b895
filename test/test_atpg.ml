module Ck = Ssd_circuit
module A = Ssd_atpg
module Fault = A.Fault
module Atpg = A.Atpg
module V = Ssd_itr.Value2f
module DM = Ssd_core.Delay_model
module Charlib = Ssd_cell.Charlib
module Sta = Ssd_sta.Sta
module RO = Ssd_sta.Run_opts

let lib = lazy (Charlib.default ~profile:Charlib.coarse ())
let c17_prim () = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ())

let clock_of nl =
  Sta.max_delay
    (Sta.analyze_with RO.default ~library:(Lazy.force lib) ~model:DM.proposed
       nl)

(* ---------- Fault extraction ---------- *)

let test_extract_valid_sites () =
  let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let sites = Fault.extract ~count:12 ~seed:1L nl in
  Alcotest.(check bool) "some sites" true (List.length sites > 0);
  List.iter
    (fun s ->
      Alcotest.(check bool) "distinct lines" true (s.Fault.aggressor <> s.Fault.victim);
      Alcotest.(check bool) "opposite directions" true
        (s.Fault.agg_tr <> s.Fault.vic_tr);
      Alcotest.(check bool) "positive delta" true (s.Fault.delta > 0.);
      (* the aggressor is never in the victim's cone or fanout *)
      let tf = Ck.Netlist.transitive_fanin nl s.Fault.victim in
      let tfo = Ck.Netlist.transitive_fanout nl s.Fault.victim in
      Alcotest.(check bool) "no structural dependence" false
        (List.mem s.Fault.aggressor tf || List.mem s.Fault.aggressor tfo))
    sites

let test_extract_deterministic () =
  let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let a = Fault.extract ~count:8 ~seed:5L nl in
  let b = Fault.extract ~count:8 ~seed:5L nl in
  Alcotest.(check bool) "same sites" true (a = b)

let test_extract_screened_sites () =
  let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let sites =
    Fault.extract_screened ~count:6 ~samples:40 ~seed:42L
      ~library:(Lazy.force lib) ~model:DM.proposed nl
  in
  Alcotest.(check bool) "screening returns sites" true (List.length sites > 0)

(* ---------- generation on c17 ---------- *)

let c17_site nl =
  let id s = Option.get (Ck.Netlist.find nl s) in
  {
    Fault.aggressor = id "10";
    victim = id "19";
    agg_tr = V.Fall;
    vic_tr = V.Rise;
    delta = 150e-12;
    align_window = 400e-12;
  }

let test_atpg_detects_on_c17 () =
  let nl = c17_prim () in
  let site = c17_site nl in
  let cfg = Atpg.default_config ~clock_period:(clock_of nl) in
  List.iter
    (fun use_itr ->
      let cfg = { cfg with Atpg.use_itr } in
      let r = Atpg.generate cfg ~library:(Lazy.force lib) ~model:DM.proposed nl site in
      match r.Atpg.outcome with
      | Atpg.Detected vector ->
        Alcotest.(check bool)
          (Printf.sprintf "verified (itr=%b)" use_itr)
          true
          (Atpg.verify_detection cfg ~library:(Lazy.force lib)
             ~model:DM.proposed nl site vector)
      | Atpg.Undetectable -> Alcotest.fail "expected detection, got undetectable"
      | Atpg.Aborted -> Alcotest.fail "expected detection, got abort")
    [ false; true ]

let test_atpg_undetectable_impossible_transition () =
  (* a victim that is constant cannot be excited: z = NAND(a, a') is
     constant 1, so a falling victim transition is impossible *)
  let nl =
    Ck.Bench_io.parse_string ~name:"red"
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(w)\nan = NOT(a)\n\
       z = NAND(a, an)\nw = NAND(a, b)\n"
  in
  let id s = Option.get (Ck.Netlist.find nl s) in
  let site =
    {
      Fault.aggressor = id "w";
      victim = id "z";
      agg_tr = V.Rise;
      vic_tr = V.Fall;
      delta = 150e-12;
      align_window = 400e-12;
    }
  in
  let cfg = Atpg.default_config ~clock_period:(clock_of nl) in
  let r = Atpg.generate cfg ~library:(Lazy.force lib) ~model:DM.proposed nl site in
  Alcotest.(check bool) "proven undetectable" true (r.Atpg.outcome = Atpg.Undetectable)

let test_atpg_undetectable_unobservable_victim () =
  (* the victim drives no primary output: trivially undetectable *)
  let nl =
    Ck.Bench_io.parse_string ~name:"dead"
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\ndeadend = NAND(a, b)\n\
       sink = NOT(deadend)\nz = NOT(a)\n"
  in
  let id s = Option.get (Ck.Netlist.find nl s) in
  let site =
    {
      Fault.aggressor = id "z";
      victim = id "sink";
      agg_tr = V.Fall;
      vic_tr = V.Rise;
      delta = 150e-12;
      align_window = 400e-12;
    }
  in
  let cfg = Atpg.default_config ~clock_period:(clock_of nl) in
  let r = Atpg.generate cfg ~library:(Lazy.force lib) ~model:DM.proposed nl site in
  Alcotest.(check bool) "unobservable is undetectable" true
    (r.Atpg.outcome = Atpg.Undetectable)

let test_atpg_run_and_stats () =
  let nl = c17_prim () in
  let sites = [ c17_site nl ] in
  let cfg = Atpg.default_config ~clock_period:(clock_of nl) in
  let results, stats =
    Atpg.run_with RO.default cfg ~library:(Lazy.force lib) ~model:DM.proposed
      nl sites
  in
  Alcotest.(check int) "results per site" 1 (List.length results);
  Alcotest.(check int) "total" 1 stats.Atpg.total;
  Alcotest.(check int) "accounted" 1
    (stats.Atpg.detected + stats.Atpg.undetectable + stats.Atpg.aborted);
  let e = Atpg.efficiency stats in
  Alcotest.(check bool) "efficiency in range" true (e >= 0. && e <= 100.)

let test_atpg_budget_respected () =
  let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let sites = Fault.extract ~count:2 ~align_window:20e-12 ~seed:3L nl in
  let cfg =
    { (Atpg.default_config ~clock_period:(clock_of nl)) with
      Atpg.max_expansions = 40 }
  in
  List.iter
    (fun site ->
      let r = Atpg.generate cfg ~library:(Lazy.force lib) ~model:DM.proposed nl site in
      Alcotest.(check bool) "expansions bounded" true
        (r.Atpg.expansions <= 41))
    sites

let test_atpg_restarts_end () =
  (* setup's implications fix every cone PI of this site and every
     random completion fails, so each restart descent expands nothing;
     without a charge per such descent the search never ended *)
  let nl =
    Ck.Decompose.to_primitive
      (Ck.Generator.generate
         { Ck.Generator.default_params with
           Ck.Generator.n_inputs = 6; n_outputs = 3; n_gates = 18;
           max_fanin = 3; seed = 1025L })
  in
  let name = Ck.Netlist.signal_name nl in
  let site =
    List.find
      (fun s ->
        name s.Fault.aggressor = "g9" && s.Fault.agg_tr = V.Rise
        && name s.Fault.victim = "g19" && s.Fault.vic_tr = V.Fall)
      (Fault.extract ~count:12 ~seed:2L nl)
  in
  let cfg =
    { (Atpg.default_config ~clock_period:(clock_of nl)) with
      Atpg.use_itr = false; max_expansions = 50 }
  in
  let r = Atpg.generate cfg ~library:(Lazy.force lib) ~model:DM.proposed nl site in
  Alcotest.(check bool) "aborted" true (r.Atpg.outcome = Atpg.Aborted);
  Alcotest.(check int) "the budget ended it" 50 r.Atpg.expansions

let test_verify_rejects_bad_vector () =
  let nl = c17_prim () in
  let site = c17_site nl in
  let cfg = Atpg.default_config ~clock_period:(clock_of nl) in
  (* an all-steady vector excites nothing *)
  let npi = List.length (Ck.Netlist.inputs nl) in
  let steady = Array.make npi (true, true) in
  Alcotest.(check bool) "steady vector rejected" false
    (Atpg.verify_detection cfg ~library:(Lazy.force lib) ~model:DM.proposed nl
       site steady)

(* ---------- fault simulation ---------- *)

let test_faultsim_detects_atpg_vector () =
  (* a vector the ATPG generated and verified for a site must also be
     reported by the fault simulator, and by the whole-circuit oracle *)
  let nl = c17_prim () in
  let site = c17_site nl in
  let cfg = Atpg.default_config ~clock_period:(clock_of nl) in
  let r = Atpg.generate cfg ~library:(Lazy.force lib) ~model:DM.proposed nl site in
  match r.Atpg.outcome with
  | Atpg.Detected vector ->
    List.iter
      (fun res ->
        Alcotest.(check (list (pair int int))) "site 0 detected by vector 0"
          [ (0, 0) ] res.A.Fault_sim.detected;
        Alcotest.(check (list int)) "nothing undetected" []
          res.A.Fault_sim.undetected)
      [ A.Fault_sim.simulate_with RO.default ~library:(Lazy.force lib)
          ~model:DM.proposed ~clock_period:(clock_of nl) nl [ site ]
          [ vector ];
        Test_support.fault_sim_reference ~library:(Lazy.force lib)
          ~model:DM.proposed ~clock_period:(clock_of nl) nl [ site ]
          [ vector ] ]
  | _ -> Alcotest.fail "expected the ATPG to detect the c17 site"

let test_faultsim_deterministic_c880s () =
  (* identical detected / coverage / undetected to the whole-circuit
     oracle at every lane count on c880s *)
  let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let clock = clock_of nl in
  let sites =
    Fault.extract ~count:64 ~delta:60e-12 ~align_window:2500e-12 ~seed:2L nl
  in
  let vectors = A.Fault_sim.random_vectors ~seed:6L ~count:24 nl in
  let expect =
    Test_support.fault_sim_reference ~library:(Lazy.force lib)
      ~model:DM.proposed ~clock_period:clock nl sites vectors
  in
  Alcotest.(check bool) "some sites detected (non-vacuous)" true
    (expect.A.Fault_sim.detected <> []);
  List.iter
    (fun jobs ->
      let r =
        A.Fault_sim.simulate_with (RO.make ~jobs ()) ~library:(Lazy.force lib)
          ~model:DM.proposed ~clock_period:clock nl sites vectors
      in
      let tag = Printf.sprintf "jobs %d" jobs in
      Alcotest.(check (list (pair int int))) (tag ^ " detected")
        expect.A.Fault_sim.detected r.A.Fault_sim.detected;
      Alcotest.(check (list int)) (tag ^ " undetected")
        expect.A.Fault_sim.undetected r.A.Fault_sim.undetected;
      Alcotest.(check (float 0.)) (tag ^ " coverage")
        expect.A.Fault_sim.coverage r.A.Fault_sim.coverage)
    [ 1; 2; 4; 0 ]

let prop_faultsim_matches_reference =
  (* on random primitive netlists, the production simulator (screen on
     and off, one and two lanes) reports what the whole-circuit oracle
     reports; the 400 ps alignment window keeps some sites out of reach,
     so a wrong excitation rule shows *)
  QCheck.Test.make ~name:"simulate_with == whole-circuit reference"
    ~count:8
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let nl =
        Ck.Decompose.to_primitive
          (Ck.Generator.generate
             {
               Ck.Generator.default_params with
               Ck.Generator.g_name = "fsim";
               n_inputs = 8;
               n_outputs = 4;
               n_gates = 40 + (seed mod 60);
               seed = Int64.of_int (seed + 1);
             })
      in
      let library = Lazy.force lib in
      let clock = clock_of nl in
      let sites =
        Fault.extract ~count:12 ~delta:80e-12 ~align_window:400e-12
          ~seed:(Int64.of_int seed) nl
      in
      let vectors =
        A.Fault_sim.random_vectors ~seed:(Int64.of_int (seed + 7)) ~count:32
          nl
      in
      let expect =
        Test_support.fault_sim_reference ~library ~model:DM.proposed
          ~clock_period:clock nl sites vectors
      in
      List.for_all
        (fun (jobs, window_screen) ->
          A.Fault_sim.simulate_with ~window_screen (RO.make ~jobs ())
            ~library ~model:DM.proposed ~clock_period:clock nl sites vectors
          = expect)
        [ (1, true); (1, false); (2, true) ])

let test_faultsim_empty_inputs () =
  let nl = c17_prim () in
  let clock = clock_of nl in
  let vectors = A.Fault_sim.random_vectors ~seed:1L ~count:4 nl in
  let no_sites =
    A.Fault_sim.simulate_with RO.default ~library:(Lazy.force lib)
      ~model:DM.proposed ~clock_period:clock nl [] vectors
  in
  Alcotest.(check (float 0.)) "no sites: 0 coverage" 0. no_sites.A.Fault_sim.coverage;
  let no_vectors =
    A.Fault_sim.simulate_with RO.default ~library:(Lazy.force lib)
      ~model:DM.proposed ~clock_period:clock nl [ c17_site nl ] []
  in
  Alcotest.(check (list int)) "no vectors: site undetected" [ 0 ]
    no_vectors.A.Fault_sim.undetected

let suites =
  [
    ( "atpg.fault",
      [
        Alcotest.test_case "valid sites" `Slow test_extract_valid_sites;
        Alcotest.test_case "deterministic" `Slow test_extract_deterministic;
        Alcotest.test_case "screened" `Slow test_extract_screened_sites;
      ] );
    ( "atpg.generate",
      [
        Alcotest.test_case "detects on c17" `Slow test_atpg_detects_on_c17;
        Alcotest.test_case "undetectable: constant victim" `Slow
          test_atpg_undetectable_impossible_transition;
        Alcotest.test_case "undetectable: unobservable victim" `Slow
          test_atpg_undetectable_unobservable_victim;
        Alcotest.test_case "run & stats" `Slow test_atpg_run_and_stats;
        Alcotest.test_case "budget respected" `Slow test_atpg_budget_respected;
        Alcotest.test_case "restarts end on the budget" `Quick
          test_atpg_restarts_end;
        Alcotest.test_case "verify rejects" `Slow test_verify_rejects_bad_vector;
      ] );
    ( "atpg.faultsim",
      [
        Alcotest.test_case "detects atpg vector" `Slow
          test_faultsim_detects_atpg_vector;
        Alcotest.test_case "deterministic on c880s" `Slow
          test_faultsim_deterministic_c880s;
        Alcotest.test_case "empty inputs" `Quick test_faultsim_empty_inputs;
      ] );
    ( "atpg.faultsim.props",
      [ QCheck_alcotest.to_alcotest prop_faultsim_matches_reference ] );
  ]
