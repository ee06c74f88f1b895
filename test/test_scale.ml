(* Scale-substrate properties: the packed structure-of-arrays STA path
   against the seed record-array oracle at >= 10k gates, determinism of
   the parallel schedule, and the generator's structural invariants
   (exact PO count, honored fan-in cap — including caps beyond 4 — and
   acyclicity, which Netlist.build enforces). *)

module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module RO = Ssd_sta.Run_opts
module Windows = Ssd_sta.Windows
module DM = Ssd_core.Delay_model
module Charlib = Ssd_cell.Charlib

open Test_support

let lib = lazy (Charlib.default ~profile:Charlib.coarse ())

(* a >= 10k-gate primitive circuit per seed; layered so the level widths
   stay wide enough to exercise the level CSR and the parallel schedule *)
let big_prim seed =
  Ck.Decompose.to_primitive
    (Ck.Generator.generate
       {
         Ck.Generator.default_params with
         Ck.Generator.g_name = Printf.sprintf "scale%d" seed;
         n_inputs = 64;
         n_outputs = 32;
         n_gates = 10_000;
         locality = 256;
         seed = Int64.of_int (seed + 101);
         shape = Ck.Generator.Layered { layers = 40 };
       })

let prop_soa_matches_ref =
  QCheck.Test.make ~name:"packed STA bit-identical to record-array oracle"
    ~count:3
    QCheck.(int_range 0 1000)
    (fun seed ->
      let nl = big_prim seed in
      let lib = Lazy.force lib in
      let oracle = analyze_ref ~library:lib ~model:DM.proposed nl in
      let t = Sta.analyze_with RO.default ~library:lib ~model:DM.proposed nl in
      let w = Sta.windows t in
      let ok = ref true in
      for i = 0 to Ck.Netlist.size nl - 1 do
        (* both through the materializing accessor and the packed
           bitwise comparison *)
        if not (lt_beq oracle.(i) (Sta.timing t i)) then ok := false;
        if not (Windows.eq w i ~rise:oracle.(i).Sta.rise ~fall:oracle.(i).Sta.fall)
        then ok := false
      done;
      !ok)

let prop_jobs_deterministic =
  QCheck.Test.make ~name:"analyze bit-identical across jobs 1/4/8" ~count:2
    QCheck.(int_range 0 1000)
    (fun seed ->
      let nl = big_prim seed in
      let lib = Lazy.force lib in
      let analyze jobs =
        Sta.analyze_with (RO.make ~jobs ()) ~library:lib ~model:DM.proposed nl
      in
      let base = analyze 1 in
      List.for_all
        (fun jobs ->
          let t = analyze jobs in
          let ok = ref true in
          for i = 0 to Ck.Netlist.size nl - 1 do
            if not (lt_beq (Sta.timing base i) (Sta.timing t i)) then
              ok := false
          done;
          !ok)
        [ 4; 8 ])

let gen_invariants ~shape ~max_fanin seed =
  let p =
    {
      Ck.Generator.default_params with
      Ck.Generator.g_name = "inv";
      n_inputs = 32;
      n_outputs = 17;
      n_gates = 2_000;
      max_fanin;
      seed = Int64.of_int (seed + 7);
      shape;
    }
  in
  (* Netlist.build validates acyclicity, so generate succeeding is the
     acyclicity check *)
  let nl = Ck.Generator.generate p in
  let po_count_ok =
    List.length (Ck.Netlist.outputs nl) = p.Ck.Generator.n_outputs
  in
  let fanin_ok = ref true in
  let wide_seen = ref 0 in
  for i = 0 to Ck.Netlist.size nl - 1 do
    if not (Ck.Netlist.is_pi nl i) then begin
      let a = Ck.Netlist.fanin_count nl i in
      if a < 1 || a > max_fanin then fanin_ok := false;
      if a > 4 then incr wide_seen
    end
  done;
  (* with a cap beyond 4, the wide tail must actually be used *)
  let wide_ok = max_fanin <= 4 || !wide_seen > 0 in
  po_count_ok && !fanin_ok && wide_ok

let prop_generator_invariants =
  QCheck.Test.make
    ~name:"generator: exact PO count, fan-in cap honored, acyclic" ~count:6
    QCheck.(pair (int_range 0 1000) (int_range 2 8))
    (fun (seed, max_fanin) ->
      gen_invariants ~shape:Ck.Generator.Organic ~max_fanin seed
      && gen_invariants
           ~shape:(Ck.Generator.Layered { layers = 25 })
           ~max_fanin seed)

let test_layered_levels () =
  (* the layered shape pins depth = layers and non-trivial level widths *)
  let layers = 40 in
  let nl =
    Ck.Generator.generate
      {
        Ck.Generator.default_params with
        Ck.Generator.g_name = "layered";
        n_inputs = 64;
        n_outputs = 32;
        n_gates = 4_000;
        seed = 5L;
        shape = Ck.Generator.Layered { layers };
      }
  in
  Alcotest.(check int) "depth = layers" layers (Ck.Netlist.depth nl);
  for l = 1 to Ck.Netlist.level_count nl - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "level %d populated" l)
      true
      (Ck.Netlist.level_width nl l > 0)
  done

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "scale.substrate",
      [
        Alcotest.test_case "layered levels" `Slow test_layered_levels;
      ] );
    qsuite "scale.props"
      [ prop_soa_matches_ref; prop_jobs_deterministic;
        prop_generator_invariants ];
  ]
