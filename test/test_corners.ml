(* The corner-batched sweep's contract: every plane of
   Corner_sta.analyze is bit-identical to an independent scalar analysis
   over that corner's derated library, at jobs 1 and 4 and for a corner
   count that leaves a partial chunk in the parallel schedule.  The same
   windows must come out of an Engine retargeted by a derated Set_model
   — including through edits and checkpoint/revert round-trips.
   Monte-Carlo sampling must be seed-deterministic and agree with fresh
   per-sample analyses. *)

module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module CS = Ssd_sta.Corner_sta
module E = Ssd_sta.Engine
module RO = Ssd_sta.Run_opts
module DM = Ssd_core.Delay_model
module Corners = Ssd_cell.Corners
module Charlib = Ssd_cell.Charlib
module Interval = Ssd_util.Interval
module Types = Ssd_core.Types

open Test_support

let lib = lazy (Charlib.default ~profile:Charlib.coarse ())

(* a mid-size layered primitive circuit: wide enough levels to exercise
   the (level slot × corner chunk) schedule, small enough to re-analyze
   once per corner inside a property *)
let mid_prim ?(gates = 1_200) seed =
  Ck.Decompose.to_primitive
    (Ck.Generator.generate
       {
         Ck.Generator.default_params with
         Ck.Generator.g_name = Printf.sprintf "corner%d" seed;
         n_inputs = 24;
         n_outputs = 12;
         n_gates = gates;
         locality = 64;
         seed = Int64.of_int (seed + 7001);
         shape = Ck.Generator.Layered { layers = 12 };
       })

(* the scalar oracle for one corner: an independent single-corner
   analysis over the derated library, through the closure walk (a
   production [Sta.analyze_with] runs the batched kernel itself) *)
let scalar_corner table c nl =
  analyze_reference (RO.make ()) ~library:(Corners.library table c) nl

let prop_batched_matches_scalar =
  QCheck.Test.make
    ~name:"batched K-corner == K scalar single-corner analyses (jobs 1, 4)"
    ~count:2
    QCheck.(int_range 0 1000)
    (fun seed ->
      let nl = mid_prim seed in
      let lib = Lazy.force lib in
      (* K = 5 leaves a partial corner chunk (4 + 1) in the parallel
         schedule; K = 4 is the single-chunk streaming case *)
      List.for_all
        (fun k ->
          let table = Corners.build ~specs:(Corners.default_specs k) lib in
          let oracles = Array.init k (fun c -> scalar_corner table c nl) in
          List.for_all
            (fun jobs ->
              let t =
                CS.analyze ~opts:(RO.make ~jobs ~corners:k ()) ~table nl
              in
              let ok = ref true in
              for c = 0 to k - 1 do
                if not (CS.plane_matches t ~corner:c oracles.(c)) then
                  ok := false;
                (* the materializing accessors agree with the oracle's *)
                List.iter
                  (fun po ->
                    if not (lt_beq (CS.timing t ~corner:c po)
                              (Sta.timing oracles.(c) po))
                    then ok := false)
                  (Ck.Netlist.outputs nl);
                if not (beq (CS.max_delay t ~corner:c)
                          (Sta.max_delay oracles.(c)))
                then ok := false
              done;
              !ok)
            [ 1; 4 ])
        [ 4; 5 ])

let engine_matches_plane eng batched c =
  let n = Ck.Netlist.size (E.netlist eng) in
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (lt_beq (E.timing eng i) (CS.timing batched ~corner:c i)) then
      ok := false
  done;
  !ok

let prop_retarget_through_edits =
  QCheck.Test.make
    ~name:"derated Set_model matches planes through edits and revert"
    ~count:2
    QCheck.(int_range 0 1000)
    (fun seed ->
      let nl = mid_prim ~gates:500 seed in
      let lib = Lazy.force lib in
      let table = Corners.build ~specs:(Corners.default_specs 3) lib in
      let batched = CS.analyze ~table nl in
      let nominal = analyze_reference (RO.make ()) ~library:lib nl in
      (* the proposed model evaluated through corner [c]'s derated cells *)
      let retarget eng c =
        E.apply eng
          (E.Set_model (DM.remap_cells (Corners.remap table c) DM.proposed))
      in
      E.with_engine ~library:lib ~model:DM.proposed nl (fun eng ->
          let ok = ref true in
          let ck0 = E.checkpoint eng in
          (* retargets replace (not chain): each corner in turn must
             land exactly on its batched plane *)
          for c = 0 to 2 do
            retarget eng c;
            if not (engine_matches_plane eng batched c) then ok := false
          done;
          (* an edit under a corner, then revert back to that corner *)
          retarget eng 1;
          let ck1 = E.checkpoint eng in
          let line = List.hd (Ck.Netlist.outputs nl) in
          E.apply eng (E.Set_extra_delay { line; delta = 3e-11 });
          E.apply eng
            (E.Set_pi_spec { pi = 0; spec = RO.default_pi_spec });
          E.revert eng ck1;
          if not (engine_matches_plane eng batched 1) then ok := false;
          (* full unwind: back to the nominal library bit for bit *)
          E.revert eng ck0;
          let n = Ck.Netlist.size nl in
          for i = 0 to n - 1 do
            if not (lt_beq (E.timing eng i) (Sta.timing nominal i)) then
              ok := false
          done;
          !ok))

(* the per-sample reference: a one-lane closure-walk analysis over the
   sample's derated library *)
let sample_reference lib nl spec =
  analyze_reference RO.default ~library:(Corners.derate_library spec lib) nl

let test_mc_deterministic () =
  let nl = mid_prim ~gates:400 5 in
  let lib = Lazy.force lib in
  let run () =
    CS.monte_carlo ~samples:8 ~seed:42L ~library:lib nl
  in
  let a = run () and b = run () in
  Alcotest.(check int) "samples" 8 (Array.length a.CS.mc_max);
  Array.iteri
    (fun s x ->
      if not (beq x b.CS.mc_max.(s)) then
        Alcotest.failf "mc_max diverges between identical runs at sample %d" s)
    a.CS.mc_max;
  (* each sample agrees with a fresh scalar analysis of its derated
     library: the batched sweep is an optimization, not an
     approximation *)
  Array.iteri
    (fun s spec ->
      if not (CS.sample_matches a ~sample:s (sample_reference lib nl spec))
      then Alcotest.failf "sample %d differs from a fresh derated analysis" s)
    a.CS.mc_specs;
  (* quantiles: monotone in q, endpoints are the sample extremes *)
  let qs = [ 0.; 0.5; 0.95; 1. ] in
  let mx = CS.mc_max_quantiles a qs in
  let values = List.map snd mx in
  let sorted = List.sort Float.compare values in
  Alcotest.(check (list (float 0.))) "monotone quantiles" sorted values;
  let lo = Array.fold_left Float.min infinity a.CS.mc_max in
  let hi = Array.fold_left Float.max neg_infinity a.CS.mc_max in
  Alcotest.(check bool) "q0 = min" true (beq (List.assoc 0. mx) lo);
  Alcotest.(check bool) "q1 = max" true (beq (List.assoc 1. mx) hi);
  let per_po = CS.mc_po_quantiles a qs in
  Alcotest.(check int) "one quantile list per PO"
    (Array.length a.CS.mc_pos) (Array.length per_po)

(* ----- batched Monte-Carlo ------------------------------------------- *)

let spec_eq (a : Corners.spec) (b : Corners.spec) =
  String.equal a.Corners.c_name b.Corners.c_name
  && beq a.Corners.c_delay b.Corners.c_delay
  && beq a.Corners.c_tt b.Corners.c_tt

let mc_eq ~what a b =
  if Array.length a.CS.mc_specs <> Array.length b.CS.mc_specs then
    Alcotest.failf "%s: sample counts differ" what;
  Array.iteri
    (fun s sa ->
      if not (spec_eq sa b.CS.mc_specs.(s)) then
        Alcotest.failf "%s: spec %d differs" what s)
    a.CS.mc_specs;
  Array.iteri
    (fun pi d ->
      Array.iteri
        (fun s v ->
          if not (beq v b.CS.mc_delays.(pi).(s)) then
            Alcotest.failf "%s: PO delay (%d, %d) differs" what pi s)
        d)
    a.CS.mc_delays;
  Array.iteri
    (fun s v ->
      if not (beq v b.CS.mc_max.(s)) then
        Alcotest.failf "%s: circuit max at sample %d differs" what s)
    a.CS.mc_max

(* the chunked batched-kernel Monte-Carlo is bit-identical to a scalar
   analysis of every sample for every (jobs, batch) combination —
   including batch 1 (a chunk per sample), a samples-not-divisible-by-K
   tail chunk (10 = 3+3+3+1) and a batch larger than the sample count
   (clamped) *)
let prop_mc_batched_matches_scalar =
  QCheck.Test.make
    ~name:"batched monte_carlo == scalar oracle (jobs {1,4} x K {1,3,16})"
    ~count:2
    QCheck.(int_range 0 1000)
    (fun seed ->
      let nl = mid_prim ~gates:400 seed in
      let lib = Lazy.force lib in
      let samples = 10 and mc_seed = Int64.of_int (seed + 99) in
      let specs = Array.of_list (Corners.sample_specs ~seed:mc_seed samples) in
      let refs = Array.map (sample_reference lib nl) specs in
      List.iter
        (fun jobs ->
          List.iter
            (fun k ->
              let res =
                CS.monte_carlo
                  ~opts:(RO.make ~jobs ~mc_batch:k ())
                  ~samples ~seed:mc_seed ~library:lib nl
              in
              if not (Array.for_all2 spec_eq res.CS.mc_specs specs) then
                Alcotest.failf "jobs %d batch %d: sampled specs differ" jobs k;
              Array.iteri
                (fun s sta ->
                  if not (CS.sample_matches res ~sample:s sta) then
                    Alcotest.failf "jobs %d batch %d: sample %d differs" jobs
                      k s)
                refs)
            [ 1; 3; 16 ])
        [ 1; 4 ];
      true)

(* chunking invariance of the sampled spec stream: all specs are drawn
   from one splitmix stream before any chunking, so the batch size can
   never perturb them *)
let prop_mc_chunking_invariant_specs =
  QCheck.Test.make
    ~name:"sampled spec stream is invariant under batch K {1,4,7,64}"
    ~count:4
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let nl = mid_prim ~gates:200 1 in
      let lib = Lazy.force lib in
      let samples = 13 and mc_seed = Int64.of_int seed in
      let direct = Array.of_list (Corners.sample_specs ~seed:mc_seed samples) in
      List.for_all
        (fun k ->
          let res =
            CS.monte_carlo
              ~opts:(RO.make ~mc_batch:k ())
              ~samples ~seed:mc_seed ~library:lib nl
          in
          Array.length res.CS.mc_specs = samples
          && Array.for_all2 spec_eq res.CS.mc_specs direct)
        [ 1; 4; 7; 64 ])

let test_mc_batch_validation () =
  let nl = mid_prim ~gates:200 3 in
  let lib = Lazy.force lib in
  Alcotest.check_raises "Run_opts.make rejects mc_batch < 1"
    (Invalid_argument "Run_opts.make: mc_batch < 1") (fun () ->
      ignore (RO.make ~mc_batch:0 ()));
  Alcotest.check_raises "monte_carlo rejects a hand-built mc_batch < 1"
    (Invalid_argument "Corner_sta.monte_carlo: opts.mc_batch < 1") (fun () ->
      ignore
        (CS.monte_carlo
           ~opts:{ RO.default with RO.mc_batch = 0 }
           ~samples:2 ~seed:1L ~library:lib nl));
  (* a batch wider than the sample count is clamped, not an error *)
  let a =
    CS.monte_carlo ~opts:(RO.make ~mc_batch:64 ()) ~samples:5 ~seed:5L
      ~library:lib nl
  in
  let b =
    CS.monte_carlo ~opts:(RO.make ~mc_batch:5 ()) ~samples:5 ~seed:5L
      ~library:lib nl
  in
  Alcotest.(check int) "clamped run samples" 5 (Array.length a.CS.mc_max);
  mc_eq ~what:"batch 64 clamped to 5" a b

(* the comparator itself: true on an untouched result, false once one
   PO delay or one circuit max of one sample moves by a single ulp —
   otherwise [ssd mc --check] and the MC property could pass vacuously *)
let test_sample_matches_one_ulp () =
  let nl = mid_prim ~gates:200 7 in
  let lib = Lazy.force lib in
  let res = CS.monte_carlo ~samples:3 ~seed:9L ~library:lib nl in
  let s = 1 in
  let sta = sample_reference lib nl res.CS.mc_specs.(s) in
  Alcotest.(check bool) "untouched result matches" true
    (CS.sample_matches res ~sample:s sta);
  let pi = Array.length res.CS.mc_pos - 1 in
  let delays = Array.map Array.copy res.CS.mc_delays in
  delays.(pi).(s) <- Float.succ delays.(pi).(s);
  Alcotest.(check bool) "one PO delay one ulp off" false
    (CS.sample_matches { res with CS.mc_delays = delays } ~sample:s sta);
  let mc_max = Array.copy res.CS.mc_max in
  mc_max.(s) <- Float.succ mc_max.(s);
  Alcotest.(check bool) "circuit max one ulp off" false
    (CS.sample_matches { res with CS.mc_max } ~sample:s sta);
  Alcotest.(check bool) "another sample's reference differs" false
    (CS.sample_matches res ~sample:0 sta)

(* refit retargets a table in place: coefficients, specs and the lazily
   rebuilt derated libraries must all match a fresh build *)
let test_refit_matches_fresh_build () =
  let lib = Lazy.force lib in
  let coeffs_eq what (a : Corners.table) (b : Corners.table) =
    let ca = Corners.coeffs a and cb = Corners.coeffs b in
    let n = Bigarray.Array1.dim ca in
    if n <> Bigarray.Array1.dim cb then Alcotest.failf "%s: sizes differ" what;
    for i = 0 to n - 1 do
      if not (beq (Bigarray.Array1.get ca i) (Bigarray.Array1.get cb i)) then
        Alcotest.failf "%s: coefficient %d differs" what i
    done
  in
  let sa = Array.of_list (Corners.default_specs 3) in
  let sb = Array.of_list (Corners.sample_specs ~seed:77L 3) in
  let t = Corners.build ~specs:(Array.to_list sa) lib in
  let fresh_b = Corners.build ~specs:(Array.to_list sb) lib in
  Corners.refit t sb;
  coeffs_eq "full refit" t fresh_b;
  Alcotest.(check string) "spec renamed" (sb.(1)).Corners.c_name
    (Corners.spec t 1).Corners.c_name;
  (* the derated-library cache was invalidated: corner 1's library now
     derives from the refitted spec *)
  let dlib = Corners.library t 1 in
  Alcotest.(check string) "library tag tracks the refitted spec"
    (lib.Charlib.tag ^ "@" ^ (sb.(1)).Corners.c_name)
    dlib.Charlib.tag;
  (* partial refit: only the leading corners move, the tail keeps its
     previous coefficients (the Monte-Carlo tail-chunk case) *)
  let sc = Array.of_list (Corners.sample_specs ~seed:88L 2) in
  Corners.refit t sc;
  let fresh_c =
    Corners.build ~specs:[ sc.(0); sc.(1); sb.(2) ] lib
  in
  coeffs_eq "partial refit" t fresh_c;
  Alcotest.check_raises "refit rejects more specs than corners"
    (Invalid_argument "Corners.refit: 4 specs for a 3-corner table")
    (fun () -> Corners.refit t (Array.of_list (Corners.default_specs 4)));
  Alcotest.check_raises "refit rejects zero specs"
    (Invalid_argument "Corners.refit: 0 specs for a 3-corner table")
    (fun () -> Corners.refit t [||])

let test_corner_count_mismatch () =
  let nl = mid_prim ~gates:200 1 in
  let table = Corners.build ~specs:(Corners.default_specs 3) (Lazy.force lib) in
  (match CS.analyze ~opts:(RO.make ~corners:3 ()) ~table nl with
  | t -> Alcotest.(check int) "corners" 3 (CS.corners t));
  Alcotest.check_raises "corner-count mismatch"
    (Invalid_argument
       "Corner_sta.analyze: opts.corners = 2 but the table has 3 corners")
    (fun () -> ignore (CS.analyze ~opts:(RO.make ~corners:2 ()) ~table nl))

(* Every PO window is one fold ([Sta.po_window_of]); each caller must
   equal the hull of the materialized PO windows, folded in outputs
   order with [Interval.hull], bit for bit *)
let one_po_fold nl =
  let lib = Lazy.force lib in
  let po_hull timing =
    let win i =
      let lt = timing i in
      Interval.hull lt.Sta.rise.Types.w_arr lt.Sta.fall.Types.w_arr
    in
    match Ck.Netlist.outputs nl with
    | [] -> Alcotest.fail "no outputs"
    | first :: rest ->
      List.fold_left (fun acc i -> Interval.hull acc (win i)) (win first) rest
  in
  let check what a b =
    Alcotest.(check bool) what true
      (beq (Interval.lo a) (Interval.lo b) && beq (Interval.hi a) (Interval.hi b))
  in
  let sta = Sta.analyze_with RO.default ~library:lib ~model:DM.proposed nl in
  check "Sta.po_window" (Sta.po_window sta) (po_hull (Sta.timing sta));
  let table = Corners.build ~specs:(Corners.default_specs 3) lib in
  let ct = CS.analyze ~table nl in
  for c = 0 to 2 do
    check
      (Printf.sprintf "Corner_sta.po_window %d" c)
      (CS.po_window ct ~corner:c)
      (po_hull (CS.timing ct ~corner:c))
  done;
  E.with_engine ~library:lib ~model:DM.proposed nl (fun eng ->
      E.apply eng
        (E.Set_extra_delay
           { line = List.hd (Ck.Netlist.outputs nl); delta = -4e-11 });
      check "Engine.po_window" (E.po_window eng) (po_hull (E.timing eng)));
  let res =
    CS.monte_carlo ~opts:(RO.make ~mc_batch:3 ()) ~samples:5 ~seed:11L
      ~library:lib nl
  in
  Array.iteri
    (fun s spec ->
      let sta = sample_reference lib nl spec in
      Alcotest.(check bool)
        (Printf.sprintf "monte-carlo max, sample %d" s)
        true
        (beq res.CS.mc_max.(s) (Interval.hi (po_hull (Sta.timing sta)))))
    res.CS.mc_specs

(* two circuits, so both transitions decide a bound: the layered one's
   earliest PO arrival is a rise, c17's a fall *)
(* Every analysis pass resolves one table slot per gate, so the lookup
   must not allocate: the slots are indexed by kind and arity in an
   array that holds shared options *)
let test_cell_slot_allocation_free () =
  let table =
    Corners.build ~specs:(Corners.default_specs 1) (Lazy.force lib)
  in
  let lookups () =
    let found = ref 0 in
    for i = 1 to 10_000 do
      let kind = if i land 1 = 0 then Ssd_cell.Sweep.Nand else Ssd_cell.Sweep.Nor in
      match Corners.cell_slot table kind (1 + (i mod 6)) with
      | Some _ -> incr found
      | None -> ()
    done;
    !found
  in
  let w0 = Gc.minor_words () in
  let found = lookups () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "some shapes are packed" true (found > 0);
  Alcotest.(check (float 0.)) "minor words for 10k lookups" 0. words;
  (* the first cell of each shape, as the library lists them *)
  List.iteri
    (fun ci (c : Charlib.cell) ->
      match Corners.cell_slot table c.Charlib.kind c.Charlib.n with
      | Some s ->
        let l = Corners.layout table s in
        Alcotest.(check bool) "slot has the shape" true
          (l.Corners.l_kind = c.Charlib.kind && l.Corners.l_n = c.Charlib.n
          && s <= ci)
      | None -> Alcotest.fail "a packed shape has no slot")
    (Lazy.force lib).Charlib.cells;
  Alcotest.(check bool) "arity out of range" true
    (Corners.cell_slot table Ssd_cell.Sweep.Nand 99 = None
    && Corners.cell_slot table Ssd_cell.Sweep.Nand (-1) = None)

let test_one_po_fold () =
  one_po_fold (mid_prim ~gates:300 3);
  one_po_fold (Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ()))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    qsuite "corners.prop"
      [
        prop_batched_matches_scalar;
        prop_retarget_through_edits;
        prop_mc_batched_matches_scalar;
        prop_mc_chunking_invariant_specs;
      ];
    ( "corners.unit",
      [
        Alcotest.test_case "monte-carlo determinism + oracle" `Quick
          test_mc_deterministic;
        Alcotest.test_case "batch validation and clamping" `Quick
          test_mc_batch_validation;
        Alcotest.test_case "sample_matches detects one ulp" `Quick
          test_sample_matches_one_ulp;
        Alcotest.test_case "refit matches a fresh build" `Quick
          test_refit_matches_fresh_build;
        Alcotest.test_case "corner-count validation" `Quick
          test_corner_count_mismatch;
        Alcotest.test_case "one PO-window fold" `Quick test_one_po_fold;
        Alcotest.test_case "cell_slot allocates nothing" `Quick
          test_cell_slot_allocation_free;
      ] );
  ]
