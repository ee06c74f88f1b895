(* The Engine's contract (bit-identity to a fresh analysis of the edited
   circuit, across edit kinds, checkpoint/revert round-trips and lane
   counts). *)

module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module E = Ssd_sta.Engine
module RO = Ssd_sta.Run_opts
module TS = Ssd_sta.Timing_sim
module DM = Ssd_core.Delay_model
module Types = Ssd_core.Types
module Charlib = Ssd_cell.Charlib
module Interval = Ssd_util.Interval
module Rng = Ssd_util.Rng
module Obs = Ssd_obs.Obs

open Test_support

let lib = lazy (Charlib.default ~profile:Charlib.coarse ())
let c17_prim () = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ())

(* the oracle: engine windows vs a fresh sequential closure-walk
   analysis of the edited circuit, bit for bit on every line — and
   [E.reanalyze], which runs the engine's own kernel, must agree too *)
let engine_matches eng =
  let reference = engine_reference ~library:(Lazy.force lib) eng in
  let n = Ck.Netlist.size (E.netlist eng) in
  let ok = ref (sta_beq reference (E.reanalyze eng)) in
  for i = 0 to n - 1 do
    if not (lt_beq (E.timing eng i) (Sta.timing reference i)) then ok := false
  done;
  !ok

let two_input_gates nl =
  List.filter
    (fun i -> (not (Ck.Netlist.is_pi nl i)) && Ck.Netlist.fanin_count nl i = 2)
    (List.init (Ck.Netlist.size nl) Fun.id)

let random_edit rng nl =
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  match Rng.int rng 6 with
  | 0 | 1 ->
    E.Set_extra_delay
      {
        line = Rng.int rng (Ck.Netlist.size nl);
        delta = Rng.float_range rng 10e-12 200e-12;
      }
  | 2 ->
    (* removing an extra delay is also an edit *)
    E.Set_extra_delay { line = Rng.int rng (Ck.Netlist.size nl); delta = 0. }
  | 3 ->
    E.Swap_gate
      {
        node = pick (two_input_gates nl);
        kind = (if Rng.bool rng then Ck.Gate.Nand else Ck.Gate.Nor);
      }
  | 4 ->
    let a_hi = Rng.float_range rng 0. 0.2e-9 in
    let tt_lo = Rng.float_range rng 0.1e-9 0.3e-9 in
    E.Set_pi_spec
      {
        pi = pick (Ck.Netlist.inputs nl);
        spec =
          {
            RO.pi_arrival = Interval.make 0. a_hi;
            pi_tt = Interval.make tt_lo (tt_lo +. 0.2e-9);
          };
      }
  | _ -> E.Set_model (if Rng.bool rng then DM.proposed else DM.pin_to_pin)

let prop_engine_bit_identical =
  (* random edit sequences on random primitive netlists, with nested
     checkpoint/revert round-trips, at jobs 1 and 4: after every step the
     engine must equal its own reference re-analysis, and reverting to
     the opening checkpoint must land bit-exactly on the opening pass *)
  QCheck.Test.make ~name:"engine edits bit-identical to reanalyze (jobs 1, 4)"
    ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun jobs ->
          let rng = Rng.create (Int64.of_int (seed + (1000 * jobs))) in
          let nl =
            Ck.Decompose.to_primitive
              (Ck.Generator.generate
                 {
                   Ck.Generator.default_params with
                   Ck.Generator.g_name = "eco";
                   n_inputs = 6;
                   n_outputs = 3;
                   n_gates = 20 + Rng.int rng 30;
                   seed = Int64.of_int (seed + 1);
                 })
          in
          let opts = RO.make ~jobs () in
          E.with_engine ~opts ~library:(Lazy.force lib) ~model:DM.proposed nl
            (fun eng ->
              let base = engine_reference ~library:(Lazy.force lib) eng in
              let ok = ref (engine_matches eng) in
              let step () =
                E.apply eng (random_edit rng nl);
                if not (engine_matches eng) then ok := false
              in
              let cp0 = E.checkpoint eng in
              for _ = 1 to 3 do step () done;
              let mid = E.checkpoint eng in
              for _ = 1 to 3 do step () done;
              E.revert eng mid;
              if not (engine_matches eng) then ok := false;
              step ();
              E.revert eng cp0;
              if not (engine_matches eng) then ok := false;
              for i = 0 to Ck.Netlist.size nl - 1 do
                if not (lt_beq (E.timing eng i) (Sta.timing base i)) then
                  ok := false
              done;
              Alcotest.(check int) "depth after full revert" 0 (E.depth eng);
              !ok))
        [ 1; 4 ])

(* Containment up to accumulated rounding: the timing simulator merges
   events in a different order than the STA kernel folds window bounds,
   so a simulated event can land a few ulps-worth of accumulated error
   outside the window.  The worst case on record (qcheck input 274715,
   reproduced below as a deterministic regression) undershoots a tt
   window's lower bound by ~9e-14 s — about 1.3e-3 of that window's
   width — so the slack is relative to the window delta with margin,
   plus an absolute floor for degenerate point windows. *)
let contains_eps (w : Interval.t) v =
  let slack = 1e-13 +. (5e-3 *. (Interval.hi w -. Interval.lo w)) in
  Interval.lo w -. slack <= v && v <= Interval.hi w +. slack

let faulty_tsim_within_faulty_windows seed =
  (* soundness of the Fault_sim window screen: under the fault (a
     per-line extra delay), every timing-simulation event still falls
     inside the corresponding faulty STA window — the same containment
     the fault-free property in test_sta establishes, here with the
     extra_delay hook threaded through both engines *)
  let rng = Rng.create (Int64.of_int seed) in
  let nl = c17_prim () in
  let victim = Rng.int rng (Ck.Netlist.size nl) in
  let delta = Rng.float_range rng 10e-12 300e-12 in
  let extra_delay i = if i = victim then delta else 0. in
  let pi_spec =
    { Sta.pi_arrival = Interval.point 0.; pi_tt = Interval.point 0.25e-9 }
  in
  let sta =
    Sta.analyze_with ~extra_delay (RO.make ~pi_spec ())
      ~library:(Lazy.force lib) ~model:DM.proposed nl
  in
  let npi = List.length (Ck.Netlist.inputs nl) in
  let vec = Array.init npi (fun _ -> (Rng.bool rng, Rng.bool rng)) in
  let lines =
    TS.simulate ~extra_delay ~pi_arrival:0. ~pi_tt:0.25e-9
      ~library:(Lazy.force lib) ~model:DM.proposed nl vec
  in
  Array.for_all
    (fun i ->
      match TS.event lines i with
      | None -> true
      | Some e ->
        let lt = Sta.timing sta i in
        let w = if not (TS.v1 lines i) then lt.Sta.rise else lt.Sta.fall in
        contains_eps w.Types.w_arr e.Types.e_arr
        && contains_eps w.Types.w_tt e.Types.e_tt)
    (Array.init (Ck.Netlist.size nl) Fun.id)

let prop_faulty_tsim_within_faulty_windows =
  QCheck.Test.make ~name:"faulty tsim events within faulty STA windows"
    ~count:25
    QCheck.(int_range 0 1_000_000)
    faulty_tsim_within_faulty_windows

let test_tsim_window_regression_274715 () =
  (* the historical flake: before [contains_eps], this input produced a
     tt-window undershoot of 8.97e-14 s on one line and 1.32e-14 s on
     another, failing the strict containment check *)
  Alcotest.(check bool) "input 274715 stays within epsilon" true
    (faulty_tsim_within_faulty_windows 274715)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.failf "%s: expected Invalid_argument" name

let test_apply_validation () =
  (* every rejected edit raises and leaves the engine untouched *)
  let nl = c17_prim () in
  E.with_engine ~library:(Lazy.force lib) ~model:DM.proposed nl (fun eng ->
      let n = Ck.Netlist.size nl in
      let snapshot = Array.init n (E.timing eng) in
      let some_pi = List.hd (Ck.Netlist.inputs nl) in
      let some_gate = List.hd (two_input_gates nl) in
      List.iter
        (fun (name, edit) ->
          expect_invalid name (fun () -> E.apply eng edit))
        [
          ("negative id", E.Set_extra_delay { line = -1; delta = 1e-12 });
          ("out-of-range id", E.Set_extra_delay { line = n; delta = 1e-12 });
          ( "nan delta",
            E.Set_extra_delay { line = some_gate; delta = Float.nan } );
          ( "infinite delta",
            E.Set_extra_delay { line = some_gate; delta = Float.infinity } );
          ( "pi spec on a gate output",
            E.Set_pi_spec { pi = some_gate; spec = RO.default_pi_spec } );
          ("swap on a PI", E.Swap_gate { node = some_pi; kind = Ck.Gate.Nand });
          ( "NOT on a 2-input gate",
            E.Swap_gate { node = some_gate; kind = Ck.Gate.Not } );
          ( "non-primitive kind",
            E.Swap_gate { node = some_gate; kind = Ck.Gate.Xor } );
          ("windowless model", E.Set_model DM.jun);
        ];
      Alcotest.(check int) "depth untouched" 0 (E.depth eng);
      for i = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "line %d untouched" i)
          true
          (lt_beq (E.timing eng i) snapshot.(i))
      done)

let test_nonfinite_pi_spec () =
  (* [1e999] parses as infinity in the JSON codec, so a serve client can
     send an unbounded PI window; every such edit must be rejected before
     it mutates anything, so a revert to an earlier checkpoint lands on
     a consistent session *)
  let nl = c17_prim () in
  let unbounded =
    { RO.pi_arrival = Interval.make neg_infinity infinity;
      pi_tt = RO.default_pi_spec.RO.pi_tt }
  in
  E.with_engine ~library:(Lazy.force lib) ~model:DM.proposed nl (fun eng ->
      let cp = E.checkpoint eng in
      List.iter
        (fun pi ->
          expect_invalid
            (Printf.sprintf "unbounded arrival on PI %d" pi)
            (fun () -> E.apply eng (E.Set_pi_spec { pi; spec = unbounded })))
        (Ck.Netlist.inputs nl);
      Alcotest.(check int) "nothing journaled" 0 (E.depth eng);
      E.revert eng cp;
      Alcotest.(check bool) "session equals a fresh analysis" true
        (engine_matches eng));
  Alcotest.check_raises "Engine.create rejects an unbounded opts.pi_spec"
    (Invalid_argument "Engine.create: pi_spec windows must be finite")
    (fun () ->
      ignore
        (E.create
           ~opts:{ RO.default with RO.pi_spec = unbounded }
           ~library:(Lazy.force lib) ~model:DM.proposed nl))

let test_commit_and_close () =
  let nl = c17_prim () in
  let eng = E.create ~library:(Lazy.force lib) ~model:DM.proposed nl in
  let some_gate = List.hd (two_input_gates nl) in
  let cp = E.checkpoint eng in
  E.apply eng (E.Set_extra_delay { line = some_gate; delta = 20e-12 });
  E.commit eng;
  expect_invalid "checkpoint predates commit" (fun () -> E.revert eng cp);
  Alcotest.(check int) "edits survive the commit" 1 (E.depth eng);
  Alcotest.(check bool) "extra delay still applied" true
    (beq (E.extra_delay_of eng some_gate) 20e-12);
  Alcotest.(check int) "stats count the edit" 1 (E.stats eng).E.edits;
  E.close eng;
  E.close eng (* idempotent *);
  expect_invalid "closed engine rejects queries" (fun () ->
      ignore (E.timing eng 0 : Sta.line_timing))

let test_jobs4_session () =
  (* a session opened at jobs:4 (which the engine ignores) must re-time
     each edit bit for bit like the fresh sequential reference *)
  let nl = c17_prim () in
  let opts = RO.make ~jobs:4 () in
  E.with_engine ~opts ~library:(Lazy.force lib) ~model:DM.proposed nl
    (fun eng ->
      let some_gate = List.hd (two_input_gates nl) in
      List.iter
        (fun edit ->
          E.apply eng edit;
          Alcotest.(check bool) "parallel engine matches reanalyze" true
            (engine_matches eng))
        [
          E.Set_extra_delay { line = some_gate; delta = 35e-12 };
          E.Swap_gate { node = some_gate; kind = Ck.Gate.Nor };
          E.Set_model DM.pin_to_pin;
        ])

let test_jobs_open_no_pool () =
  (* [opts.jobs] is accepted and ignored: a jobs-4 session with telemetry
     on re-times every edit kind, both model switches and a revert on one
     lane, so its windows and work counters equal a jobs-1 session's bit
     for bit and its sink never registers a domain pool's instruments *)
  let nl =
    Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s"))
  in
  let n = Ck.Netlist.size nl in
  let gate = List.nth (two_input_gates nl) 7 in
  let pi = List.nth (Ck.Netlist.inputs nl) 3 in
  let edits =
    [
      E.Set_extra_delay { line = gate; delta = 40e-12 };
      E.Swap_gate { node = gate; kind = Ck.Gate.Nor };
      E.Set_pi_spec
        {
          pi;
          spec =
            {
              RO.pi_arrival = Interval.make 0. 0.1e-9;
              pi_tt = Interval.make 0.15e-9 0.3e-9;
            };
        };
      E.Set_model DM.pin_to_pin;
      E.Set_extra_delay { line = gate; delta = -15e-12 };
      E.Set_model DM.proposed;
    ]
  in
  let session opts =
    E.with_engine ~opts ~library:(Lazy.force lib) ~model:DM.proposed nl
      (fun eng ->
        let cp = E.checkpoint eng in
        let after =
          List.map
            (fun e ->
              E.apply eng e;
              Array.init n (E.timing eng))
            edits
        in
        E.revert eng cp;
        (after @ [ Array.init n (E.timing eng) ], E.stats eng))
  in
  let obs = Obs.create () in
  let wide, wide_stats = session (RO.make ~jobs:4 ~obs ()) in
  let narrow, narrow_stats = session (RO.make ~jobs:1 ()) in
  List.iteri
    (fun k (w, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "step %d windows equal jobs 1" k)
        true
        (Array.for_all2 lt_beq w s))
    (List.combine wide narrow);
  Alcotest.(check bool) "stats equal jobs 1" true (wide_stats = narrow_stats);
  let sn = Obs.snapshot obs in
  let names =
    List.map fst sn.Obs.sn_counters
    @ List.map fst sn.Obs.sn_gauges
    @ List.map fst sn.Obs.sn_timers
    @ List.map fst sn.Obs.sn_histograms
  in
  Alcotest.(check bool) "engine counters recorded" true
    (List.mem "engine.edits" names);
  Alcotest.(check (list string))
    "no par.* instrument" []
    (List.filter (String.starts_with ~prefix:"par.") names)

(* A model whose window transfer functions raise on their [k]-th call
   (both transitions counted): an edit that fails half-way through its
   propagation. *)
let flaky_model k =
  let calls = ref 0 in
  let w = Option.get DM.proposed.DM.windowing in
  let tick () =
    incr calls;
    if !calls = k then failwith "flaky window function"
  in
  {
    DM.proposed with
    DM.name = "flaky";
    windowing =
      Some
        {
          DM.ctl_window =
            (fun cell ~fanout wins ->
              tick ();
              w.DM.ctl_window cell ~fanout wins);
          non_window =
            (fun cell ~fanout wins ->
              tick ();
              w.DM.non_window cell ~fanout wins);
        };
  }

let test_failed_edit_rolls_back () =
  (* a model switch that raises half-way has overwritten about half the
     windows; the engine must undo them from the edit's own frame, so the
     session is left exactly as the call found it and later edits (and a
     batch rollback's revert) start from a consistent state *)
  let nl =
    Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s"))
  in
  let n = Ck.Netlist.size nl in
  let gate = List.nth (two_input_gates nl) 11 in
  let pi = List.hd (Ck.Netlist.inputs nl) in
  E.with_engine ~library:(Lazy.force lib) ~model:DM.pin_to_pin nl (fun eng ->
      E.apply eng (E.Set_extra_delay { line = gate; delta = 25e-12 });
      E.apply eng (E.Swap_gate { node = gate; kind = Ck.Gate.Nor });
      E.apply eng
        (E.Set_pi_spec
           {
             pi;
             spec =
               {
                 RO.pi_arrival = Interval.make 0. 0.1e-9;
                 pi_tt = Interval.make 0.15e-9 0.3e-9;
               };
           });
      let windows () = Array.init n (E.timing eng) in
      let kinds () =
        let ed = E.edited_netlist eng in
        List.map (Ck.Netlist.gate_kind ed)
          (List.filter
             (fun i -> not (Ck.Netlist.is_pi ed i))
             (List.init n Fun.id))
      in
      let extras () = Array.init n (E.extra_delay_of eng) in
      let specs () = List.map (E.pi_spec_of eng) (Ck.Netlist.inputs nl) in
      let before = windows () and kinds0 = kinds () and extras0 = extras () in
      let specs0 = specs () and depth0 = E.depth eng in
      let flaky = flaky_model (Ck.Netlist.gate_count nl) in
      (match E.apply eng (E.Set_model flaky) with
      | () -> Alcotest.fail "the flaky model did not raise"
      | exception Failure _ -> ());
      Alcotest.(check bool) "windows restored" true
        (Array.for_all2 lt_beq (windows ()) before);
      Alcotest.(check bool) "model restored" true (E.model eng == DM.pin_to_pin);
      Alcotest.(check bool) "kind overlays" true (kinds () = kinds0);
      Alcotest.(check bool) "extra-delay overlays" true
        (Array.for_all2 beq (extras ()) extras0);
      Alcotest.(check bool) "PI overlays" true (specs () = specs0);
      Alcotest.(check int) "depth" depth0 (E.depth eng);
      let cp = E.checkpoint eng in
      E.apply eng (E.Set_model DM.proposed);
      E.apply eng (E.Set_extra_delay { line = gate; delta = -10e-12 });
      Alcotest.(check bool) "a later edit matches the reference" true
        (engine_matches eng);
      E.revert eng cp;
      Alcotest.(check bool) "revert lands on the pre-failure windows" true
        (Array.for_all2 lt_beq (windows ()) before))

let test_edit_allocation_guard () =
  (* 1,000 victim Set_extra_delay + revert cycles on c7552s (4,574
     nodes).  OCaml 5 aggregates the major-heap counters lazily, so each
     reading follows a [Gc.full_major].  Blocks over 256 words skip the
     minor heap, so [major_words - promoted_words] counts them.  With a
     netlist-sized dirty array and a journal of window records per edit,
     this loop allocated 765 minor and 4,575 direct-major words per
     cycle; with the epoch-stamped marks and the flat journal it
     allocates about 29 minor words and none direct.  The bounds: an
     eighth of the node count direct, half the former figure minor. *)
  let nl =
    Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c7552s"))
  in
  let n = Ck.Netlist.size nl in
  let victims =
    Ssd_atpg.Fault.extract ~count:64 ~seed:99L nl
    |> List.map (fun s -> s.Ssd_atpg.Fault.victim)
    |> Array.of_list
  in
  E.with_engine ~library:(Lazy.force lib) ~model:DM.proposed nl (fun eng ->
      let cycle k =
        let cp = E.checkpoint eng in
        E.apply eng
          (E.Set_extra_delay
             { line = victims.(k mod Array.length victims); delta = 50e-12 });
        E.revert eng cp
      in
      (* warm: the journal at its size *)
      Array.iteri (fun k _ -> cycle k) victims;
      let counters () =
        Gc.full_major ();
        let s = Gc.quick_stat () in
        (Gc.minor_words (), s.Gc.major_words -. s.Gc.promoted_words)
      in
      let cycles = 1000 in
      let minor0, direct0 = counters () in
      for k = 0 to cycles - 1 do
        cycle k
      done;
      let minor1, direct1 = counters () in
      let per x0 x1 = (x1 -. x0) /. float_of_int cycles in
      let minor = per minor0 minor1 and direct = per direct0 direct1 in
      if direct >= float_of_int n /. 8. then
        Alcotest.failf "%.1f direct major words per cycle (bound %d)" direct
          (n / 8);
      if minor > 765. /. 2. then
        Alcotest.failf "%.1f minor words per cycle (bound %.1f)" minor
          (765. /. 2.))

let test_edits_build_no_cone () =
  (* an edit visits only the nodes it recomputes, through the
     level-bucketed frontier made at create: one Set_extra_delay and its
     revert on every line of c7552s leave every window equal to a full
     re-analysis *)
  let nl =
    Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c7552s"))
  in
  E.with_engine ~library:(Lazy.force lib) ~model:DM.proposed nl (fun eng ->
      for line = 0 to Ck.Netlist.size nl - 1 do
        let cp = E.checkpoint eng in
        E.apply eng (E.Set_extra_delay { line; delta = 40e-12 });
        E.revert eng cp
      done;
      let reference = E.reanalyze eng in
      for i = 0 to Ck.Netlist.size nl - 1 do
        if not (lt_beq (E.timing eng i) (Sta.timing reference i)) then
          Alcotest.failf "line %d differs from E.reanalyze" i
      done)

let test_raising_edit_leaves_frontier_empty () =
  (* a window function that raises inside a single-line edit stops the
     drain with nodes still bucketed on higher levels; the frontier must
     come back empty, so every later propagation visits exactly what a
     twin engine that never raised visits: same windows (equal to the
     closure-walk reference), same recomputed and cutoff counts *)
  let nl =
    Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s"))
  in
  let library = Lazy.force lib in
  let pi = List.hd (Ck.Netlist.inputs nl) in
  (* the opening pass makes two window calls per gate; the edit raises
     on its fifth call *)
  let flaky = flaky_model ((2 * Ck.Netlist.gate_count nl) + 5) in
  let steady = flaky_model 0 (* never raises *) in
  let eng = E.create ~library ~model:flaky nl in
  let twin = E.create ~library ~model:steady nl in
  let spec =
    {
      RO.pi_arrival = Interval.make 0. 0.15e-9;
      pi_tt = Interval.make 0.1e-9 0.35e-9;
    }
  in
  (match E.apply eng (E.Set_pi_spec { pi; spec }) with
  | () -> Alcotest.fail "the flaky model did not raise"
  | exception Failure _ -> ());
  let gates = two_input_gates nl in
  let edits =
    [
      E.Set_pi_spec { pi; spec };
      E.Set_extra_delay { line = List.nth gates 3; delta = 30e-12 };
      E.Set_model DM.proposed;
      E.Set_extra_delay { line = pi; delta = 45e-12 };
      E.Swap_gate { node = List.nth gates 9; kind = Ck.Gate.Nor };
      E.Set_extra_delay { line = List.nth gates 3; delta = 0. };
    ]
  in
  List.iteri
    (fun k edit ->
      E.apply eng edit;
      E.apply twin edit;
      let se = E.stats eng and st = E.stats twin in
      Alcotest.(check (pair int int))
        (Printf.sprintf "edit %d: recomputed and cutoffs as the twin" k)
        (st.E.nodes_recomputed, st.E.cutoffs)
        (se.E.nodes_recomputed, se.E.cutoffs);
      Alcotest.(check bool)
        (Printf.sprintf "edit %d equals the reference" k)
        true (engine_matches eng))
    edits;
  E.close eng;
  E.close twin

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "engine.api",
      [
        Alcotest.test_case "apply validation" `Slow test_apply_validation;
        Alcotest.test_case "non-finite PI spec rejected" `Quick
          test_nonfinite_pi_spec;
        Alcotest.test_case "commit and close" `Slow test_commit_and_close;
        Alcotest.test_case "jobs-4 session edits" `Slow test_jobs4_session;
        Alcotest.test_case "jobs ignored: one lane, no pool" `Quick
          test_jobs_open_no_pool;
        Alcotest.test_case "tsim window containment, input 274715" `Quick
          test_tsim_window_regression_274715;
        Alcotest.test_case "failed edit rolls back" `Quick
          test_failed_edit_rolls_back;
        Alcotest.test_case "edit allocation guard" `Quick
          test_edit_allocation_guard;
        Alcotest.test_case "edits build no fanout cone" `Quick
          test_edits_build_no_cone;
        Alcotest.test_case "a raising edit leaves the frontier empty" `Quick
          test_raising_edit_leaves_frontier_empty;
      ] );
    qsuite "engine.props"
      [ prop_engine_bit_identical; prop_faulty_tsim_within_faulty_windows ];
  ]
