(* Telemetry (ssd_obs): exact parallel aggregation, trace integrity,
   disabled-sink freeness, and the bit-identity of instrumented engine
   runs. *)

module Obs = Ssd_obs.Obs
module Par = Ssd_sta.Par
module Sta = Ssd_sta.Sta
module RO = Ssd_sta.Run_opts
module Json = Ssd_util.Json
module DM = Ssd_core.Delay_model
module Charlib = Ssd_cell.Charlib
module Ck = Ssd_circuit
module A = Ssd_atpg

open Test_support

(* ---------- counters / timers / histograms ---------- *)

let test_counter_basics () =
  let obs = Obs.create () in
  let c = Obs.counter obs "c" in
  Obs.incr c;
  Obs.add c 41;
  Alcotest.(check int) "value" 42 (Obs.counter_value c);
  Alcotest.(check bool) "same handle" true (Obs.counter obs "c" == c);
  Alcotest.(check (list (pair string int))) "listing" [ ("c", 42) ]
    (Obs.counters obs);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs.timer: c is not a timer") (fun () ->
      ignore (Obs.timer obs "c"))

(* the aggregation contract of the ISSUE: one counter incremented from
   every lane of a parallel_for sums exactly, for every lane count *)
let test_counter_parallel_exact () =
  List.iter
    (fun jobs ->
      let obs = Obs.create () in
      let c = Obs.counter obs "iters" in
      let n = 10_000 in
      Par.with_pool ~obs ~jobs (fun pool ->
          Par.parallel_for pool ~n (fun _ -> Obs.incr c));
      Alcotest.(check int)
        (Printf.sprintf "exact at jobs=%d" jobs)
        n (Obs.counter_value c))
    [ 1; 4; 0 ]

let test_timer_and_histogram () =
  let obs = Obs.create () in
  let tm = Obs.timer obs "t" in
  Obs.add_ns tm 500;
  let v = Obs.time tm (fun () -> 7) in
  Alcotest.(check int) "time returns" 7 v;
  Alcotest.(check int) "calls" 2 (Obs.timer_calls tm);
  Alcotest.(check bool) "ns accumulated" true (Obs.timer_ns tm >= 500);
  let h = Obs.histogram ~bins:2 ~lo:0. ~hi:2. obs "h" in
  Obs.observe h 0.5;
  Obs.observe h 1.5;
  Obs.observe h 1.6;
  Alcotest.(check int) "count" 3 (Obs.histogram_count h);
  (match Obs.histogram_rows h with
  | [ (_, _, c0); (_, _, c1) ] ->
    Alcotest.(check int) "low bin" 1 c0;
    Alcotest.(check int) "high bin" 2 c1
  | rows -> Alcotest.failf "want 2 rows, got %d" (List.length rows));
  let contains r s =
    let nr = String.length r and ns = String.length s in
    let rec go i = i + ns <= nr && (String.sub r i ns = s || go (i + 1)) in
    go 0
  in
  let r = Obs.report obs in
  Alcotest.(check bool) "report mentions the timer" true (contains r "| t ");
  Alcotest.(check bool) "report mentions the histogram" true
    (contains r "| h ")

(* histogram samples recorded concurrently from many domains all land *)
let test_histogram_parallel () =
  let obs = Obs.create () in
  let h = Obs.histogram ~bins:4 ~lo:0. ~hi:4. obs "lanes" in
  let n = 4_000 in
  Par.with_pool ~obs ~jobs:4 (fun pool ->
      Par.parallel_for pool ~n (fun i ->
          Obs.observe h (float_of_int (i mod 4))));
  Alcotest.(check int) "all samples" n (Obs.histogram_count h);
  List.iter
    (fun (_, _, c) -> Alcotest.(check int) "uniform bins" (n / 4) c)
    (Obs.histogram_rows h)

(* a histogram keeps fixed-edge counts and running totals, never the
   samples: 100k observations leave everything the sink reaches the
   same size *)
let test_histogram_bounded () =
  let obs = Obs.create () in
  let h = Obs.histogram ~bins:20 ~lo:0. ~hi:100. obs "bounded" in
  Obs.observe h 1.;
  let words () = Obj.reachable_words (Obj.repr obs) in
  let w0 = words () in
  for i = 1 to 100_000 do
    Obs.observe h (float_of_int (i mod 150))
  done;
  let grown = words () - w0 in
  Alcotest.(check int) "count" 100_001 (Obs.histogram_count h);
  if grown <> 0 then
    Alcotest.failf "the sink grew by %d words over 100k observations" grown;
  List.iter
    (fun sink ->
      Alcotest.check_raises "hi <= lo rejected at creation"
        (Invalid_argument "Obs.histogram: hi <= lo") (fun () ->
          ignore (Obs.histogram ~lo:1. ~hi:1. sink "bad")))
    [ obs; Obs.disabled ]

(* with fixed edges the rows are Stats.histogram's over the same samples
   (out-of-range ones in the edge bins), and on one domain the running
   sum is the samples' left fold *)
let prop_histogram_matches_stats =
  QCheck.Test.make ~name:"histogram rows equal Stats.histogram" ~count:200
    QCheck.(
      triple (int_range 1 12)
        (pair (float_range (-50.) 50.) (float_range 1e-3 100.))
        (small_list (float_range (-200.) 200.)))
    (fun (bins, (lo, width), xs) ->
      let hi = lo +. width in
      let obs = Obs.create () in
      let h = Obs.histogram ~bins ~lo ~hi obs "h" in
      List.iter (Obs.observe h) xs;
      let hs = List.assoc "h" (Obs.snapshot obs).Obs.sn_histograms in
      Obs.histogram_rows h = Ssd_util.Stats.histogram ~lo ~hi ~bins xs
      && hs.Obs.hs_rows = Obs.histogram_rows h
      && hs.Obs.hs_count = List.length xs
      && beq hs.Obs.hs_sum (List.fold_left ( +. ) 0. xs))

(* ---------- disabled sink ---------- *)

let test_disabled_sink_free () =
  let obs = Obs.disabled in
  Alcotest.(check bool) "disabled" false (Obs.enabled obs);
  let c = Obs.counter obs "x" in
  let tm = Obs.timer obs "y" in
  let h = Obs.histogram ~lo:0. ~hi:1. obs "z" in
  (* no-op instruments are physically shared: creation allocates nothing *)
  Alcotest.(check bool) "counter shared" true (c == Obs.counter obs "other");
  Alcotest.(check bool) "timer shared" true (tm == Obs.timer obs "other");
  Alcotest.(check bool) "histogram shared" true
    (h == Obs.histogram ~lo:0. ~hi:1. obs "w");
  (* updates do not allocate: minor words stay flat across 10k calls *)
  let m0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.incr c;
    Obs.add c 3;
    Obs.add_ns tm 5;
    Obs.observe h 1.
  done;
  let dm = Gc.minor_words () -. m0 in
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on disabled path (%.0f words)" dm)
    true
    (dm < 256.);
  Alcotest.(check int) "counter stays 0" 0 (Obs.counter_value c);
  Alcotest.(check string) "report empty" "" (Obs.report obs);
  Alcotest.(check bool) "no events" true (Obs.trace_events obs = []);
  (* span on the disabled sink is exactly the thunk *)
  Alcotest.(check int) "span passthrough" 9 (Obs.span obs tm (fun () -> 9))

(* ---------- tracing ---------- *)

let test_trace_json_valid_and_monotone () =
  let obs = Obs.create ~trace:true () in
  let tm = Obs.timer obs "work" in
  for _ = 1 to 5 do
    Obs.span obs tm (fun () -> ignore (Sys.opaque_identity (ref 0)))
  done;
  Obs.span obs ~event:"named" tm (fun () -> ());
  Obs.set_track_name obs ~tid:(Domain.self () :> int) "main";
  let events = Obs.trace_events obs in
  Alcotest.(check int) "6 events" 6 (List.length events);
  (* per-track timestamps are monotone non-decreasing *)
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.event) ->
      let prev =
        Option.value ~default:neg_infinity (Hashtbl.find_opt by_tid e.ev_tid)
      in
      Alcotest.(check bool) "monotone in track" true (e.ev_ts >= prev);
      Alcotest.(check bool) "nonneg duration" true (e.ev_dur >= 0.);
      Hashtbl.replace by_tid e.ev_tid e.ev_ts)
    events;
  (* export parses back and carries the metadata *)
  match Json.parse (Obs.trace_json obs) with
  | Error e -> Alcotest.failf "invalid trace JSON: %s" e
  | Ok json ->
    let evs =
      match Json.member "traceEvents" json with
      | Some l -> Json.to_list l
      | None -> Alcotest.fail "no traceEvents"
    in
    let phases =
      List.filter_map
        (fun e -> Option.bind (Json.member "ph" e) Json.string_value)
        evs
    in
    Alcotest.(check int) "complete events" 6
      (List.length (List.filter (( = ) "X") phases));
    Alcotest.(check bool) "has thread_name metadata" true
      (List.exists
         (fun e ->
           Option.bind (Json.member "name" e) Json.string_value
           = Some "thread_name")
         evs);
    Alcotest.(check bool) "has the named span" true
      (List.exists
         (fun e ->
           Option.bind (Json.member "name" e) Json.string_value
           = Some "named")
         evs)

let test_write_file_atomic () =
  let path = Filename.temp_file "ssd_obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.write_file_atomic path ~contents:"hello";
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "contents" "hello" s;
      (* no temp litter left next to the target *)
      let dir = Filename.dirname path in
      let base = Filename.basename path in
      Alcotest.(check bool) "no temp files" true
        (Array.for_all
           (fun f ->
             not
               (String.length f > String.length base
               && String.sub f 0 (String.length base) = base))
           (Sys.readdir dir)))

(* ---------- instrumented engines stay bit-identical ---------- *)

let lib = lazy (Charlib.default ~profile:Charlib.coarse ())

let test_sta_instrumented_identical () =
  let library = Lazy.force lib in
  let nl = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ()) in
  let base = Sta.analyze_with RO.default ~library ~model:DM.proposed nl in
  List.iter
    (fun (tag, jobs, trace) ->
      let obs = Obs.create ~trace () in
      let t =
        Sta.analyze_with (RO.make ~jobs ~obs ()) ~library ~model:DM.proposed nl
      in
      Alcotest.(check bool) (tag ^ " identical") true (sta_beq base t);
      Alcotest.(check int)
        (tag ^ " counted every gate")
        (Array.fold_left
           (fun acc level ->
             Array.fold_left
               (fun acc i -> if Ck.Netlist.is_pi nl i then acc else acc + 1)
               acc level)
           0 (Ck.Netlist.levels nl))
        (Obs.counter_value (Obs.counter obs "sta.gates")))
    [ ("instr j1", 1, false); ("instr j4", 4, false);
      ("instr j4 traced", 4, true) ]

let test_fault_sim_instrumented_identical () =
  let library = Lazy.force lib in
  let nl = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ()) in
  let sta = Sta.analyze_with RO.default ~library ~model:DM.proposed nl in
  let clock = Sta.max_delay sta in
  let sites =
    A.Fault.extract ~count:12 ~delta:60e-12 ~align_window:2500e-12 ~seed:5L nl
  in
  let vectors = A.Fault_sim.random_vectors ~seed:2L ~count:24 nl in
  let run ?(obs = Obs.disabled) ~jobs () =
    A.Fault_sim.simulate_with (RO.make ~jobs ~obs ()) ~library
      ~model:DM.proposed      ~clock_period:clock nl sites vectors
  in
  let base = run ~jobs:1 () in
  let obs = Obs.create () in
  let instr = run ~obs ~jobs:4 () in
  Alcotest.(check bool) "detected identical" true
    (instr.A.Fault_sim.detected = base.A.Fault_sim.detected);
  Alcotest.(check bool) "undetected identical" true
    (instr.A.Fault_sim.undetected = base.A.Fault_sim.undetected);
  Alcotest.(check bool) "coverage identical" true
    (beq instr.A.Fault_sim.coverage base.A.Fault_sim.coverage);
  (* the screening economics are consistent: detected + undetected =
     sites, and every fault-free simulation covered every vector once *)
  let cv n = Obs.counter_value (Obs.counter obs n) in
  Alcotest.(check int) "ff sims = vectors" (List.length vectors)
    (cv "faultsim.ff_sims");
  Alcotest.(check int) "outcome split"
    (List.length sites)
    (cv "faultsim.detected" + cv "faultsim.undetected")

(* ---------- monotonic clock ---------- *)

let test_monotonic_now () =
  let prev = ref (Obs.now ()) in
  for _ = 1 to 1_000 do
    let t = Obs.now () in
    Alcotest.(check bool) "now non-decreasing" true (t >= !prev);
    prev := t
  done;
  let n0 = Obs.monotonic_ns () in
  let n1 = Obs.monotonic_ns () in
  Alcotest.(check bool) "ns non-decreasing" true (Int64.compare n1 n0 >= 0)

(* ---------- gauges ---------- *)

let test_gauge_basics () =
  let obs = Obs.create () in
  let g = Obs.gauge obs "g" in
  Alcotest.(check (float 0.)) "initial" 0. (Obs.gauge_value g);
  Obs.set_gauge g 4.5;
  Obs.set_gauge g 2.5;
  Alcotest.(check (float 0.)) "last write wins" 2.5 (Obs.gauge_value g);
  Alcotest.(check bool) "same handle" true (Obs.gauge obs "g" == g);
  Alcotest.(check (list (pair string (float 0.)))) "listing" [ ("g", 2.5) ]
    (Obs.gauges obs);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs.counter: g is not a counter") (fun () ->
      ignore (Obs.counter obs "g"))

let test_disabled_gauge_and_snapshot_free () =
  let obs = Obs.disabled in
  let g = Obs.gauge obs "x" in
  Alcotest.(check bool) "gauge shared" true (g == Obs.gauge obs "other");
  (* the empty snapshot of the disabled sink is one shared value *)
  Alcotest.(check bool) "snapshot shared" true
    (Obs.snapshot obs == Obs.snapshot obs);
  let m0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.set_gauge g 1.;
    ignore (Sys.opaque_identity (Obs.snapshot obs))
  done;
  let dm = Gc.minor_words () -. m0 in
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on disabled path (%.0f words)" dm)
    true (dm < 256.);
  Alcotest.(check (float 0.)) "gauge stays 0" 0. (Obs.gauge_value g)

(* ---------- spans: hierarchy, self time, GC attribution ---------- *)

let test_span_hierarchy () =
  let obs = Obs.create ~trace:true () in
  let tm = Obs.timer obs "outer" in
  let tmi = Obs.timer obs "inner" in
  Obs.span obs tm (fun () ->
      Obs.span obs ~event:"a" tmi (fun () ->
          (* 129 words: comfortably a minor-heap allocation *)
          ignore (Sys.opaque_identity (Array.make 128 0.)));
      Obs.span obs ~event:"b" tmi (fun () -> ()));
  let sn = Obs.snapshot obs in
  match sn.Obs.sn_spans with
  | [ root ] ->
    Alcotest.(check string) "root name" "outer" root.Obs.sp_name;
    Alcotest.(check (list string))
      "children in start order" [ "a"; "b" ]
      (List.map (fun n -> n.Obs.sp_name) root.Obs.sp_children);
    List.iter
      (fun c ->
        Alcotest.(check bool) "child interval within parent" true
          (c.Obs.sp_start_s >= root.Obs.sp_start_s -. 1e-9
          && c.Obs.sp_start_s +. c.Obs.sp_total_s
             <= root.Obs.sp_start_s +. root.Obs.sp_total_s +. 1e-9))
      root.Obs.sp_children;
    let child_total =
      List.fold_left
        (fun acc c -> acc +. c.Obs.sp_total_s)
        0. root.Obs.sp_children
    in
    Alcotest.(check bool) "self = total - children" true
      (Float.abs (root.Obs.sp_self_s -. (root.Obs.sp_total_s -. child_total))
      < 1e-6);
    (* the array allocated inside span "a" is attributed to it, not to
       the enclosing span's self allocation *)
    let a = List.hd root.Obs.sp_children in
    Alcotest.(check bool) "child allocation attributed" true
      (a.Obs.sp_minor_words >= 129.);
    Alcotest.(check bool) "parent self excludes child allocation" true
      (root.Obs.sp_self_minor_words
      <= root.Obs.sp_minor_words -. a.Obs.sp_minor_words);
    Alcotest.(check bool) "timer self <= total" true
      (Obs.timer_self_ns tm <= Obs.timer_ns tm)
  | l -> Alcotest.failf "want 1 root span, got %d roots" (List.length l)

(* spans of two sinks nested on one domain: each sink's forest links a
   span to its nearest enclosing span of the same sink *)
let test_span_sinks_apart () =
  let a = Obs.create ~trace:true () and b = Obs.create ~trace:true () in
  let ta = Obs.timer a "a" and tb = Obs.timer b "b" in
  Obs.span a ~event:"outer" ta (fun () ->
      Obs.span b ~event:"mid" tb (fun () ->
          Obs.span a ~event:"deep" ta (fun () -> ())));
  let rec shape (n : Obs.span_node) =
    n.Obs.sp_name ^ "(" ^ String.concat "," (List.map shape n.Obs.sp_children)
    ^ ")"
  in
  let forest o = List.map shape (Obs.snapshot o).Obs.sn_spans in
  Alcotest.(check (list string)) "sink a" [ "outer(deep())" ] (forest a);
  Alcotest.(check (list string)) "sink b" [ "mid()" ] (forest b)

(* on an enabled sink that does not trace, a span and [Obs.time]
   allocate no more than their thunk's closure: the frame stack is
   preallocated per domain and no Gc record is read *)
let test_span_allocation_free () =
  let obs = Obs.create () in
  let tm = Obs.timer obs "quiet" in
  let hits = ref 0 in
  let call = Sys.opaque_identity (fun f -> f ()) in
  let n = 10_000 in
  let per_call body =
    body ();
    let m0 = Gc.minor_words () in
    for _ = 1 to n do
      body ()
    done;
    (Gc.minor_words () -. m0) /. float_of_int n
  in
  let closure = per_call (fun () -> call (fun () -> incr hits)) in
  let span = per_call (fun () -> Obs.span obs tm (fun () -> incr hits)) in
  let timed = per_call (fun () -> Obs.time tm (fun () -> incr hits)) in
  Alcotest.(check int) "every thunk ran" (3 * (n + 1)) !hits;
  Alcotest.(check int) "every call timed" (2 * (n + 1)) (Obs.timer_calls tm);
  List.iter
    (fun (what, words) ->
      if words > closure then
        Alcotest.failf "%s: %.2f words per call, the closure alone %.2f" what
          words closure)
    [ ("span", span); ("time", timed) ]

(* span forests produced under the worker pool are structurally valid
   at every lane count: intervals nest, tracks agree, self and child
   times decompose the total, GC attribution is non-negative *)
let rec nest obs tm depth =
  if depth > 0 then
    Obs.span obs ~event:(Printf.sprintf "d%d" depth) tm (fun () ->
        ignore (Sys.opaque_identity (ref 0));
        nest obs tm (depth - 1))

let rec valid_node ?parent (n : Obs.span_node) =
  let ok_parent =
    match parent with
    | None -> true
    | Some (p : Obs.span_node) ->
      n.Obs.sp_tid = p.Obs.sp_tid
      && n.Obs.sp_start_s >= p.Obs.sp_start_s -. 1e-9
      && n.Obs.sp_start_s +. n.Obs.sp_total_s
         <= p.Obs.sp_start_s +. p.Obs.sp_total_s +. 1e-9
  in
  let child_total =
    List.fold_left (fun a c -> a +. c.Obs.sp_total_s) 0. n.Obs.sp_children
  in
  ok_parent
  && n.Obs.sp_total_s >= 0.
  && n.Obs.sp_self_s >= 0.
  && n.Obs.sp_self_s <= n.Obs.sp_total_s +. 1e-9
  && child_total <= n.Obs.sp_total_s +. 1e-6
  && n.Obs.sp_minor_words >= 0.
  && n.Obs.sp_self_minor_words >= 0.
  && n.Obs.sp_promoted_words >= 0.
  && List.for_all (fun c -> valid_node ~parent:n c) n.Obs.sp_children

let prop_span_forest_valid_under_pool =
  QCheck.Test.make ~name:"span forest valid under pool (jobs 1 and 4)"
    ~count:15
    QCheck.(small_list (int_range 0 3))
    (fun depths ->
      List.for_all
        (fun jobs ->
          let obs = Obs.create ~trace:true () in
          let tm = Obs.timer obs "nest" in
          let d = Array.of_list depths in
          Par.with_pool ~obs ~jobs (fun pool ->
              Par.parallel_for pool ~n:(Array.length d) (fun i ->
                  nest obs tm d.(i)));
          let sn = Obs.snapshot obs in
          let rec count_nest (n : Obs.span_node) =
            (if String.length n.Obs.sp_name > 0 && n.Obs.sp_name.[0] = 'd'
             then 1
             else 0)
            + List.fold_left (fun a c -> a + count_nest c) 0 n.Obs.sp_children
          in
          let got =
            List.fold_left (fun a r -> a + count_nest r) 0 sn.Obs.sn_spans
          in
          got = List.fold_left ( + ) 0 depths
          && List.for_all (fun r -> valid_node r) sn.Obs.sn_spans)
        [ 1; 4 ])

(* ---------- snapshot export ---------- *)

let test_prometheus_golden () =
  let sn =
    {
      Obs.sn_counters = [ ("mc.chunks", 3); ("a\\b", 1) ];
      sn_gauges = [ ("par.lane0.busy_ns", 12.) ];
      sn_timers =
        [ ("engine.edit",
           { Obs.st_calls = 2; st_total_s = 0.5; st_self_s = 0.25 }) ];
      sn_histograms =
        [ ("h-x",
           { Obs.hs_count = 3;
             hs_sum = 3.5;
             hs_rows = [ (0., 1., 1); (1., 2., 2) ];
           }) ];
      sn_spans = [];
    }
  in
  let expected =
    String.concat "\n"
      [
        "# HELP ssd_mc_chunks_total counter mc.chunks";
        "# TYPE ssd_mc_chunks_total counter";
        "ssd_mc_chunks_total 3";
        "# HELP ssd_a_b_total counter a\\\\b";
        "# TYPE ssd_a_b_total counter";
        "ssd_a_b_total 1";
        "# HELP ssd_par_lane0_busy_ns gauge par.lane0.busy_ns";
        "# TYPE ssd_par_lane0_busy_ns gauge";
        "ssd_par_lane0_busy_ns 12";
        "# HELP ssd_engine_edit_calls_total timer engine.edit calls";
        "# TYPE ssd_engine_edit_calls_total counter";
        "ssd_engine_edit_calls_total 2";
        "# HELP ssd_engine_edit_seconds_total timer engine.edit total seconds";
        "# TYPE ssd_engine_edit_seconds_total counter";
        "ssd_engine_edit_seconds_total 0.5";
        "# HELP ssd_engine_edit_self_seconds_total timer engine.edit self \
         seconds";
        "# TYPE ssd_engine_edit_self_seconds_total counter";
        "ssd_engine_edit_self_seconds_total 0.25";
        "# HELP ssd_h_x histogram h-x";
        "# TYPE ssd_h_x histogram";
        "ssd_h_x_bucket{le=\"1\"} 1";
        "ssd_h_x_bucket{le=\"2\"} 3";
        "ssd_h_x_bucket{le=\"+Inf\"} 3";
        "ssd_h_x_sum 3.5";
        "ssd_h_x_count 3";
        "";
      ]
  in
  Alcotest.(check string) "exposition" expected (Obs.to_prometheus sn)

let test_snapshot_json_roundtrip () =
  let obs = Obs.create ~trace:true () in
  let c = Obs.counter obs "c" in
  Obs.add c 5;
  let g = Obs.gauge obs "g" in
  Obs.set_gauge g 1.25;
  let tm = Obs.timer obs "t" in
  Obs.span obs tm (fun () -> Obs.span obs ~event:"inner" tm (fun () -> ()));
  let h = Obs.histogram ~bins:2 ~lo:0. ~hi:2. obs "h" in
  Obs.observe h 0.5;
  Obs.observe h 1.5;
  let j = Obs.snapshot_to_json (Obs.snapshot obs) in
  match Json.parse (Json.to_string j) with
  | Error e -> Alcotest.failf "snapshot JSON does not parse: %s" e
  | Ok j' ->
    Alcotest.(check bool) "round-trips structurally" true (j = j');
    let counters = Option.get (Json.member "counters" j') in
    Alcotest.(check (option (float 0.))) "counter value" (Some 5.)
      (Option.bind (Json.member "c" counters) Json.number_value);
    let spans = Json.to_list (Option.get (Json.member "spans" j')) in
    Alcotest.(check int) "one root span" 1 (List.length spans);
    let kids =
      Json.to_list (Option.get (Json.member "children" (List.hd spans)))
    in
    Alcotest.(check int) "one child span" 1 (List.length kids)

(* ---------- instrumented Monte-Carlo stays bit-identical ---------- *)

module CS = Ssd_sta.Corner_sta

let test_mc_instrumented_identical () =
  let library = Lazy.force lib in
  let nl = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ()) in
  let run ~jobs ~obs =
    CS.monte_carlo
      ~opts:(RO.make ~jobs ~obs ~mc_batch:2 ())
      ~samples:6 ~seed:7L ~library nl
  in
  let base = run ~jobs:1 ~obs:Obs.disabled in
  List.iter
    (fun jobs ->
      let obs = Obs.create ~trace:true () in
      let r = run ~jobs ~obs in
      Alcotest.(check bool)
        (Printf.sprintf "mc_max identical at jobs=%d" jobs)
        true
        (Array.for_all2 beq base.CS.mc_max r.CS.mc_max);
      Alcotest.(check bool)
        (Printf.sprintf "mc_delays identical at jobs=%d" jobs)
        true
        (Array.for_all2
           (fun a b -> Array.for_all2 beq a b)
           base.CS.mc_delays r.CS.mc_delays);
      (* instrumented runs go through the pool: lane-0 busy gauge exists *)
      Alcotest.(check bool)
        (Printf.sprintf "lane0 busy gauge at jobs=%d" jobs)
        true
        (List.exists
           (fun (n, v) -> n = "par.lane0.busy_ns" && v > 0.)
           (Obs.gauges obs));
      (* chunk spans landed: ceil (6 / 2) chunks *)
      Alcotest.(check int)
        (Printf.sprintf "chunk spans at jobs=%d" jobs)
        3
        (Obs.timer_calls (Obs.timer obs "mc.chunk")))
    [ 1; 4 ]

let suites =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "parallel counters exact" `Quick
          test_counter_parallel_exact;
        Alcotest.test_case "timer and histogram" `Quick
          test_timer_and_histogram;
        Alcotest.test_case "parallel histogram" `Quick
          test_histogram_parallel;
        Alcotest.test_case "histogram keeps no samples" `Quick
          test_histogram_bounded;
        QCheck_alcotest.to_alcotest prop_histogram_matches_stats;
        Alcotest.test_case "monotonic clock" `Quick test_monotonic_now;
        Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
      ] );
    ( "obs.disabled",
      [
        Alcotest.test_case "near-zero cost" `Quick test_disabled_sink_free;
        Alcotest.test_case "gauge and snapshot free" `Quick
          test_disabled_gauge_and_snapshot_free;
      ] );
    ( "obs.spans",
      [
        Alcotest.test_case "hierarchy, self time, GC attribution" `Quick
          test_span_hierarchy;
        Alcotest.test_case "no allocation off the trace" `Quick
          test_span_allocation_free;
        Alcotest.test_case "sinks keep their own stacks" `Quick
          test_span_sinks_apart;
        QCheck_alcotest.to_alcotest prop_span_forest_valid_under_pool;
      ] );
    ( "obs.snapshot",
      [
        Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
        Alcotest.test_case "snapshot JSON round-trip" `Quick
          test_snapshot_json_roundtrip;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "valid JSON, monotone tracks" `Quick
          test_trace_json_valid_and_monotone;
        Alcotest.test_case "atomic write" `Quick test_write_file_atomic;
      ] );
    ( "obs.engines",
      [
        Alcotest.test_case "instrumented STA bit-identical" `Quick
          test_sta_instrumented_identical;
        Alcotest.test_case "instrumented fault-sim bit-identical" `Quick
          test_fault_sim_instrumented_identical;
        Alcotest.test_case "instrumented Monte-Carlo bit-identical" `Quick
          test_mc_instrumented_identical;
      ] );
  ]
