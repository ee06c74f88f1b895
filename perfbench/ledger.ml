(* The traced run's per-layer ledger.

   One tracing Obs sink per run.  The benchmark wraps each call into a
   layer in its own span ("bench.<layer>...") at one lane; the same
   sink rides [Run_opts.obs], so the library's existing spans -- mc.chunk,
   corners.refit, mc.sweep, the sta.level and engine.edit families,
   atpg.fault and the pool's lanes -- nest under the benchmark's.
   Per-layer metrics are read back from the recorded events: self time
   and self minor words per span. *)

module Obs = Ssd_obs.Obs
module Texttab = Ssd_util.Texttab

(* Every per-layer metric with its unit, in BENCHMARK.json order.  Every
   traced run measures all of them: the set-up and pass rows on its
   workload's own design, the serve-stack rows on the ECO design, the
   Corners, batched-kernel and Monte-Carlo rows on the ~5k-gate
   Monte-Carlo design, and the ITR, ATPG and fault-simulation rows on
   c880s. *)
let catalogue =
  [
    ("charlib.load_ms", "ms");
    ("corners.build_ms", "ms");
    ("corners.refit_us", "us");
    ("corners.refit_words", "words");
    ("bench_io.parse_ns_per_gate", "ns");
    ("bench_io.words_per_gate", "words");
    ("decompose.ns_per_gate", "ns");
    ("decompose.words_per_gate", "words");
    ("netlist.levels_ns_per_gate", "ns");
    ("netlist.bytes_per_node", "bytes");
    ("vshape.ns_per_gate", "ns");
    ("vshape.words_per_gate", "words");
    ("corner_batch.ns_per_gate_corner", "ns");
    ("corner_batch.words_per_gate_corner", "words");
    ("sta.pass_ns_per_gate", "ns");
    ("sta.words_per_gate", "words");
    ("sta.walk_share", "ratio");
    ("windows.bytes_per_node", "bytes");
    ("par.speedup", "ratio");
    ("par.barrier_wait_share", "ratio");
    ("par.lane_busy_share", "ratio");
    ("mc.refit_share", "ratio");
    ("mc.sweep_share", "ratio");
    ("mc.extract_share", "ratio");
    ("mc.refit_words_per_sample", "words");
    ("mc.sweep_words_per_sample", "words");
    ("mc.extract_words_per_sample", "words");
    ("engine.create_ms", "ms");
    ("engine.apply_us", "us");
    ("engine.apply_p90_us", "us");
    ("engine.revert_us", "us");
    ("engine.words_per_edit", "words");
    ("engine.nodes_per_edit", "count");
    ("engine.cutoff_ratio", "ratio");
    ("protocol.parse_us", "us");
    ("protocol.render_us", "us");
    ("protocol.words_per_req", "words");
    ("server.dispatch_query_us", "us");
    ("server.dispatch_edit_us", "us");
    ("server.words_per_req", "words");
    ("transport.us_per_req", "us");
    ("itr.create_us", "us");
    ("itr.assign_us", "us");
    ("itr.words_per_assign", "words");
    ("atpg.efficiency_pct", "%");
    ("atpg.expansions_per_fault", "count");
    ("atpg.us_per_expansion", "us");
    ("fault_sim.us_per_fault", "us");
    ("fault_sim.resim_ratio", "ratio");
    ("obs.overhead_pct", "%");
  ]

type t = { obs : Obs.t; mutable values : (string * float) list }

let create () = { obs = Obs.create ~trace:true (); values = [] }
let obs t = t.obs

let set t name v =
  if not (List.mem_assoc name catalogue) then
    invalid_arg ("Ledger.set: unknown metric " ^ name);
  t.values <- (name, v) :: List.remove_assoc name t.values

(* Run [f] as the benchmark span "bench.<name>". *)
let probe t name f = Obs.span t.obs (Obs.timer t.obs ("bench." ^ name)) f

type agg = {
  calls : int;
  total_s : float;
  self_s : float;
  words : float;
  self_words : float;
  durs : float list;  (** per-call durations, seconds *)
}

let agg_of events name =
  List.fold_left
    (fun a (e : Obs.event) ->
      if e.Obs.ev_name <> name then a
      else
        {
          calls = a.calls + 1;
          total_s = a.total_s +. e.Obs.ev_dur;
          self_s = a.self_s +. e.Obs.ev_self;
          words = a.words +. e.Obs.ev_minor_words;
          self_words = a.self_words +. e.Obs.ev_self_minor_words;
          durs = e.Obs.ev_dur :: a.durs;
        })
    { calls = 0; total_s = 0.; self_s = 0.; words = 0.; self_words = 0.;
      durs = [] }
    events

let mean_us a = a.total_s *. 1e6 /. float_of_int a.calls

(* Aggregate over every recorded event of one span name (benchmark
   spans are "bench.<name>"; library spans keep their own names). *)
let span t name = agg_of (Obs.trace_events t.obs) name
let bench t name = span t ("bench." ^ name)

(* Tracing overhead: the same unit alternately under a fresh tracing
   sink and the disabled one, for at least three pairs and [seconds] of
   both; (median traced / median plain - 1) %. *)
let overhead_pct ~seconds unit_of_obs =
  let traced = ref [] and plain = ref [] and spent = ref 0. in
  let time o =
    let t0 = Obs.now () in
    unit_of_obs o;
    let dt = Obs.now () -. t0 in
    spent := !spent +. dt;
    dt
  in
  while List.length !traced < 3 || !spent < seconds do
    traced := time (Obs.create ~trace:true ()) :: !traced;
    plain := time Obs.disabled :: !plain
  done;
  let med l = Ssd_util.Stats.quantile 0.5 l in
  ((med !traced /. med !plain) -. 1.) *. 100.

(* Write the Chrome trace and the snapshot, validate the trace with
   tools/trace_check.exe, print the benchmark-side span table, and
   return whether the trace was accepted. *)
let finish t ~trace_check ~prefix =
  let trace_path = prefix ^ ".trace.json" in
  let snap_path = prefix ^ ".snapshot.json" in
  Obs.write_trace t.obs trace_path;
  Obs.write_snapshot t.obs snap_path;
  let pid =
    Unix.create_process trace_check
      [| trace_check; trace_path |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let accepted = status = Unix.WEXITED 0 in
  let events = Obs.trace_events t.obs in
  let names =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Obs.event) ->
           if String.starts_with ~prefix:"bench." e.Obs.ev_name then
             Some e.Obs.ev_name
           else None)
         events)
  in
  let tab =
    Texttab.create
      ~header:[ "benchmark span"; "calls"; "self s"; "self minor words" ]
  in
  List.iter
    (fun n ->
      let a = agg_of events n in
      Texttab.add_row tab
        [ n; string_of_int a.calls; Printf.sprintf "%.6f" a.self_s;
          Printf.sprintf "%.0f" a.self_words ])
    names;
  Texttab.print tab;
  Printf.printf "trace %s (%s by trace_check), snapshot %s\n" trace_path
    (if accepted then "accepted" else "REJECTED")
    snap_path;
  accepted

(* The full per-layer metric list; a row left unmeasured is a failed
   check. *)
let metrics t tally =
  List.map
    (fun (name, unit_) ->
      let v = List.assoc_opt name t.values in
      Common.check tally (v <> None) ("per-layer row not measured: " ^ name);
      Common.metric name unit_ (Option.value ~default:nan v))
    catalogue

(* The set-up layers on one design file: library load, parse,
   decompose and levelize, probed in that order.  Parse and decompose
   are per parsed gate, levelize per primitive gate. *)
let setup_layers t ~file =
  let module Ck = Ssd_circuit in
  let lib = Common.load_library ~wrap:(probe t "charlib.load") () in
  let raw = probe t "bench_io.parse" (fun () -> Ck.Bench_io.parse_file file) in
  let nl = probe t "decompose" (fun () -> Ck.Decompose.to_primitive raw) in
  ignore (probe t "netlist.levels" (fun () -> Ck.Netlist.levels nl));
  let per n x = x /. float_of_int n in
  let g_raw = Ck.Netlist.gate_count raw and g = Ck.Netlist.gate_count nl in
  set t "charlib.load_ms" ((bench t "charlib.load").total_s *. 1e3);
  let p = bench t "bench_io.parse" in
  set t "bench_io.parse_ns_per_gate" (per g_raw (p.self_s *. 1e9));
  set t "bench_io.words_per_gate" (per g_raw p.self_words);
  let d = bench t "decompose" in
  set t "decompose.ns_per_gate" (per g_raw (d.self_s *. 1e9));
  set t "decompose.words_per_gate" (per g_raw d.self_words);
  let l = bench t "netlist.levels" in
  set t "netlist.levels_ns_per_gate" (per g (l.self_s *. 1e9));
  set t "netlist.bytes_per_node"
    (per (Ck.Netlist.size nl) (float_of_int (Ck.Netlist.mem_bytes nl)));
  (lib, nl)
