(* sta-signoff: the sign-off user running `ssd sta --clock` on a layered
   ~100k-gate design (~124k primitives).  Unit: one full one-lane
   [Sta.analyze_with] pass, then the sign-off read: the rendered PO
   report and the required-time check at the clock.  The seed draws the
   PI arrival and transition windows, which moves every window but not
   the amount of work. *)

module C = Common
module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module Windows = Ssd_sta.Windows
module Run_opts = Ssd_sta.Run_opts
module Par = Ssd_sta.Par
module DM = Ssd_core.Delay_model
module Types = Ssd_core.Types
module Interval = Ssd_util.Interval
module Texttab = Ssd_util.Texttab
module Obs = Ssd_obs.Obs

let name = "sta-signoff"
let model = DM.proposed

(* what `ssd sta` does before its first answer *)
let setup () =
  let lib = C.load_library () in
  let nl =
    Ck.Decompose.to_primitive
      (Ck.Bench_io.parse_file (C.input_file C.sta_design))
  in
  ignore (Ck.Netlist.levels nl);
  (lib, nl)

let pi_spec ~seed =
  let rng = C.Rng.create (Int64.of_int seed) in
  let a0 = C.Rng.float rng 0.1e-9 in
  let a1 = a0 +. C.Rng.float rng 0.2e-9 in
  let t0 = C.Rng.float_range rng 0.15e-9 0.25e-9 in
  let t1 = t0 +. C.Rng.float_range rng 0.2e-9 0.5e-9 in
  { Run_opts.pi_arrival = Interval.make a0 a1; pi_tt = Interval.make t0 t1 }

let opts ~seed = Run_opts.(default |> with_pi_spec (pi_spec ~seed))

(* The read `ssd sta --clock` prints after the pass: summary, one row
   per PO, then the violations of the required-time check.  It is the
   workload's query; the required-time pass makes it large enough to
   track host speed the way the pass does (the table alone takes about
   a millisecond, and between runs its median spread up to 1.6 times
   as wide as the pass's). *)
let report ~clock t nl =
  let ns iv = Interval.make (Interval.lo iv *. 1e9) (Interval.hi iv *. 1e9) in
  let table = Texttab.create ~header:[ "PO"; "rise A (ns)"; "fall A (ns)" ] in
  List.iter
    (fun po ->
      let lt = Sta.timing t po in
      Texttab.add_row table
        [ Ck.Netlist.signal_name nl po;
          Interval.to_string (ns lt.Sta.rise.Types.w_arr);
          Interval.to_string (ns lt.Sta.fall.Types.w_arr) ])
    (Ck.Netlist.outputs nl);
  let violations = Sta.violations t (Sta.compute_required t ~clock_period:clock) in
  String.concat "\n"
    ([ Sta.summary t; Texttab.render table;
       Printf.sprintf "%d timing violation(s) at clock %.3f ns"
         (List.length violations) (clock *. 1e9) ]
    @ List.map snd violations)

let analyze opts lib nl = Sta.analyze_with opts ~library:lib ~model nl

let same_pass a b =
  Windows.plane_eq (Sta.windows a) ~plane:0 (Sta.windows b) ~plane:0

(* ------------------------------------------------------------------ *)

let alloc_steps = 3

let run ~seed ~seconds =
  let lib, nl = setup () in
  let opts = opts ~seed in
  let gates = float_of_int (Ck.Netlist.gate_count nl) in
  (* the untimed warm-up pass is the reference every timed pass must
     reproduce bit for bit, report included; its max delay is the clock *)
  let reference = analyze opts lib nl in
  let clock = Sta.max_delay reference in
  let ref_report = report ~clock reference nl in
  let tally = C.tally () in
  let pass_s = C.samples () and report_s = C.samples () in
  let alloc = ref 0. and rss = ref nan in
  let step i =
    let w0 = C.words () in
    let t0 = C.now () in
    let t = analyze opts lib nl in
    let t1 = C.now () in
    let r = report ~clock t nl in
    let t2 = C.now () in
    let w1 = C.words () in
    C.push pass_s (t1 -. t0);
    C.push report_s (t2 -. t1);
    if i < alloc_steps then alloc := !alloc +. (w1 -. w0);
    if i = alloc_steps - 1 then rss := C.peak_rss_mb ();
    C.check tally
      (same_pass t reference && String.equal r ref_report)
      (Printf.sprintf "pass %d differs from the reference pass" i);
    t2 -. t0
  in
  let loop =
    C.timed_loop ~seconds ~min_steps:alloc_steps ~setups:5
      ~setup_rep:(fun () -> C.spawn_setup ~workload:name)
      step
  in
  C.emit ~tally
    (C.end_to_end ~loop
       ~units:(gates *. float_of_int loop.C.l_steps)
       ~alloc_per_unit:(!alloc /. (gates *. float_of_int alloc_steps))
       ~rss:!rss ~query:report_s ~edit:pass_s)

(* ------------------------------------------------------------------ *)

(* The scalar kernel alone: every node evaluated by [Sta.eval_node]
   from the finished pass's fan-in windows (materialized beforehand, so
   the getter allocates nothing), each result compared to the pass as
   it comes so none is kept alive. *)
let kernel_probe l tally lib nl ~pi_spec t =
  let finished = Array.init (Ck.Netlist.size nl) (Sta.timing t) in
  let get = Array.get finished in
  let windowing = Sta.windowing_of model in
  let pi_win = Sta.pi_window pi_spec in
  let order = Ck.Netlist.topo_order nl in
  let stored = Sta.windows t in
  let mismatches = ref 0 in
  Ledger.probe l "vshape" (fun () ->
      Array.iter
        (fun i ->
          let lt = Sta.eval_node ~windowing ~library:lib nl get ~pi_win ~extra:0. i in
          if not (Windows.eq stored i ~rise:lt.Sta.rise ~fall:lt.Sta.fall) then
            incr mismatches)
        order);
  C.check tally (!mismatches = 0) "kernel re-evaluation differs from the pass"

(* The traced run's pass rows on [nl] with [pi_spec]: traced one-lane
   passes checked against a plain one, each followed by the scalar
   kernel re-evaluated over it (medians of about 250k node visits, so a
   small design is timed over several passes), then the same pass at
   the host's lane count. *)
let probe l tally lib nl ~pi_spec =
  let obs = Ledger.obs l in
  let plain = Run_opts.(default |> with_pi_spec pi_spec) in
  let opts = Run_opts.with_obs obs plain in
  let n = Ck.Netlist.size nl in
  let gates = float_of_int (Ck.Netlist.gate_count nl) in
  let reference = analyze plain lib nl in
  let t = ref reference in
  for _ = 1 to max 1 (250_000 / n) do
    t := Ledger.probe l "sta.pass" (fun () -> analyze opts lib nl);
    C.check tally (same_pass !t reference) "traced pass differs from the plain one";
    kernel_probe l tally lib nl ~pi_spec !t
  done;
  let lanes = max 2 (Par.default_jobs ()) in
  let barrier = Obs.timer obs "par.barrier_wait" in
  let b0 = Obs.timer_ns barrier in
  let tn =
    Ledger.probe l "par.host_lanes" (fun () ->
        analyze (Run_opts.with_jobs lanes opts) lib nl)
  in
  C.check tally (same_pass tn reference) "multi-lane pass differs";
  let pass = Ledger.bench l "sta.pass" in
  let kernel = Ledger.bench l "vshape" in
  let wide = Ledger.bench l "par.host_lanes" in
  let busy_ns =
    List.init lanes (fun i ->
        Obs.gauge_value (Obs.gauge obs (Printf.sprintf "par.lane%d.busy_ns" i)))
    |> List.fold_left ( +. ) 0.
  in
  let med (a : Ledger.agg) = Ssd_util.Stats.quantile 0.5 a.Ledger.durs in
  let per_call_gate (a : Ledger.agg) x = x /. (float_of_int a.Ledger.calls *. gates) in
  Ledger.set l "vshape.ns_per_gate" (med kernel *. 1e9 /. gates);
  Ledger.set l "vshape.words_per_gate" (per_call_gate kernel kernel.Ledger.words);
  Ledger.set l "sta.pass_ns_per_gate" (med pass *. 1e9 /. gates);
  Ledger.set l "sta.words_per_gate" (per_call_gate pass pass.Ledger.words);
  Ledger.set l "sta.walk_share" ((med pass -. med kernel) /. med pass);
  Ledger.set l "windows.bytes_per_node"
    (float_of_int (Windows.bytes (Sta.windows !t)) /. float_of_int n);
  Ledger.set l "par.speedup" (med pass /. wide.Ledger.total_s);
  Ledger.set l "par.barrier_wait_share"
    (float_of_int (Obs.timer_ns barrier - b0) *. 1e-9 /. wide.Ledger.total_s);
  Ledger.set l "par.lane_busy_share"
    (busy_ns *. 1e-9 /. (float_of_int lanes *. wide.Ledger.total_s))

(* the unit under a sink, for the tracing overhead: one pass *)
let unit_under lib nl ~seed obs =
  ignore (analyze (Run_opts.with_obs obs (opts ~seed)) lib nl)
