(* The variation user's flow as `ssd mc` runs it: 256-sample
   [Corner_sta.monte_carlo] calls at one lane in 16-wide chunks over the
   layered ~5k-gate design.  Its layers -- Corners, the batched kernel
   and the Monte-Carlo chunk loop -- are probed in every traced run.
   It is not a timed workload: its compute-bound kernel follows the
   host's speed more closely than the other workloads do, and over ten
   runs its throughput spread by 0.20 of itself and its latency medians
   by up to 0.27, past the largest allowed bound. *)

module C = Common
module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module Corner_sta = Ssd_sta.Corner_sta
module Run_opts = Ssd_sta.Run_opts
module Corners = Ssd_cell.Corners
module Types = Ssd_core.Types
module Interval = Ssd_util.Interval

let model = Ssd_core.Delay_model.proposed
let samples = 256
let k = 16

(* Two sampled corners of a call re-run through the scalar path -- the
   derated library and a plain one-lane [Sta.analyze_with] -- must
   match the batched call bit for bit. *)
let check_corners tally lib nl (res : Corner_sta.mc_result) ~seed =
  let rng = C.Rng.create seed in
  List.iter
    (fun s ->
      let dlib = Corners.derate_library res.Corner_sta.mc_specs.(s) lib in
      let t = Sta.analyze_with Run_opts.default ~library:dlib ~model nl in
      let po_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun pi po ->
               let lt = Sta.timing t po in
               C.same_bits res.Corner_sta.mc_delays.(pi).(s)
                 (Float.max
                    (Interval.hi lt.Sta.rise.Types.w_arr)
                    (Interval.hi lt.Sta.fall.Types.w_arr)))
             res.Corner_sta.mc_pos)
      in
      C.check tally
        (po_ok && C.same_bits res.Corner_sta.mc_max.(s) (Sta.max_delay t))
        (Printf.sprintf "Monte-Carlo sample %d differs from the scalar path" s))
    [ C.Rng.int rng samples; C.Rng.int rng samples ]

(* [seed] draws the sampled corners *)
let probe l tally lib ~seed =
  let obs = Ledger.obs l in
  let nl =
    Ck.Decompose.to_primitive (Ck.Bench_io.parse_file (C.input_file C.mc_design))
  in
  let seed = Int64.of_int seed in
  let opts = Run_opts.with_obs obs Run_opts.default in
  let gates = float_of_int (Ck.Netlist.gate_count nl) in
  let specs = Array.of_list (Corners.sample_specs ~seed (9 * k)) in
  let chunk j = Array.sub specs (j * k) k in
  let table =
    Ledger.probe l "corners.build" (fun () ->
        Corners.build ~specs:(Array.to_list (chunk 0)) lib)
  in
  for j = 1 to 8 do
    Ledger.probe l "corners.refit" (fun () -> Corners.refit table (chunk j))
  done;
  (* one batched sweep of the K-corner table, corner 0 checked against
     the scalar pass over its derated library *)
  let swept =
    Ledger.probe l "corner_batch.sweep" (fun () ->
        Corner_sta.analyze ~opts:(Run_opts.with_corners k opts) ~table nl)
  in
  C.check tally
    (Corner_sta.plane_matches swept ~corner:0
       (Sta.analyze_with Run_opts.default ~library:(Corners.library table 0) ~model nl))
    "batched corner plane differs from the scalar pass";
  (* one traced call: the library's chunk spans split it into refit,
     sweep and per-sample extraction *)
  let res =
    Ledger.probe l "mc.call" (fun () ->
        Corner_sta.monte_carlo ~opts ~samples ~seed ~library:lib nl)
  in
  check_corners tally lib nl res ~seed;
  let build = Ledger.bench l "corners.build" in
  let refit = Ledger.bench l "corners.refit" in
  let sweep = Ledger.bench l "corner_batch.sweep" in
  let call = Ledger.bench l "mc.call" in
  let lib_refit = Ledger.span l "corners.refit" in
  let lib_refresh = Ledger.span l "corner_batch.refresh" in
  let lib_sweep = Ledger.span l "mc.sweep" in
  let lib_chunk = Ledger.span l "mc.chunk" in
  let n = float_of_int samples in
  let share (a : Ledger.agg) = a.Ledger.self_s /. call.Ledger.total_s in
  Ledger.set l "corners.build_ms" (build.Ledger.total_s *. 1e3);
  Ledger.set l "corners.refit_us" (Ledger.mean_us refit);
  Ledger.set l "corners.refit_words" (refit.Ledger.words /. float_of_int refit.Ledger.calls);
  Ledger.set l "corner_batch.ns_per_gate_corner"
    (sweep.Ledger.total_s *. 1e9 /. (gates *. float_of_int k));
  Ledger.set l "corner_batch.words_per_gate_corner"
    (sweep.Ledger.words /. (gates *. float_of_int k));
  Ledger.set l "mc.refit_share"
    ((lib_refit.Ledger.self_s +. lib_refresh.Ledger.self_s) /. call.Ledger.total_s);
  Ledger.set l "mc.sweep_share" (share lib_sweep);
  Ledger.set l "mc.extract_share" (share lib_chunk);
  Ledger.set l "mc.refit_words_per_sample"
    ((lib_refit.Ledger.self_words +. lib_refresh.Ledger.self_words) /. n);
  Ledger.set l "mc.sweep_words_per_sample" (lib_sweep.Ledger.self_words /. n);
  Ledger.set l "mc.extract_words_per_sample" (lib_chunk.Ledger.self_words /. n)
