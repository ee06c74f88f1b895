(* The paper's Section 7 flow as `ssd atpg c880s --faults 12` runs it:
   12 screened crosstalk sites at the CLI's default extraction seed, ITR
   on, 1000 expansions per fault, clock at the STA max delay.  Its
   layers -- ITR, the ATPG search and fault simulation -- are probed in
   every traced run.  It is not a timed workload: one round of the 12
   faults takes about 8 s, so a run holds three rounds, and the
   per-fault median is set by the repetitions of the two faults around
   it; between runs it spread as wide as the largest allowed bound. *)

module C = Common
module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module Run_opts = Ssd_sta.Run_opts
module A = Ssd_atpg
module Itr = Ssd_itr.Itr
module Value2f = Ssd_itr.Value2f
module Interval = Ssd_util.Interval
module Obs = Ssd_obs.Obs

let model = Ssd_core.Delay_model.proposed
let faults = 12
let budget = 1000
let extraction_seed = 99L

let same_outcome a b =
  match (a, b) with
  | A.Atpg.Detected u, A.Atpg.Detected v -> u = v
  | A.Atpg.Undetectable, A.Atpg.Undetectable | A.Atpg.Aborted, A.Atpg.Aborted -> true
  | _ -> false

let probe l tally lib =
  let obs = Ledger.obs l in
  let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let clock = Sta.max_delay (Sta.analyze_with Run_opts.default ~library:lib ~model nl) in
  let sites =
    A.Fault.extract_screened ~count:faults ~seed:extraction_seed ~library:lib ~model nl
  in
  let cfg =
    { (A.Atpg.default_config ~clock_period:clock) with
      A.Atpg.use_itr = true; max_expansions = budget }
  in
  let opts = Run_opts.with_obs obs Run_opts.default in
  (* one round through run_with, whose atpg.fault spans nest under the
     benchmark's: it must reproduce plain generation exactly, and every
     detected vector must pass the independent re-check *)
  let results, stats =
    Ledger.probe l "atpg.round" (fun () ->
        A.Atpg.run_with opts cfg ~library:lib ~model nl sites)
  in
  List.iter2
    (fun (site, (res : A.Atpg.fault_result)) (plain : A.Atpg.fault_result) ->
      C.check tally
        (same_outcome res.A.Atpg.outcome plain.A.Atpg.outcome
        && res.A.Atpg.expansions = plain.A.Atpg.expansions
        &&
        match res.A.Atpg.outcome with
        | A.Atpg.Detected v ->
          A.Atpg.verify_detection cfg ~library:lib ~model nl site v
        | A.Atpg.Undetectable | A.Atpg.Aborted -> true)
        (A.Fault.describe nl site ^ ": traced generation differs or fails verification"))
    (List.combine sites results)
    (List.map (A.Atpg.generate cfg ~library:lib ~model nl) sites);
  let tests =
    List.filter_map
      (fun (res : A.Atpg.fault_result) ->
        match res.A.Atpg.outcome with
        | A.Atpg.Detected v -> Some v
        | A.Atpg.Undetectable | A.Atpg.Aborted -> None)
      results
  in
  ignore
    (Ledger.probe l "fault_sim" (fun () ->
         A.Fault_sim.simulate_with opts ~library:lib ~model ~clock_period:clock nl
           sites tests));
  (* ITR along each site's excitation, then its test's PI values, with
     the point PI windows test generation uses *)
  let pi_spec =
    { Sta.pi_arrival = Interval.point 0.; pi_tt = Interval.point 0.25e-9 }
  in
  let pis = Array.of_list (Ck.Netlist.inputs nl) in
  List.iter2
    (fun (site : A.Fault.site) (res : A.Atpg.fault_result) ->
      let itr =
        Ledger.probe l "itr.create" (fun () ->
            Itr.create ~pi_spec
              ~focus:[ site.A.Fault.aggressor; site.A.Fault.victim ]
              ~library:lib ~model nl)
      in
      let assigns =
        (site.A.Fault.victim, Value2f.requires site.A.Fault.vic_tr)
        :: (site.A.Fault.aggressor, Value2f.requires site.A.Fault.agg_tr)
        ::
        (match res.A.Atpg.outcome with
        | A.Atpg.Detected v ->
          Array.to_list (Array.mapi (fun j (a, b) -> (pis.(j), Value2f.of_bools a b)) v)
        | A.Atpg.Undetectable | A.Atpg.Aborted -> [])
      in
      ignore
        (List.for_all
           (fun (line, v) -> Ledger.probe l "itr.assign" (fun () -> Itr.assign itr line v))
           assigns))
    sites results;
  let assign = Ledger.bench l "itr.assign" in
  let generated = Ledger.span l "atpg.fault" in
  let expansions = float_of_int stats.A.Atpg.total_expansions in
  let n = float_of_int (List.length sites) in
  Ledger.set l "itr.create_us" (Ledger.mean_us (Ledger.bench l "itr.create"));
  Ledger.set l "itr.assign_us" (Ledger.mean_us assign);
  Ledger.set l "itr.words_per_assign" (assign.Ledger.words /. float_of_int assign.Ledger.calls);
  Ledger.set l "atpg.efficiency_pct" (A.Atpg.efficiency stats);
  Ledger.set l "atpg.expansions_per_fault" (expansions /. n);
  Ledger.set l "atpg.us_per_expansion"
    (generated.Ledger.total_s *. 1e6 /. expansions);
  Ledger.set l "fault_sim.us_per_fault" ((Ledger.bench l "fault_sim").Ledger.total_s *. 1e6 /. n);
  let count name = Obs.counter_value (Obs.counter obs name) in
  let resim = count "faultsim.resim" in
  Ledger.set l "fault_sim.resim_ratio"
    (float_of_int resim
    /. float_of_int
         (max 1 (resim + count "faultsim.screened_out" + count "faultsim.dropped")))
