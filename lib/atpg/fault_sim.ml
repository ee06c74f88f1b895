module Netlist = Ssd_circuit.Netlist
module Timing_sim = Ssd_sta.Timing_sim
module Par = Ssd_sta.Par
module Sta = Ssd_sta.Sta
module Engine = Ssd_sta.Engine
module Run_opts = Ssd_sta.Run_opts
module Interval = Ssd_util.Interval
module Types = Ssd_core.Types
module Value2f = Ssd_itr.Value2f
module Rng = Ssd_util.Rng
module Obs = Ssd_obs.Obs

type result = {
  coverage : float;
  detected : (int * int) list;
  undetected : int list;
}

let wants tr lines i =
  match tr with
  | Value2f.Rise -> Timing_sim.rising_at lines i
  | Value2f.Fall -> Timing_sim.falling_at lines i

let excited_and_aligned lines (site : Fault.site) =
  let a = site.Fault.aggressor and v = site.Fault.victim in
  wants site.Fault.agg_tr lines a
  && wants site.Fault.vic_tr lines v
  && Timing_sim.has_event lines a
  && Timing_sim.has_event lines v
  && Float.abs (Timing_sim.event_arr lines a -. Timing_sim.event_arr lines v)
     <= site.Fault.align_window

let observable nl (site : Fault.site) faultfree faulty clock =
  List.exists
    (fun po ->
      Timing_sim.has_event faultfree po
      && Timing_sim.has_event faulty po
      &&
      let ff = Timing_sim.event_arr faultfree po in
      ff <= clock
      && Timing_sim.event_arr faulty po -. ff >= 0.45 *. site.Fault.delta)
    (Netlist.outputs nl)

(* Vector-independent necessary conditions per site, decided on STA
   windows served by one incremental {!Ssd_sta.Engine} session: the
   aggressor/victim direction-specific arrival windows must come within
   the alignment window of each other, and — with the victim slowed by
   the site's delta via a [Set_extra_delay] edit (reverted right after) —
   some primary output must be able to both meet the clock fault-free
   and shift by at least 0.45 delta.  Sound because every event
   {!Ssd_sta.Timing_sim} can produce (under its point PI assumptions,
   which lie inside {!Ssd_sta.Run_opts.default_pi_spec} — the spec the
   screen pins regardless of the caller's [pi_spec]) falls inside the
   direction-specific STA window of its line, in the faulty circuit as
   well as the fault-free one.  A screened-out site can therefore be
   detected by no vector at all, so skipping it never changes results. *)
let window_feasible ~opts ~library ~model ~clock_period nl sites =
  let screen_opts = Run_opts.(with_obs opts.obs default) in
  Engine.with_engine ~opts:screen_opts ~library ~model nl (fun eng ->
      let pos = Netlist.outputs nl in
      let arr_of tr i =
        let lt = Engine.timing eng i in
        (match tr with
        | Value2f.Rise -> lt.Sta.rise
        | Value2f.Fall -> lt.Sta.fall)
          .Types.w_arr
      in
      let po_lo i =
        let lt = Engine.timing eng i in
        Float.min
          (Interval.lo lt.Sta.rise.Types.w_arr)
          (Interval.lo lt.Sta.fall.Types.w_arr)
      in
      let po_hi i =
        let lt = Engine.timing eng i in
        Float.max
          (Interval.hi lt.Sta.rise.Types.w_arr)
          (Interval.hi lt.Sta.fall.Types.w_arr)
      in
      (* fault-free earliest PO arrivals, fixed for every site *)
      let ff_lo = List.map po_lo pos in
      Array.map
        (fun (site : Fault.site) ->
          let wa = arr_of site.Fault.agg_tr site.Fault.aggressor in
          let wv = arr_of site.Fault.vic_tr site.Fault.victim in
          let gap =
            Float.max
              (Interval.lo wa -. Interval.hi wv)
              (Interval.lo wv -. Interval.hi wa)
          in
          gap <= site.Fault.align_window
          && begin
               let cp = Engine.checkpoint eng in
               Engine.apply eng
                 (Engine.Set_extra_delay
                    { line = site.Fault.victim; delta = site.Fault.delta });
               let ok =
                 List.exists2
                   (fun po lo ->
                     lo <= clock_period
                     && po_hi po -. lo >= 0.45 *. site.Fault.delta)
                   pos ff_lo
               in
               Engine.revert eng cp;
               ok
             end)
        sites)

(* The simulator screens every (site, vector) pair against the shared
   fault-free simulation of the vector; only pairs whose excitation and
   alignment conditions hold pay for a faulty evaluation, and that
   evaluation re-times only the lines whose events the victim's extra
   delay moves ({!Timing_sim.resimulate}).  Before any vector runs,
   [window_screen] (default on) discards sites that are infeasible on
   STA windows alone — a per-site engine edit instead of per-(site,
   vector) simulation.

   Vectors are processed in blocks: within a block the fault-free
   simulations (one full run per vector) and the surviving (site,
   vector) faulty evaluations both fan out across the domain pool.
   Fault dropping is deterministic regardless of lane count or block
   size because a site records the *earliest* vector index that detects
   it — a site evaluated redundantly for several vectors of one block
   (where a strict sequential walk would have dropped it mid-block)
   folds back to the same earliest detection. *)
let simulate_with ?(window_screen = true)
    (opts : Run_opts.t) ~library ~model ~clock_period nl sites vectors =
  let { Run_opts.jobs; obs; _ } = opts in
  let c_ff = Obs.counter obs "faultsim.ff_sims" in
  let c_screened = Obs.counter obs "faultsim.screened_out" in
  let c_dropped = Obs.counter obs "faultsim.dropped" in
  let c_resim = Obs.counter obs "faultsim.resim" in
  let sites = Array.of_list sites in
  let vectors = Array.of_list vectors in
  let nsites = Array.length sites in
  let nvec = Array.length vectors in
  (* earliest detecting vector index per site; max_int = still alive *)
  let best = Array.make nsites max_int in
  let feasible =
    if window_screen && nsites > 0 then
      window_feasible ~opts ~library ~model ~clock_period nl sites
    else Array.make nsites true
  in
  Obs.add
    (Obs.counter obs "faultsim.window_screened")
    (Array.fold_left (fun a b -> if b then a else a + 1) 0 feasible);
  Par.with_pool ~obs ~jobs (fun pool ->
      let lanes = Par.jobs pool in
      (* one vector per block on a single lane reproduces the strict
         sequential dropping schedule (no redundant evaluations); wider
         blocks trade a bounded amount of redundant work (a site can be
         evaluated for several vectors of one block before its earliest
         detection folds in) for parallel occupancy and fewer pool
         barriers *)
      let block = if lanes = 1 then 1 else 8 * lanes in
      let vi = ref 0 in
      let any_live () =
        let rec go fi =
          fi < nsites && ((feasible.(fi) && best.(fi) = max_int) || go (fi + 1))
        in
        go 0
      in
      while !vi < nvec && any_live () do
        let bn = min block (nvec - !vi) in
        let base = !vi in
        let ff = Array.make bn Timing_sim.empty in
        Par.parallel_for pool ~chunk:1 ~label:"ff-sim" ~n:bn (fun k ->
            ff.(k) <- Timing_sim.simulate ~library ~model nl vectors.(base + k));
        Obs.add c_ff bn;
        (* screen against the shared fault-free runs: cheap, sequential *)
        let work = ref [] in
        for k = bn - 1 downto 0 do
          for fi = nsites - 1 downto 0 do
            if not feasible.(fi) then ()
            else if best.(fi) <> max_int then Obs.incr c_dropped
            else if excited_and_aligned ff.(k) sites.(fi) then
              work := (fi, k) :: !work
            else Obs.incr c_screened
          done
        done;
        let work = Array.of_list !work in
        Obs.add c_resim (Array.length work);
        let hit = Array.make (Array.length work) false in
        Par.parallel_for pool ~chunk:1 ~label:"faulty-sim" ~n:(Array.length work)
          (fun w ->
            let fi, k = work.(w) in
            let site = sites.(fi) in
            let faulty =
              Timing_sim.resimulate ~library ~model nl ~base:ff.(k)
                ~line:site.Fault.victim ~delta:site.Fault.delta
            in
            hit.(w) <- observable nl site ff.(k) faulty clock_period);
        Array.iteri
          (fun w (fi, k) ->
            if hit.(w) then best.(fi) <- min best.(fi) (base + k))
          work;
        vi := base + bn
      done);
  let detected = ref [] in
  let undetected = ref [] in
  for fi = nsites - 1 downto 0 do
    if best.(fi) = max_int then undetected := fi :: !undetected
    else detected := (fi, best.(fi)) :: !detected
  done;
  (* report in the sequential walk's chronological order: by detecting
     vector, then by site index within one vector *)
  let detected =
    List.sort
      (fun (f1, v1) (f2, v2) -> compare (v1, f1) (v2, f2))
      !detected
  in
  Obs.add (Obs.counter obs "faultsim.detected") (List.length detected);
  Obs.add (Obs.counter obs "faultsim.undetected") (List.length !undetected);
  {
    coverage =
      (if nsites = 0 then 0.
       else
         100. *. float_of_int (List.length detected) /. float_of_int nsites);
    detected;
    undetected = !undetected;
  }

let random_vectors ~seed ~count nl =
  let rng = Rng.create seed in
  let npi = List.length (Netlist.inputs nl) in
  List.init count (fun _ ->
      Array.init npi (fun _ -> (Rng.bool rng, Rng.bool rng)))
