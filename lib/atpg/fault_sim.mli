(** Crosstalk delay fault simulation.

    Given a set of two-pattern vectors (e.g. a generated test set, or
    random patterns for comparison), determine which faults of a list each
    vector detects, with fault dropping.  The expensive faulty-circuit
    timing evaluation runs only for faults whose excitation and alignment
    conditions already hold under the shared fault-free simulation of the
    vector — and that evaluation re-times, on top of the fault-free run,
    only the lines whose events the victim's extra delay moves
    ({!Ssd_sta.Timing_sim.resimulate}).  Surviving (site, vector)
    evaluations fan out across an {!Ssd_sta.Par} domain pool.  The tests
    check every result against a whole-circuit re-simulation of each
    excited pair ([Test_support.fault_sim_reference]). *)

type result = {
  coverage : float;             (** detected / total, percent *)
  detected : (int * int) list;  (** (fault index, detecting vector index) *)
  undetected : int list;        (** fault indices left undetected *)
}

(** {2 The detection rule} (the ATPG's too) *)

val excited_and_aligned : Ssd_sta.Timing_sim.lines -> Fault.site -> bool
(** Aggressor and victim switch in the site's directions, with arrivals
    within its alignment window. *)

val observable :
  Ssd_circuit.Netlist.t -> Fault.site -> Ssd_sta.Timing_sim.lines ->
  Ssd_sta.Timing_sim.lines -> float -> bool
(** [observable nl site faultfree faulty clock_period]: some PO that
    meets the clock fault-free switches at least 0.45 δ later in the
    faulty run. *)

val simulate_with :
  ?window_screen:bool ->
  Ssd_sta.Run_opts.t ->
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  clock_period:float ->
  Ssd_circuit.Netlist.t ->
  Fault.site list ->
  (bool * bool) array list ->
  result
(** [opts.jobs] (default 1: sequential) is the lane count of the domain
    pool the fault-free simulations and the surviving faulty evaluations
    are fanned across; [jobs <= 0] picks the recommended domain count.
    Results are identical for every [jobs] and [window_screen]
    combination: fault dropping records each site's {e earliest}
    detecting vector index, so the parallel block schedule folds back to
    exactly the sequential walk's [detected] / [coverage] /
    [undetected].

    [window_screen] (default on) first discards sites that no vector can
    detect, decided on STA windows alone through one incremental
    {!Ssd_sta.Engine} session: per site, a [Set_extra_delay] edit slows
    the victim by the site's delta, the alignment and observability
    conditions are checked on the resulting windows, and the edit is
    reverted — no per-vector work.  The screen is sound (every
    {!Ssd_sta.Timing_sim} event lies inside its line's direction-specific
    STA window, with or without the fault, under the point PI assumptions
    of the simulator — which is why the screen pins
    {!Ssd_sta.Run_opts.default_pi_spec} rather than [opts.pi_spec]), so
    it never changes the result, only the number of sites that pay for
    vector evaluation.  [opts.pi_spec] is otherwise unused: vector
    simulation runs at {!Ssd_sta.Timing_sim.simulate}'s point defaults.

    [opts.obs] (default disabled) counts the screening economics —
    [faultsim.window_screened] sites discarded up front, then per (site,
    vector) pair [faultsim.screened_out] (excitation/alignment failed
    under the fault-free run), [faultsim.dropped] (site already
    detected), [faultsim.resim] (survivors that paid for a faulty
    evaluation) — plus [faultsim.ff_sims] fault-free runs and the final
    [faultsim.detected] / [faultsim.undetected] split; the pool and the
    screening engine add their own counters.  Telemetry never changes
    results. *)

val random_vectors :
  seed:int64 -> count:int -> Ssd_circuit.Netlist.t -> (bool * bool) array list
(** Deterministic random two-pattern vectors (for coverage baselines). *)
