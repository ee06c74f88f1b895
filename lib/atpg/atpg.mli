(** Timing-based ATPG for crosstalk delay faults (paper Section 7).

    The generator realizes the four components the paper prescribes:
    (1) a delay model able to handle min-max ranges (the proposed model,
    via ITR), (2) fault excitation conditions at the site, (3) a
    branch-and-bound search over two-frame PI assignments with
    implication, and (4) ITR re-computation after each assignment, used
    to prune branches whose timing windows can no longer align the
    aggressor and victim transitions — the pruning that lifts ATPG
    efficiency in the paper's experiment.

    Detection criterion: under the generated vector pair, aggressor and
    victim switch in the required directions with arrival times within
    the alignment window; the fault-free circuit meets the clock period,
    and with the victim slowed by the fault's delta the latest
    primary-output arrival shifts by at least δ/2 — i.e. the fault effect
    observably propagates to a primary output (our stand-in for the
    paper's "primary output or flip-flop with setup time violation"). *)

type outcome =
  | Detected of (bool * bool) array  (** PI vector pair, PI rank order *)
  | Undetectable                     (** search space exhausted *)
  | Aborted                          (** backtrack budget exceeded *)

type config = {
  use_itr : bool;
  max_expansions : int;
      (** search-effort budget in decision-node expansions; a pruned
          branch costs only the decisions made before the prune *)
  fill_tries : int;       (** random completions attempted per leaf *)
  clock_period : float;
  seed : int64;
}

val default_config : clock_period:float -> config
(** ITR enabled, 2500 expansions, 3 fills. *)

type fault_result = {
  site : Fault.site;
  outcome : outcome;
  expansions : int;
  descents : int;
  wall : float;
}

type stats = {
  total : int;
  detected : int;
  undetectable : int;
  aborted : int;
  total_expansions : int;
  total_descents : int;
  total_wall : float;
}

val generate :
  config ->
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  Fault.site ->
  fault_result

val run_with :
  Ssd_sta.Run_opts.t ->
  config ->
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  Fault.site list ->
  fault_result list * stats
(** Run {!generate} over every site.  [opts.jobs] fans the independent
    per-site searches across a domain pool ([1] keeps the strict
    sequential walk; [<= 0] auto-selects); each site's search is
    deterministic in isolation (its Rng is seeded from the config), so
    results and stats are identical for every lane count — only
    [fault_result.wall] values reflect the actual schedule.

    [opts.obs] (default disabled) records per-fault search effort: each
    generation runs under an [atpg.fault] span (one trace event per
    fault), expansions and restarted descents accumulate into
    [atpg.expansions] / [atpg.descents], per-fault expansion counts feed
    the [atpg.expansions_per_fault] histogram (fixed range
    [0, max_expansions] so runs merge), and outcomes split into
    [atpg.detected] / [atpg.undetectable] / [atpg.aborted].
    [opts.pi_spec] is unused here: the search fixes the point PI spec
    test generation requires. *)

val efficiency : stats -> float
(** (detected + undetectable) / total × 100 — the paper's metric. *)

val verify_detection :
  config ->
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  Fault.site ->
  (bool * bool) array ->
  bool
(** Independent re-check of a generated test (used by the test suite). *)
