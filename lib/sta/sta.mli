(** Static timing analysis with min-max timing windows (paper Section 4).

    Arrival and transition-time windows propagate forward in topological
    order; required-time windows propagate backward from the primary
    outputs.  The analysis is parametric in the delay model — any
    {!Ssd_core.Delay_model.t} carrying window transfer functions (the
    proposed V-shape model or the pin-to-pin baseline).

    The forward pass has two evaluators that compute the same windows
    bit for bit.  A model with a kernel rule
    ({!Ssd_core.Corner_batch.rule_of}: the registry values
    {!Ssd_core.Delay_model.proposed} and
    {!Ssd_core.Delay_model.pin_to_pin}) runs the flat
    {!Ssd_core.Corner_batch} kernel at K = 1 ({!Plane_sweep}); any other
    model, cell-remapped copies included, runs the closure walk
    ({!eval_node} over the model's {!Ssd_core.Delay_model.windowing}).

    The backward pass has one evaluator: {!compute_required} runs the
    flat {!Plane_sweep.required} step at K = 1 for every model, over the
    forward pass's own table slots when it ran the flat kernel.  Its
    bounds use each pin's single-input delay over the pin's
    transition-time window, not the simultaneous-switching V.  A
    record-array walk of the same rule is the tests' oracle. *)

type line_timing = {
  rise : Ssd_core.Types.win;
  fall : Ssd_core.Types.win;
}

type required = Plane_sweep.required
(** Required windows of every node, packed: see {!Plane_sweep.required}
    for the slot layout, {!required_window} to read one. *)

type pi_spec = Run_opts.pi_spec = {
  pi_arrival : Ssd_util.Interval.t;
  pi_tt : Ssd_util.Interval.t;
}

val default_pi_spec : pi_spec
(** Arrival fixed at t = 0; transition time window [0.15 ns, 0.5 ns]. *)

type t
(** A finished forward pass: the netlist, library, model and packed
    windows, plus the flat kernel's resolved table slots when the pass
    ran it (the backward pass reuses them). *)

exception Unsupported_gate of string
(** Raised when the netlist contains a gate the characterized library
    cannot time (run {!Ssd_circuit.Decompose.to_primitive} first). *)

val cell_of_gate :
  Ssd_cell.Charlib.t -> Ssd_circuit.Gate.kind -> int -> Ssd_cell.Charlib.cell
(** Map a primitive gate (NAND/NOR/NOT) with the given fan-in count to its
    characterized cell.  @raise Unsupported_gate *)

val windowing_of : Ssd_core.Delay_model.t -> Ssd_core.Delay_model.windowing
(** The model's window transfer functions.
    @raise Invalid_argument when the model carries none. *)

val pi_window : pi_spec -> Ssd_core.Types.win
(** The window a PI spec induces on both transitions of the input. *)

val gate_windows :
  windowing:Ssd_core.Delay_model.windowing ->
  library:Ssd_cell.Charlib.t ->
  Ssd_circuit.Netlist.t ->
  (int -> line_timing) ->
  kind:Ssd_circuit.Gate.kind ->
  int ->
  line_timing
(** The gate branch of {!eval_node}, with the cell of [kind] instead of
    the gate's own: the {!Engine}'s closure walk times a swapped gate
    through it.  @raise Unsupported_gate *)

val shift_timing : line_timing -> float -> line_timing
(** Translate both transitions' arrival windows by a line's extra delay;
    [0.] is the bit-exact identity (never flips a negative zero). *)

val eval_node :
  windowing:Ssd_core.Delay_model.windowing ->
  library:Ssd_cell.Charlib.t ->
  Ssd_circuit.Netlist.t ->
  (int -> line_timing) ->
  pi_win:Ssd_core.Types.win ->
  extra:float ->
  int ->
  line_timing
(** The closure walk's per-node step: the windows of node [i] given the
    already-computed fan-in entries read through the timing getter
    ([pi_win] for a PI), with the line's arrival windows translated by
    [extra] (the crosstalk-fault primitive; [0.] is the bit-exact
    identity).  A pure function of those inputs — the contract that makes
    the sequential, levelized-parallel and incremental ({!Engine})
    schedules bit-identical.  The getter abstracts the storage: any
    store that feeds the identical float values gets the identical
    windows.  {!analyze_with} runs it for a model with no kernel rule;
    for the others it is the independent reference the flat kernel is
    tested against.  Reads only fan-in
    entries, so concurrent calls for distinct nodes of one logic level
    are safe.  @raise Unsupported_gate *)

val analyze_with :
  ?extra_delay:(int -> float) ->
  ?pi_override:(int -> Run_opts.pi_spec option) ->
  Run_opts.t ->
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  t
(** Forward pass only, under one {!Run_opts.t} record.

    [opts.jobs] is the number of execution lanes: [1] walks the netlist
    sequentially in topological order, [> 1] fans each logic level's
    nodes across that many domains (see {!Par}), and [<= 0] auto-selects
    [Domain.recommended_domain_count ()].  Results are bit-identical
    regardless of [jobs].

    [opts.obs] (default disabled) wires the analysis into a telemetry
    sink: gate evaluations count into [sta.gates], each level runs under
    a span [sta.level.<l>] (per-level wall time in the report, one trace
    event per level), level widths feed the [sta.level_gates] histogram,
    and the {!Par} pool reports lane utilization and barrier waits.
    Instrumented runs walk level-by-level even at [jobs = 1]; results
    stay bit-identical to the uninstrumented engine in every combination.

    [extra_delay] (default: constant [0.]) translates a line's arrival
    windows by that amount — the window-level image of
    {!Timing_sim.simulate}'s fault-injection hook, applied to the
    evaluator's outputs with {!shift_timing}'s expression.  [pi_override]
    (default: [None] everywhere) replaces [opts.pi_spec] on individual
    primary inputs.  Both default to bit-exact no-ops.

    The evaluator is chosen by the model value (see above); the choice
    changes the cost of the pass, never its windows.

    @raise Unsupported_gate, or [Invalid_argument] when the model has no
    window transfer functions, when [opts.pi_spec] or a [pi_override]
    spec fails {!Run_opts.validate_pi_spec} (checked before any work),
    or when an extra delay is not finite. *)

val netlist : t -> Ssd_circuit.Netlist.t
val library : t -> Ssd_cell.Charlib.t
val timing : t -> int -> line_timing
(** Windows of any node id (materialized from the packed store). *)

val windows : t -> Windows.t
(** The packed per-node window store itself — allocation-free bitwise
    comparisons via {!Windows.eq}. *)

val po_window_of :
  Ssd_circuit.Netlist.t -> Windows.t -> plane:int -> Ssd_util.Interval.t
(** [po_window_of nl w ~plane]: the hull of each primary output's rise
    and fall arrival windows in [plane] of a store over [nl]'s nodes,
    folded in {!Ssd_circuit.Netlist.outputs} order.  {!po_window},
    {!Engine.po_window}, {!Corner_sta.po_window} and each Monte-Carlo
    sample's circuit max are this one fold, so bit-identical windows
    give bit-identical results.  @raise Invalid_argument when [nl] has
    no outputs or [plane] is out of range. *)

val po_window : t -> Ssd_util.Interval.t
(** Union of both transitions' arrival windows over all primary outputs
    ({!po_window_of} on plane 0): [lo] is the circuit min-delay, [hi]
    the max-delay (Table 2's metric). *)

val min_delay : t -> float
val max_delay : t -> float

val validate_clock_period : float -> (float, string) result
(** [Ok p] for a finite [p >= 0.] ([0.] and [-0.] included); otherwise
    an error naming the value ([nan], [inf], [-inf] or the negative
    number) — the rule {!compute_required} enforces and the CLI's
    [--clock] checks before any analysis. *)

val compute_required : t -> clock_period:float -> required
(** Backward pass: required windows per node, [A_S >= Q_S] (hold side,
    here 0) and [A_L <= Q_L] (setup side, the clock period) at the POs;
    see {!Plane_sweep.required} for the propagation rule.  Allocates
    the 32-byte-per-node store and nothing per node.
    @raise Invalid_argument naming the period when it fails
    {!validate_clock_period}, before any work. *)

val required_window : ?plane:int -> required -> int -> rise:bool -> Ssd_util.Interval.t
(** The required window of node [i]'s rise ([rise:true]) or fall
    transition in [plane] (default 0; a store from {!compute_required}
    has one), materialized from the packed slots bit for bit.
    @raise Invalid_argument on an out-of-range node or plane. *)

val violations : t -> required -> (int * string) list
(** Lines whose arrival window leaves its required window, with a
    human-readable description, in ascending node order (the fall check
    of a node before its rise check).  A line is checked only where its
    latest-allowed bound is finite; each side allows 1e-15 s of slack.
    Reads the packed slots and formats a string only for a violating
    line.  @raise Invalid_argument when [required] belongs to another
    netlist (physically) than [t]. *)

val summary : t -> string
