(** Support for the bit-identity checks of the tests and benches.

    The comparators are bitwise ([Int64.bits_of_float]): [0.] and [-0.]
    differ, and a NaN equals only a NaN with the same payload. *)

val beq : float -> float -> bool
val win_beq : Ssd_core.Types.win -> Ssd_core.Types.win -> bool
val lt_beq : Ssd_sta.Sta.line_timing -> Ssd_sta.Sta.line_timing -> bool

val sta_beq : Ssd_sta.Sta.t -> Ssd_sta.Sta.t -> bool
(** Every node's windows of two single-corner analyses, bit for bit. *)

val analyze_ref :
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  Ssd_sta.Sta.line_timing array
(** The record-array reference for the packed {!Ssd_sta.Windows} store:
    a plain sequential topological walk of {!Ssd_sta.Sta.eval_node}
    storing per-node records in an array, under
    {!Ssd_sta.Sta.default_pi_spec}.  Same kernel and schedule as a
    one-lane {!Ssd_sta.Sta.analyze_with}, different storage, so the
    packed path must reproduce this array bit for bit.
    @raise Ssd_sta.Sta.Unsupported_gate *)

(** {1 The closure reference}

    {!Ssd_sta.Sta.analyze_with}, {!Ssd_sta.Engine} and {!Ssd_itr.Itr}
    evaluate {!Ssd_core.Delay_model.proposed} and
    {!Ssd_core.Delay_model.pin_to_pin} through the flat
    {!Ssd_core.Corner_batch} kernel, as {!Ssd_sta.Corner_sta} does, so
    comparing those paths with one another checks the kernel against
    itself.  The references below run the same analysis through the
    scalar closure walk ({!Ssd_core.Vshape} or {!Ssd_core.Pin_to_pin}
    reached through {!Ssd_sta.Sta.eval_node}) instead. *)

val reference_model : Ssd_core.Delay_model.t
(** A cell-remapped copy of {!Ssd_core.Delay_model.proposed} (identity
    remap): the same window functions, a different model value with no
    kernel rule, so analyses under it take the closure walk. *)

val analyze_reference :
  ?extra_delay:(int -> float) ->
  ?pi_override:(int -> Ssd_sta.Run_opts.pi_spec option) ->
  ?model:Ssd_core.Delay_model.t ->
  Ssd_sta.Run_opts.t ->
  library:Ssd_cell.Charlib.t ->
  Ssd_circuit.Netlist.t ->
  Ssd_sta.Sta.t
(** {!Ssd_sta.Sta.analyze_with} under the closure twin of [model]
    (default {!Ssd_core.Delay_model.proposed}): {!reference_model} for
    the proposed model, the identity remap of
    {!Ssd_core.Delay_model.pin_to_pin} for that one, any other model
    itself. *)

val engine_reference : library:Ssd_cell.Charlib.t -> Ssd_sta.Engine.t -> Ssd_sta.Sta.t
(** {!Ssd_sta.Engine.reanalyze} of the session's current edited state
    ([library] is the session's), under the closure twin of the
    session's model (see {!analyze_reference}). *)

(** {1 The required-time oracle}

    {!Ssd_sta.Sta.compute_required} runs the flat backward step
    ({!Ssd_sta.Plane_sweep.required}).  Below is the same rule as a
    record-array walk: per node a record of two boxed
    intervals, and per pin and response two scalar
    {!Ssd_core.Cellfn} corner searches over the cell the library maps
    the gate to. *)

type required = {
  q_rise : Ssd_util.Interval.t;
  q_fall : Ssd_util.Interval.t;
}

val compute_required : Ssd_sta.Sta.t -> clock_period:float -> required array
(** Required windows per node, over [Sta.library t] and the pass's
    transition-time windows.  No check of the period: a negative or NaN
    one raises from [Interval.make]. *)

val violations : Ssd_sta.Sta.t -> required array -> (int * string) list
(** The record-array {!Ssd_sta.Sta.violations}: same order, same text. *)

val required_beq : ?plane:int -> Ssd_sta.Sta.required -> required array -> bool
(** Every slot of [plane] (default 0) of a packed store equals the
    oracle's bounds bit for bit. *)

(** {1 The [.bench] oracles} *)

val bench_reference : name:string -> string -> Ssd_circuit.Netlist.t
(** {!Ssd_circuit.Bench_io.parse_string} as a line-based reader: the
    text split on ['\n'], each line cut at ['#'] and trimmed with
    [String.trim], sliced with [String.sub] and [String.split_on_char],
    gate kinds matched on an [uppercase_ascii] copy, names interned in a
    [Hashtbl], then {!Ssd_circuit.Netlist.of_flat}.  Node ids are PIs in
    declaration order, then gates in definition order.  It raises
    {!Ssd_circuit.Bench_io.Parse_error} and {!Ssd_circuit.Netlist.Invalid}
    on the same texts as the scanner, with the same line and message: a
    line's own errors in text order, then signals defined twice in id
    order, then undefined fan-ins in gate then pin order. *)

val bench_writer_reference : Ssd_circuit.Netlist.t -> string
(** {!Ssd_circuit.Bench_io.to_string} as a [Printf] writer: the
    [# stats] line, the [INPUT]s, the [OUTPUT]s, then one
    [name = KIND(a, b)] line per gate in topological order.  The
    buffer writer must match it byte for byte. *)

(** {1 The technology-mapping oracle} *)

val decompose_reference :
  ?max_fanin:int -> Ssd_circuit.Netlist.t -> Ssd_circuit.Netlist.t
(** {!Ssd_circuit.Decompose.to_primitive} as it was first written: a
    [(name, node)] list of records handed to
    {!Ssd_circuit.Netlist.build}, fan-ins as lists, fresh names through
    [Printf] checked against a table of the names emitted so far.  The
    flat mapping must give the same netlist wherever this succeeds.
    Unlike it, this one fails on an input whose own name equals a fresh
    name emitted before it ([z$0] defined after [z] is mapped). *)

(** {1 The fault-simulation oracle} *)

val fault_sim_reference :
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  clock_period:float ->
  Ssd_circuit.Netlist.t ->
  Ssd_atpg.Fault.site list ->
  (bool * bool) array list ->
  Ssd_atpg.Fault_sim.result
(** {!Ssd_atpg.Fault_sim.simulate_with} as a strict sequential walk:
    vectors in order, one fault-free {!Ssd_sta.Timing_sim.simulate} per
    vector, then per live site whose excitation and alignment hold a
    whole-circuit [simulate ~extra_delay] with the victim slowed by the
    site's delta; a site drops at its first detecting vector.  No window
    screen, no domain pool and no incremental re-simulation, so the
    production simulator must give the same result at every lane count,
    with the screen on or off. *)

(** {1 The ITR oracle} *)

(** {!Ssd_itr.Itr} as a closure walk: per line an option record of two
    windows; per gate the model's window closures over the list of
    inputs that may switch (state not −1, window present), clamped by
    Table 1's definite switchers through {!Ssd_core.Cellfn}; after every
    assignment a walk over the whole topological order that re-times
    each in-focus line that changed or reads a line re-timed or changed
    before it, with no early cutoff.  The production state must hold the
    same windows bit for bit after the same steps. *)
module Itr_reference : sig
  type t

  val create :
    ?pi_spec:Ssd_sta.Sta.pi_spec ->
    ?focus:int list ->
    library:Ssd_cell.Charlib.t ->
    model:Ssd_core.Delay_model.t ->
    Ssd_circuit.Netlist.t ->
    t
  (** As {!Ssd_itr.Itr.create}, for any model with window functions. *)

  val copy : t -> t

  val assign : t -> int -> Ssd_itr.Value2f.t -> bool
  (** [false] on a logic conflict, with the state then unspecified. *)

  val rise_window : t -> int -> Ssd_core.Types.win option
  val fall_window : t -> int -> Ssd_core.Types.win option
end
