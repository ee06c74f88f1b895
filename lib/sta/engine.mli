(** Incremental ECO re-timing engine.

    A mutable timing session over one netlist + characterized library:
    created with a full {!Sta}-equivalent forward pass, it then serves
    window queries and accepts {e edits} — per-PI spec changes, gate kind
    swaps, per-line extra delays (the crosstalk-fault primitive) and
    delay-model retargets — re-propagating a dirty frontier
    ({!Ssd_circuit.Frontier}, the calling domain's) that starts at the
    edited line and drains level by level.  A recomputed node whose
    rise/fall windows come back bit-identical is a cutoff and does not
    dirty its fanout, so an edit visits only the nodes it recomputes and
    never walks (or caches) the line's whole fanout cone.

    {2 Contract}

    After any sequence of edits the engine's windows are bit-identical to
    a fresh {!Sta.analyze_with} of the edited circuit ({!reanalyze} runs
    exactly that reference analysis).  This holds because the per-node
    evaluation is a pure function of the fan-in windows: a node the
    frontier never reached has no fan-in whose windows changed, so it
    already holds the value the full pass would recompute.
    The evaluator is {!Sta.analyze_with}'s: the flat
    {!Ssd_core.Corner_batch} kernel at K = 1 under the model's
    {!Ssd_core.Corner_batch.rule_of} (through a per-node table slot,
    refreshed on {!Swap_gate}), {!Sta.gate_windows} timing the node's
    current kind for a model with no rule; {!Set_model} switches between
    them.  Every propagation is one sequential walk in
    increasing level order, whatever [opts.jobs] says.

    {2 History}

    Every {!apply} pushes an undo frame (the previous overlay slot and
    the overwritten windows, kept in flat arrays that the session reuses
    across edits); {!checkpoint} marks a depth and {!revert} restores to
    it in O(windows changed since) without recomputation.  {!commit}
    discards accumulated history — bounding memory in long-running
    sessions — after which earlier checkpoints are invalid.  A steady
    edit/revert loop allocates no frontier and no journal entries: the
    domain's frontier is reused, and the journal keeps its capacity. *)

type t
(** A timing session.  Not thread-safe: drive each engine from one
    domain at a time (distinct engines may run on distinct domains, as
    [ssd serve]'s cross-session lanes do). *)

type edit =
  | Set_pi_spec of { pi : int; spec : Run_opts.pi_spec }
      (** Override the arrival/transition windows of one primary input. *)
  | Swap_gate of { node : int; kind : Ssd_circuit.Gate.kind }
      (** Re-type a gate to another primitive kind (NAND/NOR, or NOT for
          a 1-input gate); its fan-in is kept. *)
  | Set_extra_delay of { line : int; delta : float }
      (** Translate one line's arrival windows by [delta] seconds — the
          window-level crosstalk-fault primitive ([0.] removes it). *)
  | Set_model of Ssd_core.Delay_model.t
      (** Retarget the delay model; recomputes every node (cutoffs still
          limit journal growth to windows that actually moved). *)

(** {2 Edit codec}

    One serializable form shared by the [ssd eco] script interpreter
    and the serve protocol: signals by name, times in seconds, models
    by registry name.  Decoding resolves names and shape only;
    semantic validation stays in {!apply}. *)

val edit_to_json : Ssd_circuit.Netlist.t -> edit -> Ssd_util.Json.t
(** [{"op":"pi"|"swap"|"extra"|"model", ...}]; intervals as [[lo, hi]]
    number pairs in seconds.  Inverse of {!edit_of_json} (a
    {!Set_model} survives only when its name is in
    {!Ssd_core.Delay_model.all}). *)

val edit_of_json :
  Ssd_circuit.Netlist.t -> Ssd_util.Json.t -> (edit, string) result
(** Decode one edit against the given netlist's signal names.  [Error]
    carries a human-readable reason (unknown signal/model/op, malformed
    interval, missing field). *)

val edit_equal : edit -> edit -> bool
(** Structural equality with bitwise float comparison (models compare
    by name) — the round-trip oracle for the codec property tests. *)

val describe_edit : Ssd_circuit.Netlist.t -> edit -> string
(** One-line human description in script units (ps/ns), as the eco
    replay log prints. *)

(** {2 Script directives}

    The [ssd eco] text format: one directive per line ([extra SIG PS],
    [swap SIG KIND], [pi SIG ALO AHI TLO THI] in ns, [model NAME],
    [checkpoint], [revert], [commit]; ['#'] starts a comment). *)

type script_op =
  | S_edit of edit
  | S_checkpoint
  | S_revert
  | S_commit

val script_op_of_line :
  Ssd_circuit.Netlist.t -> string -> (script_op option, string) result
(** Parse one script line; [Ok None] for a blank or comment line. *)

type checkpoint
(** A history mark.  Only meaningful for the engine it was taken from. *)

type stats = {
  edits : int;  (** edits applied (reverted ones included) *)
  reverts : int;  (** frames undone by {!revert} *)
  nodes_recomputed : int;
      (** kernel evaluations paid across all edits: the nodes their
          frontiers visited *)
  cutoffs : int;
      (** recomputed nodes whose windows came back bit-identical *)
}
(** Lifetime work counters (also emitted on the session's telemetry sink
    as [engine.*] counters). *)

val create :
  ?opts:Run_opts.t ->
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  t
(** Open a session: one full forward pass under [opts] (default
    {!Run_opts.default}).  [opts.obs] receives per-edit spans
    ([engine.edit.<kind>]), the [engine.*] counters and two per-edit
    histograms: [engine.nodes_recomputed_per_edit] and
    [engine.edit_us].  [opts.jobs] is ignored: the dirty nodes of one
    level are too few to pay a level barrier, so fanning them across domains made edits slower in
    29 of 30 measured cases, and only {!Set_model}, a whole-netlist
    recompute, got faster (EXPERIMENTS.md, "ECO engine lanes").
    @raise Sta.Unsupported_gate or [Invalid_argument] as
    {!Sta.analyze_with} (an invalid [opts.pi_spec] included). *)

val close : t -> unit
(** Invalidate the handle; there is nothing to join.  Idempotent; any
    further operation on the engine raises [Invalid_argument]. *)

val with_engine :
  ?opts:Run_opts.t ->
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  (t -> 'a) ->
  'a
(** {!create}, run, then {!close} (also on exception). *)

val apply : t -> edit -> unit
(** Apply one edit and re-propagate its dirty frontier.  Atomic: the edit is
    validated first, and a rejected edit ([Invalid_argument] on an
    out-of-range id, a non-PI or a spec failing
    {!Run_opts.validate_pi_spec} in {!Set_pi_spec}, a non-gate or
    non-primitive kind in {!Swap_gate}, a non-finite delta;
    {!Sta.Unsupported_gate} on an uncharacterized arity) leaves the
    engine untouched.  So does an edit whose propagation raises (a
    model's window function, say, or [Invalid_argument] inside another
    frontier drain on the same domain): its frame is pushed before
    anything changes, and the windows, overlay slot or model it had
    overwritten are restored from it before the exception is re-raised. *)

val checkpoint : t -> checkpoint
(** Mark the current history depth. *)

val revert : t -> checkpoint -> unit
(** Undo every edit applied after the checkpoint by restoring journaled
    windows and overlay slots — no recomputation.  Reverting to the
    current depth is a no-op.  @raise Invalid_argument when the
    checkpoint is ahead of the engine's history (wrong engine, or itself
    already reverted past) or predates the last {!commit}. *)

val commit : t -> unit
(** Drop all undo history (the edits stay applied).  Checkpoints taken
    before the commit become invalid. *)

(** {2 Queries} *)

val timing : t -> int -> Sta.line_timing
(** Current windows of any node id. *)

val po_window : t -> Ssd_util.Interval.t
(** Union of both transitions' arrival windows over all primary
    outputs ({!Sta.po_window_of}, as {!Sta.po_window}). *)

val netlist : t -> Ssd_circuit.Netlist.t
(** The base (unedited) netlist the session was created on. *)

val edited_netlist : t -> Ssd_circuit.Netlist.t
(** The netlist as currently edited: gate-kind swaps materialized, same
    signal names in the same declaration order — so every line keeps its
    id and the per-line overlays ({!extra_delay_of}, {!pi_spec_of})
    remain valid against it.  Returns the base netlist unchanged when no
    kind swap is live. *)

val model : t -> Ssd_core.Delay_model.t
(** The currently targeted delay model. *)

val opts : t -> Run_opts.t
val pi_spec_of : t -> int -> Run_opts.pi_spec
(** Effective spec of a PI (the session default unless overridden). *)

val extra_delay_of : t -> int -> float
(** Current extra delay on a line ([0.] unless edited). *)

val depth : t -> int
(** Number of applied-and-not-reverted edits. *)

val reanalyze : t -> Sta.t
(** The reference analysis of the current edited state: a fresh
    sequential {!Sta.analyze_with} over {!edited_netlist} with the
    session's overlays threaded through [extra_delay] / [pi_override].
    Bit-identical to the engine's own windows — the check the [eco] bench,
    [ssd eco --check] and the serve stack run.  For the proposed model
    it runs the same flat kernel as the engine; the tests' independent
    oracle is the closure walk ([Test_support.engine_reference]). *)

val stats : t -> stats
val cutoff_ratio : stats -> float
(** [cutoffs / nodes_recomputed] ([0.] before any recomputation). *)

val summary : t -> string
