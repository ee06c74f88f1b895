(** Batched multi-corner STA and Monte-Carlo parameter sampling.

    {!analyze} runs the forward window pass for all K corners of a
    {!Ssd_cell.Corners.table} in one sweep: every gate is evaluated for
    a whole corner range per task through the allocation-free
    {!Ssd_core.Corner_batch} kernel ({!Plane_sweep}, the same step
    {!Sta.analyze_with} runs at K = 1 for the proposed model), writing
    K timing planes of one plane-major {!Windows} store.  With
    [jobs > 1] the pool parallelizes over (level slot × corner chunk).

    Each corner plane is bit-identical to an independent single-corner
    {!Sta.analyze_with} over that corner's derated library
    ({!plane_matches} is the check the corners bench asserts, against
    the closure walk of an identity-remapped proposed model, since a
    production pass of the proposed model is this kernel itself).

    {!monte_carlo} routes statistical sampling through the same batched
    kernel: sampled derating specs are fitted in chunks of K into a
    per-lane resident corner table ({!Ssd_cell.Corners.refit} rewrites
    coefficients only, reusing the fitted layouts) and swept K planes
    at a time, with independent sample chunks fanned across the {!Par}
    domain pool.  Each sample is bit-identical to a scalar
    {!Sta.analyze_with} over its derated library ({!sample_matches});
    {!mc_po_quantiles} reports per-PO delay distributions. *)

type t
(** A completed K-corner analysis. *)

val analyze : ?opts:Run_opts.t -> table:Ssd_cell.Corners.table -> Ssd_circuit.Netlist.t -> t
(** Forward pass over all corners of [table].  [opts.corners] must be 1
    (unset) or equal the table's corner count; [opts.jobs] and
    [opts.pi_spec] behave as in {!Sta.analyze_with}.
    @raise Sta.Unsupported_gate on an uncharacterized gate arity,
    [Invalid_argument] on a corner-count mismatch or an [opts.pi_spec]
    failing {!Run_opts.validate_pi_spec}. *)

val netlist : t -> Ssd_circuit.Netlist.t
val table : t -> Ssd_cell.Corners.table
val corners : t -> int
val windows : t -> Windows.t
(** The K-plane store (plane [c] = corner [c]). *)

val timing : t -> corner:int -> int -> Sta.line_timing
(** Windows of one node under one corner.
    @raise Invalid_argument on an out-of-range id or corner. *)

val po_window : t -> corner:int -> Ssd_util.Interval.t
(** Union of both transitions' arrival windows over all primary
    outputs, per corner ({!Sta.po_window_of} on the corner's plane).
    @raise Invalid_argument on a netlist without outputs or an
    out-of-range corner. *)

val min_delay : t -> corner:int -> float
val max_delay : t -> corner:int -> float

val plane_matches : t -> corner:int -> Sta.t -> bool
(** Bitwise comparison of one corner plane against a scalar analysis
    (expected: [Sta.analyze_with] over [Corners.library table corner]).
    {!sample_matches} is the Monte-Carlo counterpart. *)

val summary : t -> string
(** Multi-line per-corner PO window report. *)

(** {1 Monte-Carlo corner sampling} *)

type mc_result = {
  mc_specs : Ssd_cell.Corners.spec array;  (** the sampled corners *)
  mc_pos : int array;  (** primary-output node ids *)
  mc_delays : float array array;
      (** [(po, sample)]: latest arrival over both transitions *)
  mc_max : float array;  (** per-sample circuit max delay *)
}

val monte_carlo :
  ?opts:Run_opts.t ->
  ?samples:int ->
  seed:int64 ->
  library:Ssd_cell.Charlib.t ->
  Ssd_circuit.Netlist.t ->
  mc_result
(** Sample [samples] (default 64) Gaussian corners
    ({!Ssd_cell.Corners.sample_specs}) and evaluate them through the
    batched kernel, [opts.mc_batch] planes per sweep (clamped to the
    sample count; the tail chunk refits and sweeps only the remaining
    specs).  Each lane of the [opts.jobs]-wide pool owns a resident
    corner table — fitted once, retargeted per chunk by
    {!Ssd_cell.Corners.refit} — plus its own scratch {!Windows} planes;
    per-PO delays and circuit max stream out of each finished chunk, so
    memory stays O(lanes × K × nodes), never O(samples).  All specs are
    drawn before chunking, so every sample is bit-identical to its
    scalar analysis ({!sample_matches}) for every ([opts.jobs],
    [opts.mc_batch]) setting.  Telemetry ([opts.obs]): [mc.chunks],
    [mc.tables_built], [mc.fit_cache_hits] (chunks served by an
    already-fitted lane table), [mc.planes].  [opts.corners] is ignored.
    @raise Invalid_argument on [samples < 1], [opts.mc_batch < 1], an
    [opts.pi_spec] failing {!Run_opts.validate_pi_spec} or a netlist
    without outputs. *)

val sample_matches : mc_result -> sample:int -> Sta.t -> bool
(** Bitwise comparison of one sample's per-PO delays and circuit max
    against a scalar analysis (expected: [Sta.analyze_with] over
    [Corners.derate_library res.mc_specs.(sample) library]) — the check
    behind [ssd mc --check].
    @raise Invalid_argument on an out-of-range sample. *)

val mc_po_quantiles : mc_result -> float list -> (float * float) list array
(** Per PO (aligned with [mc_pos]), the requested quantiles of its
    delay samples. *)

val mc_max_quantiles : mc_result -> float list -> (float * float) list
(** Quantiles of the per-sample circuit max delay. *)
