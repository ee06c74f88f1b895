(** Low-overhead telemetry: counters, gauges, timers, histograms and
    hierarchical span tracing for the STA / fault-simulation / ATPG
    engines, with typed snapshots and JSON / Prometheus exports.

    {2 Design}

    A sink is either {!disabled} — every instrument made from it is a
    shared immediate no-op whose operations cost one branch, allocate
    nothing and change no state — or enabled, in which case each
    counter and timer shards its state per domain: an update touches
    only the shard indexed by the running domain's id (an uncontended
    atomic), so instrumented code inside the {!Ssd_sta.Par} pool never
    waits on another lane and never perturbs the engines'
    bit-identical results.  Aggregation happens on read
    ({!counter_value}, {!report}, {!snapshot}, …), which sums the
    shards; atomic updates make the aggregate exact for any lane count.
    A histogram takes one sample per edit, dispatch, level or barrier,
    always from one domain at a time, so it is one set of totals under
    one lock.

    {2 Spans}

    Span bookkeeping (per STA level, per pool job, per MC chunk — not
    per gate) maintains a per-domain stack of open spans: each span
    knows its parent and splits its duration into total vs self (total
    minus directly-enclosed child spans).  Self time feeds the span's
    timer ({!timer_self_ns}).  The stack is preallocated per domain, so
    on a sink that does not trace a span only reads the clock and
    allocates nothing.  When the sink is tracing, each span also
    carries GC allocation deltas (minor/promoted words), so allocation
    is attributed to the phase that caused it, and one event per span
    lands on a lock-free list.  Instrument {e creation} takes a
    registry mutex and belongs in setup code, not inner loops.

    All clock reads use a monotonic source ({!now}, backed by
    [clock_gettime(CLOCK_MONOTONIC)]), so durations are non-negative
    and per-track timestamps monotone even across NTP steps; exported
    timestamps stay relative to the sink's creation epoch.

    {2 Exports}

    {!trace_json} renders the recorded spans as Chrome trace-event JSON
    (the [traceEvents] format), loadable in Perfetto or
    [chrome://tracing]; span hierarchy and GC deltas ride in each
    event's [args].  {!snapshot} captures every instrument plus the
    reconstructed span forest as one typed value, serializable with
    {!snapshot_to_json} (the future [/stats] payload) or
    {!to_prometheus} (text exposition format). *)

type t
(** A telemetry sink. *)

val disabled : t
(** The shared no-op sink: instruments made from it do nothing. *)

val create : ?trace:bool -> unit -> t
(** A fresh enabled sink.  [trace] (default [false]) additionally
    records span events for {!trace_json} / {!write_trace} /
    {!snapshot}; metric aggregation (including span self-time) is
    always on for an enabled sink. *)

val enabled : t -> bool
val tracing : t -> bool

val now : unit -> float
(** Monotonic clock in seconds (arbitrary epoch — differences only). *)

val monotonic_ns : unit -> int64
(** The raw monotonic clock in nanoseconds. *)

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Find-or-create by name (creation takes the registry lock; hold the
    handle rather than re-looking it up in a loop).
    @raise Invalid_argument if the name is registered as another kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
(** Sum over all shards: exact, since every update is atomic. *)

(** {2 Gauges} *)

type gauge

val gauge : t -> string -> gauge
(** A last-write-wins instantaneous value (lane utilization, resident
    table sizes, …).  Find-or-create by name, like {!counter}. *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Timers} *)

type timer

val timer : t -> string -> timer

val add_ns : timer -> int -> unit
(** Credit a duration (nanoseconds) and one call; a direct credit
    counts entirely as self time. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, crediting its duration (also on exception).  Unlike
    {!span} this does not touch the span stack. *)

val timer_ns : timer -> int
val timer_self_ns : timer -> int
(** Total minus time spent in directly-enclosed child spans. *)

val timer_calls : timer -> int

(** {2 Histograms} *)

type histogram

val histogram : ?bins:int -> lo:float -> hi:float -> t -> string -> histogram
(** [bins] equal bins (default 20) over the fixed range [[lo, hi]];
    out-of-range samples count in the edge bins.  The histogram keeps
    per-bin counts and a running count, sum, minimum and maximum, never
    the samples, so its size does not grow with use.  Fixed edges are
    also what let several sessions' snapshots merge bin by bin.
    @raise Invalid_argument on [bins <= 0] or [hi <= lo], also for the
    disabled sink. *)

val observe : histogram -> float -> unit
(** Record one sample: one bin count and the running totals, under the
    histogram's lock, so concurrent observers stay exact. *)

val histogram_count : histogram -> int
val histogram_rows : histogram -> (float * float * int) list
(** The bin counts as rows, equal to
    [Ssd_util.Stats.histogram ~lo ~hi ~bins] over the same samples. *)

(** {2 Spans} *)

val span : t -> ?event:string -> timer -> (unit -> 'a) -> 'a
(** Run the thunk as a span: it is pushed on the current domain's span
    stack (so nested spans know their parent), and its total duration
    and self time are credited to the timer (also on exception).  When
    the sink is tracing, its GC allocation delta is measured and an
    event named [event] (default: the timer's name) is recorded on the
    current domain's track.  On the disabled sink this is exactly
    [f ()]; on an enabled sink that does not trace it allocates
    nothing beyond what the thunk does. *)

type event = {
  ev_name : string;
  ev_id : int;  (** unique per sink *)
  ev_parent : int;  (** enclosing span's id, [-1] for a root span *)
  ev_tid : int;  (** recording domain's id = trace track *)
  ev_ts : float;  (** start, seconds since the sink was created *)
  ev_dur : float;  (** duration in seconds *)
  ev_self : float;  (** duration minus directly-enclosed child spans *)
  ev_minor_words : float;  (** minor-heap words allocated in the span *)
  ev_self_minor_words : float;  (** minus words allocated in children *)
  ev_promoted_words : float;  (** words promoted to the major heap *)
}

val trace_events : t -> event list
(** All recorded events, sorted by track then start time; [] when the
    sink is disabled or not tracing. *)

val set_track_name : t -> tid:int -> string -> unit
(** Name a trace track (thread_name metadata in the export). *)

(** {2 Aggregated views} *)

val counters : t -> (string * int) list
(** Registered counters in creation order with their aggregate value. *)

val gauges : t -> (string * float) list

val timers : t -> (string * int * float * float) list
(** [(name, calls, total seconds, self seconds)] in creation order. *)

val report : t -> string
(** Human-readable {!Ssd_util.Texttab} summary of every registered
    counter, gauge, timer (total and self) and histogram; [""] for a
    disabled sink. *)

(** {2 Typed snapshot} *)

type timer_stat = { st_calls : int; st_total_s : float; st_self_s : float }

type hist_stat = {
  hs_count : int;
  hs_sum : float;
  hs_rows : (float * float * int) list;
}

type span_node = {
  sp_name : string;
  sp_tid : int;
  sp_start_s : float;
  sp_total_s : float;
  sp_self_s : float;
  sp_minor_words : float;
  sp_self_minor_words : float;
  sp_promoted_words : float;
  sp_children : span_node list;  (** in start-time order *)
}

type snapshot = {
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_timers : (string * timer_stat) list;
  sn_histograms : (string * hist_stat) list;
  sn_spans : span_node list;  (** span forest, roots by (track, start) *)
}

val snapshot : t -> snapshot
(** Capture every registered instrument plus the span forest (rebuilt
    from recorded events via parent ids; empty unless tracing).  On the
    disabled sink returns a shared empty snapshot without allocating. *)

val prefix_snapshot : string -> snapshot -> snapshot
(** Namespace every instrument and span name with [prefix ^ "."] —
    how per-session sinks (one {!t} per serve session, so sessions
    never share shards) compose into one global view. *)

val merge_snapshots : snapshot list -> snapshot
(** Concatenate snapshots field-wise, preserving order.  Callers keep
    names disjoint (e.g. via {!prefix_snapshot}); duplicate names are
    kept as-is, not summed. *)

val snapshot_to_json : snapshot -> Ssd_util.Json.t
(** Stable JSON shape: [{counters:{}, gauges:{}, timers:{name:{calls,
    total_s, self_s}}, histograms:{name:{count, sum, rows:[[lo,hi,n]]}},
    spans:[{name, tid, start_s, total_s, self_s, minor_words,
    self_minor_words, promoted_words, children:[…]}]}]. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition: metric names are prefixed [ssd_] and
    sanitized to [[a-zA-Z0-9_:]]; counters become [_total], timers
    [_calls_total] / [_seconds_total] / [_self_seconds_total], gauges
    bare, histograms cumulative [_bucket{le=…}] / [_sum] / [_count]. *)

val write_snapshot : t -> string -> unit
(** {!snapshot_to_json} written atomically (temp file + rename). *)

(** {2 Exports} *)

val trace_json : t -> string
(** Chrome trace-event JSON: an object with a [traceEvents] array of
    complete ("ph":"X") events plus thread-name metadata, timestamps in
    microseconds; each event's [args] carries [id] / [parent] /
    [self_us] and the GC word deltas. *)

val write_trace : t -> string -> unit
(** {!trace_json} written atomically (temp file + rename). *)

val write_file_atomic : string -> contents:string -> unit
(** Write [contents] to a sibling temp file and [Sys.rename] it over
    the target, so readers never observe a truncated file. *)
