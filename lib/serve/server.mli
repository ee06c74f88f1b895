(** The timing server: dispatch over a {!Ssd_sta.Session} manager,
    line-framed transports, and a replayable request log.

    {2 Dispatch}

    {!dispatch_batch} is the deterministic core: it takes the raw
    frames of one batch in arrival order and returns one response line
    per frame, in the same order.  Within a batch, runs of consecutive
    per-session operations ([edit], [checkpoint], [revert], [commit],
    [query], [corners], [mc]) are grouped by session and the groups
    execute concurrently on the manager's domain pool — per-session
    order is preserved, and since sessions share no mutable state the
    responses are bit-identical for any lane count.  Lifecycle
    operations ([open], [close], [stats], [ping], [shutdown]) act as
    barriers inside the batch.

    {2 Admission control}

    [max_sessions] bounds open sessions, [max_frame_bytes] rejects
    oversized frames before parsing, and [max_batch_requests] /
    [max_batch_bytes] cap how much a transport pulls in flight per
    batch.  Sizes a request names are bounded by fixed caps, answered
    [bad-params] before any work: [corners] (64), [mc] [batch] (64)
    and [samples] (65,536), and an [open]'s [gen] [gates] and
    [inputs] (1,000,000 each).

    {2 Record / replay}

    With [record] set, every (request, response) pair is appended to
    the log as one JSON line [{"req": "...", "resp": "..."}].
    {!replay} feeds a log back through a fresh server; with
    [check = true] every replayed response must be byte-identical to
    the recorded one — the serve-level image of [ssd eco --check].
    The only exemption is [stats] (wall-clock timers are not
    replayable); there only the ok/error status is compared. *)

type config = {
  sv_library : Ssd_cell.Charlib.t;
  sv_engine_opts : Ssd_sta.Run_opts.t;
      (** template for per-session engines (its [obs] is replaced by
          each session's private sink) *)
  sv_jobs : int;  (** lanes of the cross-session batch pool *)
  sv_max_sessions : int;
  sv_max_frame_bytes : int;
  sv_max_batch_requests : int;
  sv_max_batch_bytes : int;
  sv_record : string option;  (** request-log path *)
  sv_obs : Ssd_obs.Obs.t;  (** server-global sink ([serve.*] metrics) *)
}

val default_config : library:Ssd_cell.Charlib.t -> config
(** 64 sessions, 1 MiB frames, 256-request / 4 MiB batches, 1 job, no
    record, disabled telemetry. *)

type t

val create : config -> t
(** Opens (truncates) the record file when configured.
    @raise Sys_error when the record path cannot be opened. *)

val close : t -> unit
(** Close every session, the batch pool and the record log.
    Idempotent. *)

val sessions : t -> Ssd_sta.Session.t

val shutting_down : t -> bool
(** Set once a [shutdown] request was served; transports stop reading
    after the current batch. *)

val dispatch : t -> string -> string
(** One frame in, one response line out (no trailing newline).  Never
    raises: every failure maps to an error envelope.  Appends to the
    record log when configured. *)

val dispatch_batch : t -> string list -> string list
(** The batched core (see above).  Appends to the record log when
    configured. *)

(** {2 Transports} *)

val serve_fd : t -> in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> unit
(** Line-framed serve loop over raw descriptors: blocks for the first
    frame, then drains whatever further frames are already readable
    (up to the batch caps) into one {!dispatch_batch}.  A line is never
    buffered past [sv_max_frame_bytes + 1] bytes: a longer one is cut
    there, the rest of it is dropped through its newline, and the kept
    prefix is dispatched (and answered [frame-too-large]).  Returns on
    EOF or after a [shutdown] request. *)

val serve_stdio : t -> unit
(** {!serve_fd} over stdin/stdout — the test and bench transport. *)

val serve_tcp : ?host:string -> t -> port:int -> unit
(** Listen on [host] (default 127.0.0.1) : [port] ([0] picks a free
    port, printed on stdout) and serve accepted connections with
    {!serve_fd}, one client at a time; named sessions persist across
    connections.  Returns after a [shutdown] request. *)

(** {2 Replay} *)

val replay :
  t ->
  path:string ->
  check:bool ->
  (int * (int * string * string) list, string) result
(** Feed a recorded log through this server.  [Ok (n, mismatches)]:
    [n] requests replayed; with [check], [mismatches] lists
    [(line, expected, got)] response divergences (empty means the
    replay was bit-identical).  [Error] on an unreadable or malformed
    log. *)
