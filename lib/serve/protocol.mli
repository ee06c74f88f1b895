(** The serve wire protocol: versioned line-delimited JSON envelopes.

    {2 Framing}

    One request per line ([\n]-terminated UTF-8 JSON, no embedded
    newlines — {!Ssd_util.Json.to_string} never emits raw control
    characters), one response line per request, in request order.
    Frames larger than the server's admission cap are rejected with
    {!Frame_too_large} without being parsed; the transport keeps at
    most cap + 1 bytes of such a line.

    {2 Envelopes}

    Request: [{"v": 1, "id": <any>, "op": "<name>", ...params}].
    [v] must equal {!version}; [id] is echoed verbatim in the response
    (clients use it to correlate; it defaults to [null]).

    Response: [{"v": 1, "id": <echo>, "ok": {...}}] on success,
    [{"v": 1, "id": <echo>, "error": {"code": "<code>", "message":
    "..."}}] on failure.  Exactly one of [ok] / [error] is present.
    Responses are rendered with a fixed field order, so a replayed
    session reproduces them byte for byte. *)

val version : int
(** Current protocol version: 1. *)

(** Structured error codes, stable across releases (the [code] field
    of an error response). *)
type error_code =
  | Bad_frame  (** the line is not valid JSON *)
  | Bad_version  (** missing [v], or an unsupported version *)
  | Bad_request  (** envelope shape errors (no [op], non-object, ...) *)
  | Unknown_op
  | Bad_params  (** a parameter is missing, mistyped or out of range *)
  | Unknown_session
  | Session_exists
  | Too_many_sessions  (** admission control: session cap reached *)
  | Frame_too_large  (** admission control: in-flight byte cap *)
  | Unknown_signal
  | Bad_edit  (** an edit failed to decode or validate *)
  | Bad_checkpoint
  | Engine_error  (** the engine rejected an operation *)
  | Shutting_down

val code_string : error_code -> string
(** Stable kebab-case wire spelling, e.g. ["too-many-sessions"]. *)

val code_of_string : string -> error_code option

type request = {
  rq_id : Ssd_util.Json.t;  (** echoed verbatim; [Null] when absent *)
  rq_op : string;
  rq_body : Ssd_util.Json.t;  (** the whole request object *)
}

val parse_request :
  max_bytes:int ->
  string ->
  (request, Ssd_util.Json.t * error_code * string) result
(** Parse one frame: byte cap, JSON well-formedness, envelope shape
    and protocol version, in that order.  The [Error] triple carries
    the request id when the frame at least parsed to an object
    ([Null] otherwise) plus exactly what {!error_json} wants. *)

val ok_json : id:Ssd_util.Json.t -> Ssd_util.Json.t -> Ssd_util.Json.t
val error_json :
  id:Ssd_util.Json.t -> error_code -> string -> Ssd_util.Json.t

val render : Ssd_util.Json.t -> string
(** One response line (no trailing newline). *)

val response_ok : Ssd_util.Json.t -> bool
(** Whether a parsed response carries [ok] (vs [error]). *)

val response_error_code : Ssd_util.Json.t -> string option
(** The [error.code] of a parsed error response. *)
