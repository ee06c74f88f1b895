(** Minimal JSON tree, parser and printer.

    Used by the telemetry trace export ({!Ssd_obs.Obs}) and the bench
    harness's machine-readable results, and by the tests that read those
    files back.  Covers the full JSON grammar (objects, arrays, strings
    with escapes, numbers, booleans, null) without any external
    dependency; numbers are carried as [float], so integers above 2^53
    lose precision — far beyond anything the telemetry emits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact serialization.  Strings are escaped per RFC 8259; integral
    numbers below 1e15 in magnitude print as [Printf "%.0f"] would,
    every other finite number as [Printf "%.17g"] would (so it reads
    back bit for bit), and non-finite numbers (which JSON cannot
    represent) print as [null].  Renders into a per-domain scratch
    buffer: the result string is the only allocation besides the
    number strings. *)

val parse : string -> (t, string) result
(** Parse one JSON document; [Error] carries a message with the byte
    offset of the failure.  Trailing non-whitespace is an error. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_list : t -> t list
(** Elements of a [List]; [] for any other constructor. *)

val string_value : t -> string option
val number_value : t -> float option

val bool_value : t -> bool option

val int_value : t -> int option
(** [Some n] only for a [Num] that is finite, integral and inside the
    native [int] range — the request-parsing accessor (counts, seeds,
    ids), where [3.5] or [1e300] must be rejected rather than
    truncated. *)

val member_string : string -> t -> string option
(** [member_string k j] = [member k j |> string_value] — field lookup
    composed with the string accessor, the common protocol-decoding
    step. *)

val member_int : string -> t -> int option
val member_number : string -> t -> float option
