(** Small descriptive-statistics helpers for error reporting. *)

val mean : float list -> float
(** 0 for the empty list. *)

val rms : float list -> float
val max_abs : float list -> float
val min_max : float list -> (float * float) option

val quantile : float -> float list -> float
(** [quantile q xs] is the [q]-quantile of [xs] (linear interpolation
    between order statistics; [q = 0] minimum, [0.5] median, [1] maximum).
    @raise Invalid_argument on an empty list or [q] outside [0, 1]. *)

val quantiles : float list -> float list -> (float * float) list
(** [(q, quantile q xs)] for each requested [q], sorting [xs] once.
    @raise Invalid_argument on an empty list or any [q] outside [0, 1]. *)

val mean_abs_pct_error : reference:float list -> float list -> float
(** Mean of |model − reference| / |reference| over positions where the
    reference is non-zero, in percent.  Lists must have equal length. *)

val max_abs_pct_error : reference:float list -> float list -> float

val histogram :
  ?lo:float -> ?hi:float -> bins:int -> float list -> (float * float * int) list
(** [(lo, hi, count)] rows.  By default the range is the data span and
    empty input yields [].  [?lo]/[?hi] pin either end of the range
    instead, making the bin edges data-independent so histograms over
    different sample sets (telemetry shards from different lanes) merge
    by adding counts bin-by-bin; out-of-range samples land in the edge
    bins.  With both ends pinned, empty input yields [bins] zero-count
    rows.  @raise Invalid_argument on [bins <= 0] or [hi <= lo]. *)

val bin_index : lo:float -> span:float -> bins:int -> float -> int
(** The bin {!histogram} puts a sample in, over [bins] equal bins of
    the range [lo, lo + span] ([span > 0]); out-of-range samples clamp
    to the edge bins. *)

val bin_rows : lo:float -> span:float -> int array -> (float * float * int) list
(** The [(lo, hi, count)] rows of {!histogram} for per-bin counts over
    the range [lo, lo + span] — with {!bin_index}, how a histogram kept
    as running counts renders exactly like {!histogram} over the same
    samples. *)
