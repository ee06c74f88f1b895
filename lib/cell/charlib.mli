(** Characterized cell library (the paper's Section 3.7 one-time effort).

    For every gate in the library and every input position the flow fits
    the pin-to-pin quadratics (delay and output transition time, both
    response directions); for every input pair it fits the simultaneous
    switching surfaces D0R, SR, SYR plus the output-transition V-shape
    minimum; it also fits the k-inputs-tied curves used by the >2
    simultaneous extension and the linear load dependence.

    Characterization runs against the analog simulator, takes seconds to a
    minute, and is cached on disk keyed by a digest of (profile, tech,
    spec). *)

type profile = {
  t_grid : float list;     (** transition-time sample points, s *)
  pair_grid : float list;  (** (T_a, T_b) grid for pair surfaces, s *)
  sim_h : float;           (** simulator time step, s *)
  sr_rel_tol : float;      (** saturation threshold as a fraction of DR−D0R *)
  sr_iters : int;          (** bisection refinement steps for SR / SYR *)
  tmin_iters : int;        (** golden-section steps for the t-V-shape vertex *)
  fanouts : int list;      (** load sweep points *)
  ref_fanout : int;        (** fanout at which everything else is measured *)
}

val fine : profile
(** Benchmark-quality grids (used by [bench/] and the CLI tools). *)

val coarse : profile
(** Small grids for the test suite. *)

type edge_char = {
  delay : Fit.fit1;   (** gate delay vs input transition time *)
  out_tt : Fit.fit1;  (** output transition time vs input transition time *)
}

type pair_char = {
  pos_a : int;
  pos_b : int;
  d0 : Fit.fit2;           (** D0R(T_a, T_b): delay at zero skew *)
  sr : Fit.fit2;           (** SR(T_a, T_b): right saturation skew, > 0 *)
  syr : Fit.fit2;          (** |SYR|(T_a, T_b): left saturation skew, > 0 *)
  tt_min_skew : Fit.fit2;  (** SK_{t,min}(T_a, T_b) *)
  tt_min : Fit.fit2;       (** minimal output transition time *)
}

type cell = {
  kind : Sweep.gate_kind;
  n : int;
  t_range : float * float;
  ref_fanout : int;
  to_ctl : edge_char array;   (** per position: to-controlling response *)
  to_non : edge_char array;   (** per position: to-non-controlling response *)
  tied_ctl : edge_char array; (** index k−1: first k inputs tied together *)
  pairs : pair_char list;
  load_d_ctl : float;  (** delay increase per extra fanout unit, s *)
  load_t_ctl : float;
  load_d_non : float;
  load_t_non : float;
}

type t = { cells : cell list; tag : string }

val characterize_cell : ?with_pairs:bool -> profile -> Ssd_spice.Tech.t
  -> Sweep.gate_kind -> n:int -> cell
(** [with_pairs] defaults to true; pass false for a cheap pin-to-pin-only
    characterization (used e.g. for the NAND5 of Figure 10). *)

val default_spec : (Sweep.gate_kind * int) list
(** INV (1-input NAND), NAND2–4, NOR2–4 — the cells used by the gate-level
    experiments. *)

val characterize : profile -> Ssd_spice.Tech.t
  -> (Sweep.gate_kind * int) list -> t

val load_or_characterize : ?cache_dir:string -> profile -> Ssd_spice.Tech.t
  -> (Sweep.gate_kind * int) list -> t
(** Disk-cached {!characterize}.  Default cache directory:
    [$SSD_CACHE_DIR], else [$HOME/.cache/ssd-repro], else ["."].  The
    file is named by a digest of the cache format version, profile, tech
    and spec.  It starts with a magic string, the format version and the
    payload's digest, all checked before the payload is unmarshalled; a
    missing, unreadable, truncated or corrupted file is a miss, which
    characterizes and replaces it.  A file is written under a temporary
    name in the cache directory and renamed into place, so a concurrent
    reader never meets a partial one.  A cache that cannot be written is
    logged and skipped. *)

val default : ?profile:profile -> unit -> t
(** Memoized [load_or_characterize] of {!default_spec} with
    {!Ssd_spice.Tech.default}; [profile] defaults to {!fine} unless the
    environment variable [SSD_FAST] is set, in which case {!coarse}.
    Safe to call from several domains at once: the memo is guarded by a
    lock, held through the first load, so every caller gets the same
    library. *)

val find : t -> Sweep.gate_kind -> int -> cell
(** @raise Not_found *)

val find_pair : cell -> int -> int -> (pair_char * bool) option
(** [find_pair cell a b] returns the characterized pair together with a
    flag that is true when the pair is stored as (a, b) and false when the
    stored order is (b, a) (the caller must mirror the skew). *)

val pp_cell_summary : Format.formatter -> cell -> unit
