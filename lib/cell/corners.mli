(** Process corners as derated views of one characterized library, plus
    the flat corner-major coefficient table behind the batched K-corner
    analysis of [Ssd_sta].

    A corner scales every delay-axis coefficient of the nominal library
    by [c_delay] and every output-transition coefficient by [c_tt].
    Since all fitted forms are linear in their coefficients, the derated
    surfaces are {e exactly} the nominal surfaces scaled — so a derated
    cell is an ordinary {!Charlib.cell} that the scalar kernels evaluate
    unchanged, and the batched path can be validated bit-for-bit against
    K independent single-corner analyses.

    {!build} packs all K derated coefficient sets into one contiguous
    [float64] Bigarray with the corner as the contiguous axis (see the
    layout comment in the implementation): the batched kernels of
    [Ssd_core.Corner_batch] stream it without allocating per corner. *)

type spec = {
  c_name : string;
  c_delay : float;  (** delay-axis derate factor, positive finite *)
  c_tt : float;  (** transition-time derate factor, positive finite *)
}

val default_specs : int -> spec list
(** [k] corners spread evenly over ±25 % delay / ∓10 % transition
    derates ([k = 1] is the nominal corner).
    @raise Invalid_argument on [k < 1]. *)

val sample_specs : seed:int64 -> int -> spec list
(** [n] Monte-Carlo corners: Gaussian derates (σ = 8 % delay, 5 % tt)
    truncated to [0.6, 1.4], drawn from a deterministic splitmix64
    stream.  @raise Invalid_argument on [n < 1]. *)

val derate_cell : spec -> Charlib.cell -> Charlib.cell
(** Scale the cell's fit coefficients, load slopes and rms residuals;
    ranges and bases are untouched.
    @raise Invalid_argument on a non-positive or non-finite factor. *)

val derate_library : spec -> Charlib.t -> Charlib.t
(** {!derate_cell} over every cell; the tag gains an ["@name"] suffix. *)

val remap_of_library : Charlib.t -> Charlib.cell -> Charlib.cell
(** Find the (kind, n) twin of a cell in another library.
    @raise Not_found if the library holds no such cell. *)

(** {1 Flat corner-major coefficient table} *)

(** Per-cell geometry of the packed table — offsets are relative to the
    corner block start [l_base + corner * l_stride]. *)
type layout = {
  l_kind : Sweep.gate_kind;
  l_n : int;
  l_ref_fanout : int;
  l_t_lo : float;
  l_t_hi : float;  (** shared [fit1] clamp range *)
  l_p_lo : float;
  l_p_hi : float;  (** shared [fit2] clamp range *)
  l_base : int;
  l_stride : int;  (** floats per corner block *)
  l_npairs : int;
  l_pair_slot : int array;  (** [n·n] row-major [(a·n + b)]; -1 = absent *)
  l_pair_direct : bool array;  (** stored orientation is (a, b) *)
  l_surf_basis : int array;  (** [npairs·5] tags: 0 Quad2, 1 Cuberoot2, 2 Cubic2 *)
}

(** Offset constants for indexing a corner block. *)

val group_ctl : int
val group_non : int
val group_tied : int
val fit_delay : int
val fit_tt : int
val surf_d0 : int
val surf_sr : int
val surf_syr : int
val surf_tts : int
val surf_ttm : int

val edge_off : layout -> group:int -> pos:int -> fit:int -> int
(** Start of a 4-float fit1 block (k0, k1, k2, peak-or-NaN). *)

val loads_off : layout -> int
(** Start of the 4 load slopes (d_ctl, t_ctl, d_non, t_non). *)

val pair_off : layout -> slot:int -> surf:int -> int
(** Start of a 10-float zero-padded fit2 block. *)

type coeffs =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type table

val build : ?specs:spec list -> Charlib.t -> table
(** Lay out the library's cells once and pack the derated coefficient
    set of every corner ([default_specs 4] when omitted) directly from
    the nominal fits — bit-identical to packing {!derate_cell} results.
    @raise Invalid_argument on an empty spec list, a bad factor, or a
    library whose fits violate the uniform per-cell range assumption. *)

val refit : table -> spec array -> unit
(** [refit t specs] retargets corners [0 .. n-1] of the table to the
    given [n] specs in place: the per-cell layout records, the index
    and the coefficient storage are all reused, only the [n] corners'
    coefficient blocks are rewritten (and their cached derated
    libraries dropped).  Corners [>= n] keep their previous specs and
    coefficients — the Monte-Carlo tail chunk refits fewer specs than
    the table holds and sweeps only the refreshed planes.
    @raise Invalid_argument when [n] is 0 or exceeds {!k}, or on a bad
    factor. *)

val k : table -> int
(** Number of corners. *)

val spec : table -> int -> spec
val nominal : table -> Charlib.t
val library : table -> int -> Charlib.t
(** The full derated library of one corner — drives the scalar oracle
    path and {!remap}.  Materialized on first request and cached until
    the next {!refit}; the batched kernel itself never touches it. *)

val coeffs : table -> coeffs
val layouts : table -> layout array
val layout : table -> int -> layout

val cell_slot : table -> Sweep.gate_kind -> int -> int option
(** Layout index for a (kind, n) cell shape, if packed: the first such
    cell of the library.  An array lookup by kind and arity that
    returns a shared option, so it allocates nothing (every analysis
    pass resolves one slot per gate). *)

val remap : table -> int -> Charlib.cell -> Charlib.cell
(** [remap t corner cell] is the corner-derated twin of [cell].
    @raise Not_found if the shape is absent from the table. *)

val bytes : table -> int
(** Size of the packed coefficient array. *)
