(** Packed per-node rise/fall timing windows, one or more corner planes.

    One contiguous float64 Bigarray holds eight slots per node (rise and
    fall, arrival and transition-time, lo and hi bounds) instead of a
    per-node tree of records — 64 bytes per node per plane, off the
    OCaml heap (neither scanned nor moved by the GC), walked
    sequentially by the levelized STA forward pass and the incremental
    engine.

    A store created with [planes = K] carries K independent timing
    planes — one per process corner — laid out plane-major so each
    corner's windows are contiguous.  The legacy accessors ({!set},
    {!rise}, {!fall}, {!eq}) address plane 0, keeping every single-plane
    call site unchanged.

    Loads and stores are bit-preserving, so a window materialized by
    {!rise}/{!fall} is bit-identical to the one {!set} packed — the
    invariant that keeps the packed path bit-identical to a plain
    record-array walk of the same kernel (the tests' reference).

    Concurrent {!set}/{!set_plane} on distinct (plane, node) slots from
    several domains is safe (disjoint plain float writes, no OCaml-heap
    mutation); the level barrier of the parallel schedule orders writers
    before readers. *)

type t

val create : ?planes:int -> int -> t
(** [create n] allocates windows for [n] nodes and [planes] corner
    planes (default 1), uninitialized — write every slot before reading
    it.  @raise Invalid_argument on a negative size or [planes < 1]. *)

val length : t -> int
val planes : t -> int

val set : t -> int -> rise:Ssd_core.Types.win -> fall:Ssd_core.Types.win -> unit
(** Plane-0 store.  @raise Invalid_argument on an out-of-range node id. *)

val set_plane :
  t -> plane:int -> int
  -> rise:Ssd_core.Types.win -> fall:Ssd_core.Types.win -> unit
(** @raise Invalid_argument on an out-of-range node id or plane. *)

val rise : t -> int -> Ssd_core.Types.win
val fall : t -> int -> Ssd_core.Types.win
(** Materialize one transition's plane-0 window.
    @raise Invalid_argument on an out-of-range node id. *)

val rise_plane : t -> plane:int -> int -> Ssd_core.Types.win
val fall_plane : t -> plane:int -> int -> Ssd_core.Types.win
(** Plane-addressed variants.
    @raise Invalid_argument on an out-of-range node id or plane. *)

val eq : t -> int -> rise:Ssd_core.Types.win -> fall:Ssd_core.Types.win -> bool
(** Bitwise ([Int64.bits_of_float]) comparison of the stored plane-0
    slots against a candidate, without materializing the stored window —
    the incremental engine's cutoff test. *)

val plane_eq : t -> plane:int -> t -> plane:int -> bool
(** Bitwise equality of one whole plane against a plane of another store
    (false when the node counts differ) — the batched-vs-scalar
    bit-identity check.  @raise Invalid_argument on an out-of-range
    plane. *)

val data : t -> (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The raw backing array, for alloc-free bulk readers (the batched
    corner sweep's gather loop).  Slot order per node: rise arrival
    lo/hi, rise tt lo/hi, fall arrival lo/hi, fall tt lo/hi. *)

val base : t -> plane:int -> int -> int
(** [base t ~plane i] is the flat index of node [i]'s first slot in
    [plane] — unchecked; callers validate ids once outside their bulk
    loop. *)

val bytes : t -> int
(** Payload footprint in bytes: [64 * planes * length]. *)
