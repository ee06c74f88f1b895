(** The flat-kernel steps over a {!Windows} store.

    Forward: gather a gate's fan-in windows out of the store, evaluate
    {!Ssd_core.Corner_batch.eval_node} over a corner range with every
    input kept, scatter the outputs back.  This is the production
    evaluator of both window-capable models wherever a forward pass over
    a store runs: {!Sta.analyze_with} and {!Engine} at K = 1 over a
    nominal corner table (plane 0), and {!Corner_sta} over K planes.
    Every caller runs the same gather, kernel and scatter code, so the
    same fan-in floats give the same window floats whatever the
    schedule.

    Backward ({!required}): required times in reverse topological order
    into a packed {!required} store, from the same gather and the
    {!Ssd_core.Corner_batch.eval_pin_delays} bounds — the one
    required-time path, which {!Sta.compute_required} runs at K = 1. *)

exception Unsupported_gate of string
(** Re-exported as {!Sta.Unsupported_gate}. *)

val cell_of_gate :
  Ssd_cell.Charlib.t -> Ssd_circuit.Gate.kind -> int -> Ssd_cell.Charlib.cell
(** Re-exported as {!Sta.cell_of_gate}; the sweep resolves its table
    slots by the same gate → cell-shape mapping.
    @raise Unsupported_gate *)

type t
(** A sweep: one netlist, its per-node table slots, a kernel bound to a
    corner table, and the {!Windows} store it reads and writes. *)

val make : cb:Ssd_core.Corner_batch.t -> Windows.t -> Ssd_circuit.Netlist.t -> t
(** Resolve every gate's table slot and bind the store.
    @raise Unsupported_gate before any slot is used, or
    [Invalid_argument] when the store's node count differs from the
    netlist's or it has more planes than the table has corners. *)

val nominal_kernel : Ssd_cell.Charlib.t -> Ssd_core.Corner_batch.t
(** The kernel over a one-corner table of the library at the nominal
    spec ([Corners.default_specs 1]), whose corner 0 is bit-identical to
    the closure walk over the library itself. *)

val nominal : Ssd_cell.Charlib.t -> Windows.t -> Ssd_circuit.Netlist.t -> t
(** {!make} over {!nominal_kernel}.  @raise as {!make}. *)

val resolve_slots :
  Ssd_cell.Corners.table -> Ssd_circuit.Netlist.t -> int array * int
(** Every gate's table slot ([-1] for a PI) and the largest fan-in, as
    {!make} resolves them.  @raise Unsupported_gate *)

val rebind : t -> cb:Ssd_core.Corner_batch.t -> Windows.t -> t
(** The same netlist and slots (shared, not copied) over another table
    built from the same library and another store — a Monte-Carlo lane.
    @raise Invalid_argument as {!make}. *)

val windows : t -> Windows.t

val retype : t -> int -> Ssd_circuit.Gate.kind -> unit
(** Re-resolve gate [i]'s slot for another primitive kind with the same
    fan-in (an {!Engine} gate swap); shared with every {!rebind} of the
    sweep.  @raise Unsupported_gate *)

type scratch = private {
  inp : float array;  (** gathered fan-in windows *)
  out : float array;  (** kernel outputs, 8 floats per plane *)
  acc : float array;  (** the kernel's accumulator *)
  dly : float array;  (** backward pin-delay bounds, 4 floats per pin per plane *)
}

val scratch_for : planes:int -> max_fanin:int -> scratch
(** The calling domain's scratch, grown to fit [planes] planes of a gate
    with [max_fanin] fan-ins.  One record per domain: use it for one
    evaluation at a time, on the domain that fetched it. *)

val scratch : t -> scratch
(** {!scratch_for} the sweep's planes and fan-ins. *)

val eval_gate :
  t -> scratch -> rule:Ssd_core.Corner_batch.rule -> int -> int -> int -> unit
(** [eval_gate sw sc ~rule i c0 c1] gathers gate [i]'s fan-in windows
    from planes [c0 .. c1-1] and evaluates the kernel under [rule] into
    [sc.out] (plane [c] at [(c - c0) * 8]); the store is not written. *)

val store : t -> plane:int -> int -> float array -> off:int -> unit
(** Write 8 floats starting at [off] as node [i]'s windows in [plane]. *)

val load : t -> plane:int -> int -> float array -> off:int -> unit
(** Read node [i]'s 8 stored floats in [plane] into the array at [off]. *)

val scatter : t -> scratch -> int -> int -> int -> unit
(** Store [sc.out] for planes [c0 .. c1-1] of node [i]. *)

val stored_equal : t -> plane:int -> int -> float array -> off:int -> bool
(** Bitwise comparison of node [i]'s stored windows in [plane] against
    8 floats starting at [off] — the {!Engine}'s cutoff test. *)

val eval_range : t -> scratch -> rule:Ssd_core.Corner_batch.rule ->
  pi_win:Ssd_core.Types.win -> int -> int -> int -> unit
(** One node over planes [c0 .. c1-1]: [pi_win] on both transitions of
    a PI, {!eval_gate} then {!scatter} for a gate. *)

val shift_arrivals : float array -> off:int -> float -> unit
(** Translate the rise and fall arrival bounds of the 8-slot window at
    [off] by [extra], with {!Sta.shift_timing}'s float expression; [0.]
    is the bit-exact identity. *)

val put_win : float array -> off:int -> Ssd_core.Types.win -> unit
(** Pack one transition's window as 4 floats at [off] ({!Windows} slot
    order). *)

(** {1 Required times} *)

type required = private {
  rq_nl : Ssd_circuit.Netlist.t;  (** the netlist the times belong to *)
  rq_planes : int;
  rq_data :
    (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** four slots per node per plane, plane-major like {!Windows}:
          node [i] of plane [c] at [((c * n) + i) * 4], holding the
          rise window's earliest- and latest-allowed arrival, then the
          fall window's *)
}
(** A packed required-time store: 32 bytes per node per plane, off the
    OCaml heap. *)

val required : t -> clock_period:float -> required
(** The backward pass over every plane of the sweep's store, which must
    hold finished forward windows.  Each PO requires [[0, clock_period]]
    on both transitions (hold side 0, setup side the period); every
    other line starts unconstrained ([[-inf, inf]]).  Gates are visited
    in reverse topological order; each fan-in pin's transition-time
    window gives its delay bounds d_min, d_max
    ({!Ssd_core.Corner_batch.eval_pin_delays}), the gate's requirement
    [[q_lo, q_hi]] on the output transition that pin drives imposes
    [[q_lo - d_min, q_hi - d_max]] on the pin's line, and that window
    is merged into the line's slots: earliest-allowed bounds by
    [Float.max], latest-allowed by [Float.min], a crossed pair collapsed
    to [[lo, lo]].  Plane [c] equals the record-array walk over
    [Corners.library table c] bit for bit.  The period is not checked
    here ({!Sta.compute_required} validates it).  Allocates the store
    and nothing per node. *)
