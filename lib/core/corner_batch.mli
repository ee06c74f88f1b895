(** Batched multi-corner window kernel.

    Evaluates the proposed model's window transfer functions
    ({!Vshape.ctl_window} / {!Vshape.non_window}) for a contiguous range
    of corners of one gate in a single pass over the flat corner-major
    coefficient table of {!Ssd_cell.Corners} — no cell lookup and no
    allocation (callers supply every scratch buffer).

    It is the production evaluator of {!Delay_model.proposed} wherever
    a forward window pass runs: at K = 1 over a one-corner nominal table
    for single-corner analyses and the incremental engine, over K
    corners for multi-corner and Monte-Carlo sweeps.  The scalar
    {!Vshape} functions remain the closure walk of every remapped copy
    of the model, and the independent oracle of the tests.

    Bit-identity contract: every float operation reproduces the scalar
    path literally (clamp order, extremum candidate order, strict
    comparisons, fold shapes up to min/max re-association), so corner
    plane [c] of a batched analysis equals an independent scalar
    analysis over [Corners.library table c] bit for bit. *)

type t
(** An evaluator bound to one {!Ssd_cell.Corners.table}. *)

val create : Ssd_cell.Corners.table -> t
val table : t -> Ssd_cell.Corners.table

val refresh : t -> unit
(** Re-copy the bound table's coefficient store into the evaluator's
    flat array — call after {!Ssd_cell.Corners.refit} rewrote the
    table's coefficients in place (the Monte-Carlo chunk loop). *)

val k : t -> int
(** Corner count of the bound table. *)

val slot : t -> Ssd_cell.Sweep.gate_kind -> int -> int option
(** Table slot of a (kind, fan-in) cell shape, if characterized. *)

val eval_node :
  t ->
  slot:int ->
  fanout:int ->
  m:int ->
  c0:int ->
  c1:int ->
  inputs:float array ->
  outputs:float array ->
  acc:float array ->
  unit
(** Evaluate corners [c0 .. c1-1] of one gate with [m] fan-ins.

    [inputs] holds, per corner [c] and fan-in pin [i], the pin's eight
    window bounds in {!Ssd_sta.Windows} slot order (rise arrival lo/hi,
    rise tt lo/hi, fall arrival lo/hi, fall tt lo/hi) starting at
    [((c - c0) * m + i) * 8].  [outputs] receives the gate's eight
    output bounds per corner starting at [(c - c0) * 8], same slot
    order.  [acc] (at least 8 floats) is the kernel's accumulator
    scratch; like [inputs] and [outputs] it belongs to the caller, so a
    call allocates nothing.

    @raise Invalid_argument when [m] differs from the cell's fan-in
    count or the corner range is empty or out of bounds. *)
