(** Batched multi-corner window kernel.

    Evaluates the window transfer functions of both window-capable
    models ({!Vshape} and {!Pin_to_pin}, by {!rule}) for a contiguous
    range of corners of one gate in a single pass over the flat
    corner-major coefficient table of {!Ssd_cell.Corners}, over the
    fan-ins an input mask keeps — no cell lookup and no allocation
    (callers supply every scratch buffer).

    It is the production evaluator of both models wherever a forward
    window pass runs: at K = 1 over a one-corner nominal table for
    single-corner analyses, the incremental engine and ITR, over K
    corners for multi-corner and Monte-Carlo sweeps.  The scalar
    functions remain the closure walk of every remapped copy of a model,
    and the independent oracle of the tests.

    {!eval_pin_delays} is the backward evaluator: the single-pin delay
    bounds the required-time pass subtracts and ITR's Table 1 clamps
    take, from the same table blocks and extremizers
    ({!Cellfn.min_delay_over} / {!Cellfn.max_delay_over} bit for bit).

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

(** The to-controlling window: the proposed model's V-shape corner
    search, or pin-to-pin's per-pin min/max fold.  Both models'
    to-non-controlling window is that fold. *)
type rule = V_shape | Per_pin

val rule_of : Delay_model.t -> rule option
(** {!V_shape} for {!Delay_model.proposed}, {!Per_pin} for
    {!Delay_model.pin_to_pin}, [None] for any other model value. *)

val eval_node :
  t ->
  rule:rule ->
  slot:int ->
  fanout:int ->
  m:int ->
  ctl_mask:int ->
  non_mask:int ->
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

    [ctl_mask] and [non_mask] keep pin [i] on their side when bit [i] is
    set ([-1] keeps every input).  A masked-out input takes part in no
    candidate (singles, pairs, tied-k count and hull, latest bounds), so
    each side equals the scalar window function over the list of kept
    inputs, positions unchanged, bit for bit; a side that keeps no input
    gets unspecified bounds.

    @raise Invalid_argument when [m] differs from the cell's fan-in
    count or the corner range is empty or out of bounds. *)

val eval_pin_delays :
  t ->
  slot:int ->
  fanout:int ->
  m:int ->
  c0:int ->
  c1:int ->
  inputs:float array ->
  outputs:float array ->
  unit
(** [eval_pin_delays t ~slot ~fanout ~m ~c0 ~c1 ~inputs ~outputs]: for
    corners [c0 .. c1-1] of one gate with [m] fan-ins, the bounds of
    each pin's delay over that pin's transition-time window, load
    included — the backward step of the required-time pass.

    [inputs] is laid out as for {!eval_node}; only the transition-time
    slots are read.  [outputs] receives four floats per corner [c] and
    pin [i], starting at [((c - c0) * m + i) * 4]: the minimum and the
    maximum delay of a rising input on that pin, then of a falling one.
    Every primitive inverts, so the rising input's delay reaches the
    output's fall and the falling input's its rise.  Each bound equals
    [Cellfn.min_delay_over] / [Cellfn.max_delay_over] of the corner's
    derated cell bit for bit.  Allocates nothing.

    @raise Invalid_argument as {!eval_node}, or when [outputs] is
    shorter than [(c1 - c0) * m * 4]. *)
