(** Two-pattern timing simulation: point timing for a fully specified
    vector pair.

    Logic values are evaluated frame-wise; every line whose two frames
    differ carries one transition event (arrival + transition time)
    computed with the selected delay model — so the simultaneous-switching
    speed-up applies wherever several gate inputs actually switch.
    Hazards (multiple events per line) are not modelled, matching the
    paper's timing-simulation framework.

    Results are stored structure-of-arrays ({!lines}): one flag byte per
    line plus two flat float arrays for the event slots — ~17 bytes/line
    in three allocations instead of a record (and an event box) per line,
    which is what keeps fault simulation over 100k–1M-line circuits off
    the allocator.  Lines are read through the flat accessors ({!v1},
    {!v2}, {!has_event}, {!event_arr}, ...).

    [extra_delay] injects additional delay on chosen lines (the crosstalk
    ATPG's fault effect); it is applied to the line's own event and hence
    propagates downstream. *)

type lines
(** Packed per-line simulation result over all node ids of one netlist. *)

val length : lines -> int
val empty : lines
(** Zero-length placeholder (for slots filled in later). *)

(** {2 Flat accessors} — allocation-free reads by node id. *)

val v1 : lines -> int -> bool
val v2 : lines -> int -> bool
val has_event : lines -> int -> bool

val event_arr : lines -> int -> float
(** Event arrival; meaningful only when {!has_event}. *)

val event_tt : lines -> int -> float
(** Event transition time; meaningful only when {!has_event}. *)

val rising_at : lines -> int -> bool
val falling_at : lines -> int -> bool

val event : lines -> int -> Ssd_core.Types.event option

val simulate :
  ?pi_arrival:float ->
  ?pi_tt:float ->
  ?extra_delay:(int -> float) ->
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  (bool * bool) array ->
  lines
(** The vector pair is indexed by PI rank ({!Ssd_circuit.Netlist.inputs}
    order).  @raise Sta.Unsupported_gate on non-primitive gates. *)

val resimulate :
  ?pi_arrival:float ->
  ?pi_tt:float ->
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  base:lines ->
  line:int ->
  delta:float ->
  lines
(** Incremental re-simulation of one extra delay: [base] is a fault-free
    {!simulate} result of some vector pair, and the answer is what
    [simulate ~extra_delay] gives on that pair when [extra_delay] is
    [delta] on [line] and zero elsewhere — bit for bit, with the same
    [pi_arrival]/[pi_tt] (property-tested in [test/test_sta.ml]).

    The result is a fresh copy of [base] ([base] is never mutated) in
    which [line] is re-timed, then only lines whose events can move: a
    switching fan-out of a line whose event changed is re-timed once, in
    increasing logic-level order.  Logic frames never change (an extra
    delay shifts events, not values), so a line with no event, and every
    line outside [line]'s {!Ssd_circuit.Netlist.transitive_fanout}, keeps
    its fault-free record.  The schedule is the calling domain's
    {!Ssd_circuit.Frontier}, its only scratch, so calls from several
    domains may share one netlist and one [base].
    @raise Invalid_argument when [base] is not sized for the netlist,
    [line] is out of range or [delta] is not finite, or when called
    inside another frontier drain on the same domain. *)

val po_latest : Ssd_circuit.Netlist.t -> lines -> float option
(** Latest PO event arrival, [None] when no PO switches. *)
