(** Support for the bit-identity checks of the tests and benches.

    The comparators are bitwise ([Int64.bits_of_float]): [0.] and [-0.]
    differ, and a NaN equals only a NaN with the same payload. *)

val beq : float -> float -> bool
val win_beq : Ssd_core.Types.win -> Ssd_core.Types.win -> bool
val lt_beq : Ssd_sta.Sta.line_timing -> Ssd_sta.Sta.line_timing -> bool

val sta_beq : Ssd_sta.Sta.t -> Ssd_sta.Sta.t -> bool
(** Every node's windows of two single-corner analyses, bit for bit. *)

val analyze_ref :
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  Ssd_sta.Sta.line_timing array
(** The record-array reference for the packed {!Ssd_sta.Windows} store:
    a plain sequential topological walk of {!Ssd_sta.Sta.eval_node}
    storing per-node records in an array, under
    {!Ssd_sta.Sta.default_pi_spec}.  Same kernel and schedule as a
    one-lane {!Ssd_sta.Sta.analyze_with}, different storage, so the
    packed path must reproduce this array bit for bit.
    @raise Ssd_sta.Sta.Unsupported_gate *)
