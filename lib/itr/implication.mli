(** Two-frame logic implication over a netlist.

    Maintains one nine-valued assignment per line and propagates every
    narrowing forward (gate evaluation) and backward (direct implications)
    to a fixpoint, as required for ITR and test generation (an extension
    of the basic implication method of Abramovici et al. to two
    time-frames). *)

type t

val create : Ssd_circuit.Netlist.t -> t
(** All lines at xx. *)

val copy : t -> t

val value : t -> int -> Value2f.t

val netlist : t -> Ssd_circuit.Netlist.t

val assign_opt : t -> int -> Value2f.t -> int list option
(** [assign_opt t node v] narrows [node] with [v] and propagates to a
    fixpoint; returns the nodes whose values changed, or [None] on a
    conflict, with the state then partially updated (callers keep a
    {!copy} for backtracking). *)

val specified_count : t -> int
(** Number of fully specified lines — a progress metric. *)
