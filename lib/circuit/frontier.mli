(** A dirty frontier over one netlist, drained level by level.

    The one propagation schedule of the analyses that re-time what a
    change can move: the ECO {!Ssd_sta.Engine},
    {!Ssd_sta.Timing_sim.resimulate} and ITR's refresh.  A caller pushes
    the nodes a change touches, then drains: every pushed node is
    visited once, in increasing level order, so its fan-ins are final
    when it is visited, and the callback decides whether to push the
    node's fan-outs (each caller keeps its own cutoff rule).

    There is one frontier per domain, grown on demand and never shrunk,
    so domains share nothing and a pass allocates nothing.  Its marks
    are epoch-stamped (a node is pushed iff its mark is the pass's
    epoch), so no pass clears them; its buckets are laid out like the
    netlist's level CSR. *)

type t

val get : Netlist.t -> t
(** The calling domain's frontier, empty and bound to [nl] (pushes a
    pass left undrained are dropped).
    @raise Invalid_argument inside a drain on the same domain. *)

val push : t -> int -> unit
(** Put a node on the frontier; one already pushed in this pass is
    ignored.
    @raise Invalid_argument inside a drain, for a node on the draining
    level or below. *)

val drain : t -> (t -> int -> unit) -> unit
(** [drain fr f] calls [f fr i] on every pushed node [i], the ones [f]
    pushes included, level by level in increasing order (push order
    within a level).  The frontier is empty when [drain] returns or
    raises.
    @raise Invalid_argument inside another drain on the same domain. *)
