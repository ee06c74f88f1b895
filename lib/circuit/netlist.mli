(** Immutable combinational gate-level netlist (DAG).

    Every node is a named signal: either a primary input or the output of
    exactly one gate.  The structure is validated at construction time
    (defined-before-use not required, but the graph must be acyclic and
    every fan-in must exist).

    Storage is structure-of-arrays: node kinds live in one flat int
    array and the fan-in / fan-out / level adjacency in CSR-style
    offset+data pairs, so the analysis hot paths walk contiguous memory
    at 100k–1M-gate scale.  Every reader uses the flat accessors
    ({!is_pi}, {!gate_kind}, {!fanin_nth}, {!fanout_nth},
    {!level_node}, ...), which allocate nothing; {!levels} copies the
    level CSR for cold callers.

    A netlist holds no mutable state and no cache: once built it is
    only read, so any number of domains may share it without a lock. *)

type node = Pi | Gate of { kind : Gate.kind; fanin : int array }
(** One declared signal, as {!build} takes it. *)

type t

exception Invalid of string
(** Raised by {!of_flat} and {!build} on cycles, dangling references,
    duplicate definitions or arity violations. *)

(** A netlist before validation, as the flat arrays it is stored in.
    Node [i] is named [f_names.(i)]; its kind is [f_kinds.(i)], [-1]
    for a primary input, else {!Gate.to_int} of the gate's kind; its
    fan-ins are [f_fanin_dat.(f_fanin_off.(i))] up to
    [f_fanin_dat.(f_fanin_off.(i + 1) - 1)], position 0 first.  So
    [f_fanin_off] has one entry more than there are nodes, starts at 0
    and ends at the length of [f_fanin_dat].  [f_outputs] names the
    primary outputs. *)
type flat = {
  f_names : string array;
  f_kinds : int array;
  f_fanin_off : int array;
  f_fanin_dat : int array;
  f_outputs : string list;
}

val of_flat : name:string -> flat -> t
(** The single construction path.  It validates the arrays (shapes,
    kind tags, arities, fan-in ids, unique names, declared outputs,
    acyclicity) and derives the name index, the fan-out CSR, the
    topological order (Kahn's, PIs first, in id order) and the level
    CSR.  The arrays are kept, not copied: the caller must not mutate
    them afterwards.

    The name index is one int array over [f_names]: a power-of-two
    number of slots, at least two per name, each holding a node id or
    -1, probed linearly from [Hashtbl.hash] of the name.  It is built
    here, in one pass, in id order, so a name given twice is reported
    at its second occurrence.
    @raise Invalid *)

val build :
  name:string ->
  signals:(string * node) list ->
  outputs:string list ->
  t
(** [signals] declares every node; [outputs] names the primary outputs.
    Packs the list into the arrays of {!of_flat} and builds from them.
    @raise Invalid *)

val name : t -> string
val size : t -> int
(** Total node count (PIs + gates). *)

val gate_count : t -> int
val pi_count : t -> int

val signal_name : t -> int -> string

val find : t -> string -> int option
(** The node named so, through the name index.  A hit allocates only
    its [Some] (2 words); a miss allocates nothing. *)

val inputs : t -> int list
(** PI ids in declaration order. *)

val outputs : t -> int list

(** {2 Flat structure-of-arrays accessors}

    Allocation-free reads against the packed representation. *)

val is_pi : t -> int -> bool

val gate_kind : t -> int -> Gate.kind
(** @raise Invalid_argument when the node is a PI. *)

val fanin_count : t -> int -> int
(** 0 for a PI. *)

val fanin_nth : t -> int -> int -> int
(** [fanin_nth t i p] is input position [p] of gate [i] (position 0 is
    closest to the output, as everywhere else). *)

val iter_fanin : t -> int -> f:(int -> unit) -> unit

val fanout_count : t -> int -> int
val fanout_nth : t -> int -> int -> int
val iter_fanout : t -> int -> f:(int -> unit) -> unit

val level_count : t -> int
(** Number of logic levels, [depth + 1]. *)

val level_start : t -> int -> int
(** Where level [l] starts in the level-major node order (the level
    CSR): its nodes are positions [level_start t l] up to
    [level_start t (l + 1) - 1], and [level_start t (level_count t)] is
    the node count. *)

val level_width : t -> int -> int
(** Node count of one level. *)

val level_node : t -> int -> int -> int
(** [level_node t l k] is the [k]-th node of level [l], in topological
    order. *)

val load_of : t -> int -> int
(** Electrical fanout used by the delay models: [max 1 (consumers)], so
    a PO with no readers still drives a load of one. *)

val topo_order : t -> int array
(** All node ids, PIs first, then gates in topological order. *)

val level : t -> int -> int
(** Logic level: 0 for PIs, 1 + max fan-in level for gates. *)

val levels : t -> int array array
(** Node ids grouped by logic level: element [l] lists every node of
    level [l] in topological order.  Level 0 is the PIs; nodes within a
    level have no dependencies on one another, so each group can be
    processed in parallel once all earlier groups are done.  A fresh
    copy of the level CSR on every call (cold-path view; hot loops use
    {!level_start} / {!level_node}). *)

val depth : t -> int
(** Maximum level over all nodes. *)

val transitive_fanin : t -> int -> int list
(** All nodes (including PIs) feeding the given node, topologically
    sorted. *)

val transitive_fanout : t -> int -> int list
(** Every node the given node reaches (excluding itself), topologically
    sorted: the lines whose timing a delay change on it can move. *)

val mem_bytes : t -> int
(** Approximate heap footprint of the packed structural arrays (kinds,
    CSR offsets and data, topological and level orders) in bytes,
    headers included; excludes signal names and the name index.  The
    scale bench divides this by {!size} to track bytes/gate. *)

val stats : t -> string
(** One-line human-readable summary. *)
