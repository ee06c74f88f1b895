(** Technology mapping to the characterized primitive cells.

    The timing libraries characterize NAND-n, NOR-n (n ≤ max_fanin) and
    inverters, so AND/OR/XOR/XNOR/BUF gates and over-wide fan-ins are
    rewritten into equivalent primitive networks:
    - AND → NAND + NOT, OR → NOR + NOT, BUF → NOT·NOT
    - XOR(a,b) → the classic 4-NAND network; XNOR adds an inverter;
      wider XOR/XNOR fold pairwise
    - NAND/NOR wider than [max_fanin] split into trees.

    Original signal names are preserved for every original node, so
    primary outputs and fault sites keep their identity.  Each added node
    is named [base$k], where [base] is the original gate it helps map and
    [k] comes from one counter that rises across the whole netlist,
    skipping any [k] whose name is a signal of the input; so added names
    are unique, whatever names the input uses. *)

val to_primitive : ?max_fanin:int -> Netlist.t -> Netlist.t
(** [max_fanin] defaults to 4.  The result contains only NAND, NOR and NOT
    gates with fan-in at most [max_fanin].  Nodes are emitted in the
    input's topological order, each original gate's network ending with
    the node that carries its name.  The input is read through the flat
    accessors and the output's arrays are written directly, at exactly
    their final size (a counting pass first), for {!Netlist.of_flat}.
    @raise Invalid_argument if [max_fanin < 2]. *)

val is_primitive : ?max_fanin:int -> Netlist.t -> bool
