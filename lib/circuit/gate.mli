(** Gate-level primitives and their logic semantics. *)

type kind = And | Nand | Or | Nor | Xor | Xnor | Not | Buf

val of_string : string -> kind option
(** Case-insensitive; accepts the ISCAS85 spellings (including "BUFF"). *)

val of_bytes : Bytes.t -> int -> int -> kind option
(** [of_bytes b pos len] is {!of_string} of the [len] bytes of [b] from
    [pos], matched in place: it allocates nothing. *)

val to_string : kind -> string

val to_int : kind -> int
(** Dense tag in [0, 7], for packing kinds into flat int arrays. *)

val of_int : int -> kind
(** Inverse of {!to_int}.  @raise Invalid_argument outside [0, 7]. *)

val eval : kind -> bool list -> bool
(** @raise Invalid_argument on an arity violation (NOT/BUF take exactly
    one input; the others at least one). *)

val eval_fanin : kind -> (int -> bool) -> int -> bool
(** [eval_fanin kind get n] evaluates the gate on the input values
    [get 0 .. get (n - 1)] without building an intermediate list — the
    allocation-free core used by the simulators' inner loops ([get]
    typically indexes straight into a value array through the gate's
    fan-in array).  Short-circuits like {!eval} and raises the same
    arity errors. *)

val controlling_value : kind -> bool option
(** The value that alone determines the output (AND/NAND: false,
    OR/NOR: true); [None] for XOR/XNOR/NOT/BUF. *)

val inverting : kind -> bool
(** Whether the output is the complement of the "dominant" function
    (NAND/NOR/NOT/XNOR). *)

val is_primitive : kind -> bool
(** True for the kinds the characterized library covers directly:
    NAND, NOR, NOT. *)
