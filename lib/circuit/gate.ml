type kind = And | Nand | Or | Nor | Xor | Xnor | Not | Buf

(* [b] from [pos] spells [lit], an upper-case word, in any case *)
let rec spelled b pos lit i =
  i = String.length lit
  || Char.uppercase_ascii (Bytes.unsafe_get b (pos + i)) = lit.[i]
     && spelled b pos lit (i + 1)

(* every accepted spelling, with the option [of_bytes] returns, so a
   match allocates nothing *)
let spellings =
  [ ("AND", Some And); ("NAND", Some Nand); ("OR", Some Or);
    ("NOR", Some Nor); ("XOR", Some Xor); ("XNOR", Some Xnor);
    ("NOT", Some Not); ("INV", Some Not); ("BUF", Some Buf);
    ("BUFF", Some Buf) ]

let rec first_spelled b pos len = function
  | [] -> None
  | (lit, kind) :: rest ->
    if len = String.length lit && spelled b pos lit 0 then kind
    else first_spelled b pos len rest

let of_bytes b pos len = first_spelled b pos len spellings

let of_string s = of_bytes (Bytes.unsafe_of_string s) 0 (String.length s)

let to_string = function
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Not -> "NOT"
  | Buf -> "BUFF"

(* Dense integer tags for the structure-of-arrays netlist: the kind of
   every node packs into one int array entry instead of a boxed variant
   field.  [of_int] must invert [to_int] exactly. *)
let to_int = function
  | And -> 0
  | Nand -> 1
  | Or -> 2
  | Nor -> 3
  | Xor -> 4
  | Xnor -> 5
  | Not -> 6
  | Buf -> 7

let of_int = function
  | 0 -> And
  | 1 -> Nand
  | 2 -> Or
  | 3 -> Nor
  | 4 -> Xor
  | 5 -> Xnor
  | 6 -> Not
  | 7 -> Buf
  | n -> invalid_arg (Printf.sprintf "Gate.of_int: invalid tag %d" n)

let eval_fanin kind get n =
  let arity_one () =
    if n <> 1 then invalid_arg "Gate.eval: NOT/BUF take exactly one input"
  in
  let non_empty () =
    if n < 1 then invalid_arg "Gate.eval: gate with no inputs"
  in
  let rec all i = i >= n || (get i && all (i + 1)) in
  let rec any i = i < n && (get i || any (i + 1)) in
  let rec parity acc i =
    if i >= n then acc else parity (if get i then not acc else acc) (i + 1)
  in
  match kind with
  | Not ->
    arity_one ();
    not (get 0)
  | Buf ->
    arity_one ();
    get 0
  | And ->
    non_empty ();
    all 0
  | Nand ->
    non_empty ();
    not (all 0)
  | Or ->
    non_empty ();
    any 0
  | Nor ->
    non_empty ();
    not (any 0)
  | Xor ->
    non_empty ();
    parity false 0
  | Xnor ->
    non_empty ();
    not (parity false 0)

let eval kind inputs =
  let a = Array.of_list inputs in
  eval_fanin kind (Array.get a) (Array.length a)

let controlling_value = function
  | And | Nand -> Some false
  | Or | Nor -> Some true
  | Xor | Xnor | Not | Buf -> None

let inverting = function
  | Nand | Nor | Not | Xnor -> true
  | And | Or | Xor | Buf -> false

let is_primitive = function
  | Nand | Nor | Not -> true
  | And | Or | Xor | Xnor | Buf -> false
