let default_max_fanin = 4

(* The output as it is emitted, node by node in id order, into the
   arrays of [Netlist.of_flat].  A first, dry pass over the same code
   only counts nodes and fan-ins, so the second one fills arrays of
   exactly the right size.  [counter] is the next fresh-name suffix. *)
type builder = {
  src : Netlist.t;
  dry : bool;  (* count only: store nothing and make no name *)
  names : string array;
  kinds : int array;
  fanin_off : int array;
  fanin_dat : int array;
  mutable count : int;
  mutable fanins : int;
  mutable counter : int;
}

let make_builder src ~dry ~nodes ~fanins =
  let fanin_off = Array.make (nodes + 1) 0 in
  { src; dry; names = Array.make nodes ""; kinds = Array.make nodes 0;
    fanin_off; fanin_dat = Array.make fanins 0; count = 0; fanins = 0;
    counter = 0 }

(* [base$k] for the smallest [k] from the rising counter that names no
   signal of the input.  Fresh names cannot collide with each other
   (each takes its own [k]), so checking the input's own name table is
   enough, whichever order the original names are emitted in. *)
let fresh b base =
  let rec try_name k =
    let cand = base ^ "$" ^ string_of_int k in
    match Netlist.find b.src cand with
    | None ->
      b.counter <- k + 1;
      cand
    | Some _ -> try_name (k + 1)
  in
  if b.dry then base else try_name b.counter

let push b j =
  if not b.dry then b.fanin_dat.(b.fanins) <- j;
  b.fanins <- b.fanins + 1

(* Emit a node whose fan-ins have just been pushed; returns its id. *)
let close b name kind =
  let id = b.count in
  if not b.dry then begin
    b.names.(id) <- name;
    b.kinds.(id) <- kind;
    b.fanin_off.(id + 1) <- b.fanins
  end;
  b.count <- id + 1;
  id

let emit1 b name kind a =
  push b a;
  close b name (Gate.to_int kind)

let emit2 b name kind a c =
  push b a;
  push b c;
  close b name (Gate.to_int kind)

(* a gate over [ins.(first) .. ins.(first + len - 1)] *)
let emit_seg b name kind ins first len =
  for p = first to first + len - 1 do
    push b ins.(p)
  done;
  close b name (Gate.to_int kind)

(* NAND(xs) = NAND(AND(g1), AND(g2), …) for any grouping of xs, and dually
   for NOR, so a wide inverting gate reduces to a tree whose internal
   groups use the non-inverting composition (inverting gate + NOT).
   Groups of [max_fanin] consecutive inputs, the last one shorter, are
   reduced in order and in place: group [g] is read before its result
   overwrites [ins.(g)], and later groups start past [g].  Returns how
   many inputs remain in [ins], at most [max_fanin]. *)
let rec reduce_wide b base ~max_fanin ~kind ins len =
  if len <= max_fanin then len
  else begin
    let groups = (len + max_fanin - 1) / max_fanin in
    for g = 0 to groups - 1 do
      let first = g * max_fanin in
      let size = min max_fanin (len - first) in
      ins.(g) <-
        (if size = 1 then ins.(first)
         else
           let inv = emit_seg b (fresh b base) kind ins first size in
           emit1 b (fresh b base) Gate.Not inv)
    done;
    reduce_wide b base ~max_fanin ~kind ins groups
  end

(* The first three NANDs of the classic 4-NAND XOR of [a] and [c]; the
   returned id and the one after it feed the final NAND. *)
let xor2_front b base a c =
  let n1 = emit2 b (fresh b base) Gate.Nand a c in
  let n2 = emit2 b (fresh b base) Gate.Nand a n1 in
  ignore (emit2 b (fresh b base) Gate.Nand c n1);
  n2

(* XOR of [ins.(0 .. last)], folded pairwise from the left into fresh
   nodes; [ins.(0)] itself when [last = 0] *)
let xor_fold b base ins last =
  let acc = ref ins.(0) in
  for p = 1 to last do
    let n2 = xor2_front b base !acc ins.(p) in
    acc := emit2 b (fresh b base) Gate.Nand n2 (n2 + 1)
  done;
  !acc

(* a buffer, or a one-input AND/OR/XOR *)
let two_inverters b name a =
  emit1 b name Gate.Not (emit1 b (fresh b name) Gate.Not a)

(* Map gate [name] of [kind] over its mapped fan-ins [ins.(0 .. m-1)];
   the network's last node carries the original name. *)
let map_gate b ~max_fanin name kind ins m =
  let a = ins.(0) in
  match kind with
  | Gate.Not -> emit1 b name Gate.Not a
  | Gate.Buf -> two_inverters b name a
  | (Gate.Nand | Gate.Nor | Gate.Xnor) when m = 1 -> emit1 b name Gate.Not a
  | (Gate.And | Gate.Or | Gate.Xor) when m = 1 -> two_inverters b name a
  | Gate.Nand | Gate.Nor ->
    emit_seg b name kind ins 0 (reduce_wide b name ~max_fanin ~kind ins m)
  | Gate.And | Gate.Or ->
    let kind = if kind = Gate.And then Gate.Nand else Gate.Nor in
    let len = reduce_wide b name ~max_fanin ~kind ins m in
    emit1 b name Gate.Not (emit_seg b (fresh b name) kind ins 0 len)
  | Gate.Xor ->
    let n2 = xor2_front b name (xor_fold b name ins (m - 2)) ins.(m - 1) in
    emit2 b name Gate.Nand n2 (n2 + 1)
  | Gate.Xnor -> emit1 b name Gate.Not (xor_fold b name ins (m - 1))

(* One pass over the input in topological order. *)
let map_all b ~max_fanin nl =
  let mapping = Array.make (Netlist.size nl) (-1) in
  let ins = ref (Array.make 8 0) in
  Array.iter
    (fun i ->
      let name = Netlist.signal_name nl i in
      if Netlist.is_pi nl i then mapping.(i) <- close b name (-1)
      else begin
        let m = Netlist.fanin_count nl i in
        if Array.length !ins < m then ins := Array.make (2 * m) 0;
        for p = 0 to m - 1 do
          !ins.(p) <- mapping.(Netlist.fanin_nth nl i p)
        done;
        mapping.(i) <-
          map_gate b ~max_fanin name (Netlist.gate_kind nl i) !ins m
      end)
    (Netlist.topo_order nl)

let to_primitive ?(max_fanin = default_max_fanin) nl =
  if max_fanin < 2 then invalid_arg "Decompose.to_primitive: max_fanin < 2";
  let sizes = make_builder nl ~dry:true ~nodes:0 ~fanins:0 in
  map_all sizes ~max_fanin nl;
  let b = make_builder nl ~dry:false ~nodes:sizes.count ~fanins:sizes.fanins in
  map_all b ~max_fanin nl;
  Netlist.of_flat
    ~name:(Netlist.name nl ^ ".prim")
    { Netlist.f_names = b.names; f_kinds = b.kinds; f_fanin_off = b.fanin_off;
      f_fanin_dat = b.fanin_dat;
      f_outputs = List.map (Netlist.signal_name nl) (Netlist.outputs nl) }

let is_primitive ?(max_fanin = default_max_fanin) nl =
  let ok i =
    Netlist.is_pi nl i
    ||
    match Netlist.gate_kind nl i with
    | Gate.Not -> true
    | Gate.Nand | Gate.Nor -> Netlist.fanin_count nl i <= max_fanin
    | Gate.And | Gate.Or | Gate.Xor | Gate.Xnor | Gate.Buf -> false
  in
  let rec from i = i = Netlist.size nl || (ok i && from (i + 1)) in
  from 0
