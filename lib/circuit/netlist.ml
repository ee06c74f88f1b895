type node = Pi | Gate of { kind : Gate.kind; fanin : int array }

(* Structure-of-arrays storage: node kinds in one flat int array (-1 for
   a PI, else the dense {!Gate.to_int} tag) and the fan-in / fan-out /
   level adjacency in CSR offset+data pairs.  Hot paths (STA forward
   pass, ECO propagation, timing simulation) walk these contiguous
   arrays; [levels] copies the level CSR for cold callers.  Nothing
   here is mutated after [of_flat] returns, so domains share a netlist
   without a lock. *)
type t = {
  nl_name : string;
  names : string array;
  index : int array;  (* open addressing over [names]: node id or -1 *)
  kinds : int array;
  fanin_off : int array;   (* length n+1 *)
  fanin_dat : int array;
  fanout_off : int array;  (* length n+1 *)
  fanout_dat : int array;
  pis : int list;
  pos : int list;
  topo : int array;
  node_level : int array;
  level_off : int array;   (* length depth+2 *)
  level_dat : int array;   (* node ids grouped by level, topo order *)
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

type flat = {
  f_names : string array;
  f_kinds : int array;
  f_fanin_off : int array;
  f_fanin_dat : int array;
  f_outputs : string list;
}

(* The name index: a power-of-two number of slots, at least two per
   name, each holding a node id or -1; a name sits at the first free
   slot from [Hashtbl.hash name], probing linearly.  [slot_of] gives the
   slot holding [s], or the free slot that ends its probe. *)
let rec probe names index s k =
  let id = Array.unsafe_get index k in
  if id < 0 || String.equal (Array.unsafe_get names id) s then k
  else probe names index s ((k + 1) land (Array.length index - 1))

let slot_of names index s =
  probe names index s (Hashtbl.hash s land (Array.length index - 1))

let build_index names =
  let n = Array.length names in
  let size = ref 1 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  let index = Array.make !size (-1) in
  Array.iteri
    (fun i s ->
      let k = slot_of names index s in
      if index.(k) >= 0 then invalid "duplicate signal %S" s;
      index.(k) <- i)
    names;
  index

(* The one construction path: validate the flat arrays, then derive the
   name index, the fan-out CSR, Kahn's topological order and the level
   CSR from them. *)
let of_flat ~name f =
  let names = f.f_names and kinds = f.f_kinds in
  let fanin_off = f.f_fanin_off and fanin_dat = f.f_fanin_dat in
  let n = Array.length names in
  if n = 0 then invalid "empty netlist";
  if Array.length kinds <> n || Array.length fanin_off <> n + 1 then
    invalid "netlist %S: %d names, %d kinds and %d fan-in offsets" name n
      (Array.length kinds) (Array.length fanin_off);
  if fanin_off.(0) <> 0 || fanin_off.(n) <> Array.length fanin_dat then
    invalid "netlist %S: fan-in offsets do not span the fan-in data" name;
  let index = build_index names in
  (* validate kinds and fan-ins *)
  for i = 0 to n - 1 do
    let arity = fanin_off.(i + 1) - fanin_off.(i) in
    if arity < 0 then invalid "%s: negative fan-in count" names.(i);
    let k = kinds.(i) in
    if k < 0 then begin
      if k <> -1 then invalid "%s: kind tag %d out of range" names.(i) k;
      if arity <> 0 then
        invalid "%s: primary input with %d fan-ins" names.(i) arity
    end
    else begin
      let kind =
        match Gate.of_int k with
        | kind -> kind
        | exception Invalid_argument _ ->
          invalid "%s: kind tag %d out of range" names.(i) k
      in
      (match kind with
      | Gate.Not | Gate.Buf ->
        if arity <> 1 then
          invalid "%s: %s expects 1 input, got %d" names.(i)
            (Gate.to_string kind) arity
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
        if arity < 1 then invalid "%s: gate with no inputs" names.(i));
      for p = fanin_off.(i) to fanin_off.(i + 1) - 1 do
        let j = fanin_dat.(p) in
        if j < 0 || j >= n then
          invalid "%s: fan-in id %d out of range" names.(i) j
      done
    end
  done;
  let pis = ref [] in
  for i = n - 1 downto 0 do
    if kinds.(i) < 0 then pis := i :: !pis
  done;
  let pis = !pis in
  let pos =
    List.map
      (fun s ->
        let id = index.(slot_of names index s) in
        if id < 0 then invalid "output %S is not a declared signal" s;
        id)
      f.f_outputs
  in
  (* fan-out CSR: consumers of each node in increasing consumer order *)
  let fanout_off = Array.make (n + 1) 0 in
  Array.iter
    (fun j -> fanout_off.(j + 1) <- fanout_off.(j + 1) + 1)
    fanin_dat;
  for i = 0 to n - 1 do
    fanout_off.(i + 1) <- fanout_off.(i) + fanout_off.(i + 1)
  done;
  let fanout_dat = Array.make fanout_off.(n) 0 in
  let cursor = Array.make n 0 in
  for i = 0 to n - 1 do
    for p = fanin_off.(i) to fanin_off.(i + 1) - 1 do
      let j = fanin_dat.(p) in
      fanout_dat.(fanout_off.(j) + cursor.(j)) <- i;
      cursor.(j) <- cursor.(j) + 1
    done
  done;
  (* topological order by Kahn's algorithm; detects cycles *)
  let indeg = Array.make n 0 in
  for i = 0 to n - 1 do
    indeg.(i) <- fanin_off.(i + 1) - fanin_off.(i)
  done;
  (* the FIFO is [topo] itself: entries before [head] are emitted,
     [head .. count-1] are queued *)
  let topo = Array.make n (-1) in
  let count = ref 0 in
  Array.iteri
    (fun i d ->
      if d = 0 then begin
        topo.(!count) <- i;
        incr count
      end)
    indeg;
  let head = ref 0 in
  while !head < !count do
    let i = topo.(!head) in
    incr head;
    for p = fanout_off.(i) to fanout_off.(i + 1) - 1 do
      let j = fanout_dat.(p) in
      indeg.(j) <- indeg.(j) - 1;
      if indeg.(j) = 0 then begin
        topo.(!count) <- j;
        incr count
      end
    done
  done;
  if !count <> n then invalid "netlist %S contains a cycle" name;
  let node_level = Array.make n 0 in
  Array.iter
    (fun i ->
      if kinds.(i) >= 0 then begin
        let m = ref (-1) in
        for p = fanin_off.(i) to fanin_off.(i + 1) - 1 do
          m := max !m node_level.(fanin_dat.(p))
        done;
        node_level.(i) <- 1 + !m
      end)
    topo;
  (* level CSR: node ids grouped by level, each group in topological
     order (the walk below follows [topo]) *)
  let depth = Array.fold_left max 0 node_level in
  let level_off = Array.make (depth + 2) 0 in
  Array.iter (fun l -> level_off.(l + 1) <- level_off.(l + 1) + 1) node_level;
  for l = 0 to depth do
    level_off.(l + 1) <- level_off.(l) + level_off.(l + 1)
  done;
  let level_dat = Array.make n 0 in
  let fill = Array.make (depth + 1) 0 in
  Array.iter
    (fun i ->
      let l = node_level.(i) in
      level_dat.(level_off.(l) + fill.(l)) <- i;
      fill.(l) <- fill.(l) + 1)
    topo;
  { nl_name = name; names; index; kinds; fanin_off; fanin_dat;
    fanout_off; fanout_dat; pis; pos; topo; node_level; level_off;
    level_dat }

(* Pack the per-node list into the flat arrays of {!of_flat}. *)
let build ~name ~signals ~outputs =
  let n = List.length signals in
  let names = Array.make n "" and kinds = Array.make n (-1) in
  let fanin_off = Array.make (n + 1) 0 in
  List.iteri
    (fun i (s, nd) ->
      names.(i) <- s;
      let arity =
        match nd with
        | Pi -> 0
        | Gate { kind; fanin } ->
          kinds.(i) <- Gate.to_int kind;
          Array.length fanin
      in
      fanin_off.(i + 1) <- fanin_off.(i) + arity)
    signals;
  let fanin_dat = Array.make fanin_off.(n) 0 in
  List.iteri
    (fun i (_, nd) ->
      match nd with
      | Pi -> ()
      | Gate { fanin; _ } ->
        Array.blit fanin 0 fanin_dat fanin_off.(i) (Array.length fanin))
    signals;
  of_flat ~name
    { f_names = names; f_kinds = kinds; f_fanin_off = fanin_off;
      f_fanin_dat = fanin_dat; f_outputs = outputs }

let name t = t.nl_name
let size t = Array.length t.kinds

let gate_count t =
  Array.fold_left (fun acc k -> if k >= 0 then acc + 1 else acc) 0 t.kinds

let pi_count t = List.length t.pis

(* ---- flat accessors (the hot-path API) ---- *)

let is_pi t i = t.kinds.(i) < 0
let gate_kind t i = Gate.of_int t.kinds.(i)
let fanin_count t i = t.fanin_off.(i + 1) - t.fanin_off.(i)
let fanin_nth t i p = t.fanin_dat.(t.fanin_off.(i) + p)

let iter_fanin t i ~f =
  for p = t.fanin_off.(i) to t.fanin_off.(i + 1) - 1 do
    f t.fanin_dat.(p)
  done

let fanout_count t i = t.fanout_off.(i + 1) - t.fanout_off.(i)
let fanout_nth t i p = t.fanout_dat.(t.fanout_off.(i) + p)

let iter_fanout t i ~f =
  for p = t.fanout_off.(i) to t.fanout_off.(i + 1) - 1 do
    f t.fanout_dat.(p)
  done

let level_count t = Array.length t.level_off - 1
let level_start t l = t.level_off.(l)
let level_width t l = t.level_off.(l + 1) - t.level_off.(l)
let level_node t l k = t.level_dat.(t.level_off.(l) + k)

let signal_name t i = t.names.(i)

let find t s =
  let id = t.index.(slot_of t.names t.index s) in
  if id < 0 then None else Some id

let inputs t = t.pis
let outputs t = t.pos
let load_of t i = max 1 (fanout_count t i)
let topo_order t = t.topo
let level t i = t.node_level.(i)

let levels t =
  Array.init (level_count t) (fun l ->
      Array.sub t.level_dat t.level_off.(l) (level_width t l))

let depth t = Array.length t.level_off - 2

let transitive_closure iter_next t i =
  let n = size t in
  let seen = Array.make n false in
  let stack = ref [ i ] in
  (* iterative DFS: the recursion depth would otherwise scale with the
     longest path, which overflows the stack on million-gate chains *)
  seen.(i) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | j :: rest ->
      stack := rest;
      iter_next t j ~f:(fun k ->
          if not seen.(k) then begin
            seen.(k) <- true;
            stack := k :: !stack
          end)
  done;
  seen.(i) <- false;
  let order = ref [] in
  for p = Array.length t.topo - 1 downto 0 do
    let j = t.topo.(p) in
    if seen.(j) then order := j :: !order
  done;
  !order

let transitive_fanin t i = transitive_closure iter_fanin t i
let transitive_fanout t i = transitive_closure iter_fanout t i

let words_of_int_array a = Array.length a + 2  (* payload + header *)

let mem_bytes t =
  8
  * (words_of_int_array t.kinds
    + words_of_int_array t.fanin_off
    + words_of_int_array t.fanin_dat
    + words_of_int_array t.fanout_off
    + words_of_int_array t.fanout_dat
    + words_of_int_array t.topo
    + words_of_int_array t.node_level
    + words_of_int_array t.level_off
    + words_of_int_array t.level_dat)

let stats t =
  Printf.sprintf "%s: %d PIs, %d POs, %d gates, depth %d" t.nl_name
    (pi_count t) (List.length t.pos) (gate_count t) (depth t)
