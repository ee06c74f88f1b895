module Netlist = Ssd_circuit.Netlist

type t = { nl : Netlist.t; values : Value2f.t array }

let create nl = { nl; values = Array.make (Netlist.size nl) Value2f.xx }

let copy t = { t with values = Array.copy t.values }

let value t i = t.values.(i)

let netlist t = t.nl

exception Conflict of int

let narrow t changed i v =
  match Value2f.meet t.values.(i) v with
  | None -> raise (Conflict i)
  | Some m ->
    if m <> t.values.(i) then begin
      t.values.(i) <- m;
      changed := i :: !changed;
      true
    end
    else false

(* Fixpoint over a work queue of *gates*: whenever any node's value
   narrows, every gate touching that node (its readers and its own
   driver) is re-processed, running both the forward evaluation and the
   backward direct implications.  This is what lets a narrowed *input*
   trigger deductions about its siblings (e.g. NAND out = 1 with all but
   one input at 1 forces the last input to 0). *)
let assign t root v =
  let changed = ref [] in
  let queue = Queue.create () in
  let queued = Hashtbl.create 64 in
  let push g =
    if not (Hashtbl.mem queued g) then begin
      Hashtbl.replace queued g ();
      Queue.add g queue
    end
  in
  let touch i =
    Array.iter push (Netlist.fanout t.nl i);
    match Netlist.node t.nl i with
    | Netlist.Pi -> ()
    | Netlist.Gate _ -> push i
  in
  if narrow t changed root v then touch root;
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    Hashtbl.remove queued g;
    match Netlist.node t.nl g with
    | Netlist.Pi -> ()
    | Netlist.Gate { kind; fanin } ->
      let ins = Array.to_list (Array.map (fun j -> t.values.(j)) fanin) in
      let out = Value2f.forward kind ins in
      if narrow t changed g out then touch g;
      (match Value2f.backward kind ~out:t.values.(g) ins with
      | None -> raise (Conflict g)
      | Some narrowed ->
        List.iteri
          (fun idx nv ->
            let j = fanin.(idx) in
            if narrow t changed j nv then touch j)
          narrowed)
  done;
  !changed

let assign_opt t i v =
  match assign t i v with
  | changed -> Some changed
  | exception Conflict _ -> None

let specified_count t =
  Array.fold_left
    (fun acc v -> if Value2f.is_fully_specified v then acc + 1 else acc)
    0 t.values
