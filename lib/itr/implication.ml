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
  let nl = t.nl in
  let touch i =
    Netlist.iter_fanout nl i ~f:push;
    if not (Netlist.is_pi nl i) then push i
  in
  if narrow t changed root v then touch root;
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    Hashtbl.remove queued g;
    if not (Netlist.is_pi nl g) then begin
      let kind = Netlist.gate_kind nl g and n_in = Netlist.fanin_count nl g in
      let ins = List.init n_in (fun p -> t.values.(Netlist.fanin_nth nl g p)) in
      let out = Value2f.forward kind ins in
      if narrow t changed g out then touch g;
      match Value2f.backward kind ~out:t.values.(g) ins with
      | None -> raise (Conflict g)
      | Some narrowed ->
        List.iteri
          (fun p nv ->
            let j = Netlist.fanin_nth nl g p in
            if narrow t changed j nv then touch j)
          narrowed
    end
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
