exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let strip s = String.trim s

let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

(* "NAME ( a , b )" -> (NAME, [a; b]) *)
let parse_call lineno s =
  match String.index_opt s '(' with
  | None -> fail lineno "expected '(' in %S" s
  | Some lp ->
    let rp =
      match String.rindex_opt s ')' with
      | None -> fail lineno "missing ')' in %S" s
      | Some i -> i
    in
    if rp < lp then fail lineno "mismatched parentheses in %S" s;
    let fn = strip (String.sub s 0 lp) in
    let args = String.sub s (lp + 1) (rp - lp - 1) in
    let args =
      String.split_on_char ',' args |> List.map strip
      |> List.filter (fun a -> a <> "")
    in
    (fn, args)

(* A growable array: what the parser keeps per line is a few int slots,
   not a list cell, a tuple and a list of strings. *)
type 'a vec = { mutable data : 'a array; mutable len : int; fill : 'a }

let vec fill = { data = Array.make 64 fill; len = 0; fill }

let push v x =
  if v.len = Array.length v.data then begin
    let grown = Array.make (2 * v.len) v.fill in
    Array.blit v.data 0 grown 0 v.len;
    v.data <- grown
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* What the per-line parser has read so far.  Every name is interned
   once, in order of first appearance; definitions and fan-ins refer to
   names by that index until [finish] assigns node ids. *)
type acc = {
  ids : (string, int) Hashtbl.t;
  names : string vec;
  pi_line : int vec;
  pi_name : int vec;
  gate_line : int vec;
  gate_name : int vec;
  gate_kind : int vec;
  gate_end : int vec;  (* one past each gate's last entry in [fanins] *)
  fanins : int vec;
  mutable outputs : string list;  (* newest first *)
}

let new_acc () =
  { ids = Hashtbl.create 1024; names = vec ""; pi_line = vec 0;
    pi_name = vec 0; gate_line = vec 0; gate_name = vec 0; gate_kind = vec 0;
    gate_end = vec 0; fanins = vec 0; outputs = [] }

let intern acc s =
  match Hashtbl.find_opt acc.ids s with
  | Some k -> k
  | None ->
    let k = acc.names.len in
    Hashtbl.add acc.ids s k;
    push acc.names s;
    k

let parse_line acc lineno raw =
  let line = strip (strip_comment raw) in
  if line <> "" then begin
    match String.index_opt line '=' with
    | Some eq ->
      let lhs = strip (String.sub line 0 eq) in
      let rhs =
        strip (String.sub line (eq + 1) (String.length line - eq - 1))
      in
      if lhs = "" then fail lineno "empty signal name";
      let fn, args = parse_call lineno rhs in
      (match Gate.of_string fn with
      | None -> fail lineno "unknown gate type %S" fn
      | Some kind ->
        if args = [] then fail lineno "gate %S has no inputs" lhs;
        push acc.gate_line lineno;
        push acc.gate_name (intern acc lhs);
        push acc.gate_kind (Gate.to_int kind);
        List.iter (fun a -> push acc.fanins (intern acc a)) args;
        push acc.gate_end acc.fanins.len)
    | None ->
      let fn, args = parse_call lineno line in
      (match (String.uppercase_ascii fn, args) with
      | "INPUT", [ a ] ->
        push acc.pi_line lineno;
        push acc.pi_name (intern acc a)
      | "OUTPUT", [ a ] -> acc.outputs <- a :: acc.outputs
      | "INPUT", _ | "OUTPUT", _ ->
        fail lineno "%s takes exactly one signal" fn
      | _ -> fail lineno "unknown directive %S" fn)
  end

(* Ids: PIs in order, then gates in order.  A name defined twice is
   reported at its second definition in id order, before any fan-in is
   resolved; an undefined fan-in at its gate, in gate then pin order.
   The fan-ins are then node ids, rewritten in place, and the intern
   table, re-keyed to node ids, becomes the netlist's name table: once
   every fan-in is defined, every interned name is a signal. *)
let finish ~name acc =
  let npi = acc.pi_line.len and ngates = acc.gate_line.len in
  let n = npi + ngates in
  let interned = acc.names.data in
  let id_of = Array.make acc.names.len (-1) in
  let names = Array.make n "" in
  let define id lineno k =
    if id_of.(k) >= 0 then
      fail lineno "signal %S is defined more than once" interned.(k);
    id_of.(k) <- id;
    names.(id) <- interned.(k)
  in
  for p = 0 to npi - 1 do
    define p acc.pi_line.data.(p) acc.pi_name.data.(p)
  done;
  for g = 0 to ngates - 1 do
    define (npi + g) acc.gate_line.data.(g) acc.gate_name.data.(g)
  done;
  let fanins = acc.fanins.data in
  let kinds = Array.make n (-1) and fanin_off = Array.make (n + 1) 0 in
  for g = 0 to ngates - 1 do
    let first = if g = 0 then 0 else acc.gate_end.data.(g - 1) in
    for p = first to acc.gate_end.data.(g) - 1 do
      let k = fanins.(p) in
      if id_of.(k) < 0 then
        fail acc.gate_line.data.(g) "undefined signal %S" interned.(k);
      fanins.(p) <- id_of.(k)
    done;
    kinds.(npi + g) <- acc.gate_kind.data.(g);
    fanin_off.(npi + g + 1) <- acc.gate_end.data.(g)
  done;
  Hashtbl.filter_map_inplace (fun _ k -> Some id_of.(k)) acc.ids;
  Netlist.of_flat ~by_name:acc.ids ~name
    { Netlist.f_names = names; f_kinds = kinds; f_fanin_off = fanin_off;
      f_fanin_dat = Array.sub fanins 0 acc.fanins.len;
      f_outputs = List.rev acc.outputs }

let parse_string ~name text =
  let acc = new_acc () in
  List.iteri
    (fun idx raw -> parse_line acc (idx + 1) raw)
    (String.split_on_char '\n' text);
  finish ~name acc

(* One line at a time: neither the file's text nor a list of its lines
   is ever held.  [input_line] drops the '\n' and keeps a '\r', which
   [strip] removes as [parse_string]'s split does; a last line without
   a newline is still returned. *)
let parse_file path =
  let ic = open_in path in
  let acc = new_acc () in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop lineno =
        match input_line ic with
        | raw ->
          parse_line acc lineno raw;
          loop (lineno + 1)
        | exception End_of_file -> ()
      in
      loop 1);
  finish ~name:(Filename.remove_extension (Filename.basename path)) acc

let to_string nl =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" (Netlist.stats nl));
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf "INPUT(%s)\n" (Netlist.signal_name nl i)))
    (Netlist.inputs nl);
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf "OUTPUT(%s)\n" (Netlist.signal_name nl i)))
    (Netlist.outputs nl);
  Netlist.iter_gates_topo nl ~f:(fun i kind fanin ->
      let args =
        Array.to_list fanin
        |> List.map (Netlist.signal_name nl)
        |> String.concat ", "
      in
      Buffer.add_string buf
        (Printf.sprintf "%s = %s(%s)\n"
           (Netlist.signal_name nl i)
           (Gate.to_string kind) args));
  Buffer.contents buf

let write_file nl path =
  let oc = open_out path in
  output_string oc (to_string nl);
  close_out oc
