exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* ---- byte ranges ----

   A line is the range [a, e) of a byte buffer, with the '\n' excluded.
   Every helper below reads only inside the range it is given, so their
   unchecked reads stay within the buffer. *)

(* String.trim's blank set *)
let is_blank c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

(* the first [c] in [a, e), or [e] *)
let rec index b c a e =
  if a = e || Bytes.unsafe_get b a = c then a else index b c (a + 1) e

(* the last [c] in [a, e), or -1 *)
let rec rindex b c a e =
  if e = a then -1
  else if Bytes.unsafe_get b (e - 1) = c then e - 1
  else rindex b c a (e - 1)

let rec skip_blanks b a e =
  if a < e && is_blank (Bytes.unsafe_get b a) then skip_blanks b (a + 1) e
  else a

let rec drop_blanks b a e =
  if a < e && is_blank (Bytes.unsafe_get b (e - 1)) then drop_blanks b a (e - 1)
  else e

(* the start of the first non-empty comma-separated field of [a, e):
   its first byte that is neither blank nor a comma, or [e] *)
let rec field_start b a e =
  if a < e && (Bytes.unsafe_get b a = ',' || is_blank (Bytes.unsafe_get b a))
  then field_start b (a + 1) e
  else a

(* [b] from [a] spells [lit], an upper-case word, in any case *)
let rec spelled b a lit i =
  i = String.length lit
  || Char.uppercase_ascii (Bytes.unsafe_get b (a + i)) = lit.[i]
     && spelled b a lit (i + 1)

let spells b a e lit = e - a = String.length lit && spelled b a lit 0

let text b a e = Bytes.sub_string b a (e - a)

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
   names by that index until [finish] assigns node ids.  [slots] is an
   open-addressing table over the interned names, probed linearly from
   each name's hash: a power-of-two number of slots, at least two per
   name, each a pair of entries, the name's hash and its intern index,
   or -1 in both when free. *)
type acc = {
  mutable slots : int array;
  names : string vec;
  pi_line : int vec;
  pi_name : int vec;
  gate_line : int vec;
  gate_name : int vec;
  gate_kind : int vec;
  gate_end : int vec;  (* one past each gate's last entry in [fanins] *)
  fanins : int vec;
  outputs : string vec;
  mutable line : int;  (* the number of the next line *)
}

let new_acc () =
  { slots = Array.make 4096 (-1); names = vec ""; pi_line = vec 0;
    pi_name = vec 0; gate_line = vec 0; gate_name = vec 0; gate_kind = vec 0;
    gate_end = vec 0; fanins = vec 0; outputs = vec ""; line = 1 }

(* FNV-1a over the bytes, then a xor-shift-multiply finish: the table
   masks the low bits, and on names like [g12345] a plain [h * 31 + c]
   leaves them clustered *)
let hash b a e =
  let h = ref 0x4bf29ce484222325 in
  for i = a to e - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  let h = (!h lxor (!h lsr 32)) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

let rec same_bytes s b a i =
  i = String.length s
  || String.unsafe_get s i = Bytes.unsafe_get b (a + i)
     && same_bytes s b a (i + 1)

(* the first entry of the slot holding the name [a, e) of hash [h], or
   of the free slot that ends its probe *)
let rec probe acc b a e h k =
  let id = acc.slots.(k + 1) in
  if id < 0
     || acc.slots.(k) = h
        && String.length acc.names.data.(id) = e - a
        && same_bytes acc.names.data.(id) b a 0
  then k
  else probe acc b a e h ((k + 2) land (Array.length acc.slots - 1))

let grow_slots acc =
  let old = acc.slots in
  let slots = Array.make (2 * Array.length old) (-1) in
  let mask = Array.length slots - 1 in
  for k = 0 to (Array.length old / 2) - 1 do
    let h = old.(2 * k) in
    if old.((2 * k) + 1) >= 0 then begin
      let j = ref ((2 * h) land mask) in
      while slots.(!j + 1) >= 0 do
        j := (!j + 2) land mask
      done;
      slots.(!j) <- h;
      slots.(!j + 1) <- old.((2 * k) + 1)
    end
  done;
  acc.slots <- slots

(* The intern index of the name [a, e); a string is made only for a
   name seen for the first time. *)
let intern acc b a e =
  let h = hash b a e in
  let k = probe acc b a e h ((2 * h) land (Array.length acc.slots - 1)) in
  let id = acc.slots.(k + 1) in
  if id >= 0 then id
  else begin
    let id = acc.names.len in
    push acc.names (text b a e);
    acc.slots.(k) <- h;
    acc.slots.(k + 1) <- id;
    if 4 * acc.names.len > Array.length acc.slots then grow_slots acc;
    id
  end

(* Intern every non-empty field of the argument list [a, e) in order, as
   fan-ins; returns how many there were. *)
let rec push_fanins acc b a e n =
  let fa = field_start b a e in
  if fa = e then n
  else begin
    let c = index b ',' fa e in
    push acc.fanins (intern acc b fa (drop_blanks b fa c));
    push_fanins acc b c e (n + 1)
  end

(* "NAME ( a , b )" over [a, e), blank-trimmed: the argument list runs
   from the first '(', [lp], to the last ')', [rp] *)
let check_call lineno b a e lp rp =
  if lp = e then fail lineno "expected '(' in %S" (text b a e);
  if rp < 0 then fail lineno "missing ')' in %S" (text b a e);
  if rp < lp then fail lineno "mismatched parentheses in %S" (text b a e)

let parse_gate acc lineno b a eq e =
  let lhs_end = drop_blanks b a eq in
  if lhs_end = a then fail lineno "empty signal name";
  let fn = skip_blanks b (eq + 1) e in
  let lp = index b '(' fn e and rp = rindex b ')' fn e in
  check_call lineno b fn e lp rp;
  let fn_end = drop_blanks b fn lp in
  match Gate.of_bytes b fn (fn_end - fn) with
  | None -> fail lineno "unknown gate type %S" (text b fn fn_end)
  | Some kind ->
    push acc.gate_line lineno;
    push acc.gate_name (intern acc b a lhs_end);
    push acc.gate_kind (Gate.to_int kind);
    if push_fanins acc b (lp + 1) rp 0 = 0 then
      fail lineno "gate %S has no inputs" (text b a lhs_end);
    push acc.gate_end acc.fanins.len

let parse_directive acc lineno b a e =
  let lp = index b '(' a e and rp = rindex b ')' a e in
  check_call lineno b a e lp rp;
  let fn_end = drop_blanks b a lp in
  let input = spells b a fn_end "INPUT" in
  if not (input || spells b a fn_end "OUTPUT") then
    fail lineno "unknown directive %S" (text b a fn_end);
  let fa = field_start b (lp + 1) rp in
  let fe = drop_blanks b fa (index b ',' fa rp) in
  if fa = rp || field_start b fe rp < rp then
    fail lineno "%s takes exactly one signal" (text b a fn_end);
  if input then begin
    push acc.pi_line lineno;
    push acc.pi_name (intern acc b fa fe)
  end
  else push acc.outputs (text b fa fe)

(* One line, [a, e) of [b]: cut at '#', trimmed; a gate when it holds
   an '=', else an INPUT or OUTPUT directive. *)
let parse_line acc b a e =
  let lineno = acc.line in
  acc.line <- lineno + 1;
  let e = index b '#' a e in
  let a = skip_blanks b a e in
  let e = drop_blanks b a e in
  if a < e then begin
    let eq = index b '=' a e in
    if eq < e then parse_gate acc lineno b a eq e
    else parse_directive acc lineno b a e
  end

(* Parse every '\n'-terminated line of [b] from [a] before [e]; returns
   where the unterminated rest starts. *)
let rec parse_lines acc b a e =
  let nl = index b '\n' a e in
  if nl = e then a
  else begin
    parse_line acc b a nl;
    parse_lines acc b (nl + 1) e
  end

(* Ids: PIs in order, then gates in order.  A name defined twice is
   reported at its second definition in id order, before any fan-in is
   resolved; an undefined fan-in at its gate, in gate then pin order.
   The fan-ins are then node ids, rewritten in place. *)
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
  Netlist.of_flat ~name
    { Netlist.f_names = names; f_kinds = kinds; f_fanin_off = fanin_off;
      f_fanin_dat = Array.sub fanins 0 acc.fanins.len;
      f_outputs = List.init acc.outputs.len (Array.get acc.outputs.data) }

(* The scanner only reads the text, so it may see it as bytes. *)
let parse_string ~name text =
  let acc = new_acc () in
  let b = Bytes.unsafe_of_string text in
  let e = Bytes.length b in
  parse_line acc b (parse_lines acc b 0 e) e;
  finish ~name acc

let chunk = 65536

(* Fixed-size chunks into one buffer: the complete lines of each chunk
   are parsed in place, and the start of a line that runs past the
   chunk moves to the front of the buffer for the next read.  The
   buffer doubles only when that line fills it. *)
let parse_file path =
  let ic = open_in_bin path in
  let acc = new_acc () in
  let read b held =
    try input ic b held (Bytes.length b - held)
    with Sys_error m -> raise (Sys_error (path ^ ": " ^ m))
  in
  (* [b] starts with the [held] bytes of a line not yet ended *)
  let rec fill b held =
    let b = if held < Bytes.length b then b else Bytes.extend b 0 held in
    match read b held with
    | 0 -> parse_line acc b 0 held
    | got ->
      let e = held + got in
      let rest = if index b '\n' held e = e then 0 else parse_lines acc b 0 e in
      if rest > 0 then Bytes.blit b rest b 0 (e - rest);
      fill b (e - rest)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> fill (Bytes.create chunk) 0);
  finish ~name:(Filename.remove_extension (Filename.basename path)) acc

let to_string nl =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let name i = add (Netlist.signal_name nl i) in
  let directive kw i =
    add kw;
    name i;
    add ")\n"
  in
  add "# ";
  add (Netlist.stats nl);
  add "\n";
  List.iter (directive "INPUT(") (Netlist.inputs nl);
  List.iter (directive "OUTPUT(") (Netlist.outputs nl);
  Array.iter
    (fun i ->
      if not (Netlist.is_pi nl i) then begin
        name i;
        add " = ";
        add (Gate.to_string (Netlist.gate_kind nl i));
        add "(";
        for p = 0 to Netlist.fanin_count nl i - 1 do
          if p > 0 then add ", ";
          name (Netlist.fanin_nth nl i p)
        done;
        add ")\n"
      end)
    (Netlist.topo_order nl);
  Buffer.contents buf

let write_file nl path =
  let oc = open_out path in
  output_string oc (to_string nl);
  close_out oc
