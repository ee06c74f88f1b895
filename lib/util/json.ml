type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let hex_digit = "0123456789abcdef"

let escape_string buf s =
  Buffer.add_char buf '"';
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\b' -> Buffer.add_string buf "\\b"
    | '\012' -> Buffer.add_string buf "\\f"
    | c when Char.code c < 0x20 ->
      (* [\u%04x] of a control character *)
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex_digit.[Char.code c lsr 4];
      Buffer.add_char buf hex_digit.[Char.code c land 15]
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

(* The primitive [Printf] itself calls for a [%.Nf] / [%.Ng] conversion
   without flags or width, so these give [Printf.sprintf]'s bytes without
   its format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let number_to_string x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then format_float "%.0f" x
  else format_float "%.17g" x

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> Buffer.add_string buf (number_to_string x)
  | Str s -> escape_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    write_elems buf xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    write_fields buf fields;
    Buffer.add_char buf '}'

and write_elems buf = function
  | [] -> ()
  | [ x ] -> write buf x
  | x :: rest ->
    write buf x;
    Buffer.add_char buf ',';
    write_elems buf rest

and write_fields buf = function
  | [] -> ()
  | [ (k, x) ] -> write_field buf k x
  | (k, x) :: rest ->
    write_field buf k x;
    Buffer.add_char buf ',';
    write_fields buf rest

and write_field buf k x =
  escape_string buf k;
  Buffer.add_char buf ':';
  write buf x

(* One scratch buffer per domain, so a rendering allocates only its
   result; a buffer grown past 64 KiB by a large document is given back. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 1024)

let to_string v =
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  write buf v;
  let s = Buffer.contents buf in
  if Buffer.length buf > 65536 then Buffer.reset buf;
  s

(* ---- parsing: plain recursive descent over a byte cursor ---- *)

exception Fail of string * int

type cursor = { s : string; n : int; mutable pos : int }

let fail c msg = raise (Fail (msg, c.pos))
let at c ch = c.pos < c.n && String.unsafe_get c.s c.pos = ch

let expect c ch =
  if at c ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected %C" ch)

let skip_ws c =
  while
    c.pos < c.n
    && match String.unsafe_get c.s c.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    c.pos <- c.pos + 1
  done

let literal c word v =
  let len = String.length word in
  let matches = ref (c.pos + len <= c.n) and k = ref 0 in
  while !matches && !k < len do
    matches := String.unsafe_get c.s (c.pos + !k) = String.unsafe_get word !k;
    incr k
  done;
  if !matches then begin
    c.pos <- c.pos + len;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

let hex4 c =
  if c.pos + 4 > c.n then fail c "truncated \\u escape";
  let v = int_of_string ("0x" ^ String.sub c.s c.pos 4) in
  c.pos <- c.pos + 4;
  v

(* encode one Unicode scalar value as UTF-8 *)
let add_uchar buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

(* the rest of a string from the first escape on *)
let rec escaped_string c buf =
  if c.pos >= c.n then fail c "unterminated string";
  match c.s.[c.pos] with
  | '"' ->
    c.pos <- c.pos + 1;
    Buffer.contents buf
  | '\\' ->
    c.pos <- c.pos + 1;
    if c.pos >= c.n then fail c "unterminated escape";
    let simple ch =
      Buffer.add_char buf ch;
      c.pos <- c.pos + 1
    in
    (match c.s.[c.pos] with
    | '"' -> simple '"'
    | '\\' -> simple '\\'
    | '/' -> simple '/'
    | 'b' -> simple '\b'
    | 'f' -> simple '\012'
    | 'n' -> simple '\n'
    | 'r' -> simple '\r'
    | 't' -> simple '\t'
    | 'u' ->
      c.pos <- c.pos + 1;
      let u = try hex4 c with _ -> fail c "bad \\u escape" in
      (* combine a surrogate pair when one follows *)
      if u >= 0xD800 && u <= 0xDBFF && c.pos + 6 <= c.n
         && c.s.[c.pos] = '\\' && c.s.[c.pos + 1] = 'u' then begin
        c.pos <- c.pos + 2;
        let lo = try hex4 c with _ -> fail c "bad \\u escape" in
        if lo >= 0xDC00 && lo <= 0xDFFF then
          add_uchar buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
        else begin
          add_uchar buf u;
          add_uchar buf lo
        end
      end
      else add_uchar buf u
    | _ -> fail c "unknown escape");
    escaped_string c buf
  | ch ->
    Buffer.add_char buf ch;
    c.pos <- c.pos + 1;
    escaped_string c buf

(* An escape-free string is one [String.sub]; a [Buffer] is made only
   from the first backslash on. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  while
    c.pos < c.n
    && match String.unsafe_get c.s c.pos with '"' | '\\' -> false | _ -> true
  do
    c.pos <- c.pos + 1
  done;
  if c.pos >= c.n then fail c "unterminated string";
  if String.unsafe_get c.s c.pos = '"' then begin
    c.pos <- c.pos + 1;
    String.sub c.s start (c.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (max 16 (2 * (c.pos - start))) in
    Buffer.add_substring buf c.s start (c.pos - start);
    escaped_string c buf
  end

let parse_number c =
  let start = c.pos in
  while
    c.pos < c.n
    && match String.unsafe_get c.s c.pos with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
       | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match float_of_string tok with
  | v -> Num v
  | exception Failure _ -> fail c (Printf.sprintf "bad number %S" tok)

let rec parse_value c =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if at c '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else parse_fields c []
  | '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if at c ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else parse_elems c []
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected %C" ch)

and parse_fields c acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    parse_fields c ((k, v) :: acc)
  end
  else if at c '}' then begin
    c.pos <- c.pos + 1;
    Obj (List.rev ((k, v) :: acc))
  end
  else fail c "expected ',' or '}'"

and parse_elems c acc =
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    parse_elems c (v :: acc)
  end
  else if at c ']' then begin
    c.pos <- c.pos + 1;
    List (List.rev (v :: acc))
  end
  else fail c "expected ',' or ']'"

let parse s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing content";
    v
  with
  | v -> Ok v
  | exception Fail (msg, off) ->
    Error (Printf.sprintf "%s at offset %d" msg off)

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List xs -> xs | _ -> []
let string_value = function Str s -> Some s | _ -> None
let number_value = function Num x -> Some x | _ -> None
let bool_value = function Bool b -> Some b | _ -> None

let int_value = function
  | Num x
    when Float.is_integer x
         && x >= Float.of_int min_int
         && x <= Float.of_int max_int ->
    Some (int_of_float x)
  | _ -> None

let member_string k j = Option.bind (member k j) string_value
let member_int k j = Option.bind (member k j) int_value
let member_number k j = Option.bind (member k j) number_value
