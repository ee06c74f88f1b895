module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Cellfn = Ssd_core.Cellfn
module Netlist = Ssd_circuit.Netlist
module Gate = Ssd_circuit.Gate
module Interval = Ssd_util.Interval

type triple = { d_min : float; d_typ : float; d_max : float }

type iopath = { from_pin : int; rise : triple; fall : triple }

type cell_delays = { instance : string; paths : iopath list }

type t = { design : string; timescale : string; cells : cell_delays list }

(* ---------------- construction from a characterized library ----------- *)

let triple_of cell ~fanout resp ~pos tt_range =
  let _, lo = Cellfn.min_delay_over cell ~fanout resp ~pos tt_range in
  let _, hi = Cellfn.max_delay_over cell ~fanout resp ~pos tt_range in
  let mid = Interval.mid tt_range in
  let typ = Cellfn.pin_delay cell ~fanout resp ~pos ~t_in:mid in
  { d_min = lo; d_typ = typ; d_max = hi }

let of_netlist ~library ~tt_range nl =
  let cells =
    Array.fold_left
      (fun acc i ->
        if Netlist.is_pi nl i then acc
        else begin
          let arity = Netlist.fanin_count nl i in
          let cell = Sta.cell_of_gate library (Netlist.gate_kind nl i) arity in
          let fanout = Netlist.load_of nl i in
          let ctl_is_fall =
            match cell.Charlib.kind with
            | Sweep.Nand -> true
            | Sweep.Nor -> false
          in
          let paths =
            List.init arity (fun pin ->
                let ctl = triple_of cell ~fanout Cellfn.Ctl ~pos:pin tt_range in
                let non = triple_of cell ~fanout Cellfn.Non ~pos:pin tt_range in
                (* for a NAND, the to-controlling response is the output
                   rise *)
                if ctl_is_fall then { from_pin = pin; rise = ctl; fall = non }
                else { from_pin = pin; rise = non; fall = ctl })
          in
          { instance = Netlist.signal_name nl i; paths } :: acc
        end)
      [] (Netlist.topo_order nl)
  in
  { design = Netlist.name nl; timescale = "1ns"; cells = List.rev cells }

(* ---------------- printing -------------------------------------------- *)

let pp_rvalue b { d_min; d_typ; d_max } =
  Printf.bprintf b "(%.6f:%.6f:%.6f)" (d_min *. 1e9) (d_typ *. 1e9)
    (d_max *. 1e9)

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "(DELAYFILE\n";
  Printf.bprintf b "  (SDFVERSION \"3.0\")\n  (DESIGN \"%s\")\n" t.design;
  Printf.bprintf b "  (TIMESCALE %s)\n" t.timescale;
  List.iter
    (fun c ->
      Printf.bprintf b "  (CELL (CELLTYPE \"gate\") (INSTANCE %s)\n"
        c.instance;
      Buffer.add_string b "    (DELAY (ABSOLUTE\n";
      List.iter
        (fun p ->
          Printf.bprintf b "      (IOPATH in%d out " p.from_pin;
          pp_rvalue b p.rise;
          Buffer.add_char b ' ';
          pp_rvalue b p.fall;
          Buffer.add_string b ")\n")
        c.paths;
      Buffer.add_string b "    ))\n  )\n")
    t.cells;
  Buffer.add_string b ")\n";
  Buffer.contents b

let write_file t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

(* ---------------- parsing --------------------------------------------- *)

exception Parse_error of { line : int; message : string }

(* a minimal s-expression tokenizer tracking line numbers *)
type token = Lparen | Rparen | Atom of string

let tokenize text =
  let tokens = ref [] in
  let line = ref 1 in
  let n = String.length text in
  let i = ref 0 in
  let push t = tokens := (t, !line) :: !tokens in
  while !i < n do
    (match text.[!i] with
    | '\n' -> incr line
    | '(' -> push Lparen
    | ')' -> push Rparen
    | ' ' | '\t' | '\r' -> ()
    | '"' ->
      let j = ref (!i + 1) in
      while !j < n && text.[!j] <> '"' do
        incr j
      done;
      if !j >= n then
        raise (Parse_error { line = !line; message = "unterminated string" });
      push (Atom (String.sub text (!i + 1) (!j - !i - 1)));
      i := !j
    | _ ->
      let j = ref !i in
      let stop c = c = '(' || c = ')' || c = ' ' || c = '\t' || c = '\n' || c = '\r' in
      while !j < n && not (stop text.[!j]) do
        incr j
      done;
      push (Atom (String.sub text !i (!j - !i)));
      i := !j - 1);
    incr i
  done;
  List.rev !tokens

type sexp = A of string | L of sexp list

let parse_sexp tokens =
  let rec parse = function
    | (Lparen, _) :: rest ->
      let items, rest = parse_list [] rest in
      (L items, rest)
    | (Atom a, _) :: rest -> (A a, rest)
    | (Rparen, line) :: _ ->
      raise (Parse_error { line; message = "unexpected ')'" })
    | [] -> raise (Parse_error { line = 0; message = "unexpected end of file" })
  and parse_list acc = function
    | (Rparen, _) :: rest -> (List.rev acc, rest)
    | [] -> raise (Parse_error { line = 0; message = "missing ')'" })
    | toks ->
      let item, rest = parse toks in
      parse_list (item :: acc) rest
  in
  let sexp, rest = parse tokens in
  (match rest with
  | [] -> ()
  | (_, line) :: _ ->
    raise (Parse_error { line; message = "trailing tokens after DELAYFILE" }));
  sexp

let fail_at message = raise (Parse_error { line = 0; message })

let parse_triple s =
  (* "(a:b:c)" arrives as an atom list or combined atom depending on
     spacing; we print without spaces so it is one atom *)
  match s with
  | A a ->
    let a =
      if String.length a >= 2 && a.[0] = '(' then
        String.sub a 1 (String.length a - 2)
      else a
    in
    (match String.split_on_char ':' a with
    | [ x; y; z ] -> (
      try
        {
          d_min = float_of_string x *. 1e-9;
          d_typ = float_of_string y *. 1e-9;
          d_max = float_of_string z *. 1e-9;
        }
      with Failure _ -> fail_at ("bad rvalue " ^ a))
    | _ -> fail_at ("bad rvalue " ^ a))
  | L _ -> fail_at "expected an rvalue triple"

let pin_index name =
  (* "in3" -> 3 *)
  if String.length name > 2 && String.sub name 0 2 = "in" then
    match int_of_string_opt (String.sub name 2 (String.length name - 2)) with
    | Some i -> i
    | None -> fail_at ("bad pin name " ^ name)
  else fail_at ("bad pin name " ^ name)

let parse_string text =
  (* The tokenizer splits "(a:b:c)" into Lparen, atom, Rparen when the
     parens are separate characters; normalize by re-joining during the
     IOPATH walk instead: we printed triples without inner spaces, so they
     tokenize as Lparen Atom(a:b:c) Rparen — i.e. an L [A "a:b:c"]. *)
  let sexp = parse_sexp (tokenize text) in
  let design = ref "" and timescale = ref "1ns" and cells = ref [] in
  let as_triple = function
    | L [ A a ] -> parse_triple (A a)
    | A a -> parse_triple (A a)
    | _ -> fail_at "expected rvalue"
  in
  (match sexp with
  | L (A "DELAYFILE" :: entries) ->
    List.iter
      (fun entry ->
        match entry with
        | L [ A "SDFVERSION"; A _ ] -> ()
        | L [ A "DESIGN"; A d ] -> design := d
        | L [ A "TIMESCALE"; A ts ] -> timescale := ts
        | L (A "CELL" :: cell_entries) ->
          let instance = ref "" and paths = ref [] in
          List.iter
            (fun ce ->
              match ce with
              | L [ A "CELLTYPE"; A _ ] -> ()
              | L [ A "INSTANCE"; A i ] -> instance := i
              | L (A "DELAY" :: delay_entries) ->
                List.iter
                  (fun de ->
                    match de with
                    | L (A "ABSOLUTE" :: iopaths) ->
                      List.iter
                        (fun io ->
                          match io with
                          | L (A "IOPATH" :: A from :: A _out :: rvs) -> (
                            match rvs with
                            | [ r1; r2 ] ->
                              paths :=
                                {
                                  from_pin = pin_index from;
                                  rise = as_triple r1;
                                  fall = as_triple r2;
                                }
                                :: !paths
                            | _ -> fail_at "IOPATH needs two rvalues")
                          | _ -> fail_at "expected IOPATH")
                        iopaths
                    | _ -> fail_at "expected ABSOLUTE")
                  delay_entries
              | _ -> fail_at "unexpected CELL entry")
            cell_entries;
          cells := { instance = !instance; paths = List.rev !paths } :: !cells
        | _ -> fail_at "unexpected DELAYFILE entry")
      entries
  | _ -> fail_at "expected (DELAYFILE ...)");
  { design = !design; timescale = !timescale; cells = List.rev !cells }

let parse_file path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse_string text

(* ---------------- annotated analysis ---------------------------------- *)

module Annotated = struct
  type sdf = t

  type t = {
    nl : Netlist.t;
    (* per gate node: pin -> (rise, fall) *)
    arcs : (int, (int * (triple * triple)) list) Hashtbl.t;
  }

  let create (sdf : sdf) nl =
    let arcs = Hashtbl.create 64 in
    List.iter
      (fun c ->
        match Netlist.find nl c.instance with
        | None ->
          invalid_arg
            (Printf.sprintf "Sdf.Annotated.create: instance %S not in netlist"
               c.instance)
        | Some i ->
          Hashtbl.replace arcs i
            (List.map (fun p -> (p.from_pin, (p.rise, p.fall))) c.paths))
      sdf.cells;
    { nl; arcs }

  let iopath t ~gate ~pin ~rising_out =
    match Hashtbl.find_opt t.arcs gate with
    | None -> None
    | Some paths -> (
      match List.assoc_opt pin paths with
      | None -> None
      | Some (rise, fall) -> Some (if rising_out then rise else fall))

  (* classic SDF STA with separate rise/fall tracking: every primitive in
     this library inverts, so an output rise is caused by an input fall and
     vice versa *)
  let sweep t =
    let n = Netlist.size t.nl in
    let early_r = Array.make n 0. and late_r = Array.make n 0. in
    let early_f = Array.make n 0. and late_f = Array.make n 0. in
    Array.iter
      (fun i ->
        if not (Netlist.is_pi t.nl i) then begin
          let er = ref infinity and lr = ref neg_infinity in
          let ef = ref infinity and lf = ref neg_infinity in
          for pin = 0 to Netlist.fanin_count t.nl i - 1 do
            let j = Netlist.fanin_nth t.nl i pin in
            (match iopath t ~gate:i ~pin ~rising_out:true with
            | Some tri ->
              er := Float.min !er (early_f.(j) +. tri.d_min);
              lr := Float.max !lr (late_f.(j) +. tri.d_max)
            | None -> ());
            match iopath t ~gate:i ~pin ~rising_out:false with
            | Some tri ->
              ef := Float.min !ef (early_r.(j) +. tri.d_min);
              lf := Float.max !lf (late_r.(j) +. tri.d_max)
            | None -> ()
          done;
          if Float.is_finite !er then early_r.(i) <- !er;
          if Float.is_finite !lr then late_r.(i) <- !lr;
          if Float.is_finite !ef then early_f.(i) <- !ef;
          if Float.is_finite !lf then late_f.(i) <- !lf
        end)
      (Netlist.topo_order t.nl);
    (early_r, late_r, early_f, late_f)

  let max_delay t =
    let _, late_r, _, late_f = sweep t in
    List.fold_left
      (fun acc po -> Float.max acc (Float.max late_r.(po) late_f.(po)))
      0. (Netlist.outputs t.nl)

  let min_delay t =
    let early_r, _, early_f, _ = sweep t in
    List.fold_left
      (fun acc po -> Float.min acc (Float.min early_r.(po) early_f.(po)))
      infinity (Netlist.outputs t.nl)
end
