module Ck = Ssd_circuit
module Gate = Ck.Gate
module Netlist = Ck.Netlist
module Rng = Ssd_util.Rng

(* ---------- Gate ---------- *)

let test_gate_truth_tables () =
  let t = true and f = false in
  Alcotest.(check bool) "nand 11" f (Gate.eval Gate.Nand [ t; t ]);
  Alcotest.(check bool) "nand 01" t (Gate.eval Gate.Nand [ f; t ]);
  Alcotest.(check bool) "nor 00" t (Gate.eval Gate.Nor [ f; f ]);
  Alcotest.(check bool) "nor 01" f (Gate.eval Gate.Nor [ f; t ]);
  Alcotest.(check bool) "and" t (Gate.eval Gate.And [ t; t; t ]);
  Alcotest.(check bool) "or" t (Gate.eval Gate.Or [ f; f; t ]);
  Alcotest.(check bool) "xor odd" t (Gate.eval Gate.Xor [ t; t; t ]);
  Alcotest.(check bool) "xor even" f (Gate.eval Gate.Xor [ t; t ]);
  Alcotest.(check bool) "xnor" t (Gate.eval Gate.Xnor [ t; t ]);
  Alcotest.(check bool) "not" f (Gate.eval Gate.Not [ t ]);
  Alcotest.(check bool) "buf" t (Gate.eval Gate.Buf [ t ])

let test_gate_arity_checks () =
  Alcotest.(check bool) "not arity" true
    (match Gate.eval Gate.Not [ true; false ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "empty and" true
    (match Gate.eval Gate.And [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_gate_names () =
  List.iter
    (fun k ->
      match Gate.of_string (Gate.to_string k) with
      | Some k' -> Alcotest.(check bool) "roundtrip" true (k = k')
      | None -> Alcotest.fail "name roundtrip failed")
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not;
      Gate.Buf ];
  Alcotest.(check bool) "BUFF accepted" true (Gate.of_string "buff" = Some Gate.Buf);
  Alcotest.(check bool) "unknown" true (Gate.of_string "MUX" = None)

let test_gate_metadata () =
  Alcotest.(check bool) "nand cv" true
    (Gate.controlling_value Gate.Nand = Some false);
  Alcotest.(check bool) "nor cv" true
    (Gate.controlling_value Gate.Nor = Some true);
  Alcotest.(check bool) "xor no cv" true (Gate.controlling_value Gate.Xor = None);
  Alcotest.(check bool) "primitives" true
    (Gate.is_primitive Gate.Nand && Gate.is_primitive Gate.Not
   && not (Gate.is_primitive Gate.And))

let test_gate_eval_fanin () =
  (* the allocation-free entry point: same truth tables through an index
     accessor, and consistent with the list-based eval on random inputs *)
  let of_list l kind = Gate.eval_fanin kind (List.nth l) (List.length l) in
  Alcotest.(check bool) "nand 11" false (of_list [ true; true ] Gate.Nand);
  Alcotest.(check bool) "xor odd" true
    (of_list [ true; true; true ] Gate.Xor);
  Alcotest.(check bool) "not" false (of_list [ true ] Gate.Not);
  Alcotest.(check bool) "not arity" true
    (match Gate.eval_fanin Gate.Not (fun _ -> true) 2 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "empty or" true
    (match Gate.eval_fanin Gate.Or (fun _ -> true) 0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let rng = Rng.create 77L in
  List.iter
    (fun kind ->
      for _ = 1 to 50 do
        let n =
          match kind with Gate.Not | Gate.Buf -> 1 | _ -> 1 + Rng.int rng 4
        in
        let inputs = List.init n (fun _ -> Rng.bool rng) in
        let a = Array.of_list inputs in
        Alcotest.(check bool)
          (Gate.to_string kind ^ " agrees with eval")
          (Gate.eval kind inputs)
          (Gate.eval_fanin kind (Array.get a) n)
      done)
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not;
      Gate.Buf ]

(* ---------- Netlist ---------- *)

let tiny () =
  Netlist.build ~name:"tiny"
    ~signals:
      [
        ("a", Netlist.Pi);
        ("b", Netlist.Pi);
        ("n1", Netlist.Gate { kind = Gate.Nand; fanin = [| 0; 1 |] });
        ("z", Netlist.Gate { kind = Gate.Not; fanin = [| 2 |] });
      ]
    ~outputs:[ "z" ]

let test_netlist_build_and_accessors () =
  let nl = tiny () in
  Alcotest.(check int) "size" 4 (Netlist.size nl);
  Alcotest.(check int) "gates" 2 (Netlist.gate_count nl);
  Alcotest.(check int) "pis" 2 (Netlist.pi_count nl);
  Alcotest.(check int) "depth" 2 (Netlist.depth nl);
  Alcotest.(check int) "level z" 2 (Netlist.level nl 3);
  Alcotest.(check bool) "find" true (Netlist.find nl "n1" = Some 2);
  Alcotest.(check bool) "fanout of n1" true
    (Netlist.fanout_count nl 2 = 1 && Netlist.fanout_nth nl 2 0 = 3);
  Alcotest.(check int) "load has floor 1" 1 (Netlist.load_of nl 3);
  Alcotest.(check bool) "tf of z" true
    (List.sort compare (Netlist.transitive_fanin nl 3) = [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "tfo of a, in topological order" [ 2; 3 ]
    (Netlist.transitive_fanout nl 0);
  Alcotest.(check (list int)) "tfo of the PO" [] (Netlist.transitive_fanout nl 3)

(* Words [f] allocates: minor words plus words allocated straight in
   the major heap (blocks over 256 words skip the minor heap), net of
   what reading the counters costs.  OCaml 5 aggregates the major-heap
   counters lazily, so each reading follows a [Gc.full_major]. *)
let words_of f =
  let counters () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    (s.Gc.minor_words, s.Gc.major_words -. s.Gc.promoted_words)
  in
  let measure f =
    let m0, d0 = counters () in
    f ();
    let m1, d1 = counters () in
    (m1 -. m0, d1 -. d0)
  in
  let m_idle, d_idle = measure ignore in
  let m, d = measure f in
  (m -. m_idle, d -. d_idle)

(* [find] allocates its [Some] and nothing else: 2 words per hit, none
   per miss (a probe written as a local closure allocated 10 and 8) *)
let test_netlist_find_allocation () =
  let nl =
    Ck.Decompose.to_primitive
      (Ck.Generator.generate
         { Ck.Generator.default_params with
           Ck.Generator.g_name = "find";
           n_inputs = 64;
           n_outputs = 32;
           n_gates = 10_000;
           seed = 31L })
  in
  Alcotest.(check bool) "10k primitives" true (Netlist.size nl >= 10_000);
  let rng = Rng.create 3L in
  let hits =
    Array.init 1_000 (fun _ ->
        Netlist.signal_name nl (Rng.int rng (Netlist.size nl)))
  in
  let misses = Array.map (fun s -> s ^ "'") hits in
  let per_call names =
    let minor, direct =
      words_of (fun () ->
          Array.iter
            (fun s -> ignore (Sys.opaque_identity (Netlist.find nl s)))
            names)
    in
    (minor +. direct) /. float_of_int (Array.length names)
  in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "hit" true (Netlist.find nl s <> None))
    hits;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "miss" true (Netlist.find nl s = None))
    misses;
  let hit = per_call hits and miss = per_call misses in
  if hit > 2.05 then Alcotest.failf "find: %.2f words per hit (want 2)" hit;
  if miss > 0.05 then Alcotest.failf "find: %.2f words per miss (want 0)" miss

let test_netlist_levels () =
  let check_partition nl =
    let lv = Netlist.levels nl in
    Alcotest.(check int) "group count" (Netlist.depth nl + 1) (Array.length lv);
    (* the level CSR: each level starts where the levels below it end *)
    let start = ref 0 in
    Array.iteri
      (fun l group ->
        Alcotest.(check int) "level start" !start (Netlist.level_start nl l);
        start := !start + Array.length group)
      lv;
    Alcotest.(check int) "last start is the node count" (Netlist.size nl)
      (Netlist.level_start nl (Netlist.level_count nl));
    (* a partition of all node ids, each in its own level's group *)
    let seen = Array.make (Netlist.size nl) false in
    Array.iteri
      (fun l group ->
        Array.iter
          (fun i ->
            Alcotest.(check int) "group matches level" l (Netlist.level nl i);
            Alcotest.(check bool) "no duplicates" false seen.(i);
            seen.(i) <- true)
          group)
      lv;
    Alcotest.(check bool) "covers all nodes" true (Array.for_all Fun.id seen);
    (* no fan-in edge inside a group: levels are an independence partition *)
    Array.iter
      (fun group ->
        Array.iter
          (fun i ->
            Netlist.iter_fanin nl i ~f:(fun j ->
                Alcotest.(check bool) "fan-in at strictly lower level" true
                  (Netlist.level nl j < Netlist.level nl i)))
          group)
      lv
  in
  check_partition (tiny ());
  check_partition (Ck.Benchmarks.c17 ());
  check_partition (Option.get (Ck.Benchmarks.by_name "c880s"))

let test_netlist_validation () =
  let dup () =
    Netlist.build ~name:"d"
      ~signals:[ ("a", Netlist.Pi); ("a", Netlist.Pi) ]
      ~outputs:[ "a" ]
  in
  Alcotest.(check bool) "duplicate" true
    (match dup () with exception Netlist.Invalid _ -> true | _ -> false);
  let cyc () =
    Netlist.build ~name:"c"
      ~signals:
        [
          ("a", Netlist.Pi);
          ("x", Netlist.Gate { kind = Gate.Nand; fanin = [| 0; 2 |] });
          ("y", Netlist.Gate { kind = Gate.Not; fanin = [| 1 |] });
        ]
      ~outputs:[ "y" ]
  in
  Alcotest.(check bool) "cycle" true
    (match cyc () with exception Netlist.Invalid _ -> true | _ -> false);
  let bad_out () =
    Netlist.build ~name:"o" ~signals:[ ("a", Netlist.Pi) ] ~outputs:[ "zz" ]
  in
  Alcotest.(check bool) "unknown output" true
    (match bad_out () with exception Netlist.Invalid _ -> true | _ -> false)

(* ---------- Bench I/O ---------- *)

let test_bench_parse_c17 () =
  let nl = Ck.Benchmarks.c17 () in
  Alcotest.(check int) "pis" 5 (Netlist.pi_count nl);
  Alcotest.(check int) "gates" 6 (Netlist.gate_count nl);
  Alcotest.(check int) "outputs" 2 (List.length (Netlist.outputs nl));
  Alcotest.(check int) "depth" 3 (Netlist.depth nl)

let test_bench_roundtrip () =
  let nl = Ck.Benchmarks.c17 () in
  let text = Ck.Bench_io.to_string nl in
  let nl2 = Ck.Bench_io.parse_string ~name:"c17rt" text in
  Alcotest.(check bool) "equivalent after roundtrip" true
    (Ck.Logic.equivalent (Rng.create 5L) nl nl2);
  (* the buffer writer renders the suite circuits, generated designs and
     their primitive mappings byte for byte as the Printf writer did *)
  let generated =
    List.map
      (fun (seed, shape) ->
        Ck.Generator.generate
          { Ck.Generator.default_params with
            Ck.Generator.g_name = "gen";
            n_gates = 400;
            max_fanin = 9;
            seed;
            shape })
      [ (3L, Ck.Generator.Organic);
        (4L, Ck.Generator.Layered { layers = 9 }) ]
  in
  List.iter
    (fun nl ->
      List.iter
        (fun nl ->
          Alcotest.(check string)
            (Netlist.name nl ^ ": Printf writer's text")
            (Test_support.bench_writer_reference nl)
            (Ck.Bench_io.to_string nl))
        [ nl; Ck.Decompose.to_primitive nl ])
    (List.map
       (fun name -> Option.get (Ck.Benchmarks.by_name name))
       Ck.Benchmarks.names
    @ generated)

let test_bench_parse_errors () =
  let bad s =
    match Ck.Bench_io.parse_string ~name:"bad" s with
    | exception Ck.Bench_io.Parse_error _ -> true
    | exception Netlist.Invalid _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown gate" true (bad "INPUT(a)\nz = FROB(a)\n");
  Alcotest.(check bool) "missing paren" true (bad "INPUT a\n");
  Alcotest.(check bool) "undefined signal" true (bad "z = NAND(a, b)\n");
  Alcotest.(check bool) "comment-only ok" true
    (not (bad "# nothing\nINPUT(a)\nOUTPUT(a)\n"))

let parse_error_line s =
  match Ck.Bench_io.parse_string ~name:"bad" s with
  | exception Ck.Bench_io.Parse_error { line; _ } -> Some line
  | _ -> None

let test_bench_undefined_signal_line () =
  (* the gate's own line must be reported, not a placeholder 0 *)
  Alcotest.(check (option int)) "line of offending gate" (Some 4)
    (parse_error_line "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, ghost)\n");
  Alcotest.(check (option int)) "later gate, later line" (Some 5)
    (parse_error_line
       "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nw = NOT(a)\nz = NAND(w, ghost)\n")

let test_bench_duplicate_definition () =
  (* redefining a signal is a parse error at the second definition *)
  Alcotest.(check (option int)) "duplicate gate def" (Some 5)
    (parse_error_line
       "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\nz = NOT(a)\n");
  Alcotest.(check (option int)) "gate shadowing a PI" (Some 4)
    (parse_error_line "INPUT(a)\nINPUT(b)\nOUTPUT(a)\na = NOT(b)\n");
  Alcotest.(check (option int)) "duplicate INPUT" (Some 2)
    (parse_error_line "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n")

let test_bench_comments_and_case () =
  let nl =
    Ck.Bench_io.parse_string ~name:"cc"
      "# header\nINPUT(a)  # trailing\ninput(b)\nOUTPUT(z)\nz = nand(a, b)\n"
  in
  Alcotest.(check int) "parsed gates" 1 (Netlist.gate_count nl)

(* Two netlists with the same flat structure: names, kinds, fan-in CSR,
   outputs, topological order, level CSR and name lookup. *)
let same_structure a b =
  let n = Netlist.size a in
  let ok = ref (n = Netlist.size b) in
  let check c = if not c then ok := false in
  if !ok then begin
    check (Netlist.name a = Netlist.name b);
    check (Netlist.inputs a = Netlist.inputs b);
    check (Netlist.outputs a = Netlist.outputs b);
    check (Netlist.topo_order a = Netlist.topo_order b);
    check (Netlist.level_count a = Netlist.level_count b);
    for i = 0 to n - 1 do
      let s = Netlist.signal_name a i in
      check (s = Netlist.signal_name b i);
      check (Netlist.find b s = Some i && Netlist.find a s = Some i);
      check (Netlist.is_pi a i = Netlist.is_pi b i);
      if not (Netlist.is_pi a i) then
        check (Netlist.gate_kind a i = Netlist.gate_kind b i);
      check (Netlist.fanin_count a i = Netlist.fanin_count b i);
      for p = 0 to min (Netlist.fanin_count a i) (Netlist.fanin_count b i) - 1
      do
        check (Netlist.fanin_nth a i p = Netlist.fanin_nth b i p)
      done
    done;
    if !ok then
      for l = 0 to Netlist.level_count a do
        check (Netlist.level_start a l = Netlist.level_start b l);
        if l < Netlist.level_count a then
          for k = 0 to Netlist.level_width a l - 1 do
            check (Netlist.level_node a l k = Netlist.level_node b l k)
          done
      done
  end;
  !ok

(* What a reader made of a text: the netlist, or the error it raised *)
type outcome =
  | Parsed of Netlist.t
  | Bad_line of int * string  (* Parse_error *)
  | Bad_netlist of string  (* Netlist.Invalid *)

let parse_outcome parse =
  match parse () with
  | nl -> Parsed nl
  | exception Ck.Bench_io.Parse_error { line; message } -> Bad_line (line, message)
  | exception Netlist.Invalid message -> Bad_netlist message

let same_outcome a b =
  match (a, b) with
  | Parsed a, Parsed b -> same_structure a b
  | Bad_line (l, m), Bad_line (l', m') -> l = l' && m = m'
  | Bad_netlist m, Bad_netlist m' -> m = m'
  | (Parsed _ | Bad_line _ | Bad_netlist _), _ -> false

let show_outcome = function
  | Parsed nl -> Netlist.stats nl
  | Bad_line (l, m) -> Printf.sprintf "line %d: %s" l m
  | Bad_netlist m -> "invalid: " ^ m

(* [parse_file] through a file at [path], [parse_string] and the
   line-based oracle on [text]: three outcomes that must agree *)
let three_readers path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let name = Filename.remove_extension (Filename.basename path) in
  ( parse_outcome (fun () -> Ck.Bench_io.parse_file path),
    parse_outcome (fun () -> Ck.Bench_io.parse_string ~name text),
    parse_outcome (fun () -> Test_support.bench_reference ~name text) )

let crlf text = String.concat "\r\n" (String.split_on_char '\n' text)

let no_final_newline text =
  let n = String.length text in
  if n > 0 && text.[n - 1] = '\n' then String.sub text 0 (n - 1) else text

let test_bench_parse_file_streams () =
  let c17 = Ck.Bench_io.to_string (Ck.Benchmarks.c17 ()) in
  let layered =
    Ck.Bench_io.to_string
      (Ck.Generator.generate
         {
           Ck.Generator.default_params with
           Ck.Generator.g_name = "layered";
           n_inputs = 24;
           n_outputs = 12;
           n_gates = 600;
           locality = 48;
           seed = 7L;
           shape = Ck.Generator.Layered { layers = 12 };
         })
  in
  let dup = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\nz = NOT(a)\n" in
  let bad_gate = "INPUT(a)\n# note\nOUTPUT(z)\nz = FROB(a)" in
  (* ids run PIs first, so a gate redefined by a later INPUT is the
     second definition *)
  let pi_after_gate = "INPUT(a)\nOUTPUT(z)\nx = NOT(a)\nINPUT(x)\nz = NOT(x)\n" in
  (* the first undefined fan-in in gate order, then pin order *)
  let two_ghosts =
    "INPUT(a)\nOUTPUT(z)\ny = NAND(a, ghost2)\nz = NAND(ghost1, y)\n"
  in
  (* duplicates are reported before any fan-in is resolved *)
  let dup_after_ghost =
    "INPUT(a)\nOUTPUT(z)\ny = NAND(a, ghost)\nz = NOT(a)\nz = NOT(y)\n"
  in
  (* lines longer than the file reader's buffer: a 200 KB comment line
     first, and a gate followed by a 70 KB comment *)
  let long_comment = "#" ^ String.make 200_000 'c' ^ "\n" ^ c17 in
  let long_tail =
    let cut = String.index c17 '=' in
    let eol = String.index_from c17 cut '\n' in
    String.sub c17 0 eol ^ " # " ^ String.make 70_000 't'
    ^ String.sub c17 eol (String.length c17 - eol)
  in
  let cases =
    [ ("c17", c17, None); ("c17 CRLF", crlf c17, None);
      ("c17 without final newline", no_final_newline c17, None);
      ("layered", layered, None); ("layered CRLF", crlf layered, None);
      ("200 KB comment line, CRLF, no final newline",
       no_final_newline (crlf long_comment), None);
      ("gate with a 70 KB comment, CRLF, no final newline",
       no_final_newline (crlf long_tail), None);
      ("duplicate definition", dup, Some 5);
      ("duplicate definition CRLF", crlf dup, Some 5);
      ("unknown gate on an unterminated last line", bad_gate, Some 4);
      ("unknown gate CRLF", crlf bad_gate, Some 4);
      ("INPUT after a gate of the same name", pi_after_gate, Some 3);
      ("first undefined fan-in", two_ghosts, Some 3);
      ("duplicate before undefined", dup_after_ghost, Some 5) ]
  in
  List.iter
    (fun (label, text, error_line) ->
      let path = Filename.temp_file "bench_io" ".bench" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let from_file, from_text, oracle = three_readers path text in
          Alcotest.(check bool) (label ^ ": parse_file = parse_string") true
            (same_outcome from_file from_text);
          Alcotest.(check bool) (label ^ ": parse_string = oracle") true
            (same_outcome from_text oracle);
          match (from_text, error_line) with
          | Parsed _, None -> ()
          | Bad_line (line, _), Some l -> Alcotest.(check int) label l line
          | o, _ -> Alcotest.failf "%s: %s" label (show_outcome o)))
    cases

(* Set-up allocation of the scanner on a layered 10k-gate text: a
   string per name seen for the first time and a few int slots per
   line, far below a reader that slices each line into strings and
   lists (the oracle's kind read about 77 minor and 117 words in all
   per gate on a design of this shape). *)
let test_bench_parse_allocation () =
  let text =
    Ck.Bench_io.to_string
      (Ck.Generator.generate
         {
           Ck.Generator.g_name = "alloc";
           n_inputs = 64;
           n_outputs = 32;
           n_gates = 10_000;
           max_fanin = 9;
           locality = 128;
           seed = 29L;
           shape = Ck.Generator.Layered { layers = 40 };
         })
  in
  let nl = ref None in
  let minor, direct =
    words_of (fun () ->
        nl := Some (Ck.Bench_io.parse_string ~name:"alloc" text))
  in
  let gates = float_of_int (Netlist.gate_count (Option.get !nl)) in
  let minor_per_gate = minor /. gates
  and all_per_gate = (minor +. direct) /. gates in
  if minor_per_gate > 16. then
    Alcotest.failf "parse_string: %.1f minor words per gate (bound 16)"
      minor_per_gate;
  if all_per_gate > 72. then
    Alcotest.failf "parse_string: %.1f words per gate in all (bound 72)"
      all_per_gate

(* ---------- Logic ---------- *)

let test_logic_c17_vectors () =
  let nl = Ck.Benchmarks.c17 () in
  (* c17 truth samples (inputs 1,2,3,6,7) computed by hand *)
  let check_vec inputs expected =
    Alcotest.(check (list bool)) "outputs" expected
      (Ck.Logic.outputs_of nl (Array.of_list inputs))
  in
  check_vec [ false; false; false; false; false ] [ false; false ];
  (* 1=1 3=1: 10=NAND(1,1)=0 -> 22=NAND(0,16)=1 *)
  check_vec [ true; false; true; false; false ] [ true; false ]

let test_logic_equivalence_detects_difference () =
  let a =
    Ck.Bench_io.parse_string ~name:"a" "INPUT(x)\nOUTPUT(z)\nz = NOT(x)\n"
  in
  let b =
    Ck.Bench_io.parse_string ~name:"b" "INPUT(x)\nOUTPUT(z)\nz = BUFF(x)\n"
  in
  Alcotest.(check bool) "different functions" false
    (Ck.Logic.equivalent (Rng.create 1L) a b)

let test_logic_equivalence_mismatched_pis () =
  (* a PI of one circuit missing from the other: inequivalent, not
     Not_found *)
  let a =
    Ck.Bench_io.parse_string ~name:"a"
      "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = NAND(x, y)\n"
  in
  let b =
    Ck.Bench_io.parse_string ~name:"b"
      "INPUT(x)\nINPUT(w)\nOUTPUT(z)\nz = NAND(x, w)\n"
  in
  Alcotest.(check bool) "mismatched PI names" false
    (Ck.Logic.equivalent (Rng.create 1L) a b);
  (* same names in a different declaration order still compare by name *)
  let c =
    Ck.Bench_io.parse_string ~name:"c"
      "INPUT(y)\nINPUT(x)\nOUTPUT(z)\nz = NAND(x, y)\n"
  in
  Alcotest.(check bool) "reordered PI names equivalent" true
    (Ck.Logic.equivalent (Rng.create 1L) a c)

(* ---------- Decompose ---------- *)

let test_decompose_primitive_only () =
  let nl =
    Ck.Bench_io.parse_string ~name:"mix"
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(z)\n\
       w = AND(a, b, c)\nx = XOR(w, d)\ny = OR(x, e)\nz = XNOR(y, a)\n"
  in
  let prim = Ck.Decompose.to_primitive nl in
  Alcotest.(check bool) "is primitive" true (Ck.Decompose.is_primitive prim);
  Alcotest.(check bool) "still equivalent" true
    (Ck.Logic.equivalent (Rng.create 2L) nl prim)

let test_decompose_wide_gates () =
  let wide =
    Ck.Bench_io.parse_string ~name:"wide"
      ("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\n\
        INPUT(g)\nINPUT(h)\nINPUT(i)\nOUTPUT(z)\n"
      ^ "z = NAND(a, b, c, d, e, f, g, h, i)\n")
  in
  let prim = Ck.Decompose.to_primitive ~max_fanin:4 wide in
  Alcotest.(check bool) "fanin capped" true
    (Ck.Decompose.is_primitive ~max_fanin:4 prim);
  Alcotest.(check bool) "wide nand equivalent" true
    (Ck.Logic.equivalent (Rng.create 3L) wide prim)

let prop_decompose_preserves_function =
  QCheck.Test.make ~name:"decompose preserves random circuits" ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let nl =
        Ck.Generator.generate
          {
            Ck.Generator.default_params with
            Ck.Generator.g_name = "q";
            n_inputs = 8;
            n_outputs = 4;
            n_gates = 40;
            seed = Int64.of_int seed;
          }
      in
      let prim = Ck.Decompose.to_primitive nl in
      Ck.Decompose.is_primitive prim
      && Ck.Logic.equivalent ~vectors:64 (Rng.create 11L) nl prim)

(* The paper's circuits need fresh names for the nodes a mapping adds;
   one that equals a signal defined later in the input (here [z$0],
   after [z] is mapped to NAND + NOT) must be skipped, not emitted *)
let test_decompose_fresh_name_collision () =
  let nl =
    Ck.Bench_io.parse_string ~name:"collide"
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(y)\nz = AND(a, b)\n\
       z$0 = NOT(z)\ny = NOT(z$0)\n"
  in
  let prim = Ck.Decompose.to_primitive nl in
  Alcotest.(check bool) "is primitive" true (Ck.Decompose.is_primitive prim);
  Alcotest.(check bool) "still equivalent" true
    (Ck.Logic.equivalent (Rng.create 5L) nl prim);
  Alcotest.(check bool) "original z$0 kept" true
    (Netlist.find prim "z$0" <> None)

(* A random circuit over every gate kind: fan-ins up to 9, one-input
   AND/OR/XOR/XNOR/NAND/NOR, BUF, repeated fan-ins, and now and then a
   name of the [base$k] form that fresh names take. *)
let random_circuit seed =
  let rng = Rng.create (Int64.of_int seed) in
  let npi = 1 + Rng.int rng 5 and ngates = 1 + Rng.int rng 40 in
  let kinds =
    [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not;
       Gate.Buf |]
  in
  let names = Array.make (npi + ngates) "" in
  let signals =
    List.init (npi + ngates) (fun i ->
        if i < npi then begin
          names.(i) <- Printf.sprintf "p%d" i;
          (names.(i), Netlist.Pi)
        end
        else begin
          names.(i) <-
            (if Rng.int rng 8 = 0 then
               Printf.sprintf "%s$%d" names.(Rng.int rng i) (Rng.int rng 3)
             else Printf.sprintf "g%d" i);
          let kind = kinds.(Rng.int rng (Array.length kinds)) in
          let arity =
            match kind with
            | Gate.Not | Gate.Buf -> 1
            | _ -> if Rng.int rng 4 = 0 then 1 else 2 + Rng.int rng 8
          in
          ( names.(i),
            Netlist.Gate
              { kind; fanin = Array.init arity (fun _ -> Rng.int rng i) } )
        end)
  in
  let outputs =
    List.filter_map
      (fun i ->
        if i = npi + ngates - 1 || Rng.int rng 5 = 0 then Some names.(i)
        else None)
      (List.init (npi + ngates) Fun.id)
  in
  match Netlist.build ~name:"rand" ~signals ~outputs with
  | nl -> Some nl
  | exception Netlist.Invalid _ -> None (* a random name drawn twice *)

(* ---------- the scanner against the line-based oracle ---------- *)

(* One random edit of a .bench text *)
let mutate rng text =
  let n = String.length text in
  let at = Rng.int rng (n + 1) in
  let insert pick =
    let k = 1 + Rng.int rng 3 in
    String.sub text 0 at ^ String.init k (fun _ -> pick ())
    ^ String.sub text at (n - at)
  in
  let syntax = "()=,# \t\012\r\nabcxyzNOTANDINPUToutput0123456789$" in
  match Rng.int rng 6 with
  | 0 ->
    let k = min (n - at) (1 + Rng.int rng 4) in
    String.sub text 0 at ^ String.sub text (at + k) (n - at - k)
  | 1 -> insert (fun () -> syntax.[Rng.int rng (String.length syntax)])
  | 2 -> insert (fun () -> Char.chr (Rng.int rng 256))
  | 3 ->
    let last = min n (at + 1 + Rng.int rng 40) in
    String.mapi
      (fun i c ->
        if i < at || i >= last then c
        else if Char.lowercase_ascii c <> c then Char.lowercase_ascii c
        else Char.uppercase_ascii c)
      text
  | 4 -> crlf text
  | _ -> no_final_newline text

(* c17 or a small random circuit over every gate kind, rendered by the
   writer, then up to four random edits: the scanner's [parse_string],
   its [parse_file] and the oracle give the same netlist (names, kinds,
   fan-ins, outputs, [find] of every name), the same [Parse_error] line
   and message, or the same [Netlist.Invalid] message, and nothing else
   escapes *)
let prop_bench_scanner_matches_oracle =
  let path = lazy (Filename.temp_file "bench_fuzz" ".bench") in
  at_exit (fun () ->
      if Lazy.is_val path then
        try Sys.remove (Lazy.force path) with Sys_error _ -> ());
  QCheck.Test.make ~name:"scanner = line-based oracle on mutated texts"
    ~count:1000
    QCheck.(int_range 1 1_000_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let base =
        match Rng.int rng 3 with
        | 0 -> Ck.Benchmarks.c17 ()
        | _ ->
          Option.value (random_circuit seed) ~default:(Ck.Benchmarks.c17 ())
      in
      let text = ref (Ck.Bench_io.to_string base) in
      for _ = 1 to Rng.int rng 5 do
        text := mutate rng !text
      done;
      let from_file, from_text, oracle =
        three_readers (Lazy.force path) !text
      in
      same_outcome from_text oracle && same_outcome from_file from_text
      || QCheck.Test.fail_reportf "%S:@ file %s,@ string %s,@ oracle %s"
           !text (show_outcome from_file) (show_outcome from_text)
           (show_outcome oracle))

(* The flat mapping gives the list-based oracle's netlist wherever the
   oracle succeeds; where it fails on a fresh-name collision, the flat
   one still gives a primitive, equivalent circuit. *)
let prop_decompose_matches_oracle =
  QCheck.Test.make ~name:"flat decompose = list-based oracle" ~count:300
    QCheck.(pair (int_range 1 1_000_000) (int_range 2 5))
    (fun (seed, max_fanin) ->
      match random_circuit seed with
      | None -> QCheck.assume_fail ()
      | Some nl -> (
        let prim = Ck.Decompose.to_primitive ~max_fanin nl in
        match Test_support.decompose_reference ~max_fanin nl with
        | oracle -> same_structure prim oracle
        | exception Netlist.Invalid _ ->
          Ck.Decompose.is_primitive ~max_fanin prim
          && Ck.Logic.equivalent ~vectors:64 (Rng.create 13L) nl prim))

let test_decompose_suite_matches_oracle () =
  List.iter
    (fun name ->
      let nl = Option.get (Ck.Benchmarks.by_name name) in
      List.iter
        (fun max_fanin ->
          Alcotest.(check bool)
            (Printf.sprintf "%s at max_fanin %d" name max_fanin)
            true
            (same_structure
               (Ck.Decompose.to_primitive ~max_fanin nl)
               (Test_support.decompose_reference ~max_fanin nl)))
        [ 2; 4 ])
    Ck.Benchmarks.names

(* Set-up allocation: the mapping appends to flat arrays sized by a
   counting pass and makes each fresh name with one concatenation, so
   it stays far below the list-based mapping (about 78 minor words per
   parsed gate on a layered design) *)
let test_decompose_allocation_guard () =
  let nl =
    Ck.Generator.generate
      {
        Ck.Generator.g_name = "alloc";
        n_inputs = 64;
        n_outputs = 32;
        n_gates = 10_000;
        max_fanin = 9;
        locality = 128;
        seed = 29L;
        shape = Ck.Generator.Layered { layers = 40 };
      }
  in
  let w0 = Gc.minor_words () in
  let prim = Ck.Decompose.to_primitive nl in
  let words = (Gc.minor_words () -. w0) /. float_of_int (Netlist.gate_count nl) in
  Alcotest.(check bool) "primitive" true (Ck.Decompose.is_primitive prim);
  if words > 40. then
    Alcotest.failf "to_primitive: %.1f minor words per parsed gate (bound 40)"
      words

(* ---------- Generator / Benchmarks ---------- *)

let test_generator_counts () =
  let p =
    { Ck.Generator.default_params with Ck.Generator.n_inputs = 12;
      n_outputs = 5; n_gates = 77; seed = 4L }
  in
  let nl = Ck.Generator.generate p in
  Alcotest.(check int) "pis" 12 (Netlist.pi_count nl);
  Alcotest.(check int) "gates" 77 (Netlist.gate_count nl);
  Alcotest.(check int) "outputs" 5 (List.length (Netlist.outputs nl))

let test_generator_deterministic () =
  let gen () = Ck.Generator.generate Ck.Generator.default_params in
  Alcotest.(check string) "same text" (Ck.Bench_io.to_string (gen ()))
    (Ck.Bench_io.to_string (gen ()))

let test_generator_no_constant_lines () =
  (* the signature guard: every line must be able to take both values *)
  let nl =
    Ck.Generator.generate
      { Ck.Generator.default_params with Ck.Generator.n_gates = 200; seed = 9L }
  in
  let rng = Rng.create 123L in
  let n = Netlist.size nl in
  let seen0 = Array.make n false and seen1 = Array.make n false in
  for _ = 1 to 600 do
    let v = Ck.Logic.random_vector rng nl in
    let res = Ck.Logic.simulate nl v in
    Array.iteri
      (fun i b -> if b then seen1.(i) <- true else seen0.(i) <- true)
      res
  done;
  let stuck = ref 0 in
  for i = 0 to n - 1 do
    if not (seen0.(i) && seen1.(i)) then incr stuck
  done;
  (* a few rare-sensitization lines may not toggle in 600 vectors, but the
     pre-fix generator had ~50% stuck lines *)
  Alcotest.(check bool)
    (Printf.sprintf "almost no stuck lines (%d)" !stuck)
    true
    (!stuck * 20 < n)

let test_benchmark_suite_shapes () =
  List.iter2
    (fun nl (pis, pos, gates) ->
      Alcotest.(check int) "pis" pis (Netlist.pi_count nl);
      Alcotest.(check int) "pos" pos (List.length (Netlist.outputs nl));
      Alcotest.(check int) "gates" gates (Netlist.gate_count nl))
    (Ck.Benchmarks.table2_suite ())
    [
      (5, 2, 6); (60, 26, 383); (41, 32, 546); (33, 25, 880); (50, 22, 1669);
      (207, 108, 3512);
    ]

let test_benchmark_lookup () =
  Alcotest.(check bool) "c17" true (Ck.Benchmarks.by_name "c17" <> None);
  Alcotest.(check bool) "c880s" true (Ck.Benchmarks.by_name "c880s" <> None);
  Alcotest.(check bool) "missing" true (Ck.Benchmarks.by_name "c6288" = None);
  Alcotest.(check int) "names" 6 (List.length Ck.Benchmarks.names)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---------- Frontier ---------- *)

module Frontier = Ck.Frontier

let frontier_netlist () =
  Ck.Generator.generate
    { Ck.Generator.default_params with
      Ck.Generator.g_name = "frontier"; n_inputs = 8; n_outputs = 4;
      n_gates = 120; seed = 17L }

(* drain [fr], recording the visit order; [f] runs on every visit *)
let drain_recording fr f =
  let seen = ref [] in
  Frontier.drain fr (fun fr i ->
      seen := i :: !seen;
      f fr i);
  List.rev !seen

let check_each_once name n visits expected =
  let count = Array.make n 0 in
  List.iter (fun i -> count.(i) <- count.(i) + 1) visits;
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "%s: node %d visits" name i)
        (if expected.(i) then 1 else 0)
        c)
    count

let test_frontier_visits_by_level () =
  let nl = frontier_netlist () in
  let n = Netlist.size nl in
  let rng = Rng.create 3L in
  (* the callback pushes the fan-outs of every third node it visits *)
  let spreads i = i mod 3 = 0 in
  for pass = 1 to 3 do
    let seeds = List.init 25 (fun _ -> Rng.int rng n) in
    let expected = Array.make n false in
    let rec reach i =
      if not expected.(i) then begin
        expected.(i) <- true;
        if spreads i then Netlist.iter_fanout nl i ~f:reach
      end
    in
    List.iter reach seeds;
    let fr = Frontier.get nl in
    (* duplicates in the seeds are ignored *)
    List.iter (Frontier.push fr) (seeds @ seeds);
    let visits =
      drain_recording fr (fun fr i ->
          if spreads i then Netlist.iter_fanout nl i ~f:(Frontier.push fr))
    in
    let name = Printf.sprintf "pass %d" pass in
    check_each_once name n visits expected;
    ignore
      (List.fold_left
         (fun prev i ->
           let l = Netlist.level nl i in
           Alcotest.(check bool) (name ^ ": levels never fall") true (l >= prev);
           l)
         0 visits)
  done

let test_frontier_rejects_misuse () =
  let nl = frontier_netlist () in
  let gate = List.hd (List.rev (Netlist.outputs nl)) in
  let pi = List.hd (Netlist.inputs nl) in
  let same_level =
    List.find
      (fun i -> i <> gate && Netlist.level nl i = Netlist.level nl gate)
      (List.init (Netlist.size nl) Fun.id @ [ gate ])
  in
  let rejected f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  let fr = Frontier.get nl in
  Frontier.push fr gate;
  let checks = ref [] in
  let visits =
    drain_recording fr (fun fr _ ->
        checks :=
          [
            ("push of the draining node", rejected (fun () -> Frontier.push fr gate));
            ( "push on the draining level",
              rejected (fun () -> Frontier.push fr same_level) );
            ("push on a lower level", rejected (fun () -> Frontier.push fr pi));
            ("nested drain", rejected (fun () -> Frontier.drain fr (fun _ _ -> ())));
            ("get inside a drain", rejected (fun () -> ignore (Frontier.get nl)));
          ])
  in
  Alcotest.(check (list int)) "the drain went on" [ gate ] visits;
  List.iter (fun (what, ok) -> Alcotest.(check bool) what true ok) !checks;
  Alcotest.(check int) "every misuse was tried" 5 (List.length !checks);
  (* the frontier serves the next pass as usual *)
  let fr = Frontier.get nl in
  Frontier.push fr pi;
  Alcotest.(check (list int)) "next pass" [ pi ] (drain_recording fr (fun _ _ -> ()))

let test_frontier_empty_after_raise () =
  let nl = frontier_netlist () in
  let n = Netlist.size nl in
  let rng = Rng.create 5L in
  let fresh_pass fr =
    let seeds = List.init 20 (fun _ -> Rng.int rng n) in
    let expected = Array.make n false in
    List.iter (fun i -> expected.(i) <- true) seeds;
    List.iter (Frontier.push fr) seeds;
    check_each_once "after the raise" n (drain_recording fr (fun _ _ -> ())) expected
  in
  (* a callback that raises on its fifth visit, with every node's
     fan-outs pushed so far still bucketed on higher levels *)
  let raising fr =
    List.iter (Frontier.push fr) (Netlist.inputs nl);
    let k = ref 0 in
    match
      Frontier.drain fr (fun fr i ->
          incr k;
          if !k = 5 then raise Exit;
          Netlist.iter_fanout nl i ~f:(Frontier.push fr))
    with
    | () -> Alcotest.fail "the callback did not raise"
    | exception Exit -> ()
  in
  (* the same handle, then a fresh one *)
  let fr = Frontier.get nl in
  raising fr;
  fresh_pass fr;
  raising (Frontier.get nl);
  fresh_pass (Frontier.get nl);
  (* pushes a pass never drained are dropped by the next [get] *)
  Frontier.push (Frontier.get nl) (List.hd (Netlist.outputs nl));
  fresh_pass (Frontier.get nl)

let test_frontier_per_domain () =
  (* a drain on another domain inside this one's: each has its own *)
  let nl = frontier_netlist () in
  let pis = Netlist.inputs nl in
  let fr = Frontier.get nl in
  List.iter (Frontier.push fr) pis;
  let inner = ref [] in
  let outer =
    drain_recording fr (fun _ i ->
        if i = List.hd pis then
          inner :=
            Domain.join
              (Domain.spawn (fun () ->
                   let fr = Frontier.get nl in
                   List.iter (Frontier.push fr) (Netlist.outputs nl);
                   drain_recording fr (fun _ _ -> ()))))
  in
  Alcotest.(check (list int)) "outer pass" pis outer;
  Alcotest.(check (list int)) "inner pass"
    (List.sort compare (Netlist.outputs nl))
    (List.sort compare !inner)

let suites =
  [
    ( "circuit.gate",
      [
        Alcotest.test_case "truth tables" `Quick test_gate_truth_tables;
        Alcotest.test_case "arity" `Quick test_gate_arity_checks;
        Alcotest.test_case "names" `Quick test_gate_names;
        Alcotest.test_case "metadata" `Quick test_gate_metadata;
        Alcotest.test_case "eval_fanin" `Quick test_gate_eval_fanin;
      ] );
    ( "circuit.netlist",
      [
        Alcotest.test_case "build & accessors" `Quick
          test_netlist_build_and_accessors;
        Alcotest.test_case "validation" `Quick test_netlist_validation;
        Alcotest.test_case "levels" `Quick test_netlist_levels;
        Alcotest.test_case "find allocates only its Some" `Quick
          test_netlist_find_allocation;
      ] );
    ( "circuit.frontier",
      [
        Alcotest.test_case "each pushed node once, by level" `Quick
          test_frontier_visits_by_level;
        Alcotest.test_case "rejects pushes at or below the drain" `Quick
          test_frontier_rejects_misuse;
        Alcotest.test_case "empty after a raising callback" `Quick
          test_frontier_empty_after_raise;
        Alcotest.test_case "one frontier per domain" `Quick
          test_frontier_per_domain;
      ] );
    ( "circuit.bench_io",
      [
        Alcotest.test_case "parse c17" `Quick test_bench_parse_c17;
        Alcotest.test_case "roundtrip" `Quick test_bench_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_bench_parse_errors;
        Alcotest.test_case "undefined signal line" `Quick
          test_bench_undefined_signal_line;
        Alcotest.test_case "duplicate definition" `Quick
          test_bench_duplicate_definition;
        Alcotest.test_case "comments/case" `Quick test_bench_comments_and_case;
        Alcotest.test_case "parse_file streams like parse_string" `Quick
          test_bench_parse_file_streams;
        Alcotest.test_case "allocation guard" `Quick
          test_bench_parse_allocation;
      ] );
    qsuite "circuit.bench_io.props" [ prop_bench_scanner_matches_oracle ];
    ( "circuit.logic",
      [
        Alcotest.test_case "c17 vectors" `Quick test_logic_c17_vectors;
        Alcotest.test_case "detects inequivalence" `Quick
          test_logic_equivalence_detects_difference;
        Alcotest.test_case "mismatched PIs" `Quick
          test_logic_equivalence_mismatched_pis;
      ] );
    ( "circuit.decompose",
      [
        Alcotest.test_case "primitive only" `Quick test_decompose_primitive_only;
        Alcotest.test_case "wide gates" `Quick test_decompose_wide_gates;
        Alcotest.test_case "fresh name skips a later signal" `Quick
          test_decompose_fresh_name_collision;
        Alcotest.test_case "suite circuits equal the oracle" `Quick
          test_decompose_suite_matches_oracle;
        Alcotest.test_case "allocation guard" `Quick
          test_decompose_allocation_guard;
      ] );
    qsuite "circuit.decompose.props"
      [ prop_decompose_preserves_function; prop_decompose_matches_oracle ];
    ( "circuit.generator",
      [
        Alcotest.test_case "counts" `Quick test_generator_counts;
        Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "no constant lines" `Quick
          test_generator_no_constant_lines;
      ] );
    ( "circuit.benchmarks",
      [
        Alcotest.test_case "suite shapes" `Quick test_benchmark_suite_shapes;
        Alcotest.test_case "lookup" `Quick test_benchmark_lookup;
      ] );
  ]
