(* The serve stack: wire-protocol golden behavior (framing, versioning,
   admission control), the session manager's lifecycle and checkpoint
   registry, the bounded corners/mc sweep ops, cross-session batch
   determinism at different lane counts, record/replay bit-identity
   over a randomized session script, the Engine edit codec round-trip
   property and the Run_opts builder. *)

module Ck = Ssd_circuit
module Charlib = Ssd_cell.Charlib
module DM = Ssd_core.Delay_model
module E = Ssd_sta.Engine
module RO = Ssd_sta.Run_opts
module Session = Ssd_sta.Session
module CS = Ssd_sta.Corner_sta
module Corners = Ssd_cell.Corners
module Interval = Ssd_util.Interval
module Json = Ssd_util.Json
module P = Ssd_serve.Protocol
module Server = Ssd_serve.Server

let lib = lazy (Charlib.default ~profile:Charlib.coarse ())
let c17_prim () = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ())

let mk_server ?(jobs = 1) ?max_frame ?record () =
  let cfg = Server.default_config ~library:(Lazy.force lib) in
  let cfg =
    {
      cfg with
      Server.sv_jobs = jobs;
      sv_record = record;
      sv_max_frame_bytes =
        Option.value ~default:cfg.Server.sv_max_frame_bytes max_frame;
    }
  in
  Server.create cfg

let with_server ?jobs ?max_frame ?record f =
  let sv = mk_server ?jobs ?max_frame ?record () in
  Fun.protect ~finally:(fun () -> Server.close sv) (fun () -> f sv)

let code_of resp =
  match Json.parse resp with
  | Ok j -> P.response_error_code j
  | Error _ -> None

let is_ok resp =
  match Json.parse resp with Ok j -> P.response_ok j | Error _ -> false

(* ---- protocol golden behavior ---- *)

let test_protocol_golden () =
  with_server (fun sv ->
      let d = Server.dispatch sv in
      (* stable envelopes are pinned byte for byte *)
      Alcotest.(check string)
        "unknown version"
        "{\"v\":1,\"id\":7,\"error\":{\"code\":\"bad-version\",\"message\":\
         \"unsupported protocol version 9 (serve speaks 1)\"}}"
        (d "{\"v\":9,\"id\":7,\"op\":\"ping\"}");
      Alcotest.(check string)
        "missing version"
        "{\"v\":1,\"id\":null,\"error\":{\"code\":\"bad-version\",\
         \"message\":\"request carries no \\\"v\\\" field\"}}"
        (d "{\"op\":\"ping\"}");
      Alcotest.(check string)
        "missing op"
        "{\"v\":1,\"id\":null,\"error\":{\"code\":\"bad-request\",\
         \"message\":\"request carries no \\\"op\\\" string\"}}"
        (d "{\"v\":1}");
      Alcotest.(check string)
        "non-object frame"
        "{\"v\":1,\"id\":null,\"error\":{\"code\":\"bad-request\",\
         \"message\":\"request is not a JSON object\"}}"
        (d "[1,2]");
      Alcotest.(check string)
        "ping"
        "{\"v\":1,\"id\":1,\"ok\":{\"pong\":true}}"
        (d "{\"v\":1,\"id\":1,\"op\":\"ping\"}");
      (* message text of parse errors belongs to the JSON parser; only
         the code is contractual *)
      Alcotest.(check (option string))
        "malformed frame" (Some "bad-frame")
        (code_of (d "{nope"));
      Alcotest.(check (option string))
        "unknown op" (Some "unknown-op")
        (code_of (d "{\"v\":1,\"op\":\"frobnicate\"}"));
      Alcotest.(check (option string))
        "engine op without session" (Some "bad-request")
        (code_of (d "{\"v\":1,\"op\":\"query\"}"));
      Alcotest.(check (option string))
        "engine op against unknown session" (Some "unknown-session")
        (code_of (d "{\"v\":1,\"op\":\"query\",\"session\":\"ghost\"}")))

let test_oversized_frame () =
  with_server ~max_frame:64 (fun sv ->
      let big =
        Printf.sprintf "{\"v\":1,\"op\":\"ping\",\"pad\":%S}"
          (String.make 100 'x')
      in
      Alcotest.(check (option string))
        "oversized frame" (Some "frame-too-large")
        (code_of (Server.dispatch sv big));
      Alcotest.(check (option string))
        "small frame still fine" None
        (code_of (Server.dispatch sv "{\"v\":1,\"op\":\"ping\"}")))

(* [Server.serve_fd] over two pipes: [chunks] are written from another
   domain, one [Unix.write] loop each, and the reply lines are read back
   concurrently, so neither side can fill a pipe and stall. *)
let serve_pipe sv chunks =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let writer =
    Domain.spawn (fun () ->
        List.iter
          (fun c ->
            let b = Bytes.of_string c in
            let off = ref 0 in
            while !off < Bytes.length b do
              off := !off + Unix.write in_w b !off (Bytes.length b - !off)
            done)
          chunks;
        Unix.close in_w)
  in
  let reader =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr out_r in
        let all = In_channel.input_all ic in
        close_in ic;
        all)
  in
  Server.serve_fd sv ~in_fd:in_r ~out_fd:out_w;
  Unix.close out_w;
  Unix.close in_r;
  Domain.join writer;
  match List.rev (String.split_on_char '\n' (Domain.join reader)) with
  | "" :: lines -> List.rev lines
  | lines -> List.rev lines

let ping id = Printf.sprintf "{\"v\":1,\"id\":%d,\"op\":\"ping\"}" id
let pong id = Printf.sprintf "{\"v\":1,\"id\":%d,\"ok\":{\"pong\":true}}" id

let test_transport_framing () =
  let too_large =
    "{\"v\":1,\"id\":null,\"error\":{\"code\":\"frame-too-large\",\
     \"message\":\"frame exceeds the 1048576-byte cap\"}}"
  in
  let big =
    Printf.sprintf "{\"v\":1,\"id\":9,\"op\":\"ping\",\"pad\":\"%s\"}"
      (String.make (4 lsl 20) 'x')
  in
  let check name chunks want =
    with_server (fun sv ->
        Alcotest.(check (list string)) name want (serve_pipe sv chunks))
  in
  (* the 4 MiB line is kept only up to the cap, then dropped through its
     newline; the server answers it once and serves on *)
  check "4 MiB frame, then ping" [ big ^ "\n" ^ ping 1 ^ "\n" ]
    [ too_large; pong 1 ];
  check "4 MiB frame in pieces, then ping"
    [ String.sub big 0 1000; String.sub big 1000 (String.length big - 1000);
      "\n" ^ ping 1 ^ "\n" ]
    [ too_large; pong 1 ];
  check "oversized unterminated last line" [ ping 1 ^ "\n" ^ big ]
    [ pong 1; too_large ];
  (* several frames in one write, CRLF, a blank line, a frame split
     across writes and an unterminated last line frame as before *)
  with_server (fun ref_sv ->
      check "mixed framing"
        [ ping 1 ^ "\r\n" ^ ping 2 ^ "\n\n" ^ String.sub (ping 3) 0 9;
          String.sub (ping 3) 9 (String.length (ping 3) - 9) ^ "\n" ^ ping 4 ]
        (List.map (Server.dispatch ref_sv)
           [ ping 1; ping 2; ""; ping 3; ping 4 ]))

let test_code_round_trip () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (P.code_string c) true
        (P.code_of_string (P.code_string c) = Some c))
    [
      P.Bad_frame; P.Bad_version; P.Bad_request; P.Unknown_op; P.Bad_params;
      P.Unknown_session; P.Session_exists; P.Too_many_sessions;
      P.Frame_too_large; P.Unknown_signal; P.Bad_edit; P.Bad_checkpoint;
      P.Engine_error; P.Shutting_down;
    ];
  Alcotest.(check bool) "unknown spelling" true
    (P.code_of_string "no-such-code" = None)

let test_shutdown_drains () =
  with_server (fun sv ->
      let rs =
        Server.dispatch_batch sv
          [
            "{\"v\":1,\"id\":1,\"op\":\"ping\"}";
            "{\"v\":1,\"id\":2,\"op\":\"shutdown\"}";
            "{\"v\":1,\"id\":3,\"op\":\"ping\"}";
          ]
      in
      match rs with
      | [ a; b; c ] ->
        Alcotest.(check bool) "ping ok" true (is_ok a);
        Alcotest.(check bool) "shutdown ok" true (is_ok b);
        Alcotest.(check (option string))
          "post-shutdown rejected" (Some "shutting-down") (code_of c);
        Alcotest.(check bool) "flagged" true (Server.shutting_down sv)
      | _ -> Alcotest.fail "expected 3 responses")

(* ---- session lifecycle (open/edit/query/close through dispatch) ---- *)

let test_session_lifecycle () =
  with_server (fun sv ->
      let d = Server.dispatch sv in
      let r = d "{\"v\":1,\"id\":1,\"op\":\"open\",\"session\":\"s\",\"circuit\":\"c17\"}" in
      Alcotest.(check bool) "open ok" true (is_ok r);
      Alcotest.(check (option string))
        "duplicate open" (Some "session-exists")
        (code_of (d "{\"v\":1,\"op\":\"open\",\"session\":\"s\",\"circuit\":\"c17\"}"));
      Alcotest.(check (option string))
        "unknown circuit" (Some "bad-params")
        (code_of (d "{\"v\":1,\"op\":\"open\",\"session\":\"t\",\"circuit\":\"nope\"}"));
      let cp = d "{\"v\":1,\"op\":\"checkpoint\",\"session\":\"s\"}" in
      Alcotest.(check bool) "checkpoint ok" true (is_ok cp);
      let q0 = d "{\"v\":1,\"op\":\"query\",\"session\":\"s\"}" in
      let e =
        d "{\"v\":1,\"op\":\"edit\",\"session\":\"s\",\"edits\":[{\"op\":\"extra\",\"signal\":\"11\",\"delta\":5e-11}]}"
      in
      Alcotest.(check bool) "edit ok" true (is_ok e);
      let q1 = d "{\"v\":1,\"op\":\"query\",\"session\":\"s\"}" in
      Alcotest.(check bool) "edit moved the PO window" true (q0 <> q1);
      (* a failing batch rolls back atomically *)
      Alcotest.(check (option string))
        "bad edit in batch" (Some "bad-edit")
        (code_of
           (d "{\"v\":1,\"op\":\"edit\",\"session\":\"s\",\"edits\":[{\"op\":\"extra\",\"signal\":\"11\",\"delta\":1e-11},{\"op\":\"swap\",\"signal\":\"zzz\",\"kind\":\"nor\"}]}"));
      Alcotest.(check string) "rollback left timing unchanged" q1
        (d "{\"v\":1,\"op\":\"query\",\"session\":\"s\"}");
      let rv = d "{\"v\":1,\"op\":\"revert\",\"session\":\"s\",\"checkpoint\":1}" in
      Alcotest.(check bool) "revert ok" true (is_ok rv);
      Alcotest.(check string) "revert restored the pre-edit window" q0
        (d "{\"v\":1,\"op\":\"query\",\"session\":\"s\"}");
      Alcotest.(check (option string))
        "stale checkpoint after commit" (Some "bad-checkpoint")
        (code_of
           (let _ = d "{\"v\":1,\"op\":\"commit\",\"session\":\"s\"}" in
            d "{\"v\":1,\"op\":\"revert\",\"session\":\"s\",\"checkpoint\":1}"));
      let st = d "{\"v\":1,\"op\":\"stats\",\"session\":\"s\"}" in
      Alcotest.(check bool) "per-session stats ok" true (is_ok st);
      Alcotest.(check bool) "stats carry engine counters" true
        (let contains hay needle =
           let lh = String.length hay and ln = String.length needle in
           let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
           go 0
         in
         contains st "engine.edits");
      Alcotest.(check bool) "close ok" true
        (is_ok (d "{\"v\":1,\"op\":\"close\",\"session\":\"s\"}"));
      Alcotest.(check (option string))
        "query after close" (Some "unknown-session")
        (code_of (d "{\"v\":1,\"op\":\"query\",\"session\":\"s\"}")))

(* an unbounded PI window ([1e999] decodes as infinity) anywhere in a
   batch answers bad-edit and rolls the session back to exactly what a
   fresh session computes *)
(* `open` of a bad .bench file: a typed bad-params reply naming the
   file (and the line, for a malformed one), then the next request is
   answered; likewise for a directory, which opens but cannot be read *)
let test_open_bad_bench () =
  let message resp =
    match Json.parse resp with
    | Ok j -> (
      match Json.member "error" j with
      | Some e -> Json.member_string "message" e
      | None -> None)
    | Error _ -> None
  in
  with_server (fun sv ->
      let d = Server.dispatch sv in
      let check_open label path expect =
        let r =
          d
            (Printf.sprintf
               "{\"v\":1,\"id\":1,\"op\":\"open\",\"session\":\"b\",\"circuit\":%S}"
               path)
        in
        Alcotest.(check (option string)) (label ^ ": code")
          (Some "bad-params") (code_of r);
        Alcotest.(check (option string)) (label ^ ": message")
          (Some expect) (message r);
        Alcotest.(check bool) (label ^ ": next request answered") true
          (is_ok (d "{\"v\":1,\"id\":2,\"op\":\"ping\"}"))
      in
      let dir = Filename.temp_dir "serve_open" "" in
      Fun.protect
        ~finally:(fun () -> Sys.rmdir dir)
        (fun () -> check_open "directory" dir (dir ^ ": Is a directory"));
      List.iter
        (fun (label, text, expect) ->
          let path = Filename.temp_file "serve_open" ".bench" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Out_channel.with_open_bin path (fun oc -> output_string oc text);
              check_open label path (expect path)))
        [ ( "unknown gate", "INPUT(a)\nOUTPUT(z)\nz = FOO(a)\n",
            fun path -> path ^ ":3: unknown gate type \"FOO\"" );
          ( "cycle", "INPUT(a)\nOUTPUT(z)\nx = NAND(a, z)\nz = NOT(x)\n",
            fun path ->
              Printf.sprintf "%s: netlist %S contains a cycle" path
                (Filename.remove_extension (Filename.basename path)) );
          ( "undefined output", "INPUT(a)\nOUTPUT(q)\nz = NOT(a)\n",
            fun path -> path ^ ": output \"q\" is not a declared signal" ) ];
      Alcotest.(check bool) "no session left open" true
        (code_of (d "{\"v\":1,\"op\":\"query\",\"session\":\"b\"}")
        = Some "unknown-session"))

(* `open` with "gen": a size above the cap is refused with bad-params
   naming the field and the cap before any netlist is built, the next
   request is answered, and a small "gen" still opens *)
let test_open_gen_bounded () =
  let message resp =
    match Json.parse resp with
    | Ok j ->
      Option.bind (Json.member "error" j) (Json.member_string "message")
    | Error _ -> None
  in
  with_server (fun sv ->
      let d = Server.dispatch sv in
      let cap = 1_000_000 in
      List.iter
        (fun (label, gen, field) ->
          let r =
            d
              (Printf.sprintf
                 "{\"v\":1,\"id\":1,\"op\":\"open\",\"session\":\"g\",\"gen\":%s}"
                 gen)
          in
          Alcotest.(check (option string)) (label ^ ": code")
            (Some "bad-params") (code_of r);
          Alcotest.(check (option string)) (label ^ ": message")
            (Some (Printf.sprintf "\"gen\": %S must be <= %d" field cap))
            (message r);
          Alcotest.(check bool) (label ^ ": next request answered") true
            (is_ok (d "{\"v\":1,\"id\":2,\"op\":\"ping\"}")))
        [ ("2^40 gates", "{\"gates\":1099511627776}", "gates");
          ( "cap + 1 gates",
            Printf.sprintf "{\"gates\":%d}" (cap + 1),
            "gates" );
          ( "cap + 1 inputs",
            Printf.sprintf "{\"gates\":50,\"inputs\":%d}" (cap + 1),
            "inputs" ) ];
      Alcotest.(check bool) "no session left open" true
        (code_of (d "{\"v\":1,\"op\":\"query\",\"session\":\"g\"}")
        = Some "unknown-session");
      Alcotest.(check bool) "a small gen opens" true
        (is_ok
           (d
              "{\"v\":1,\"op\":\"open\",\"session\":\"g\",\"gen\":{\"gates\":50,\"inputs\":8,\"seed\":3}}")))

let test_nonfinite_pi_batch () =
  with_server (fun sv ->
      let d = Server.dispatch sv in
      List.iter
        (fun s ->
          Alcotest.(check bool) ("open " ^ s) true
            (is_ok
               (d
                  (Printf.sprintf
                     "{\"v\":1,\"op\":\"open\",\"session\":%S,\"circuit\":\"c17\"}"
                     s))))
        [ "s"; "fresh" ];
      let pi sg =
        Printf.sprintf
          "{\"op\":\"pi\",\"signal\":%S,\"arrival\":[-1e999,1e999],\"tt\":[1.5e-10,5e-10]}"
          sg
      in
      Alcotest.(check (option string))
        "unbounded PI windows" (Some "bad-edit")
        (code_of
           (d
              (Printf.sprintf
                 "{\"v\":1,\"op\":\"edit\",\"session\":\"s\",\"edits\":[{\"op\":\"extra\",\"signal\":\"11\",\"delta\":2e-11},%s]}"
                 (String.concat "," (List.map pi [ "1"; "2"; "3"; "6"; "7" ])))));
      let query s what =
        d
          (Printf.sprintf "{\"v\":1,\"op\":\"query\",\"session\":%S%s}" s
             what)
      in
      List.iter
        (fun what ->
          Alcotest.(check string) ("rolled back: query" ^ what)
            (query "fresh" what) (query "s" what))
        ([ ""; ",\"what\":\"po_delays\"" ]
        @ List.map
            (Printf.sprintf ",\"what\":\"timing\",\"signal\":%S")
            [ "1"; "2"; "3"; "6"; "7"; "10"; "11"; "16"; "19"; "22"; "23" ]))

(* ---- the sweep ops: corners and mc ---- *)

let test_sweep_ops () =
  with_server (fun sv ->
      let d = Server.dispatch sv in
      Alcotest.(check bool) "open ok" true
        (is_ok (d "{\"v\":1,\"op\":\"open\",\"session\":\"s\",\"circuit\":\"c17\"}"));
      let body resp =
        match Json.parse resp with
        | Ok j -> Option.get (Json.member "ok" j)
        | Error m -> Alcotest.fail m
      in
      (* four corners answer what a direct batched analysis computes *)
      let results =
        body (d "{\"v\":1,\"op\":\"corners\",\"session\":\"s\",\"corners\":4}")
        |> Json.member "results" |> Option.get |> Json.to_list
      in
      let direct =
        CS.analyze
          ~table:(Corners.build ~specs:(Corners.default_specs 4) (Lazy.force lib))
          (c17_prim ())
      in
      Alcotest.(check int) "four results" 4 (List.length results);
      List.iteri
        (fun c r ->
          Alcotest.(check bool)
            (Printf.sprintf "corner %d max bit-identical" c)
            true
            (Test_support.beq
               (Option.get (Json.member_number "max" r))
               (CS.max_delay direct ~corner:c)))
        results;
      let mc = "{\"v\":1,\"op\":\"mc\",\"session\":\"s\",\"samples\":8}" in
      let first = d mc in
      Alcotest.(check bool) "mc ok" true (is_ok first);
      Alcotest.(check string) "mc reply repeats" first (d mc);
      (* one past each bound is refused, and the session is untouched *)
      let q0 = d "{\"v\":1,\"op\":\"query\",\"session\":\"s\"}" in
      List.iter
        (fun (what, frame) ->
          Alcotest.(check (option string)) what (Some "bad-params")
            (code_of (d frame));
          Alcotest.(check string) ("query after " ^ what) q0
            (d "{\"v\":1,\"op\":\"query\",\"session\":\"s\"}"))
        [
          ("corners 65", "{\"v\":1,\"op\":\"corners\",\"session\":\"s\",\"corners\":65}");
          ("batch 65", "{\"v\":1,\"op\":\"mc\",\"session\":\"s\",\"batch\":65}");
          ( "samples 65537",
            "{\"v\":1,\"op\":\"mc\",\"session\":\"s\",\"samples\":65537}" );
        ])

(* ---- session manager unit behavior ---- *)

let test_session_manager () =
  let mgr = Session.create ~max_sessions:2 ~library:(Lazy.force lib) () in
  Fun.protect
    ~finally:(fun () -> Session.close_all mgr)
    (fun () ->
      let nl = c17_prim () in
      let ok = function Ok s -> s | Error e -> Alcotest.fail (Session.error_message e) in
      let a = ok (Session.open_session mgr ~name:"a" nl) in
      let _b = ok (Session.open_session mgr ~name:"b" nl) in
      (match Session.open_session mgr ~name:"a" nl with
      | Error (Session.Duplicate_session _) -> ()
      | _ -> Alcotest.fail "duplicate admitted");
      (match Session.open_session mgr ~name:"c" nl with
      | Error (Session.Too_many_sessions 2) -> ()
      | _ -> Alcotest.fail "cap not enforced");
      Alcotest.(check (list string)) "names" [ "a"; "b" ] (Session.names mgr);
      (* dense checkpoint ids; revert invalidates the ids above it *)
      Alcotest.(check int) "cp1" 1 (Session.checkpoint a);
      Session.with_session a (fun eng ->
          E.apply eng (E.Set_extra_delay { line = 0; delta = 1e-12 }));
      Alcotest.(check int) "cp2" 2 (Session.checkpoint a);
      Alcotest.(check bool) "revert to 1" true (Session.revert a 1 = Ok ());
      Alcotest.(check bool) "id 2 dropped" true
        (match Session.revert a 2 with Error _ -> true | Ok () -> false);
      Alcotest.(check bool) "unknown id" true
        (match Session.revert a 99 with Error _ -> true | Ok () -> false);
      Alcotest.(check bool) "close b" true
        (Session.close_session mgr "b" = Ok ());
      (match Session.find mgr "b" with
      | Error (Session.Unknown_session _) -> ()
      | _ -> Alcotest.fail "closed session still found");
      (* slot freed: a new session is admitted again *)
      let _c = ok (Session.open_session mgr ~name:"c" nl) in
      Alcotest.(check int) "count" 2 (Session.count mgr))

(* ---- cross-session batch determinism ---- *)

(* one batch interleaving two sessions: lifecycle barriers, grouped
   engine runs, checkpoints and a rollback.  The full response list must
   be byte-identical whatever the lane count. *)
let interleaved_script =
  [
    "{\"v\":1,\"id\":1,\"op\":\"open\",\"session\":\"a\",\"gen\":{\"gates\":30,\"seed\":5}}";
    "{\"v\":1,\"id\":2,\"op\":\"open\",\"session\":\"b\",\"circuit\":\"c17\"}";
    "{\"v\":1,\"id\":3,\"op\":\"checkpoint\",\"session\":\"a\"}";
    "{\"v\":1,\"id\":4,\"op\":\"query\",\"session\":\"b\",\"what\":\"po_delays\"}";
    "{\"v\":1,\"id\":5,\"op\":\"edit\",\"session\":\"a\",\"edits\":[{\"op\":\"extra\",\"signal\":\"g29\",\"delta\":2e-11}]}";
    "{\"v\":1,\"id\":6,\"op\":\"edit\",\"session\":\"b\",\"edits\":[{\"op\":\"swap\",\"signal\":\"10\",\"kind\":\"nor\"}]}";
    "{\"v\":1,\"id\":7,\"op\":\"query\",\"session\":\"a\"}";
    "{\"v\":1,\"id\":8,\"op\":\"query\",\"session\":\"b\"}";
    "{\"v\":1,\"id\":9,\"op\":\"revert\",\"session\":\"a\",\"checkpoint\":1}";
    "{\"v\":1,\"id\":10,\"op\":\"query\",\"session\":\"a\",\"what\":\"path\",\"k\":2}";
    "{\"v\":1,\"id\":11,\"op\":\"query\",\"session\":\"b\",\"what\":\"timing\",\"signal\":\"22\"}";
    "{\"v\":1,\"id\":12,\"op\":\"close\",\"session\":\"a\"}";
    "{\"v\":1,\"id\":13,\"op\":\"close\",\"session\":\"b\"}";
  ]

let run_script ~jobs frames =
  with_server ~jobs (fun sv -> Server.dispatch_batch sv frames)

let test_batch_determinism () =
  let seq = run_script ~jobs:1 interleaved_script in
  let par = run_script ~jobs:4 interleaved_script in
  Alcotest.(check (list string)) "jobs 1 = jobs 4" seq par;
  List.iter
    (fun r -> Alcotest.(check bool) ("ok: " ^ r) true (is_ok r))
    seq

(* ---- record/replay bit-identity over a random session script ---- *)

let random_frame rng =
  let sess = [ "x"; "y"; "z" ] in
  let s () = List.nth sess (Random.State.int rng 3) in
  let signal () =
    [ "1"; "2"; "3"; "6"; "7"; "10"; "11"; "16"; "19"; "22"; "23" ]
    |> fun l -> List.nth l (Random.State.int rng (List.length l))
  in
  match Random.State.int rng 10 with
  | 0 ->
    Printf.sprintf
      "{\"v\":1,\"op\":\"open\",\"session\":%S,\"circuit\":\"c17\"}" (s ())
  | 1 ->
    Printf.sprintf
      "{\"v\":1,\"op\":\"edit\",\"session\":%S,\"edits\":[{\"op\":\"extra\",\"signal\":%S,\"delta\":%de-12}]}"
      (s ()) (signal ())
      (1 + Random.State.int rng 100)
  | 2 ->
    Printf.sprintf
      "{\"v\":1,\"op\":\"edit\",\"session\":%S,\"edits\":[{\"op\":\"swap\",\"signal\":%S,\"kind\":\"nor\"}]}"
      (s ()) (signal ())
  | 3 -> Printf.sprintf "{\"v\":1,\"op\":\"checkpoint\",\"session\":%S}" (s ())
  | 4 ->
    Printf.sprintf
      "{\"v\":1,\"op\":\"revert\",\"session\":%S,\"checkpoint\":%d}" (s ())
      (1 + Random.State.int rng 3)
  | 5 -> Printf.sprintf "{\"v\":1,\"op\":\"query\",\"session\":%S}" (s ())
  | 6 ->
    Printf.sprintf
      "{\"v\":1,\"op\":\"query\",\"session\":%S,\"what\":\"timing\",\"signal\":%S}"
      (s ()) (signal ())
  | 7 -> Printf.sprintf "{\"v\":1,\"op\":\"close\",\"session\":%S}" (s ())
  | 8 -> "{\"v\":1,\"op\":\"stats\"}"
  | _ -> "{\"v\":1,\"op\":\"ping\"}"

let test_record_replay () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  let frames = List.init 60 (fun _ -> random_frame rng) in
  let log = Filename.temp_file "serve_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      with_server ~record:log (fun sv ->
          List.iter (fun f -> ignore (Server.dispatch sv f)) frames);
      with_server (fun sv ->
          match Server.replay sv ~path:log ~check:true with
          | Error m -> Alcotest.fail m
          | Ok (n, mismatches) ->
            Alcotest.(check int) "all requests replayed" 60 n;
            (match mismatches with
            | [] -> ()
            | (line, expected, got) :: _ ->
              Alcotest.failf "line %d diverged:\n  %s\n  %s" line expected
                got)))

(* ---- Engine edit codec round-trip (qcheck property) ---- *)

let edit_gen nl =
  let open QCheck.Gen in
  let n = Ck.Netlist.size nl in
  let node = int_bound (n - 1) in
  let iv =
    map2
      (fun lo w -> Interval.make (lo *. 1e-9) ((lo +. w) *. 1e-9))
      (float_range 0. 2.) (float_range 0. 3.)
  in
  oneof
    [
      map2
        (fun line d -> E.Set_extra_delay { line; delta = d *. 1e-12 })
        node (float_range (-50.) 300.);
      map2
        (fun nd k ->
          E.Swap_gate
            {
              node = nd;
              kind = List.nth [ Ck.Gate.Nand; Ck.Gate.Nor; Ck.Gate.Not ] k;
            })
        node (int_bound 2);
      map2
        (fun pi (a, t) ->
          E.Set_pi_spec { pi; spec = { RO.pi_arrival = a; pi_tt = t } })
        node (pair iv iv);
      map
        (fun i -> E.Set_model (List.nth DM.all i))
        (int_bound (List.length DM.all - 1));
    ]

let test_edit_codec_round_trip =
  let nl = lazy (c17_prim ()) in
  QCheck.Test.make ~name:"edit codec round-trips through JSON" ~count:300
    (QCheck.make
       (QCheck.Gen.sized (fun _ st -> (edit_gen (Lazy.force nl)) st)))
    (fun edit ->
      let nl = Lazy.force nl in
      match E.edit_of_json nl (E.edit_to_json nl edit) with
      | Ok back -> E.edit_equal edit back
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m)

let test_edit_codec_errors () =
  let nl = c17_prim () in
  let bad j =
    match E.edit_of_json nl j with Error _ -> true | Ok _ -> false
  in
  let parse s = match Json.parse s with Ok j -> j | Error m -> Alcotest.fail m in
  Alcotest.(check bool) "unknown op" true
    (bad (parse "{\"op\":\"warp\",\"signal\":\"10\"}"));
  Alcotest.(check bool) "unknown signal" true
    (bad (parse "{\"op\":\"extra\",\"signal\":\"zzz\",\"delta\":1e-12}"));
  Alcotest.(check bool) "unknown model" true
    (bad (parse "{\"op\":\"model\",\"name\":\"zzz\"}"));
  Alcotest.(check bool) "malformed interval" true
    (bad
       (parse
          "{\"op\":\"pi\",\"signal\":\"1\",\"arrival\":[1e-9],\"tt\":[0,1e-9]}"));
  Alcotest.(check bool) "not an object" true (bad (parse "[1]"))

(* ---- Run_opts builder and validation ---- *)

let test_run_opts_builder () =
  let o =
    RO.(default |> with_jobs 4 |> with_corners 3 |> with_mc_batch 8)
  in
  Alcotest.(check int) "jobs" 4 o.RO.jobs;
  Alcotest.(check int) "corners" 3 o.RO.corners;
  Alcotest.(check int) "mc_batch" 8 o.RO.mc_batch;
  (match RO.validate o with
  | Ok o' -> Alcotest.(check int) "validate passes it through" 4 o'.RO.jobs
  | Error m -> Alcotest.fail m);
  let bad o = match RO.validate o with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "corners < 1" true
    (bad RO.(default |> with_corners 0));
  Alcotest.(check bool) "mc_batch < 1" true
    (bad RO.(default |> with_mc_batch 0));
  Alcotest.(check bool) "negative tt window" true
    (bad
       RO.(
         default
         |> with_pi_spec
              {
                pi_arrival = Interval.point 0.;
                pi_tt = Interval.make (-1e-9) 1e-9;
              }));
  (match RO.make ~corners:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "make accepted corners = 0")

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "serve.protocol",
      [
        Alcotest.test_case "golden envelopes and codes" `Quick
          test_protocol_golden;
        Alcotest.test_case "oversized frame admission" `Quick
          test_oversized_frame;
        Alcotest.test_case "error-code wire spellings" `Quick
          test_code_round_trip;
        Alcotest.test_case "shutdown rejects later frames" `Quick
          test_shutdown_drains;
        Alcotest.test_case "stdio framing and the frame cap" `Quick
          test_transport_framing;
      ] );
    ( "serve.session",
      [
        Alcotest.test_case "lifecycle through dispatch" `Quick
          test_session_lifecycle;
        Alcotest.test_case "unbounded PI batch rolls back" `Quick
          test_nonfinite_pi_batch;
        Alcotest.test_case "open of a bad .bench file" `Quick
          test_open_bad_bench;
        Alcotest.test_case "open of an oversized gen" `Quick
          test_open_gen_bounded;
        Alcotest.test_case "manager admission and checkpoints" `Quick
          test_session_manager;
        Alcotest.test_case "corners and mc ops, bounded" `Quick
          test_sweep_ops;
      ] );
    ( "serve.determinism",
      [
        Alcotest.test_case "interleaved batch, jobs 1 = jobs 4" `Quick
          test_batch_determinism;
        Alcotest.test_case "record/replay bit-identity" `Quick
          test_record_replay;
      ] );
    qsuite "serve.codec" [ test_edit_codec_round_trip ];
    ( "serve.codec.errors",
      [
        Alcotest.test_case "edit decode failures" `Quick
          test_edit_codec_errors;
        Alcotest.test_case "run_opts builder and validate" `Quick
          test_run_opts_builder;
      ] );
  ]
