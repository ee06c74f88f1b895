module Json = Ssd_util.Json
module Interval = Ssd_util.Interval
module Obs = Ssd_obs.Obs
module Delay_model = Ssd_core.Delay_model
module Netlist = Ssd_circuit.Netlist
module Benchmarks = Ssd_circuit.Benchmarks
module Bench_io = Ssd_circuit.Bench_io
module Generator = Ssd_circuit.Generator
module Decompose = Ssd_circuit.Decompose
module Corners = Ssd_cell.Corners
module Run_opts = Ssd_sta.Run_opts
module Engine = Ssd_sta.Engine
module Session = Ssd_sta.Session
module Sta = Ssd_sta.Sta
module Corner_sta = Ssd_sta.Corner_sta
module Path_report = Ssd_sta.Path_report
module P = Protocol

type config = {
  sv_library : Ssd_cell.Charlib.t;
  sv_engine_opts : Run_opts.t;
  sv_jobs : int;
  sv_max_sessions : int;
  sv_max_frame_bytes : int;
  sv_max_batch_requests : int;
  sv_max_batch_bytes : int;
  sv_record : string option;
  sv_obs : Obs.t;
}

let default_config ~library =
  {
    sv_library = library;
    sv_engine_opts = Run_opts.default;
    sv_jobs = 1;
    sv_max_sessions = 64;
    sv_max_frame_bytes = 1 lsl 20;
    sv_max_batch_requests = 256;
    sv_max_batch_bytes = 4 lsl 20;
    sv_record = None;
    sv_obs = Obs.disabled;
  }

type t = {
  cfg : config;
  st_sessions : Session.t;
  mutable st_shutdown : bool;
  mutable st_record : out_channel option;
  c_requests : Obs.counter;
  c_errors : Obs.counter;
  c_batches : Obs.counter;
  c_bytes_in : Obs.counter;
  c_bytes_out : Obs.counter;
  h_batch : Obs.histogram;
  tm_dispatch : Obs.timer;
}

let create cfg =
  let sessions =
    Session.create ~max_sessions:cfg.sv_max_sessions ~jobs:cfg.sv_jobs
      ~opts:cfg.sv_engine_opts ~library:cfg.sv_library ()
  in
  let o = cfg.sv_obs in
  {
    cfg;
    st_sessions = sessions;
    st_shutdown = false;
    st_record = Option.map open_out cfg.sv_record;
    c_requests = Obs.counter o "serve.requests";
    c_errors = Obs.counter o "serve.errors";
    c_batches = Obs.counter o "serve.batches";
    c_bytes_in = Obs.counter o "serve.bytes_in";
    c_bytes_out = Obs.counter o "serve.bytes_out";
    (* a batch holds at least one frame *)
    h_batch =
      Obs.histogram ~lo:0.
        ~hi:(float_of_int (max 1 cfg.sv_max_batch_requests))
        o "serve.batch_size";
    tm_dispatch = Obs.timer o "serve.dispatch";
  }

let close t =
  Session.close_all t.st_sessions;
  match t.st_record with
  | Some oc ->
    close_out oc;
    t.st_record <- None
  | None -> ()

let sessions t = t.st_sessions
let shutting_down t = t.st_shutdown

(* ------------------------------------------------------------------ *)
(* Response helpers                                                    *)

let error t ~id code msg =
  Obs.incr t.c_errors;
  P.error_json ~id code msg

let num f = Json.Num f
let int i = Json.Num (float_of_int i)
let iv_json iv = Json.List [ num (Interval.lo iv); num (Interval.hi iv) ]

let win_json (w : Ssd_core.Types.win) =
  Json.Obj [ ("arr", iv_json w.Ssd_core.Types.w_arr);
             ("tt", iv_json w.Ssd_core.Types.w_tt) ]

let member_int_default name default body =
  Option.value ~default (Json.member_int name body)

(* ------------------------------------------------------------------ *)
(* Per-session (engine) operations                                     *)

let engine_ops =
  [ "edit"; "checkpoint"; "revert"; "commit"; "query"; "corners"; "mc" ]

let is_engine_op op = List.mem op engine_ops

let op_edit t s (req : P.request) =
  let id = req.rq_id in
  match Json.member "edits" req.rq_body with
  | Some (Json.List (_ :: _ as items)) -> (
    let nl = Session.with_session s Engine.netlist in
    let rec decode k acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest -> (
        match Engine.edit_of_json nl j with
        | Ok e -> decode (k + 1) (e :: acc) rest
        | Error m -> Error (Printf.sprintf "edit %d: %s" k m))
    in
    match decode 0 [] items with
    | Error m -> error t ~id P.Bad_edit m
    | Ok edits ->
      Session.with_session s (fun eng ->
          (* transactional: an unregistered mark, so a failed batch rolls
             back without burning a wire-visible checkpoint id *)
          let cp = Engine.checkpoint eng in
          match List.iter (Engine.apply eng) edits with
          | () ->
            P.ok_json ~id
              (Json.Obj
                 [ ("applied", int (List.length edits));
                   ("depth", int (Engine.depth eng));
                   ("po", iv_json (Engine.po_window eng)) ])
          | exception e ->
            Engine.revert eng cp;
            let msg =
              match e with
              | Invalid_argument m -> m
              | e -> Printexc.to_string e
            in
            error t ~id P.Bad_edit ("batch rolled back: " ^ msg)))
  | Some _ -> error t ~id P.Bad_params "\"edits\" must be a non-empty array"
  | None -> error t ~id P.Bad_params "request carries no \"edits\" array"

let op_revert t s (req : P.request) =
  let id = req.rq_id in
  match Json.member_int "checkpoint" req.rq_body with
  | None -> error t ~id P.Bad_params "request carries no integer \"checkpoint\""
  | Some cp -> (
    match Session.revert s cp with
    | Error m -> error t ~id P.Bad_checkpoint m
    | Ok () ->
      P.ok_json ~id
        (Json.Obj
           [ ("depth", int (Session.depth s));
             ("po", iv_json (Session.with_session s Engine.po_window)) ]))

let op_query t s (req : P.request) =
  let id = req.rq_id in
  let body = req.rq_body in
  match Option.value ~default:"po_window" (Json.member_string "what" body) with
  | "po_window" ->
    Session.with_session s (fun eng ->
        let po = Engine.po_window eng in
        P.ok_json ~id
          (Json.Obj
             [ ("po", iv_json po);
               ("min", num (Interval.lo po));
               ("max", num (Interval.hi po)) ]))
  | "po_delays" ->
    Session.with_session s (fun eng ->
        let nl = Engine.netlist eng in
        let entry po =
          let lt = Engine.timing eng po in
          Json.Obj
            [ ("signal", Json.Str (Netlist.signal_name nl po));
              ("rise", win_json lt.Sta.rise);
              ("fall", win_json lt.Sta.fall) ]
        in
        P.ok_json ~id
          (Json.Obj
             [ ("pos", Json.List (List.map entry (Netlist.outputs nl))) ]))
  | "timing" -> (
    match Json.member_string "signal" body with
    | None -> error t ~id P.Bad_params "query \"timing\" needs a \"signal\""
    | Some sig_name ->
      Session.with_session s (fun eng ->
          let nl = Engine.netlist eng in
          match Netlist.find nl sig_name with
          | None ->
            error t ~id P.Unknown_signal
              (Printf.sprintf "no signal %S" sig_name)
          | Some node ->
            let lt = Engine.timing eng node in
            P.ok_json ~id
              (Json.Obj
                 [ ("signal", Json.Str sig_name);
                   ("rise", win_json lt.Sta.rise);
                   ("fall", win_json lt.Sta.fall) ])))
  | "path" -> (
    let k = member_int_default "k" 1 body in
    let dir = Option.value ~default:"max" (Json.member_string "dir" body) in
    if k < 1 then error t ~id P.Bad_params "\"k\" must be >= 1"
    else
      match dir with
      | "max" | "min" ->
        Session.with_session s (fun eng ->
            let sta = Engine.reanalyze eng in
            let nl = Engine.netlist eng in
            let paths =
              if dir = "max" then Path_report.critical_paths sta ~k
              else Path_report.min_paths sta ~k
            in
            let stage_json (st : Path_report.stage) =
              Json.Obj
                [ ("signal", Json.Str (Netlist.signal_name nl st.node));
                  ( "transition",
                    Json.Str
                      (match st.s_transition with
                      | Path_report.Rise -> "rise"
                      | Path_report.Fall -> "fall") );
                  ("at", num st.at);
                  ("simultaneous", Json.Bool st.simultaneous) ]
            in
            let path_json (p : Path_report.path) =
              Json.Obj
                [ ("endpoint", Json.Str (Netlist.signal_name nl p.endpoint));
                  ("delay", num p.p_delay);
                  ("stages", Json.List (List.map stage_json p.stages)) ]
            in
            P.ok_json ~id
              (Json.Obj [ ("paths", Json.List (List.map path_json paths)) ]))
      | d ->
        error t ~id P.Bad_params
          (Printf.sprintf "\"dir\" must be \"max\" or \"min\", not %S" d))
  | what -> error t ~id P.Bad_params (Printf.sprintf "unknown query %S" what)

(* Admission bounds of the sweep ops.  A K-corner sweep sizes a table
   of K derated libraries and a 64·K·nodes-byte window store, and a
   Monte-Carlo batch as many planes per lane, so one small frame must
   not pick K; the bounds sit far above every CLI and bench default. *)
let max_corners = 64
let max_mc_batch = 64
let max_mc_samples = 65_536

(* Likewise an `open` with "gen" builds a netlist of the sizes it names
   before anything else runs; the cap is the substrate's stated scale. *)
let max_gen_size = 1_000_000

let op_corners t s (req : P.request) =
  let id = req.rq_id in
  let k = member_int_default "corners" 4 req.rq_body in
  if k < 2 then error t ~id P.Bad_params "\"corners\" must be >= 2"
  else if k > max_corners then
    error t ~id P.Bad_params
      (Printf.sprintf "\"corners\" must be <= %d" max_corners)
  else
    Session.with_session s (fun eng ->
        let nl = Engine.edited_netlist eng in
        let specs = Corners.default_specs k in
        let table = Corners.build ~specs t.cfg.sv_library in
        let opts =
          Run_opts.(
            t.cfg.sv_engine_opts |> with_corners k
            |> with_obs (Session.obs s))
        in
        let ct = Corner_sta.analyze ~opts ~table nl in
        let entry c (spec : Corners.spec) =
          Json.Obj
            [ ("corner", Json.Str spec.Corners.c_name);
              ("po", iv_json (Corner_sta.po_window ct ~corner:c));
              ("max", num (Corner_sta.max_delay ct ~corner:c)) ]
        in
        P.ok_json ~id
          (Json.Obj
             [ ("corners", int k);
               ("results", Json.List (List.mapi entry specs)) ]))

let mc_quantiles = [ 0.; 0.05; 0.5; 0.95; 1.0 ]

let op_mc t s (req : P.request) =
  let id = req.rq_id in
  let body = req.rq_body in
  let samples = member_int_default "samples" 64 body in
  let seed = member_int_default "seed" 7 body in
  let batch =
    member_int_default "batch" t.cfg.sv_engine_opts.Run_opts.mc_batch body
  in
  if samples < 1 then error t ~id P.Bad_params "\"samples\" must be >= 1"
  else if samples > max_mc_samples then
    error t ~id P.Bad_params
      (Printf.sprintf "\"samples\" must be <= %d" max_mc_samples)
  else if batch < 1 then error t ~id P.Bad_params "\"batch\" must be >= 1"
  else if batch > max_mc_batch then
    error t ~id P.Bad_params
      (Printf.sprintf "\"batch\" must be <= %d" max_mc_batch)
  else
    Session.with_session s (fun eng ->
        let nl = Engine.edited_netlist eng in
        let opts =
          Run_opts.(
            t.cfg.sv_engine_opts |> with_mc_batch batch
            |> with_obs (Session.obs s))
        in
        let r =
          Corner_sta.monte_carlo ~opts ~samples ~seed:(Int64.of_int seed)
            ~library:t.cfg.sv_library nl
        in
        let qj l =
          Json.List (List.map (fun (q, v) -> Json.List [ num q; num v ]) l)
        in
        let poq = Corner_sta.mc_po_quantiles r mc_quantiles in
        let po_entry i qs =
          Json.Obj
            [ ( "signal",
                Json.Str
                  (Netlist.signal_name nl r.Corner_sta.mc_pos.(i)) );
              ("q", qj qs) ]
        in
        P.ok_json ~id
          (Json.Obj
             [ ("samples", int samples);
               ("seed", int seed);
               ("max", qj (Corner_sta.mc_max_quantiles r mc_quantiles));
               ( "pos",
                 Json.List (Array.to_list (Array.mapi po_entry poq)) ) ]))

let handle_engine t s (req : P.request) =
  let id = req.rq_id in
  try
    match req.rq_op with
    | "edit" -> op_edit t s req
    | "checkpoint" ->
      P.ok_json ~id
        (Json.Obj [ ("checkpoint", int (Session.checkpoint s)) ])
    | "revert" -> op_revert t s req
    | "commit" ->
      Session.commit s;
      P.ok_json ~id (Json.Obj [ ("depth", int (Session.depth s)) ])
    | "query" -> op_query t s req
    | "corners" -> op_corners t s req
    | "mc" -> op_mc t s req
    | op -> error t ~id P.Unknown_op (Printf.sprintf "unknown op %S" op)
  with
  | Sta.Unsupported_gate m -> error t ~id P.Engine_error ("unsupported gate: " ^ m)
  | Invalid_argument m -> error t ~id P.Bad_params m
  | e -> error t ~id P.Engine_error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Lifecycle (barrier) operations                                      *)

let load_circuit body =
  match (Json.member_string "circuit" body, Json.member "gen" body) with
  | Some _, Some _ ->
    Error (P.Bad_params, "give either \"circuit\" or \"gen\", not both")
  | None, None ->
    Error (P.Bad_params, "request carries neither \"circuit\" nor \"gen\"")
  | Some spec, None -> (
    match Benchmarks.by_name spec with
    | Some nl -> Ok nl
    | None ->
      if Sys.file_exists spec then (
        try Ok (Bench_io.parse_file spec) with
        | Bench_io.Parse_error { line; message } ->
          Error (P.Bad_params, Printf.sprintf "%s:%d: %s" spec line message)
        | Netlist.Invalid m -> Error (P.Bad_params, spec ^ ": " ^ m)
        | Failure m | Invalid_argument m | Sys_error m -> Error (P.Bad_params, m))
      else
        Error
          ( P.Bad_params,
            Printf.sprintf "unknown circuit %S (not a benchmark name or a file)"
              spec ))
  | None, Some g -> (
    let gi name default = member_int_default name default g in
    let too_big field =
      Error
        ( P.Bad_params,
          Printf.sprintf "\"gen\": %S must be <= %d" field max_gen_size )
    in
    match Json.member_int "gates" g with
    | None -> Error (P.Bad_params, "\"gen\" needs an integer \"gates\"")
    | Some gates when gates > max_gen_size -> too_big "gates"
    | Some _ when gi "inputs" 16 > max_gen_size -> too_big "inputs"
    | Some gates -> (
      let p =
        {
          Generator.default_params with
          g_name = Option.value ~default:"synth" (Json.member_string "name" g);
          n_inputs = gi "inputs" 16;
          n_outputs = gi "outputs" 8;
          n_gates = gates;
          seed = Int64.of_int (gi "seed" 1);
        }
      in
      try Ok (Generator.generate p)
      with Invalid_argument m -> Error (P.Bad_params, m)))

let op_open t (req : P.request) =
  let id = req.rq_id in
  let body = req.rq_body in
  match Json.member_string "session" body with
  | None -> error t ~id P.Bad_request "request carries no \"session\" string"
  | Some name -> (
    match load_circuit body with
    | Error (c, m) -> error t ~id c m
    | Ok nl -> (
      let model =
        match Json.member_string "model" body with
        | None -> Ok Delay_model.proposed
        | Some m -> (
          match Delay_model.find m with
          | Some dm -> Ok dm
          | None ->
            Error
              (Printf.sprintf "unknown delay model %S (know: %s)" m
                 (String.concat ", "
                    (List.map
                       (fun (dm : Delay_model.t) -> dm.Delay_model.name)
                       Delay_model.all))))
      in
      match model with
      | Error m -> error t ~id P.Bad_params m
      | Ok model -> (
        let nl = Decompose.to_primitive nl in
        match Session.open_session t.st_sessions ~name ~model nl with
        | Error (Session.Duplicate_session _ as e) ->
          error t ~id P.Session_exists (Session.error_message e)
        | Error (Session.Too_many_sessions _ as e) ->
          error t ~id P.Too_many_sessions (Session.error_message e)
        | Error (Session.Unknown_session _ as e) ->
          error t ~id P.Unknown_session (Session.error_message e)
        | Ok s ->
          Session.with_session s (fun eng ->
              let nl = Engine.netlist eng in
              P.ok_json ~id
                (Json.Obj
                   [ ("session", Json.Str name);
                     ("nodes", int (Netlist.size nl));
                     ("gates", int (Netlist.gate_count nl));
                     ("pis", int (Netlist.pi_count nl));
                     ("pos", int (List.length (Netlist.outputs nl)));
                     ("levels", int (Netlist.depth nl));
                     ("po", iv_json (Engine.po_window eng)) ])))))

let op_stats t (req : P.request) =
  let id = req.rq_id in
  match Json.member_string "session" req.rq_body with
  | Some name -> (
    match Session.find t.st_sessions name with
    | Error e -> error t ~id P.Unknown_session (Session.error_message e)
    | Ok s ->
      P.ok_json ~id
        (Json.Obj
           [ ("session", Json.Str name);
             ("stats", Obs.snapshot_to_json (Obs.snapshot (Session.obs s)))
           ]))
  | None ->
    let names = Session.names t.st_sessions in
    let per =
      List.filter_map
        (fun name ->
          match Session.find t.st_sessions name with
          | Ok s ->
            Some
              (Obs.prefix_snapshot ("session." ^ name)
                 (Obs.snapshot (Session.obs s)))
          | Error _ -> None)
        names
    in
    let merged = Obs.merge_snapshots (Obs.snapshot t.cfg.sv_obs :: per) in
    P.ok_json ~id
      (Json.Obj
         [ ("sessions", Json.List (List.map (fun n -> Json.Str n) names));
           ("stats", Obs.snapshot_to_json merged) ])

let handle_control t (req : P.request) =
  let id = req.rq_id in
  try
    match req.rq_op with
    | "open" -> op_open t req
    | "close" -> (
      match Json.member_string "session" req.rq_body with
      | None ->
        error t ~id P.Bad_request "request carries no \"session\" string"
      | Some name -> (
        match Session.close_session t.st_sessions name with
        | Ok () -> P.ok_json ~id (Json.Obj [ ("closed", Json.Str name) ])
        | Error e -> error t ~id P.Unknown_session (Session.error_message e)))
    | "stats" -> op_stats t req
    | "ping" -> P.ok_json ~id (Json.Obj [ ("pong", Json.Bool true) ])
    | "shutdown" ->
      t.st_shutdown <- true;
      P.ok_json ~id (Json.Obj [ ("stopping", Json.Bool true) ])
    | op -> error t ~id P.Unknown_op (Printf.sprintf "unknown op %S" op)
  with
  | Sta.Unsupported_gate m ->
    error t ~id P.Engine_error ("unsupported gate: " ^ m)
  | Invalid_argument m -> error t ~id P.Bad_params m
  | e -> error t ~id P.Engine_error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Batched dispatch                                                    *)

(* What a frame asks for, in arrival order: a reply known at once (a
   parse, envelope or shutdown error), an engine op on a named session,
   or a lifecycle op. *)
type step =
  | Reply of Json.t
  | Engine_op of string * P.request
  | Control of P.request

let step_of t frame =
  match P.parse_request ~max_bytes:t.cfg.sv_max_frame_bytes frame with
  | Error (id, c, m) -> Reply (error t ~id c m)
  | Ok req ->
    if t.st_shutdown then
      Reply (error t ~id:req.rq_id P.Shutting_down "server is shutting down")
    else if is_engine_op req.rq_op then
      match Json.member_string "session" req.rq_body with
      | None ->
        Reply
          (error t ~id:req.rq_id P.Bad_request
             "request carries no \"session\" string")
      | Some name -> Engine_op (name, req)
    else Control req

let engine_reply t name (req : P.request) =
  match Session.find t.st_sessions name with
  | Error e ->
    error t ~id:req.rq_id P.Unknown_session (Session.error_message e)
  | Ok s -> handle_engine t s req

(* one thunk per distinct session; items stay in arrival order *)
let run_engine_ops t (out : string array) items =
  let groups : (string, (int * P.request) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let order = ref [] in
  List.iter
    (fun (i, name, req) ->
      match Hashtbl.find_opt groups name with
      | Some l -> l := (i, req) :: !l
      | None ->
        Hashtbl.add groups name (ref [ (i, req) ]);
        order := name :: !order)
    items;
  let thunk name () =
    List.iter
      (fun (i, req) -> out.(i) <- P.render (engine_reply t name req))
      (List.rev !(Hashtbl.find groups name))
  in
  Session.run_batch t.st_sessions
    (Array.of_list (List.rev_map (fun n -> thunk n) !order))

let record_pair oc req resp =
  output_string oc
    (Json.to_string
       (Json.Obj [ ("req", Json.Str req); ("resp", Json.Str resp) ]));
  output_char oc '\n'

(* A frame that rides alone — every request of a closed-loop client —
   is answered on the caller's domain, as a one-group batch would be,
   without the grouping's table, arrays and thunks. *)
let dispatch t frame =
  Obs.incr t.c_batches;
  Obs.observe t.h_batch 1.;
  Obs.time t.tm_dispatch (fun () ->
      Obs.incr t.c_requests;
      Obs.add t.c_bytes_in (String.length frame);
      let resp =
        P.render
          (match step_of t frame with
          | Reply j -> j
          | Engine_op (name, req) -> engine_reply t name req
          | Control req -> handle_control t req)
      in
      Obs.add t.c_bytes_out (String.length resp + 1);
      (match t.st_record with
      | None -> ()
      | Some oc ->
        record_pair oc frame resp;
        flush oc);
      resp)

let dispatch_batch t frames =
  match frames with
  | [ frame ] -> [ dispatch t frame ]
  | _ ->
    Obs.incr t.c_batches;
    Obs.observe t.h_batch (float_of_int (List.length frames));
    Obs.time t.tm_dispatch (fun () ->
        let fr = Array.of_list frames in
        let n = Array.length fr in
        (* arrivals are counted before dispatch so a stats request inside
           the batch sees the batch it rode in on *)
        Obs.add t.c_requests n;
        List.iter (fun f -> Obs.add t.c_bytes_in (String.length f)) frames;
        let out = Array.make n "" in
        let pending = ref [] in
        let flush_pending () =
          match List.rev !pending with
          | [] -> ()
          | items ->
            pending := [];
            run_engine_ops t out items
        in
        Array.iteri
          (fun i frame ->
            match step_of t frame with
            | Reply j -> out.(i) <- P.render j
            | Engine_op (name, req) -> pending := (i, name, req) :: !pending
            | Control req ->
              (* lifecycle ops are barriers: everything queued so far
                 must land before the session table changes *)
              flush_pending ();
              out.(i) <- P.render (handle_control t req))
          fr;
        flush_pending ();
        let resps = Array.to_list out in
        List.iter (fun r -> Obs.add t.c_bytes_out (String.length r + 1)) resps;
        (match t.st_record with
        | None -> ()
        | Some oc ->
          List.iter2 (record_pair oc) frames resps;
          flush oc);
        resps)

(* ------------------------------------------------------------------ *)
(* Line framing over raw descriptors                                   *)

(* Unconsumed input sits at [r_pos, r_len) of one growable buffer; no
   newline lies in [r_pos, r_scan), so a long line is scanned once.  A
   line longer than the frame cap is not buffered past [r_keep] bytes:
   that prefix is set aside in [r_over] and the rest of the line is
   dropped as it arrives, through its newline; the prefix then goes to
   dispatch as the frame, which the cap check rejects. *)
type reader = {
  r_fd : Unix.file_descr;
  r_keep : int;
  mutable r_buf : Bytes.t;
  mutable r_pos : int;
  mutable r_len : int;
  mutable r_scan : int;
  mutable r_over : string option;
  mutable r_eof : bool;
}

let chunk = 65536

let reader ~max_frame_bytes fd =
  (* clamped so a negative cap keeps one byte (still over it) and
     [max_int] does not overflow *)
  let keep = min (max_int - 1) (max 0 max_frame_bytes) + 1 in
  { r_fd = fd; r_keep = keep; r_buf = Bytes.create (2 * chunk);
    r_pos = 0; r_len = 0; r_scan = 0; r_over = None; r_eof = false }

(* room for one more [chunk] after [r_len]: slide the unconsumed bytes
   to the front, and grow only when they alone leave too little room *)
let make_room r =
  if Bytes.length r.r_buf - r.r_len < chunk then begin
    let live = r.r_len - r.r_pos in
    let buf =
      if live + chunk <= Bytes.length r.r_buf then r.r_buf
      else Bytes.create (2 * (live + chunk))
    in
    Bytes.blit r.r_buf r.r_pos buf 0 live;
    r.r_buf <- buf;
    r.r_scan <- r.r_scan - r.r_pos;
    r.r_pos <- 0;
    r.r_len <- live
  end

let read_more r ~block =
  if r.r_eof then false
  else
    let ready =
      block
      ||
      match Unix.select [ r.r_fd ] [] [] 0.0 with
      | [ _ ], _, _ -> true
      | _ -> false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if not ready then false
    else begin
      make_room r;
      match Unix.read r.r_fd r.r_buf r.r_len chunk with
      | 0 ->
        r.r_eof <- true;
        false
      | n ->
        r.r_len <- r.r_len + n;
        true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> not block
    end

let rec find_newline b i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get b i = '\n' then i
  else find_newline b (i + 1) stop

(* Consume [r_pos, stop) as one line; [stop] itself (its newline) too. *)
let consume r stop =
  r.r_pos <- stop + 1;
  r.r_scan <- r.r_pos;
  if r.r_pos >= r.r_len then begin
    r.r_pos <- 0;
    r.r_len <- 0;
    r.r_scan <- 0
  end

let rec take_line r ~block =
  let nl = find_newline r.r_buf r.r_scan r.r_len in
  match r.r_over with
  | Some prefix when nl >= 0 ->
    consume r nl;
    r.r_over <- None;
    Some prefix
  | Some prefix ->
    (* drop what arrived of the oversized line *)
    r.r_pos <- 0;
    r.r_len <- 0;
    r.r_scan <- 0;
    if read_more r ~block || (block && not r.r_eof) then take_line r ~block
    else if r.r_eof then begin
      r.r_over <- None;
      Some prefix
    end
    else None
  | None when nl >= 0 ->
    let stop =
      if nl > r.r_pos && Bytes.get r.r_buf (nl - 1) = '\r' then nl - 1 else nl
    in
    let line = Bytes.sub_string r.r_buf r.r_pos (stop - r.r_pos) in
    consume r nl;
    Some line
  | None when r.r_len - r.r_pos > r.r_keep ->
    (* with a CR, a line of [r_keep] bytes can still fit the cap; one
       byte more cannot *)
    r.r_over <- Some (Bytes.sub_string r.r_buf r.r_pos r.r_keep);
    r.r_pos <- r.r_len;
    r.r_scan <- r.r_len;
    take_line r ~block
  | None ->
    r.r_scan <- r.r_len;
    if read_more r ~block || (block && not r.r_eof) then take_line r ~block
    else if r.r_eof && r.r_len > r.r_pos then begin
      let line = Bytes.sub_string r.r_buf r.r_pos (r.r_len - r.r_pos) in
      r.r_pos <- 0;
      r.r_len <- 0;
      r.r_scan <- 0;
      Some line
    end
    else None

let read_batch t r =
  match take_line r ~block:true with
  | None -> None
  | Some first ->
    let acc = ref [ first ] and bytes = ref (String.length first) in
    let count = ref 1 and more = ref true in
    while
      !more
      && !count < t.cfg.sv_max_batch_requests
      && !bytes < t.cfg.sv_max_batch_bytes
    do
      match take_line r ~block:false with
      | Some l ->
        acc := l :: !acc;
        bytes := !bytes + String.length l;
        incr count
      | None -> more := false
    done;
    Some (List.rev !acc)

(* Replies are copied into one reused byte buffer, a newline after
   each, and written with as few calls as the descriptor allows. *)
type writer = {
  w_fd : Unix.file_descr;
  mutable w_buf : Bytes.t;
  mutable w_len : int;
}

let add_reply w s =
  let len = String.length s in
  if w.w_len + len + 1 > Bytes.length w.w_buf then begin
    let buf = Bytes.create (2 * (w.w_len + len + 1)) in
    Bytes.blit w.w_buf 0 buf 0 w.w_len;
    w.w_buf <- buf
  end;
  Bytes.blit_string s 0 w.w_buf w.w_len len;
  Bytes.set w.w_buf (w.w_len + len) '\n';
  w.w_len <- w.w_len + len + 1

let write_out w =
  let rec go off =
    if off < w.w_len then
      match Unix.write w.w_fd w.w_buf off (w.w_len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0;
  w.w_len <- 0;
  if Bytes.length w.w_buf > 16 * chunk then w.w_buf <- Bytes.create chunk

let serve_fd t ~in_fd ~out_fd =
  let r = reader ~max_frame_bytes:t.cfg.sv_max_frame_bytes in_fd in
  let w = { w_fd = out_fd; w_buf = Bytes.create chunk; w_len = 0 } in
  let rec loop () =
    if not t.st_shutdown then
      match read_batch t r with
      | None -> ()
      | Some frames ->
        List.iter (add_reply w) (dispatch_batch t frames);
        write_out w;
        loop ()
  in
  loop ()

let serve_stdio t = serve_fd t ~in_fd:Unix.stdin ~out_fd:Unix.stdout

let serve_tcp ?(host = "127.0.0.1") t ~port =
  let addr = Unix.inet_addr_of_string host in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (addr, port));
  Unix.listen sock 16;
  let actual =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  Printf.printf "serve: listening on %s:%d\n%!" host actual;
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      let rec accept_loop () =
        if not t.st_shutdown then (
          match Unix.accept sock with
          | client, _ ->
            Fun.protect
              ~finally:(fun () ->
                try Unix.close client with Unix.Unix_error _ -> ())
              (fun () -> serve_fd t ~in_fd:client ~out_fd:client);
            accept_loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ())
      in
      accept_loop ())

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let response_status r =
  match Json.parse r with
  | Ok j -> Some (P.response_ok j, P.response_error_code j)
  | Error _ -> None

let replay t ~path ~check =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = ref 0 in
        let mismatches = ref [] in
        let lineno = ref 0 in
        let bad = ref None in
        (try
           while !bad = None do
             let line = input_line ic in
             incr lineno;
             if String.trim line <> "" then
               match Json.parse line with
               | Error m ->
                 bad := Some (Printf.sprintf "line %d: %s" !lineno m)
               | Ok j -> (
                 match
                   (Json.member_string "req" j, Json.member_string "resp" j)
                 with
                 | Some req, Some expected ->
                   incr n;
                   let got = dispatch t req in
                   if check && got <> expected then begin
                     (* stats responses carry wall-clock timers; only
                        their ok/error status has to reproduce *)
                     let is_stats =
                       match
                         P.parse_request
                           ~max_bytes:t.cfg.sv_max_frame_bytes req
                       with
                       | Ok r -> r.P.rq_op = "stats"
                       | Error _ -> false
                     in
                     let lenient =
                       is_stats
                       && response_status got <> None
                       && response_status got = response_status expected
                     in
                     if not lenient then
                       mismatches := (!lineno, expected, got) :: !mismatches
                   end
                 | _ ->
                   bad :=
                     Some
                       (Printf.sprintf
                          "line %d: not a {\"req\": ..., \"resp\": ...} record"
                          !lineno))
           done
         with End_of_file -> ());
        match !bad with
        | Some m -> Error m
        | None -> Ok (!n, List.rev !mismatches))
