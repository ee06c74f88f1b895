(* serve-eco: the ECO user.  One client drives a spawned
   `ssd serve --stdio` in a closed loop -- one request in flight, no
   think time -- over a layered ~10k-gate netlist.  Unit: one request.

   A block is the fewest requests that carry the mix: two single-line
   `extra` edits on crosstalk victims (small cones) and one on a uniform
   line (large cones), one po_window and one timing query, and one
   revert to the live checkpoint, in seeded order, then a commit and a
   checkpoint.  These shares are an assumption, not recorded ECO
   traffic.  No path, corners or mc request: each would run a full
   re-analysis.  The target pools are fixed by the design.  The seed
   deals each pool in seeded order, every line once per cycle, and
   draws the deltas, the queried lines and the order within a block. *)

module C = Common
module Ck = Ssd_circuit
module Json = Ssd_util.Json
module Run_opts = Ssd_sta.Run_opts
module Engine = Ssd_sta.Engine
module Sta = Ssd_sta.Sta
module Server = Ssd_serve.Server
module P = Ssd_serve.Protocol
module Obs = Ssd_obs.Obs

let name = "serve-eco"
let session = "eco"

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type req =
  | Edit of { signal : string; line : int; delta : float }
  | Query_po
  | Query_timing of string
  | Revert
  | Commit
  | Checkpoint

(* a pool dealt in seeded order: every line once per cycle, reshuffled
   at the start of each cycle *)
type deck = { cards : int array; mutable next : int }

let deal rng d =
  if d.next = 0 then C.Rng.shuffle rng d.cards;
  let x = d.cards.(d.next) in
  d.next <- (d.next + 1) mod Array.length d.cards;
  x

type pools = {
  victims : deck;  (** crosstalk victim lines: small cones *)
  uniform : deck;  (** lines drawn uniformly, once: mostly large cones *)
  nl : Ck.Netlist.t;
}

let victim_pool = 64
let uniform_pool = 512

let pools nl =
  let victims =
    Ssd_atpg.Fault.extract ~count:victim_pool ~seed:99L nl
    |> List.map (fun s -> s.Ssd_atpg.Fault.victim)
    |> Array.of_list
  in
  if Array.length victims <> victim_pool then
    failwith "serve-eco: the design yields too few crosstalk victims";
  let lines = Array.init (Ck.Netlist.size nl) Fun.id in
  C.Rng.shuffle (C.Rng.create 99L) lines;
  { victims = { cards = victims; next = 0 };
    uniform = { cards = Array.sub lines 0 uniform_pool; next = 0 };
    nl }

let block rng p =
  let edit pool =
    let line = deal rng pool in
    Edit
      { signal = Ck.Netlist.signal_name p.nl line; line;
        delta = C.Rng.float_range rng 10e-12 150e-12 }
  in
  let v1 = edit p.victims in
  let v2 = edit p.victims in
  let u = edit p.uniform in
  let timing =
    Query_timing
      (Ck.Netlist.signal_name p.nl (C.Rng.int rng (Ck.Netlist.size p.nl)))
  in
  let items = [| v1; v2; u; Query_po; timing; Revert |] in
  C.Rng.shuffle rng items;
  Array.to_list items @ [ Commit; Checkpoint ]

let block_len = 8

let blocks ~seed nl n =
  let p = pools nl in
  let rng = C.Rng.create (Int64.of_int seed) in
  List.init n (fun _ -> block rng p)

let frame ~id ~cp = function
  | Edit { signal; delta; _ } ->
    Printf.sprintf
      {|{"v":1,"id":%d,"op":"edit","session":"%s","edits":[{"op":"extra","signal":"%s","delta":%.17g}]}|}
      id session signal delta
  | Query_po ->
    Printf.sprintf {|{"v":1,"id":%d,"op":"query","session":"%s","what":"po_window"}|}
      id session
  | Query_timing s ->
    Printf.sprintf
      {|{"v":1,"id":%d,"op":"query","session":"%s","what":"timing","signal":"%s"}|}
      id session s
  | Revert ->
    Printf.sprintf {|{"v":1,"id":%d,"op":"revert","session":"%s","checkpoint":%d}|}
      id session cp
  | Commit -> Printf.sprintf {|{"v":1,"id":%d,"op":"commit","session":"%s"}|} id session
  | Checkpoint ->
    Printf.sprintf {|{"v":1,"id":%d,"op":"checkpoint","session":"%s"}|} id session

let open_frame () =
  Printf.sprintf {|{"v":1,"id":0,"op":"open","session":"%s","circuit":"%s"}|}
    session (C.input_file C.eco_design)

let reply_ok reply =
  match Json.parse reply with Ok j -> P.response_ok j | Error _ -> false

let checkpoint_of reply =
  match Json.parse reply with
  | Ok j -> Option.bind (Json.member "ok" j) (Json.member_int "checkpoint")
  | Error _ -> None

(* One session's conversation: the next frame id and the live
   checkpoint, which every checkpoint reply moves. *)
type conv = { mutable id : int; mutable cp : int }

(* Open the session and take the first live checkpoint through [send];
   returns the open reply, the checkpoint exchange and the conversation. *)
let open_session send =
  let o = send (open_frame ()) in
  let f = frame ~id:1 ~cp:0 Checkpoint in
  let c = send f in
  (o, (f, c), { id = 2; cp = Option.value ~default:(-1) (checkpoint_of c) })

(* Send [reqs] in order through [send req frame]; [on_reply req frame
   reply] sees each exchange. *)
let drive conv ~send ?(on_reply = fun _ _ _ -> ()) reqs =
  List.iter
    (fun r ->
      let f = frame ~id:conv.id ~cp:conv.cp r in
      conv.id <- conv.id + 1;
      let reply = send r f in
      (if r = Checkpoint then
         Option.iter (fun c -> conv.cp <- c) (checkpoint_of reply));
      on_reply r f reply)
    reqs

(* ------------------------------------------------------------------ *)
(* The server child                                                    *)

type child = { pid : int; to_srv : out_channel; from_srv : in_channel }

(* the coarse library from the benchmark's own warm cache *)
let child_env () =
  let keep =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"SSD_" kv))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list
    ("SSD_FAST=1"
    :: ("SSD_CACHE_DIR=" ^ Filename.concat (Sys.getcwd ()) C.cache_dir)
    :: keep)

let spawn ~ssd =
  if C.cached_libraries () = [] then raise (C.Not_warm "the characterized library");
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env ssd [| ssd; "serve"; "--stdio" |] (child_env ())
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_srv = Unix.out_channel_of_descr in_w;
    from_srv = Unix.in_channel_of_descr out_r }

let round_trip c frame =
  output_string c.to_srv frame;
  output_char c.to_srv '\n';
  flush c.to_srv;
  input_line c.from_srv

(* EOF on its stdin ends the server's loop; wait until it has exited *)
let stop c =
  close_out c.to_srv;
  (try
     while true do
       ignore (input_line c.from_srv)
     done
   with End_of_file -> ());
  close_in c.from_srv;
  match Unix.waitpid [] c.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "ssd serve exited abnormally"

(* set-up: spawning the server until the open reply arrives *)
let setup_rep ~ssd () =
  let t0 = C.now () in
  let c = spawn ~ssd in
  let reply = round_trip c (open_frame ()) in
  let dt = C.now () -. t0 in
  stop c;
  if not (reply_ok reply) then failwith ("open failed: " ^ reply);
  dt

(* the netlist as the server sees it, for the request pools *)
let client_netlist () =
  Ck.Decompose.to_primitive (Ck.Bench_io.parse_file (C.input_file C.eco_design))

(* the in-process server, configured as `ssd serve` configures itself *)
let in_process ?(obs = Obs.create ()) lib =
  Server.create
    { (Server.default_config ~library:lib) with
      Server.sv_engine_opts = Run_opts.default; sv_jobs = 1; sv_obs = obs }

(* ------------------------------------------------------------------ *)

(* whole cycles of both pools: 8 of the uniform one, 128 of the victims' *)
let alloc_blocks = 16 * uniform_pool

let run ~seed ~seconds ~ssd =
  let p = pools (client_netlist ()) in
  let rng = C.Rng.create (Int64.of_int seed) in
  let tally = C.tally () in
  let c = spawn ~ssd in
  let open_reply, first_cp, conv = open_session (round_trip c) in
  let transcript = ref [ first_cp ] in
  let query_s = C.samples () and edit_s = C.samples () in
  let rss = ref nan in
  (* send one block; returns its summed round trips *)
  let send_block () =
    let total = ref 0. in
    drive conv (block rng p)
      ~send:(fun r f ->
        let t0 = C.now () in
        let reply = round_trip c f in
        let dt = C.now () -. t0 in
        (match r with
        | Edit _ -> C.push edit_s dt
        | Query_po | Query_timing _ -> C.push query_s dt
        | Revert | Commit | Checkpoint -> ());
        total := !total +. dt;
        reply)
      ~on_reply:(fun _ f reply -> transcript := (f, reply) :: !transcript);
    !total
  in
  (* untimed warm-up block; the timed blocks then start fresh cycles of
     both pools, so the allocation window edits whole cycles *)
  ignore (send_block ());
  p.victims.next <- 0;
  p.uniform.next <- 0;
  let warm_len = List.length !transcript in
  query_s.C.len <- 0;
  edit_s.C.len <- 0;
  let step i =
    let dt = send_block () in
    if i = alloc_blocks - 1 then rss := C.peak_rss_mb ~pid:c.pid ();
    dt
  in
  let loop =
    C.timed_loop ~seconds ~min_steps:alloc_blocks ~setups:5
      ~setup_rep:(setup_rep ~ssd) step
  in
  stop c;
  (* every reply ok, then the transcript re-dispatched in process must
     reproduce every reply byte for byte; the minor words of the first
     timed blocks' dispatches are the allocation per request *)
  let transcript = Array.of_list (List.rev !transcript) in
  let sv = in_process (Common.load_library ()) in
  C.check tally
    (reply_ok open_reply && String.equal (Server.dispatch sv (open_frame ())) open_reply)
    "open reply";
  let alloc = ref 0. in
  let alloc_end = warm_len + (alloc_blocks * block_len) in
  Array.iteri
    (fun k (f, reply) ->
      let w0 = C.words () in
      let again = Server.dispatch sv f in
      let w1 = C.words () in
      if k >= warm_len && k < alloc_end then alloc := !alloc +. (w1 -. w0);
      let ok = reply_ok reply && String.equal again reply in
      C.check tally ok
        (if ok then ""
         else Printf.sprintf "request %d: %s -> %s (in process: %s)" k f reply again))
    transcript;
  Server.close sv;
  C.emit ~tally
    (C.end_to_end ~loop
       ~units:(float_of_int (loop.C.l_steps * block_len))
       ~alloc_per_unit:(!alloc /. float_of_int (alloc_blocks * block_len))
       ~rss:!rss ~query:query_s ~edit:edit_s)

(* ------------------------------------------------------------------ *)
(* The traced run's serve-stack rows, on the ECO design                *)

let trace_blocks = 48

(* the unit under a sink, for the tracing overhead: the traced run's
   blocks, drawn once, dispatched in process by a server on that sink *)
let unit_under lib nl ~seed =
  let blocks = blocks ~seed nl trace_blocks in
  fun obs ->
    let sv = in_process ~obs lib in
    let _, _, conv = open_session (Server.dispatch sv) in
    List.iter (drive conv ~send:(fun _ f -> Server.dispatch sv f)) blocks;
    Server.close sv

let kind = function
  | Edit _ -> "edit"
  | Query_po | Query_timing _ -> "query"
  | Revert | Commit | Checkpoint -> "other"

(* Engine, Protocol, Server and the stdio transport, on the seed's
   blocks over the ECO design *)
let probe l tally lib ~seed ~ssd =
  let obs = Ledger.obs l in
  let nl = client_netlist () in
  let blocks = blocks ~seed nl trace_blocks in
  let model = Ssd_core.Delay_model.proposed in
  (* Engine: create, then the workload's edit stream applied directly *)
  let eng =
    Ledger.probe l "engine.create" (fun () ->
        Engine.create ~opts:(Run_opts.with_obs obs Run_opts.default) ~library:lib
          ~model nl)
  in
  let s0 = Engine.stats eng in
  let live = ref (Engine.checkpoint eng) in
  List.iter
    (List.iter (function
      | Edit { line; delta; _ } ->
        Ledger.probe l "engine.apply" (fun () ->
            Engine.apply eng (Engine.Set_extra_delay { line; delta }))
      | Revert -> Ledger.probe l "engine.revert" (fun () -> Engine.revert eng !live)
      | Commit -> Engine.commit eng
      | Checkpoint -> live := Engine.checkpoint eng
      | Query_po | Query_timing _ -> ()))
    blocks;
  let s1 = Engine.stats eng in
  C.check tally
    (C.same_interval (Engine.po_window eng) (Sta.po_window (Engine.reanalyze eng)))
    "engine windows differ from a fresh analysis";
  Engine.close eng;
  let create = Ledger.bench l "engine.create" in
  let apply = Ledger.bench l "engine.apply" in
  let revert = Ledger.bench l "engine.revert" in
  let edits = float_of_int apply.Ledger.calls in
  let recomputed = s1.Engine.nodes_recomputed - s0.Engine.nodes_recomputed in
  Ledger.set l "engine.create_ms" (create.Ledger.total_s *. 1e3);
  Ledger.set l "engine.apply_us" (apply.Ledger.total_s *. 1e6 /. edits);
  Ledger.set l "engine.apply_p90_us"
    (Ssd_util.Stats.quantile 0.9 apply.Ledger.durs *. 1e6);
  Ledger.set l "engine.revert_us" (Ledger.mean_us revert);
  Ledger.set l "engine.words_per_edit" (apply.Ledger.words /. edits);
  Ledger.set l "engine.nodes_per_edit" (float_of_int recomputed /. edits);
  Ledger.set l "engine.cutoff_ratio"
    (float_of_int (s1.Engine.cutoffs - s0.Engine.cutoffs) /. float_of_int recomputed);
  (* Protocol and Server: the same frames parsed, dispatched in process
     and their replies rendered *)
  let sv = in_process ~obs lib in
  let o, (_, c0), conv = open_session (Server.dispatch sv) in
  C.check tally (reply_ok o && reply_ok c0) "open";
  List.iter
    (drive conv
       ~send:(fun r f ->
         ignore
           (Ledger.probe l "protocol.parse" (fun () ->
                P.parse_request ~max_bytes:(1 lsl 20) f));
         Ledger.probe l ("server.dispatch." ^ kind r) (fun () -> Server.dispatch sv f))
       ~on_reply:(fun _ _ reply ->
         match Json.parse reply with
         | Ok j ->
           C.check tally (P.response_ok j) ("reply " ^ reply);
           ignore (Ledger.probe l "protocol.render" (fun () -> P.render j))
         | Error _ -> C.check tally false ("unparsable reply " ^ reply)))
    blocks;
  Server.close sv;
  (* transport: po_window round trips to a spawned server, against the
     same frame dispatched in process *)
  let po = frame ~id:0 ~cp:0 Query_po in
  let trips = 400 in
  let c = spawn ~ssd in
  let fresh = in_process lib in
  C.check tally
    (String.equal (round_trip c (open_frame ())) (Server.dispatch fresh (open_frame ())))
    "spawned and in-process open replies differ";
  let wire = C.samples () and local = C.samples () in
  for _ = 1 to trips do
    let t0 = C.now () in
    let a = round_trip c po in
    let t1 = C.now () in
    let b = Server.dispatch fresh po in
    let t2 = C.now () in
    C.push wire (t1 -. t0);
    C.push local (t2 -. t1);
    C.check tally (String.equal a b) "wire and in-process po_window replies differ"
  done;
  stop c;
  Server.close fresh;
  let parse = Ledger.bench l "protocol.parse" in
  let render = Ledger.bench l "protocol.render" in
  let dq = Ledger.bench l "server.dispatch.query" in
  let de = Ledger.bench l "server.dispatch.edit" in
  let dother = Ledger.bench l "server.dispatch.other" in
  let reqs = float_of_int parse.Ledger.calls in
  Ledger.set l "protocol.parse_us" (Ledger.mean_us parse);
  Ledger.set l "protocol.render_us" (Ledger.mean_us render);
  Ledger.set l "protocol.words_per_req"
    ((parse.Ledger.words +. render.Ledger.words) /. reqs);
  Ledger.set l "server.dispatch_query_us" (Ledger.mean_us dq);
  Ledger.set l "server.dispatch_edit_us" (Ledger.mean_us de);
  Ledger.set l "server.words_per_req"
    ((dq.Ledger.words +. de.Ledger.words +. dother.Ledger.words) /. reqs);
  Ledger.set l "transport.us_per_req"
    ((C.quantile 0.5 wire -. C.quantile 0.5 local) *. 1e6)
