module Obs = Ssd_obs.Obs
module Delay_model = Ssd_core.Delay_model

type session = {
  s_name : string;
  s_engine : Engine.t;
  s_mutex : Mutex.t;
  s_obs : Obs.t;
  (* dense wire-friendly checkpoint ids, newest first; replay of a
     recorded session reassigns identical ids *)
  mutable s_cps : (int * Engine.checkpoint) list;
  mutable s_next_cp : int;
}

type t = {
  m_library : Ssd_cell.Charlib.t;
  m_opts : Run_opts.t;
  m_max : int;
  m_jobs : int;
  m_mutex : Mutex.t;  (* guards the table; engine work is per-session *)
  mutable m_sessions : (string * session) list;  (* creation order *)
  mutable m_pool : Par.t option;  (* batch pool, created on demand *)
}

type error =
  | Too_many_sessions of int
  | Duplicate_session of string
  | Unknown_session of string

let error_message = function
  | Too_many_sessions n ->
    Printf.sprintf "session limit reached (%d open)" n
  | Duplicate_session n -> Printf.sprintf "session %S is already open" n
  | Unknown_session n -> Printf.sprintf "no session named %S" n

let create ?(max_sessions = 64) ?(jobs = 1) ?(opts = Run_opts.default)
    ~library () =
  if max_sessions < 1 then invalid_arg "Session.create: max_sessions < 1";
  {
    m_library = library;
    m_opts = opts;
    m_max = max_sessions;
    m_jobs = jobs;
    m_mutex = Mutex.create ();
    m_sessions = [];
    m_pool = None;
  }

let max_sessions t = t.m_max

let locked = Mutex.protect

let count t = locked t.m_mutex (fun () -> List.length t.m_sessions)
let names t = locked t.m_mutex (fun () -> List.map fst t.m_sessions)

let open_session t ~name ?(model = Delay_model.proposed) nl =
  (* build the engine outside the table lock (the forward pass can be
     milliseconds); the slot is re-checked under the lock on insert *)
  let admit () =
    locked t.m_mutex (fun () ->
        if List.mem_assoc name t.m_sessions then
          Error (Duplicate_session name)
        else if List.length t.m_sessions >= t.m_max then
          Error (Too_many_sessions t.m_max)
        else Ok ())
  in
  match admit () with
  | Error e -> Error e
  | Ok () -> (
    let obs = Obs.create () in
    let opts = Run_opts.with_obs obs t.m_opts in
    let engine = Engine.create ~opts ~library:t.m_library ~model nl in
    let s =
      {
        s_name = name;
        s_engine = engine;
        s_mutex = Mutex.create ();
        s_obs = obs;
        s_cps = [];
        s_next_cp = 1;
      }
    in
    match
      locked t.m_mutex (fun () ->
          if List.mem_assoc name t.m_sessions then
            Error (Duplicate_session name)
          else if List.length t.m_sessions >= t.m_max then
            Error (Too_many_sessions t.m_max)
          else begin
            t.m_sessions <- t.m_sessions @ [ (name, s) ];
            Ok s
          end)
    with
    | Ok s -> Ok s
    | Error e ->
      Engine.close engine;
      Error e)

let find t name =
  locked t.m_mutex (fun () ->
      match List.assoc_opt name t.m_sessions with
      | Some s -> Ok s
      | None -> Error (Unknown_session name))

let close_session t name =
  match
    locked t.m_mutex (fun () ->
        match List.assoc_opt name t.m_sessions with
        | Some s ->
          t.m_sessions <- List.filter (fun (n, _) -> n <> name) t.m_sessions;
          Ok s
        | None -> Error (Unknown_session name))
  with
  | Error e -> Error e
  | Ok s ->
    locked s.s_mutex (fun () -> Engine.close s.s_engine);
    Ok ()

let close_all t =
  let ss =
    locked t.m_mutex (fun () ->
        let ss = t.m_sessions in
        t.m_sessions <- [];
        ss)
  in
  List.iter
    (fun (_, s) -> locked s.s_mutex (fun () -> Engine.close s.s_engine))
    ss;
  match t.m_pool with
  | Some p ->
    Par.shutdown p;
    t.m_pool <- None
  | None -> ()

let session_name s = s.s_name
let obs s = s.s_obs
let with_session s f = locked s.s_mutex (fun () -> f s.s_engine)

let checkpoint s =
  locked s.s_mutex (fun () ->
      let id = s.s_next_cp in
      s.s_next_cp <- id + 1;
      s.s_cps <- (id, Engine.checkpoint s.s_engine) :: s.s_cps;
      id)

let revert s id =
  locked s.s_mutex (fun () ->
      match List.assoc_opt id s.s_cps with
      | None -> Error (Printf.sprintf "unknown checkpoint %d" id)
      | Some cp -> (
        match Engine.revert s.s_engine cp with
        | () ->
          (* marks taken after the restored one are now ahead of the
             engine's history; drop them so their ids fail cleanly *)
          s.s_cps <- List.filter (fun (i, _) -> i <= id) s.s_cps;
          Ok ()
        | exception Invalid_argument msg -> Error msg))

let commit s =
  locked s.s_mutex (fun () ->
      Engine.commit s.s_engine;
      s.s_cps <- [])

let depth s = locked s.s_mutex (fun () -> Engine.depth s.s_engine)

let pool_of t =
  match t.m_pool with
  | Some p -> p
  | None ->
    let p = Par.create ~jobs:t.m_jobs () in
    t.m_pool <- Some p;
    p

let run_batch t thunks =
  match Array.length thunks with
  | 0 -> ()
  | 1 -> thunks.(0) ()
  | n ->
    if t.m_jobs <= 1 then Array.iter (fun f -> f ()) thunks
    else
      Par.parallel_for (pool_of t) ~chunk:1 ~n (fun i -> thunks.(i) ())
