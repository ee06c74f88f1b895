module Json = Ssd_util.Json

let version = 1

type error_code =
  | Bad_frame
  | Bad_version
  | Bad_request
  | Unknown_op
  | Bad_params
  | Unknown_session
  | Session_exists
  | Too_many_sessions
  | Frame_too_large
  | Unknown_signal
  | Bad_edit
  | Bad_checkpoint
  | Engine_error
  | Shutting_down

let codes =
  [
    (Bad_frame, "bad-frame");
    (Bad_version, "bad-version");
    (Bad_request, "bad-request");
    (Unknown_op, "unknown-op");
    (Bad_params, "bad-params");
    (Unknown_session, "unknown-session");
    (Session_exists, "session-exists");
    (Too_many_sessions, "too-many-sessions");
    (Frame_too_large, "frame-too-large");
    (Unknown_signal, "unknown-signal");
    (Bad_edit, "bad-edit");
    (Bad_checkpoint, "bad-checkpoint");
    (Engine_error, "engine-error");
    (Shutting_down, "shutting-down");
  ]

let code_string c = List.assoc c codes
let code_of_string s =
  List.find_map (fun (c, n) -> if n = s then Some c else None) codes

type request = { rq_id : Json.t; rq_op : string; rq_body : Json.t }

let parse_request ~max_bytes frame =
  if String.length frame > max_bytes then
    Error
      ( Json.Null,
        Frame_too_large,
        Printf.sprintf "frame exceeds the %d-byte cap" max_bytes )
  else
    match Json.parse frame with
    | Error msg -> Error (Json.Null, Bad_frame, msg)
    | Ok (Json.Obj _ as body) -> (
      let id = Option.value ~default:Json.Null (Json.member "id" body) in
      match Json.member "v" body with
      | None -> Error (id, Bad_version, "request carries no \"v\" field")
      | Some v -> (
        match Json.int_value v with
        | Some n when n = version -> (
          match Json.member_string "op" body with
          | Some op when op <> "" ->
            Ok { rq_id = id; rq_op = op; rq_body = body }
          | Some _ -> Error (id, Bad_request, "\"op\" is empty")
          | None -> Error (id, Bad_request, "request carries no \"op\" string"))
        | _ ->
          Error
            ( id,
              Bad_version,
              Printf.sprintf "unsupported protocol version %s (serve speaks %d)"
                (Json.to_string v) version )))
    | Ok _ -> Error (Json.Null, Bad_request, "request is not a JSON object")

(* fixed field order: v, id, then ok/error — byte-stable for replay *)
let v_field = ("v", Json.Num (float_of_int version))

let ok_json ~id body = Json.Obj [ v_field; ("id", id); ("ok", body) ]

let error_json ~id code message =
  Json.Obj
    [
      v_field;
      ("id", id);
      ( "error",
        Json.Obj
          [ ("code", Json.Str (code_string code));
            ("message", Json.Str message) ] );
    ]

let render = Json.to_string

let response_ok j = Json.member "ok" j <> None

let response_error_code j =
  Option.bind (Json.member "error" j) (Json.member_string "code")
