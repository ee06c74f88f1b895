module Interval = Ssd_util.Interval
module Types = Ssd_core.Types
module Delay_model = Ssd_core.Delay_model
module Corner_batch = Ssd_core.Corner_batch
module Netlist = Ssd_circuit.Netlist
module Frontier = Ssd_circuit.Frontier
module Gate = Ssd_circuit.Gate
module Charlib = Ssd_cell.Charlib
module Obs = Ssd_obs.Obs
module Json = Ssd_util.Json

type edit =
  | Set_pi_spec of { pi : int; spec : Run_opts.pi_spec }
  | Swap_gate of { node : int; kind : Gate.kind }
  | Set_extra_delay of { line : int; delta : float }
  | Set_model of Delay_model.t

(* One frame's overlay patch: the previous value of the one overlay slot
   (or the model) its edit overwrites.  Overwritten windows are journaled
   apart, in the flat arrays of [t]. *)
type patch =
  | P_kind of int * Gate.kind option
  | P_extra of int * float
  | P_pi of int * Run_opts.pi_spec option
  | P_model of Delay_model.t

type stats = {
  edits : int;
  reverts : int;
  nodes_recomputed : int;
  cutoffs : int;
}

type checkpoint = int  (* the history depth it marks *)

type t = {
  e_netlist : Netlist.t;
  e_library : Charlib.t;
  e_opts : Run_opts.t;
  mutable e_model : Delay_model.t;
  e_timing : Windows.t;
  e_sweep : Plane_sweep.t;
      (* the flat kernel at K = 1 over [e_timing]: the evaluator while
         [e_model] has a kernel rule, as in [Sta.analyze_with]; a kind
         swap re-resolves the node's table slot *)
  e_pi_win : Types.win;  (* window of the session-default PI spec *)
  (* edit overlays over the immutable base netlist; [None] / [0.] means
     "as built" *)
  e_kind_ov : Gate.kind option array;
  e_extra : float array;
  e_pi_ov : Run_opts.pi_spec option array;
  (* the line whose windows the running propagation translates (see
     [visit]), [-1] when none *)
  mutable e_root : int;
  e_visit : Frontier.t -> int -> unit;
      (* [visit] on this session, made once so an edit makes no closure *)
  (* the undo journal since the last commit, oldest frame first.  Window
     entry [k] holds node [j_node.(k)]'s overwritten 8 floats at
     [j_win.(8k ..)]; frame [f] owns entries [f_start.(f)] up to the next
     frame's start (the last frame: up to [j_len]) and the overlay patch
     [f_patch.(f)].  The arrays keep their capacity across commits. *)
  mutable j_node : int array;
  mutable j_win : float array;
  mutable j_len : int;
  mutable f_start : int array;
  mutable f_patch : patch array;
  mutable e_depth : int;
  mutable e_base_depth : int;  (* journal reaches back to this depth *)
  mutable e_closed : bool;
  mutable s_edits : int;
  mutable s_reverts : int;
  mutable s_recomputed : int;
  mutable s_cutoffs : int;
  c_edits : Obs.counter;
  c_reverts : Obs.counter;
  c_recomputed : Obs.counter;
  c_cutoffs : Obs.counter;
  tm_edit : Obs.timer;
  h_recomputed : Obs.histogram;  (* nodes recomputed per edit *)
  h_edit_us : Obs.histogram;     (* per-edit latency, in us *)
}

let check_open t ctx =
  if t.e_closed then invalid_arg (ctx ^ ": engine is closed")

(* A gate's kind as currently edited. *)
let kind_of t i =
  match t.e_kind_ov.(i) with
  | Some kind -> kind
  | None -> Netlist.gate_kind t.e_netlist i

(* The node as currently edited: a swapped gate keeps its fan-in. *)
let node_view t i =
  let nl = t.e_netlist in
  if Netlist.is_pi nl i then Netlist.Pi
  else
    Netlist.Gate
      {
        kind = kind_of t i;
        fanin = Array.init (Netlist.fanin_count nl i) (Netlist.fanin_nth nl i);
      }

let pi_spec_of t i =
  match t.e_pi_ov.(i) with
  | Some s -> s
  | None -> t.e_opts.Run_opts.pi_spec

let extra_delay_of t i = t.e_extra.(i)

(* materialize one node's committed windows from the packed store *)
let get t j =
  { Sta.rise = Windows.rise t.e_timing j; fall = Windows.fall t.e_timing j }

(* Node [i]'s windows as {!Sta.analyze_with} computes them, into
   [sc.out] at 0 (8 floats): the flat kernel through the node's table
   slot under the model's kernel rule, otherwise {!Sta.gate_windows}
   timing the node's current kind, as {!Sta.eval_node} does — same
   cell, same load, same fan-in list, so either way the windows come
   back bit-identical to a fresh analysis's. *)
let eval_into t (sc : Plane_sweep.scratch) i =
  let out = sc.Plane_sweep.out in
  let nl = t.e_netlist in
  if Netlist.is_pi nl i then begin
    let pi_win =
      match t.e_pi_ov.(i) with
      | Some s -> Sta.pi_window s
      | None -> t.e_pi_win
    in
    Plane_sweep.put_win out ~off:0 pi_win;
    Plane_sweep.put_win out ~off:4 pi_win
  end
  else begin
    match Corner_batch.rule_of t.e_model with
    | Some rule -> Plane_sweep.eval_gate t.e_sweep sc ~rule i 0 1
    | None ->
      let lt =
        Sta.gate_windows ~windowing:(Sta.windowing_of t.e_model)
          ~library:t.e_library nl (get t) ~kind:(kind_of t i) i
      in
      Plane_sweep.put_win out ~off:0 lt.Sta.rise;
      Plane_sweep.put_win out ~off:4 lt.Sta.fall
  end;
  (* tested here so the common [0.] is never boxed for the call *)
  let extra = t.e_extra.(i) in
  if extra <> 0. then Plane_sweep.shift_arrivals out ~off:0 extra

(* ---- the journal ---- *)

(* a placeholder for released frame slots *)
let no_patch = P_model Delay_model.proposed

let frames t = t.e_depth - t.e_base_depth

(* Save node [i]'s stored windows before they are overwritten. *)
let journal_window t i =
  let k = t.j_len in
  if k = Array.length t.j_node then begin
    let node = Array.make (2 * k) 0 and win = Array.make (16 * k) 0. in
    Array.blit t.j_node 0 node 0 k;
    Array.blit t.j_win 0 win 0 (8 * k);
    t.j_node <- node;
    t.j_win <- win
  end;
  t.j_node.(k) <- i;
  Plane_sweep.load t.e_sweep ~plane:0 i t.j_win ~off:(8 * k);
  t.j_len <- k + 1

let push_frame t patch =
  let f = frames t in
  if f = Array.length t.f_start then begin
    let start = Array.make (2 * f) 0 and pat = Array.make (2 * f) no_patch in
    Array.blit t.f_start 0 start 0 f;
    Array.blit t.f_patch 0 pat 0 f;
    t.f_start <- start;
    t.f_patch <- pat
  end;
  t.f_start.(f) <- t.j_len;
  t.f_patch.(f) <- patch;
  t.e_depth <- t.e_depth + 1

(* Undo the newest frame: its windows by 8-float copies back into the
   store, then its overlay slot.  A frame journals each node at most
   once, so the copy order does not matter. *)
let pop_frame t =
  let f = frames t - 1 in
  let start = t.f_start.(f) in
  for k = t.j_len - 1 downto start do
    Plane_sweep.store t.e_sweep ~plane:0 t.j_node.(k) t.j_win ~off:(8 * k)
  done;
  t.j_len <- start;
  (match t.f_patch.(f) with
  | P_kind (i, k) ->
    t.e_kind_ov.(i) <- k;
    Plane_sweep.retype t.e_sweep i (kind_of t i)
  | P_extra (i, x) -> t.e_extra.(i) <- x
  | P_pi (i, s) -> t.e_pi_ov.(i) <- s
  | P_model m -> t.e_model <- m);
  t.f_patch.(f) <- no_patch;
  t.e_depth <- t.e_depth - 1

(* Re-time node [i] off the frontier [fr] (Frontier drains it after
   every fan-in it reads).  A recomputed node whose windows come back
   bit-identical is a cutoff; any other pushes its fanouts, so an edit
   visits exactly the nodes it recomputes.  The root [e_root]'s new
   windows are its stored ones shifted by its extra delay: a line that
   carried no extra delay stores exactly the kernel output, so this is
   the expression the kernel would compute, without paying its corner
   searches. *)
let visit t fr i =
  let sc = Plane_sweep.scratch t.e_sweep in
  let out = sc.Plane_sweep.out in
  if i = t.e_root then begin
    Plane_sweep.load t.e_sweep ~plane:0 i out ~off:0;
    Plane_sweep.shift_arrivals out ~off:0 t.e_extra.(i)
  end
  else eval_into t sc i;
  t.s_recomputed <- t.s_recomputed + 1;
  if Plane_sweep.stored_equal t.e_sweep ~plane:0 i out ~off:0 then
    t.s_cutoffs <- t.s_cutoffs + 1
  else begin
    journal_window t i;
    Plane_sweep.store t.e_sweep ~plane:0 i out ~off:0;
    let nl = t.e_netlist in
    for p = 0 to Netlist.fanout_count nl i - 1 do
      Frontier.push fr (Netlist.fanout_nth nl i p)
    done
  end

(* Drain the seeded frontier, translating [root]'s windows ([-1]: none).
   When an evaluation raises, the frontier is left empty and the work
   counts as they were. *)
let propagate t fr ~root =
  let r0 = t.s_recomputed and c0 = t.s_cutoffs in
  t.e_root <- root;
  (match Frontier.drain fr t.e_visit with
  | () -> ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.s_recomputed <- r0;
    t.s_cutoffs <- c0;
    Printexc.raise_with_backtrace e bt);
  let recomputed = t.s_recomputed - r0 in
  Obs.add t.c_recomputed recomputed;
  Obs.add t.c_cutoffs (t.s_cutoffs - c0);
  Obs.observe t.h_recomputed (float_of_int recomputed)

(* An edit of one line: the frontier starts at the line itself. *)
let propagate_from t root ~translate =
  let fr = Frontier.get t.e_netlist in
  Frontier.push fr root;
  propagate t fr ~root:(if translate then root else -1)

(* A model retarget: every node is on the frontier. *)
let propagate_all t =
  let fr = Frontier.get t.e_netlist in
  for i = 0 to Netlist.size t.e_netlist - 1 do
    Frontier.push fr i
  done;
  propagate t fr ~root:(-1)

let create ?(opts = Run_opts.default) ~library ~model nl =
  ignore (Sta.windowing_of model : Delay_model.windowing);
  (match Run_opts.validate_pi_spec opts.Run_opts.pi_spec with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Engine.create: " ^ m));
  let obs = opts.Run_opts.obs in
  let n = Netlist.size nl in
  let pi_win = Sta.pi_window opts.Run_opts.pi_spec in
  let timing = Windows.create n in
  let rec t =
    {
      e_netlist = nl;
      e_library = library;
      e_opts = opts;
      e_model = model;
      e_timing = timing;
      (* every library packs into a table, so a session can switch to
         the proposed model at any time; resolving every gate's slot
         also rejects an uncharacterized gate up front *)
      e_sweep = Plane_sweep.nominal library timing nl;
      e_pi_win = pi_win;
      e_kind_ov = Array.make n None;
      e_extra = Array.make n 0.;
      e_pi_ov = Array.make n None;
      e_root = -1;
      e_visit = (fun fr i -> visit t fr i);
      j_node = Array.make 64 0;
      j_win = Array.make (8 * 64) 0.;
      j_len = 0;
      f_start = Array.make 16 0;
      f_patch = Array.make 16 no_patch;
      e_depth = 0;
      e_base_depth = 0;
      e_closed = false;
      s_edits = 0;
      s_reverts = 0;
      s_recomputed = 0;
      s_cutoffs = 0;
      c_edits = Obs.counter obs "engine.edits";
      c_reverts = Obs.counter obs "engine.reverts";
      c_recomputed = Obs.counter obs "engine.nodes_recomputed";
      c_cutoffs = Obs.counter obs "engine.cutoffs";
      tm_edit = Obs.timer obs "engine.edit";
      (* fixed edges so several sessions' snapshots merge bin-wise; an
         edit recomputes at most the netlist, latencies clip into the top
         bin beyond 10 ms *)
      h_recomputed =
        Obs.histogram ~bins:20 ~lo:0.
          ~hi:(float_of_int (max 16 n))
          obs "engine.nodes_recomputed_per_edit";
      h_edit_us =
        Obs.histogram ~bins:20 ~lo:0. ~hi:10_000. obs "engine.edit_us";
    }
  in
  (* initial full forward pass: a plain sequential topological walk (the
     session's baseline, not counted as edit work) *)
  let sc = Plane_sweep.scratch t.e_sweep in
  Array.iter
    (fun i ->
      eval_into t sc i;
      Plane_sweep.store t.e_sweep ~plane:0 i sc.Plane_sweep.out ~off:0)
    (Netlist.topo_order nl);
  t

let close t = t.e_closed <- true

let with_engine ?opts ~library ~model nl f =
  let t = create ?opts ~library ~model nl in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let edit_event = function
  | Set_pi_spec _ -> "engine.edit.set_pi_spec"
  | Swap_gate _ -> "engine.edit.swap_gate"
  | Set_extra_delay _ -> "engine.edit.set_extra_delay"
  | Set_model _ -> "engine.edit.set_model"

(* ---- serializable edit codec ----

   One wire format shared by the eco script interpreter and the serve
   protocol: signals travel by name (ids are a per-netlist artifact),
   times in seconds, models by registry name.  [edit_of_json] only
   resolves shape and names; semantic validation (PI vs gate, primitive
   kind, finite delta) stays in {!apply}, so the two paths cannot
   drift. *)

let iv_json iv = Json.List [ Json.Num (Interval.lo iv); Json.Num (Interval.hi iv) ]

let edit_to_json nl = function
  | Set_pi_spec { pi; spec } ->
    Json.Obj
      [
        ("op", Json.Str "pi");
        ("signal", Json.Str (Netlist.signal_name nl pi));
        ("arrival", iv_json spec.Run_opts.pi_arrival);
        ("tt", iv_json spec.Run_opts.pi_tt);
      ]
  | Swap_gate { node; kind } ->
    Json.Obj
      [
        ("op", Json.Str "swap");
        ("signal", Json.Str (Netlist.signal_name nl node));
        ("kind", Json.Str (String.lowercase_ascii (Gate.to_string kind)));
      ]
  | Set_extra_delay { line; delta } ->
    Json.Obj
      [
        ("op", Json.Str "extra");
        ("signal", Json.Str (Netlist.signal_name nl line));
        ("delta", Json.Num delta);
      ]
  | Set_model m ->
    Json.Obj [ ("op", Json.Str "model"); ("name", Json.Str m.Delay_model.name) ]

let model_names () =
  String.concat ", " (List.map (fun m -> m.Delay_model.name) Delay_model.all)

let edit_of_json nl j =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let signal () =
    match Json.member_string "signal" j with
    | None -> err "missing \"signal\""
    | Some s -> (
      match Netlist.find nl s with
      | Some i -> Ok i
      | None -> err "unknown signal %S" s)
  in
  let interval key =
    match Json.member key j with
    | Some (Json.List [ a; b ]) -> (
      match (Json.number_value a, Json.number_value b) with
      | Some lo, Some hi -> (
        try Ok (Interval.make lo hi)
        with Invalid_argument m -> Error m)
      | _ -> err "%S must be a [lo, hi] number pair" key)
    | _ -> err "missing or malformed %S (want [lo, hi])" key
  in
  match Json.member_string "op" j with
  | Some "pi" ->
    let* pi = signal () in
    let* pi_arrival = interval "arrival" in
    let* pi_tt = interval "tt" in
    Ok (Set_pi_spec { pi; spec = { Run_opts.pi_arrival; pi_tt } })
  | Some "swap" -> (
    let* node = signal () in
    match Json.member_string "kind" j with
    | None -> err "missing \"kind\""
    | Some k -> (
      match Gate.of_string k with
      | Some kind -> Ok (Swap_gate { node; kind })
      | None -> err "unknown gate kind %S" k))
  | Some "extra" -> (
    let* line = signal () in
    match Json.member_number "delta" j with
    | Some delta -> Ok (Set_extra_delay { line; delta })
    | None -> err "missing or non-numeric \"delta\"")
  | Some "model" -> (
    match Json.member_string "name" j with
    | None -> err "missing \"name\""
    | Some name -> (
      match Delay_model.find name with
      | Some m -> Ok (Set_model m)
      | None -> err "unknown model %S (try: %s)" name (model_names ())))
  | Some op -> err "unknown edit op %S" op
  | None -> err "edit has no \"op\" field"

let edit_equal a b =
  let beq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let iv_eq x y =
    beq (Interval.lo x) (Interval.lo y) && beq (Interval.hi x) (Interval.hi y)
  in
  match (a, b) with
  | Set_pi_spec x, Set_pi_spec y ->
    x.pi = y.pi
    && iv_eq x.spec.Run_opts.pi_arrival y.spec.Run_opts.pi_arrival
    && iv_eq x.spec.Run_opts.pi_tt y.spec.Run_opts.pi_tt
  | Swap_gate x, Swap_gate y -> x.node = y.node && x.kind = y.kind
  | Set_extra_delay x, Set_extra_delay y -> x.line = y.line && beq x.delta y.delta
  | Set_model x, Set_model y ->
    String.equal x.Delay_model.name y.Delay_model.name
  | (Set_pi_spec _ | Swap_gate _ | Set_extra_delay _ | Set_model _), _ -> false

let describe_edit nl = function
  | Set_extra_delay { line; delta } ->
    Printf.sprintf "extra %s %+g ps" (Netlist.signal_name nl line)
      (delta *. 1e12)
  | Swap_gate { node; kind } ->
    Printf.sprintf "swap %s %s" (Netlist.signal_name nl node)
      (Gate.to_string kind)
  | Set_pi_spec { pi; spec } ->
    Printf.sprintf "pi %s [%g, %g] tt [%g, %g] ns"
      (Netlist.signal_name nl pi)
      (Interval.lo spec.Run_opts.pi_arrival *. 1e9)
      (Interval.hi spec.Run_opts.pi_arrival *. 1e9)
      (Interval.lo spec.Run_opts.pi_tt *. 1e9)
      (Interval.hi spec.Run_opts.pi_tt *. 1e9)
  | Set_model m -> "model " ^ m.Delay_model.name

(* ---- eco script directives ----

   The text format `ssd eco` replays, one directive per line, in the
   units engineers write (ps for coupling deltas, ns for PI windows);
   the JSON codec above carries seconds.  Both produce the same [edit]
   values, so `ssd eco` and the serve protocol drive {!apply}
   identically. *)

type script_op =
  | S_edit of edit
  | S_checkpoint
  | S_revert
  | S_commit

let script_op_of_line nl raw =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let line =
    match String.index_opt raw '#' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  let toks =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  in
  let resolve name =
    match Netlist.find nl name with
    | Some i -> Ok i
    | None -> err "unknown signal %S" name
  in
  let num s =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> err "not a number: %S" s
  in
  match toks with
  | [] -> Ok None
  | [ "extra"; sg; ps ] ->
    let* line = resolve sg in
    let* d = num ps in
    Ok (Some (S_edit (Set_extra_delay { line; delta = d *. 1e-12 })))
  | [ "swap"; sg; kind ] ->
    let* node = resolve sg in
    let* kind =
      match String.lowercase_ascii kind with
      | "nand" -> Ok Gate.Nand
      | "nor" -> Ok Gate.Nor
      | "not" -> Ok Gate.Not
      | k -> err "unknown gate kind %S (nand, nor or not)" k
    in
    Ok (Some (S_edit (Swap_gate { node; kind })))
  | [ "pi"; sg; alo; ahi; tlo; thi ] ->
    let* pi = resolve sg in
    let* alo = num alo in
    let* ahi = num ahi in
    let* tlo = num tlo in
    let* thi = num thi in
    let iv lo hi =
      try Ok (Interval.make (lo *. 1e-9) (hi *. 1e-9))
      with Invalid_argument m -> Error m
    in
    let* pi_arrival = iv alo ahi in
    let* pi_tt = iv tlo thi in
    Ok (Some (S_edit (Set_pi_spec { pi; spec = { Run_opts.pi_arrival; pi_tt } })))
  | [ "model"; name ] -> (
    match Delay_model.find name with
    | Some m -> Ok (Some (S_edit (Set_model m)))
    | None -> err "unknown model %S (try: %s)" name (model_names ()))
  | [ "checkpoint" ] -> Ok (Some S_checkpoint)
  | [ "revert" ] -> Ok (Some S_revert)
  | [ "commit" ] -> Ok (Some S_commit)
  | cmd :: _ -> err "unknown or malformed directive %S" cmd

let bad fmt = Printf.ksprintf invalid_arg ("Engine.apply: " ^^ fmt)

let check_range nl what i =
  let n = Netlist.size nl in
  if i < 0 || i >= n then bad "%s id %d out of range [0, %d)" what i n

(* Reject an edit that cannot apply, before anything is mutated. *)
let validate t edit =
  let nl = t.e_netlist in
  match edit with
  | Set_pi_spec { pi; spec } -> (
    check_range nl "PI" pi;
    if not (Netlist.is_pi nl pi) then
      bad "%s is a gate output, not a primary input"
        (Netlist.signal_name nl pi);
    match Run_opts.validate_pi_spec spec with
    | Ok _ -> ()
    | Error m -> bad "PI spec for %s: %s" (Netlist.signal_name nl pi) m)
  | Swap_gate { node; kind } ->
    check_range nl "gate" node;
    if Netlist.is_pi nl node then
      bad "%s is a primary input, not a gate" (Netlist.signal_name nl node);
    let arity = Netlist.fanin_count nl node in
    (match kind with
    | Gate.Not when arity <> 1 ->
      bad "cannot swap %d-input gate %s to NOT" arity
        (Netlist.signal_name nl node)
    | Gate.Not | Gate.Nand | Gate.Nor -> ()
    | Gate.And | Gate.Or | Gate.Xor | Gate.Xnor | Gate.Buf ->
      bad "%s is not a primitive kind (NAND/NOR/NOT)" (Gate.to_string kind));
    (* reject uncharacterized arities up front *)
    ignore (Sta.cell_of_gate t.e_library kind arity : Charlib.cell)
  | Set_extra_delay { line; delta } ->
    check_range nl "line" line;
    if not (Float.is_finite delta) then
      bad "extra delay %g on %s is not finite" delta
        (Netlist.signal_name nl line)
  | Set_model model -> ignore (Sta.windowing_of model : Delay_model.windowing)

(* The overlay slot (or model) an edit overwrites, as it is now. *)
let patch_of t = function
  | Set_pi_spec { pi; _ } -> P_pi (pi, t.e_pi_ov.(pi))
  | Swap_gate { node; _ } -> P_kind (node, t.e_kind_ov.(node))
  | Set_extra_delay { line; _ } -> P_extra (line, t.e_extra.(line))
  | Set_model _ -> P_model t.e_model

let mutate t = function
  | Set_pi_spec { pi; spec } ->
    t.e_pi_ov.(pi) <- Some spec;
    propagate_from t pi ~translate:false
  | Swap_gate { node; kind } ->
    t.e_kind_ov.(node) <- Some kind;
    Plane_sweep.retype t.e_sweep node kind;
    propagate_from t node ~translate:false
  | Set_extra_delay { line; delta } ->
    let old = t.e_extra.(line) in
    t.e_extra.(line) <- delta;
    propagate_from t line ~translate:(old = 0.)
  | Set_model model ->
    t.e_model <- model;
    propagate_all t

(* One journaled edit.  The frame is pushed before anything is mutated,
   so an edit whose propagation raises (a model's window function, say)
   is undone from its own partial frame and leaves no trace. *)
let run t edit =
  push_frame t (patch_of t edit);
  match mutate t edit with
  | () -> ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    pop_frame t;
    Printexc.raise_with_backtrace e bt

let apply t edit =
  check_open t "Engine.apply";
  validate t edit;
  let obs = t.e_opts.Run_opts.obs in
  if Obs.enabled obs then begin
    let t0 = Obs.now () in
    Obs.span obs ~event:(edit_event edit) t.tm_edit (fun () -> run t edit);
    Obs.observe t.h_edit_us ((Obs.now () -. t0) *. 1e6)
  end
  else run t edit;
  Obs.incr t.c_edits;
  t.s_edits <- t.s_edits + 1

let checkpoint t =
  check_open t "Engine.checkpoint";
  t.e_depth

let revert t cp =
  check_open t "Engine.revert";
  if cp > t.e_depth then
    invalid_arg
      "Engine.revert: checkpoint is ahead of this engine's history (taken \
       on another engine, or already reverted past)";
  if cp < t.e_base_depth then
    invalid_arg "Engine.revert: checkpoint precedes the last Engine.commit";
  while t.e_depth > cp do
    pop_frame t;
    Obs.incr t.c_reverts;
    t.s_reverts <- t.s_reverts + 1
  done

let commit t =
  check_open t "Engine.commit";
  Array.fill t.f_patch 0 (frames t) no_patch;
  t.j_len <- 0;
  t.e_base_depth <- t.e_depth

let netlist t = t.e_netlist
let model t = t.e_model
let opts t = t.e_opts
let depth t = t.e_depth

let stats t =
  {
    edits = t.s_edits;
    reverts = t.s_reverts;
    nodes_recomputed = t.s_recomputed;
    cutoffs = t.s_cutoffs;
  }

let cutoff_ratio s =
  if s.nodes_recomputed = 0 then 0.
  else float_of_int s.cutoffs /. float_of_int s.nodes_recomputed

let timing t i =
  check_open t "Engine.timing";
  get t i

let po_window t =
  check_open t "Engine.po_window";
  Sta.po_window_of t.e_netlist t.e_timing ~plane:0


let edited_netlist t =
  let nl = t.e_netlist in
  if not (Array.exists Option.is_some t.e_kind_ov) then nl
  else
    let n = Netlist.size nl in
    (* same signal names in the same declaration order: the rebuilt
       netlist assigns every line its original id, so overlay indices
       (extra delays, PI specs) remain valid against it *)
    let signals =
      List.init n (fun i -> (Netlist.signal_name nl i, node_view t i))
    in
    let outputs = List.map (Netlist.signal_name nl) (Netlist.outputs nl) in
    Netlist.build ~name:(Netlist.name nl) ~signals ~outputs

let reanalyze t =
  check_open t "Engine.reanalyze";
  Sta.analyze_with
    ~extra_delay:(fun i -> t.e_extra.(i))
    ~pi_override:(fun i -> t.e_pi_ov.(i))
    { t.e_opts with Run_opts.jobs = 1; obs = Obs.disabled }
    ~library:t.e_library ~model:t.e_model (edited_netlist t)

let summary t =
  let w = po_window t in
  let s = stats t in
  Printf.sprintf
    "%s [%s]: PO delay window [%.3f ns, %.3f ns] after %d edit(s) (%d \
     nodes recomputed, %.0f%% cutoff)"
    (Netlist.stats t.e_netlist)
    t.e_model.Delay_model.name
    (Interval.lo w *. 1e9) (Interval.hi w *. 1e9)
    s.edits s.nodes_recomputed
    (100. *. cutoff_ratio s)
