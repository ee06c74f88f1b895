module Texttab = Ssd_util.Texttab
module Stats = Ssd_util.Stats
module Json = Ssd_util.Json

(* Shard count is a power of two so the domain-id index is a mask.
   Domain ids are assigned densely from 0, so with the handful of lanes
   a pool spawns each domain effectively owns a shard and updates are
   uncontended; a collision (two domains sharing a shard) only costs
   atomic contention, never correctness. *)
let shard_count = 64

let shard_index () = (Domain.self () :> int) land (shard_count - 1)

(* ---- monotonic clock ---- *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "ssd_obs_monotonic_ns" "ssd_obs_monotonic_ns_unboxed"
[@@noalloc]

let[@inline] now () = Int64.to_float (monotonic_ns ()) *. 1e-9
let[@inline] now_ns () = Int64.to_int (monotonic_ns ())

type counter =
  | C_off
  | C_on of { c_name : string; c_shards : int Atomic.t array }

type gauge = G_off | G_on of { g_name : string; g_cell : float Atomic.t }

type timer =
  | T_off
  | T_on of {
      t_name : string;
      t_ns : int Atomic.t array;
      t_self_ns : int Atomic.t array;
      t_calls : int Atomic.t array;
    }

(* A histogram keeps running totals, nothing per sample.  Every caller
   observes one histogram from one domain at a time, so one lock keeps
   it exact at no contention. *)
type histogram =
  | H_off
  | H_on of {
      h_name : string;
      h_lo : float;
      h_span : float;  (* hi - lo, > 0 *)
      h_lock : Mutex.t;
      h_counts : int array;  (* per bin; they sum to the sample count *)
      h_acc : float array;  (* sum, min, max *)
    }

type event = {
  ev_name : string;
  ev_id : int;
  ev_parent : int;
  ev_tid : int;
  ev_ts : float;
  ev_dur : float;
  ev_self : float;
  ev_minor_words : float;
  ev_self_minor_words : float;
  ev_promoted_words : float;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Timer of timer
  | Histogram of histogram

type state = {
  s_epoch : float;
  s_trace : bool;
  s_mutex : Mutex.t;  (* guards s_metrics and s_tracks, never the updates *)
  mutable s_metrics : (string * metric) list;  (* creation order *)
  mutable s_tracks : (int * string) list;
  s_events : event list Atomic.t;
  s_next_span : int Atomic.t;
}

type t = Off | On of state

let disabled = Off

(* fills the sink slot of a closed frame, so no closed sink stays
   reachable from a stack *)
let no_sink =
  {
    s_epoch = 0.;
    s_trace = false;
    s_mutex = Mutex.create ();
    s_metrics = [];
    s_tracks = [];
    s_events = Atomic.make [];
    s_next_span = Atomic.make 0;
  }

(* One open span.  Every field is an int or a pointer, so reusing a
   frame allocates nothing.  The id and the Gc readings are kept only
   when the sink traces: timers need just the clock. *)
type frame = {
  mutable fr_sink : state;
  mutable fr_t0_ns : int;
  mutable fr_child_ns : int;
  mutable fr_id : int;
  mutable fr_minor0 : int;
  mutable fr_promoted0 : int;
  mutable fr_child_minor : int;
}

(* One domain's open spans, of every sink, indexed by nesting depth (0
   outermost).  A span's parent is the nearest enclosing span of the
   same sink, so each sink sees its own stack.  One stack per domain
   (DLS, not the shard array: shards may collide mod [shard_count],
   which is harmless for atomic counters but would race the stack),
   shared by all sinks, so a session's sink leaves nothing behind on
   the domains it ran on.  Only the recording domain touches it, so no
   atomics are needed; the frames are reused and the array doubles, so
   only a deeper nesting than ever before allocates. *)
type frames = { mutable fs_depth : int; mutable fs_stack : frame array }

let new_frame _ =
  {
    fr_sink = no_sink;
    fr_t0_ns = 0;
    fr_child_ns = 0;
    fr_id = 0;
    fr_minor0 = 0;
    fr_promoted0 = 0;
    fr_child_minor = 0;
  }

let frames_key =
  Domain.DLS.new_key (fun () ->
      { fs_depth = 0; fs_stack = Array.init 8 new_frame })

let create ?(trace = false) () =
  On
    {
      s_epoch = now ();
      s_trace = trace;
      s_mutex = Mutex.create ();
      s_metrics = [];
      s_tracks = [];
      s_events = Atomic.make [];
      s_next_span = Atomic.make 0;
    }

let enabled = function Off -> false | On _ -> true
let tracing = function Off -> false | On s -> s.s_trace

let atomic_shards () = Array.init shard_count (fun _ -> Atomic.make 0)

(* find-or-create under the registry mutex; creation is setup-time only *)
let register s name make =
  Mutex.lock s.s_mutex;
  let m =
    match List.assoc_opt name s.s_metrics with
    | Some m -> m
    | None ->
      let m = make () in
      s.s_metrics <- s.s_metrics @ [ (name, m) ];
      m
  in
  Mutex.unlock s.s_mutex;
  m

(* ---- counters ---- *)

let counter t name =
  match t with
  | Off -> C_off
  | On s -> (
    match
      register s name (fun () ->
          Counter (C_on { c_name = name; c_shards = atomic_shards () }))
    with
    | Counter c -> c
    | _ -> invalid_arg ("Obs.counter: " ^ name ^ " is not a counter"))

let incr = function
  | C_off -> ()
  | C_on c -> Atomic.incr c.c_shards.(shard_index ())

let add c n =
  match c with
  | C_off -> ()
  | C_on c -> ignore (Atomic.fetch_and_add c.c_shards.(shard_index ()) n)

let counter_value = function
  | C_off -> 0
  | C_on c -> Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.c_shards

(* ---- gauges ---- *)

let gauge t name =
  match t with
  | Off -> G_off
  | On s -> (
    match
      register s name (fun () ->
          Gauge (G_on { g_name = name; g_cell = Atomic.make 0. }))
    with
    | Gauge g -> g
    | _ -> invalid_arg ("Obs.gauge: " ^ name ^ " is not a gauge"))

let set_gauge g v =
  match g with G_off -> () | G_on g -> Atomic.set g.g_cell v

let gauge_value = function G_off -> 0. | G_on g -> Atomic.get g.g_cell

(* ---- timers ---- *)

let timer t name =
  match t with
  | Off -> T_off
  | On s -> (
    match
      register s name (fun () ->
          Timer
            (T_on
               {
                 t_name = name;
                 t_ns = atomic_shards ();
                 t_self_ns = atomic_shards ();
                 t_calls = atomic_shards ();
               }))
    with
    | Timer tm -> tm
    | _ -> invalid_arg ("Obs.timer: " ^ name ^ " is not a timer"))

(* A direct credit is all self time; spans split total vs self below. *)
let add_ns tm ns =
  match tm with
  | T_off -> ()
  | T_on t ->
    let i = shard_index () in
    ignore (Atomic.fetch_and_add t.t_ns.(i) ns);
    ignore (Atomic.fetch_and_add t.t_self_ns.(i) ns);
    Atomic.incr t.t_calls.(i)

let credit_span tm ~total_ns ~self_ns =
  match tm with
  | T_off -> ()
  | T_on t ->
    let i = shard_index () in
    ignore (Atomic.fetch_and_add t.t_ns.(i) total_ns);
    ignore (Atomic.fetch_and_add t.t_self_ns.(i) self_ns);
    Atomic.incr t.t_calls.(i)

let sum_shards a = Array.fold_left (fun acc x -> acc + Atomic.get x) 0 a
let timer_ns = function T_off -> 0 | T_on t -> sum_shards t.t_ns
let timer_self_ns = function T_off -> 0 | T_on t -> sum_shards t.t_self_ns
let timer_calls = function T_off -> 0 | T_on t -> sum_shards t.t_calls

let time tm f =
  match tm with
  | T_off -> f ()
  | T_on _ -> (
    let t0 = now_ns () in
    match f () with
    | v ->
      add_ns tm (now_ns () - t0);
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      add_ns tm (now_ns () - t0);
      Printexc.raise_with_backtrace e bt)

(* ---- histograms ---- *)

let histogram ?(bins = 20) ~lo ~hi t name =
  if bins <= 0 then invalid_arg "Obs.histogram: bins <= 0";
  if not (hi > lo) then invalid_arg "Obs.histogram: hi <= lo";
  match t with
  | Off -> H_off
  | On s -> (
    match
      register s name (fun () ->
          Histogram
            (H_on
               {
                 h_name = name;
                 h_lo = lo;
                 h_span = hi -. lo;
                 h_lock = Mutex.create ();
                 h_counts = Array.make bins 0;
                 h_acc = [| 0.; infinity; neg_infinity |];
               }))
    with
    | Histogram h -> h
    | _ -> invalid_arg ("Obs.histogram: " ^ name ^ " is not a histogram"))

let observe h x =
  match h with
  | H_off -> ()
  | H_on h ->
    let i =
      Stats.bin_index ~lo:h.h_lo ~span:h.h_span
        ~bins:(Array.length h.h_counts) x
    in
    Mutex.lock h.h_lock;
    h.h_counts.(i) <- h.h_counts.(i) + 1;
    let acc = h.h_acc in
    acc.(0) <- acc.(0) +. x;
    if x < acc.(1) then acc.(1) <- x;
    if x > acc.(2) then acc.(2) <- x;
    Mutex.unlock h.h_lock

(* A copy of the per-bin counts and [| sum; min; max |]. *)
let hist_contents = function
  | H_off -> ([||], [| 0.; infinity; neg_infinity |])
  | H_on h ->
    Mutex.lock h.h_lock;
    let v = (Array.copy h.h_counts, Array.copy h.h_acc) in
    Mutex.unlock h.h_lock;
    v

let total counts = Array.fold_left ( + ) 0 counts

let rows_of h counts =
  match h with
  | H_off -> []
  | H_on r -> Stats.bin_rows ~lo:r.h_lo ~span:r.h_span counts

let histogram_count h = total (fst (hist_contents h))
let histogram_rows h = rows_of h (fst (hist_contents h))

(* ---- spans and trace events ---- *)

let rec push_event a ev =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (ev :: cur)) then push_event a ev

let timer_name = function T_off -> "" | T_on t -> t.t_name

(* Close the span at depth [d]: credit its timer, charge its duration
   (and, tracing, its allocation) to its parent and record its event.
   Setting the depth to [d] also drops any inner span whose close was
   skipped.  Tracing, the Gc counters are read before the event is
   built, so a span's own bookkeeping words stay out of its GC delta. *)
let close_span s fs d ?event tm =
  let stack = fs.fs_stack in
  let fr = stack.(d) in
  let t1 = now_ns () in
  let dur_ns = t1 - fr.fr_t0_ns in
  let self_ns =
    if fr.fr_child_ns > dur_ns then 0 else dur_ns - fr.fr_child_ns
  in
  fs.fs_depth <- d;
  fr.fr_sink <- no_sink;
  let p = ref (d - 1) in
  while !p >= 0 && stack.(!p).fr_sink != s do
    decr p
  done;
  let p = !p in
  credit_span tm ~total_ns:dur_ns ~self_ns;
  if p >= 0 then stack.(p).fr_child_ns <- stack.(p).fr_child_ns + dur_ns;
  if s.s_trace then begin
    let minor = int_of_float (Gc.minor_words ()) - fr.fr_minor0 in
    let promoted =
      int_of_float (Gc.quick_stat ()).Gc.promoted_words - fr.fr_promoted0
    in
    let self_minor = minor - fr.fr_child_minor in
    if p >= 0 then
      stack.(p).fr_child_minor <- stack.(p).fr_child_minor + minor;
    push_event s.s_events
      {
        ev_name = (match event with Some e -> e | None -> timer_name tm);
        ev_id = fr.fr_id;
        ev_parent = (if p >= 0 then stack.(p).fr_id else -1);
        ev_tid = (Domain.self () :> int);
        ev_ts = (float_of_int fr.fr_t0_ns *. 1e-9) -. s.s_epoch;
        ev_dur = float_of_int dur_ns *. 1e-9;
        ev_self = float_of_int self_ns *. 1e-9;
        ev_minor_words = float_of_int minor;
        ev_self_minor_words =
          float_of_int (if self_minor > 0 then self_minor else 0);
        ev_promoted_words = float_of_int promoted;
      }
  end

(* The span stack runs whenever the sink is enabled — self time in the
   timers needs the parent/child links even when tracing (event
   recording) is off.  Off the trace, a span reads the clock twice and
   allocates nothing. *)
let span t ?event tm f =
  match t with
  | Off -> f ()
  | On s -> (
    let fs = Domain.DLS.get frames_key in
    let d = fs.fs_depth in
    if d = Array.length fs.fs_stack then begin
      let old = fs.fs_stack in
      fs.fs_stack <-
        Array.init (2 * d) (fun i -> if i < d then old.(i) else new_frame i)
    end;
    let fr = fs.fs_stack.(d) in
    fs.fs_depth <- d + 1;
    fr.fr_sink <- s;
    fr.fr_child_ns <- 0;
    if s.s_trace then begin
      fr.fr_id <- Atomic.fetch_and_add s.s_next_span 1;
      fr.fr_child_minor <- 0;
      (* Gc.minor_words, not Gc.counters: on OCaml 5.x the latter reads
         per-domain counters that are only refreshed at GC events and so
         misses allocation since the last collection.  Promoted words
         only advance at minor collections, so the quick_stat value is
         exact; it is read first, so its record is not charged. *)
      fr.fr_promoted0 <- int_of_float (Gc.quick_stat ()).Gc.promoted_words;
      fr.fr_minor0 <- int_of_float (Gc.minor_words ())
    end;
    fr.fr_t0_ns <- now_ns ();
    match f () with
    | v ->
      close_span s fs d ?event tm;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_span s fs d ?event tm;
      Printexc.raise_with_backtrace e bt)

let trace_events = function
  | Off -> []
  | On s ->
    List.sort
      (fun a b -> compare (a.ev_tid, a.ev_ts) (b.ev_tid, b.ev_ts))
      (Atomic.get s.s_events)

let set_track_name t ~tid name =
  match t with
  | Off -> ()
  | On s ->
    Mutex.lock s.s_mutex;
    s.s_tracks <- (tid, name) :: List.remove_assoc tid s.s_tracks;
    Mutex.unlock s.s_mutex

(* ---- aggregated views ---- *)

let metrics = function
  | Off -> []
  | On s ->
    Mutex.lock s.s_mutex;
    let m = s.s_metrics in
    Mutex.unlock s.s_mutex;
    m

let counters t =
  List.filter_map
    (function
      | name, Counter c -> Some (name, counter_value c)
      | _ -> None)
    (metrics t)

let gauges t =
  List.filter_map
    (function name, Gauge g -> Some (name, gauge_value g) | _ -> None)
    (metrics t)

let timers t =
  List.filter_map
    (function
      | name, Timer tm ->
        Some
          ( name,
            timer_calls tm,
            float_of_int (timer_ns tm) *. 1e-9,
            float_of_int (timer_self_ns tm) *. 1e-9 )
      | _ -> None)
    (metrics t)

(* ---- typed snapshot ---- *)

type timer_stat = { st_calls : int; st_total_s : float; st_self_s : float }

type hist_stat = {
  hs_count : int;
  hs_sum : float;
  hs_rows : (float * float * int) list;
}

type span_node = {
  sp_name : string;
  sp_tid : int;
  sp_start_s : float;
  sp_total_s : float;
  sp_self_s : float;
  sp_minor_words : float;
  sp_self_minor_words : float;
  sp_promoted_words : float;
  sp_children : span_node list;
}

type snapshot = {
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_timers : (string * timer_stat) list;
  sn_histograms : (string * hist_stat) list;
  sn_spans : span_node list;
}

let empty_snapshot =
  {
    sn_counters = [];
    sn_gauges = [];
    sn_timers = [];
    sn_histograms = [];
    sn_spans = [];
  }

(* Rebuild the span forest from the flat event list via parent ids.  An
   event whose parent was still open (or from another sink) when the
   snapshot was taken becomes a root. *)
let span_tree events =
  let ids = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace ids e.ev_id ()) events;
  let by_parent = Hashtbl.create 64 in
  let key e =
    if e.ev_parent >= 0 && Hashtbl.mem ids e.ev_parent then e.ev_parent
    else -1
  in
  List.iter (fun e -> Hashtbl.add by_parent (key e) e) events;
  (* find_all returns most-recently-added first; events arrive sorted by
     (tid, ts), so reversing restores that order per parent *)
  let rec node e =
    {
      sp_name = e.ev_name;
      sp_tid = e.ev_tid;
      sp_start_s = e.ev_ts;
      sp_total_s = e.ev_dur;
      sp_self_s = e.ev_self;
      sp_minor_words = e.ev_minor_words;
      sp_self_minor_words = e.ev_self_minor_words;
      sp_promoted_words = e.ev_promoted_words;
      sp_children = List.rev_map node (Hashtbl.find_all by_parent e.ev_id);
    }
  in
  List.rev_map node (Hashtbl.find_all by_parent (-1))

let snapshot t =
  match t with
  | Off -> empty_snapshot
  | On _ ->
    let ms = metrics t in
    {
      sn_counters =
        List.filter_map
          (function n, Counter c -> Some (n, counter_value c) | _ -> None)
          ms;
      sn_gauges =
        List.filter_map
          (function n, Gauge g -> Some (n, gauge_value g) | _ -> None)
          ms;
      sn_timers =
        List.filter_map
          (function
            | n, Timer tm ->
              Some
                ( n,
                  {
                    st_calls = timer_calls tm;
                    st_total_s = float_of_int (timer_ns tm) *. 1e-9;
                    st_self_s = float_of_int (timer_self_ns tm) *. 1e-9;
                  } )
            | _ -> None)
          ms;
      sn_histograms =
        List.filter_map
          (function
            | n, Histogram h ->
              let counts, acc = hist_contents h in
              Some
                ( n,
                  {
                    hs_count = total counts;
                    hs_sum = acc.(0);
                    hs_rows = rows_of h counts;
                  } )
            | _ -> None)
          ms;
      sn_spans = span_tree (trace_events t);
    }

(* ---- snapshot scoping ----

   The serve daemon gives every session its own sink (isolation: one
   session's counters never mix with another's) and still wants one
   global exposition; namespacing the per-session snapshots and
   concatenating them is how the two views compose. *)

let prefix_snapshot prefix sn =
  let p n = prefix ^ "." ^ n in
  let rec pspan s = { s with sp_name = p s.sp_name;
                             sp_children = List.map pspan s.sp_children } in
  {
    sn_counters = List.map (fun (n, v) -> (p n, v)) sn.sn_counters;
    sn_gauges = List.map (fun (n, v) -> (p n, v)) sn.sn_gauges;
    sn_timers = List.map (fun (n, v) -> (p n, v)) sn.sn_timers;
    sn_histograms = List.map (fun (n, v) -> (p n, v)) sn.sn_histograms;
    sn_spans = List.map pspan sn.sn_spans;
  }

let merge_snapshots sns =
  List.fold_right
    (fun sn acc ->
      {
        sn_counters = sn.sn_counters @ acc.sn_counters;
        sn_gauges = sn.sn_gauges @ acc.sn_gauges;
        sn_timers = sn.sn_timers @ acc.sn_timers;
        sn_histograms = sn.sn_histograms @ acc.sn_histograms;
        sn_spans = sn.sn_spans @ acc.sn_spans;
      })
    sns empty_snapshot

let rec span_node_json n =
  Json.Obj
    [
      ("name", Json.Str n.sp_name);
      ("tid", Json.Num (float_of_int n.sp_tid));
      ("start_s", Json.Num n.sp_start_s);
      ("total_s", Json.Num n.sp_total_s);
      ("self_s", Json.Num n.sp_self_s);
      ("minor_words", Json.Num n.sp_minor_words);
      ("self_minor_words", Json.Num n.sp_self_minor_words);
      ("promoted_words", Json.Num n.sp_promoted_words);
      ("children", Json.List (List.map span_node_json n.sp_children));
    ]

let snapshot_to_json sn =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map
             (fun (n, v) -> (n, Json.Num (float_of_int v)))
             sn.sn_counters) );
      ( "gauges",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) sn.sn_gauges) );
      ( "timers",
        Json.Obj
          (List.map
             (fun (n, st) ->
               ( n,
                 Json.Obj
                   [
                     ("calls", Json.Num (float_of_int st.st_calls));
                     ("total_s", Json.Num st.st_total_s);
                     ("self_s", Json.Num st.st_self_s);
                   ] ))
             sn.sn_timers) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (n, hs) ->
               ( n,
                 Json.Obj
                   [
                     ("count", Json.Num (float_of_int hs.hs_count));
                     ("sum", Json.Num hs.hs_sum);
                     ( "rows",
                       Json.List
                         (List.map
                            (fun (lo, hi, c) ->
                              Json.List
                                [
                                  Json.Num lo;
                                  Json.Num hi;
                                  Json.Num (float_of_int c);
                                ])
                            hs.hs_rows) );
                   ] ))
             sn.sn_histograms) );
      ("spans", Json.List (List.map span_node_json sn.sn_spans));
    ]

(* ---- Prometheus text exposition ---- *)

let prom_name name =
  let b = Buffer.create (String.length name + 4) in
  Buffer.add_string b "ssd_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_prometheus sn =
  let b = Buffer.create 1024 in
  let header name kind help =
    Buffer.add_string b
      (Printf.sprintf "# HELP %s %s\n# TYPE %s %s\n" name (prom_escape help)
         name kind)
  in
  List.iter
    (fun (n, v) ->
      let m = prom_name n ^ "_total" in
      header m "counter" ("counter " ^ n);
      Buffer.add_string b (Printf.sprintf "%s %d\n" m v))
    sn.sn_counters;
  List.iter
    (fun (n, v) ->
      let m = prom_name n in
      header m "gauge" ("gauge " ^ n);
      Buffer.add_string b (Printf.sprintf "%s %s\n" m (prom_num v)))
    sn.sn_gauges;
  List.iter
    (fun (n, st) ->
      let base = prom_name n in
      let calls = base ^ "_calls_total" in
      header calls "counter" ("timer " ^ n ^ " calls");
      Buffer.add_string b (Printf.sprintf "%s %d\n" calls st.st_calls);
      let total = base ^ "_seconds_total" in
      header total "counter" ("timer " ^ n ^ " total seconds");
      Buffer.add_string b
        (Printf.sprintf "%s %s\n" total (prom_num st.st_total_s));
      let self = base ^ "_self_seconds_total" in
      header self "counter" ("timer " ^ n ^ " self seconds");
      Buffer.add_string b
        (Printf.sprintf "%s %s\n" self (prom_num st.st_self_s)))
    sn.sn_timers;
  List.iter
    (fun (n, hs) ->
      let base = prom_name n in
      header base "histogram" ("histogram " ^ n);
      let cum = ref 0 in
      List.iter
        (fun (_, hi, c) ->
          cum := !cum + c;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" base (prom_num hi)
               !cum))
        hs.hs_rows;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" base hs.hs_count);
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" base (prom_num hs.hs_sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" base hs.hs_count))
    sn.sn_histograms;
  Buffer.contents b

(* ---- human-readable report ---- *)

let report t =
  match t with
  | Off -> ""
  | On _ ->
    let ms = metrics t in
    let buf = Buffer.create 512 in
    let cs =
      List.filter_map
        (function n, Counter c -> Some (n, c) | _ -> None)
        ms
    in
    if cs <> [] then begin
      let tb = Texttab.create ~header:[ "counter"; "value" ] in
      List.iter
        (fun (n, c) ->
          Texttab.add_row tb [ n; string_of_int (counter_value c) ])
        cs;
      Buffer.add_string buf (Texttab.render tb);
      Buffer.add_char buf '\n'
    end;
    let gs =
      List.filter_map (function n, Gauge g -> Some (n, g) | _ -> None) ms
    in
    if gs <> [] then begin
      let tb = Texttab.create ~header:[ "gauge"; "value" ] in
      List.iter
        (fun (n, g) ->
          Texttab.add_row tb [ n; Printf.sprintf "%.6g" (gauge_value g) ])
        gs;
      Buffer.add_string buf (Texttab.render tb);
      Buffer.add_char buf '\n'
    end;
    let ts =
      List.filter_map (function n, Timer tm -> Some (n, tm) | _ -> None) ms
    in
    if ts <> [] then begin
      let tb =
        Texttab.create
          ~header:
            [ "timer"; "calls"; "total (ms)"; "self (ms)"; "mean (us)" ]
      in
      List.iter
        (fun (n, tm) ->
          let calls = timer_calls tm
          and ns = timer_ns tm
          and self = timer_self_ns tm in
          Texttab.add_row tb
            [
              n;
              string_of_int calls;
              Printf.sprintf "%.3f" (float_of_int ns *. 1e-6);
              Printf.sprintf "%.3f" (float_of_int self *. 1e-6);
              (if calls = 0 then "-"
               else
                 Printf.sprintf "%.2f"
                   (float_of_int ns *. 1e-3 /. float_of_int calls));
            ])
        ts;
      Buffer.add_string buf (Texttab.render tb);
      Buffer.add_char buf '\n'
    end;
    let hs =
      List.filter_map
        (function n, Histogram h -> Some (n, h) | _ -> None)
        ms
    in
    if hs <> [] then begin
      let tb =
        Texttab.create
          ~header:[ "histogram"; "count"; "mean"; "min"; "max"; "bins" ]
      in
      List.iter
        (fun (n, h) ->
          let counts, acc = hist_contents h in
          let k = total counts in
          (* an empty histogram reads 0 throughout *)
          let stat x = Printf.sprintf "%.4g" (if k = 0 then 0. else x) in
          Texttab.add_row tb
            [
              n;
              string_of_int k;
              stat (acc.(0) /. float_of_int k);
              stat acc.(1);
              stat acc.(2);
              String.concat "/"
                (Array.to_list (Array.map string_of_int counts));
            ])
        hs;
      Buffer.add_string buf (Texttab.render tb);
      Buffer.add_char buf '\n'
    end;
    Buffer.contents buf

(* ---- Chrome trace-event export ---- *)

let trace_json t =
  let tracks =
    match t with
    | Off -> []
    | On s ->
      Mutex.lock s.s_mutex;
      let tr = s.s_tracks in
      Mutex.unlock s.s_mutex;
      tr
  in
  let meta =
    List.rev_map
      (fun (tid, name) ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Num 1.);
            ("tid", Json.Num (float_of_int tid));
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ])
      tracks
  in
  let evs =
    List.map
      (fun ev ->
        Json.Obj
          [
            ("name", Json.Str ev.ev_name);
            ("cat", Json.Str "ssd");
            ("ph", Json.Str "X");
            ("ts", Json.Num (ev.ev_ts *. 1e6));
            ("dur", Json.Num (ev.ev_dur *. 1e6));
            ("pid", Json.Num 1.);
            ("tid", Json.Num (float_of_int ev.ev_tid));
            ( "args",
              Json.Obj
                [
                  ("id", Json.Num (float_of_int ev.ev_id));
                  ("parent", Json.Num (float_of_int ev.ev_parent));
                  ("self_us", Json.Num (ev.ev_self *. 1e6));
                  ("minor_words", Json.Num ev.ev_minor_words);
                  ("self_minor_words", Json.Num ev.ev_self_minor_words);
                  ("promoted_words", Json.Num ev.ev_promoted_words);
                ] );
          ])
      (trace_events t)
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (meta @ evs));
         ("displayTimeUnit", Json.Str "ms");
       ])

let write_file_atomic path ~contents =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp in
  (match
     output_string oc contents;
     close_out oc
   with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

let write_trace t path =
  write_file_atomic path ~contents:(trace_json t ^ "\n")

let write_snapshot t path =
  write_file_atomic path
    ~contents:(Json.to_string (snapshot_to_json (snapshot t)) ^ "\n")
