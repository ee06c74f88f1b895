(* Shared plumbing of the benchmark: where the warmed inputs live, the
   fixed designs, clocks and allocation probes, percentiles, the timed
   loop with interleaved set-up repetitions, and the result line. *)

module Obs = Ssd_obs.Obs
module Json = Ssd_util.Json
module Rng = Ssd_util.Rng
module Charlib = Ssd_cell.Charlib
module Ck = Ssd_circuit

(* ------------------------------------------------------------------ *)
(* Locations, relative to the checkout root (the working directory)    *)

let work_dir = Filename.concat "perfbench" "_work"
let cache_dir = Filename.concat work_dir "charlib"

(* a run that finds its library or an input missing stops here: only
   the warm step characterizes or generates *)
exception Not_warm of string

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* The characterized library                                           *)

let profile = Charlib.coarse

let cached_libraries () =
  if Sys.file_exists cache_dir && Sys.is_directory cache_dir then
    Sys.readdir cache_dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"ssdchar-" f
           && Filename.check_suffix f ".bin")
    |> List.sort compare
    |> List.map (fun f ->
           let p = Filename.concat cache_dir f in
           (f, (Unix.stat p).Unix.st_mtime))
  else []

let characterize_into_cache () =
  Charlib.load_or_characterize ~cache_dir profile Ssd_spice.Tech.default
    Charlib.default_spec

(* [Charlib.load_or_characterize] from the warm cache.  It would fall
   back to characterizing on a miss, so the cache is checked before
   (present) and after (untouched) the call.  [wrap] runs the load
   itself (the traced run puts its probe there). *)
let load_library ?(wrap = fun f -> f ()) () =
  let before = cached_libraries () in
  if before = [] then raise (Not_warm "the characterized library");
  let lib = wrap characterize_into_cache in
  if cached_libraries () <> before then
    raise (Not_warm "a loadable characterized library (it was rebuilt)");
  lib

(* ------------------------------------------------------------------ *)
(* Fixed designs: each .bench is generated once, by the warm step      *)

let layered ~name ~inputs ~outputs ~gates ~locality ~seed =
  {
    Ck.Generator.default_params with
    Ck.Generator.g_name = name;
    n_inputs = inputs;
    n_outputs = outputs;
    n_gates = gates;
    locality;
    seed;
    shape = Ck.Generator.Layered { layers = max 12 (gates / 400) };
  }

let sta_design =
  layered ~name:"sta100k" ~inputs:256 ~outputs:128 ~gates:100_000
    ~locality:1024 ~seed:42L

let mc_design =
  layered ~name:"mc5k" ~inputs:96 ~outputs:48 ~gates:5_000 ~locality:256
    ~seed:777L

let eco_design =
  layered ~name:"eco10k" ~inputs:128 ~outputs:64 ~gates:10_000 ~locality:512
    ~seed:1010L

let designs = [ sta_design; mc_design; eco_design ]

let design_path (p : Ck.Generator.params) =
  Filename.concat work_dir (p.Ck.Generator.g_name ^ ".bench")

let input_file p =
  let path = design_path p in
  if not (Sys.file_exists path) then raise (Not_warm path);
  path

(* Characterize the library and write every design, each only when
   missing; files are written to a sibling and renamed into place. *)
let warm () =
  mkdir_p cache_dir;
  if cached_libraries () = [] then
    prerr_endline "perfbench: characterizing the coarse library (once)";
  ignore (characterize_into_cache ());
  List.iter
    (fun p ->
      let path = design_path p in
      if not (Sys.file_exists path) then begin
        Printf.eprintf "perfbench: writing %s\n%!" path;
        let tmp = path ^ ".tmp" in
        Ck.Bench_io.write_file (Ck.Generator.generate p) tmp;
        Sys.rename tmp path
      end)
    designs

(* ------------------------------------------------------------------ *)
(* Clocks, allocation and memory probes                                *)

let now = Obs.now
let words () = Gc.minor_words ()

(* VmHWM of a process (self by default), in MB *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* bitwise equality of floats, and of intervals *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_interval x y =
  let module I = Ssd_util.Interval in
  same_bits (I.lo x) (I.lo y) && same_bits (I.hi x) (I.hi y)

(* ------------------------------------------------------------------ *)
(* Samples and percentiles                                             *)

(* a growable float buffer, so latency recording stays cheap *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_list s = Array.to_list (Array.sub s.data 0 s.len)

let quantile q s =
  if s.len = 0 then nan else Ssd_util.Stats.quantile q (to_list s)

let median_of l = Ssd_util.Stats.quantile 0.5 l

(* ------------------------------------------------------------------ *)
(* Correctness tally: failed operations against attempted ones         *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 5 then Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* ------------------------------------------------------------------ *)
(* The timed loop                                                      *)

type loop = {
  l_seconds : float;  (** timed seconds summed over the steps *)
  l_steps : int;
  l_setups : float list;  (** set-up repetitions, seconds *)
}

(* Run whole steps until [seconds] of timed work and at least
   [min_steps] steps are done; [step i] runs step [i] and returns the
   seconds of its timed part (checks run outside it).  [setups] set-up
   repetitions interleave at evenly spaced points of the timed work, so
   they sample the same spells of host speed as the steps do. *)
let timed_loop ~seconds ~min_steps ~setups ~setup_rep step =
  let timed = ref 0. and steps = ref 0 and reps = ref [] in
  let due k = seconds *. (float_of_int k +. 0.5) /. float_of_int setups in
  while !timed < seconds || !steps < min_steps do
    timed := !timed +. step !steps;
    incr steps;
    if List.length !reps < setups && !timed >= due (List.length !reps) then
      reps := setup_rep () :: !reps
  done;
  while List.length !reps < setups do
    reps := setup_rep () :: !reps
  done;
  { l_seconds = !timed; l_steps = !steps; l_setups = List.rev !reps }

(* One set-up repetition in a fresh process: spawn this executable's
   [setup] command and time it from spawn until it reports ready, so
   the working process's heap and peak RSS stay untouched. *)
let spawn_setup ~workload =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "setup"; "--workload"; workload |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let dt = now () -. t0 in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  if line <> "ready" || status <> Unix.WEXITED 0 then
    failwith (Printf.sprintf "set-up repetition of %s failed" workload);
  dt

(* ------------------------------------------------------------------ *)
(* The result line                                                     *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let emit ~tally:(t : tally) metrics =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        Printf.eprintf "perfbench: metric %s is not finite\n" m.name)
    metrics;
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let correct = finite && t.failed = 0 && t.attempted > 0 in
  let m =
    List.map
      (fun m ->
        ( m.name,
          Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] ))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int (max 1 t.attempted)));
            ("failed", Json.Num (float_of_int t.failed));
            ("metrics", Json.Obj m) ]))

(* The seven end-to-end metrics of a timed run, in BENCHMARK.json
   order: [units] of work over the loop, latencies in seconds. *)
let end_to_end ~loop ~units ~alloc_per_unit ~rss ~query ~edit =
  let us x = x *. 1e6 in
  [ metric "setup_s" "s" (median_of loop.l_setups);
    metric "work_per_s" "1/s" (units /. loop.l_seconds);
    metric "alloc_words_per_unit" "words" alloc_per_unit;
    metric "peak_rss_mb" "MB" rss;
    metric "query_p50_us" "us" (us (quantile 0.5 query));
    metric "edit_p50_us" "us" (us (quantile 0.5 edit));
    metric "edit_p90_us" "us" (us (quantile 0.9 edit)) ]
