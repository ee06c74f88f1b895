(* The benchmark executable.  perfbench/run.py builds it and calls:

     perfbench.exe warm
         characterize the library and write the designs, once
     perfbench.exe setup --workload W
         one set-up repetition: prints "ready" and exits
     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
                       --ssd PATH --trace-check PATH
         one timed run (trace 0) or traced ledger run (trace 1); the
         last line of stdout is the JSON result

   Paths are relative to the checkout root, the working directory. *)

module Run_opts = Ssd_sta.Run_opts

type workload = {
  w_name : string;
  w_design : Ssd_circuit.Generator.params;
  w_setup : unit -> unit;
  w_run : seed:int -> seconds:float -> ssd:string -> unit;
  w_pi_spec : seed:int -> Run_opts.pi_spec;  (** PI windows of its pass *)
  w_unit :
    Ssd_cell.Charlib.t -> Ssd_circuit.Netlist.t -> seed:int -> Ssd_obs.Obs.t -> unit;
      (** its unit under a sink, for the tracing overhead *)
}

let workloads =
  [
    {
      w_name = Wl_sta.name;
      w_design = Common.sta_design;
      w_setup = (fun () -> ignore (Wl_sta.setup ()));
      w_run = (fun ~seed ~seconds ~ssd:_ -> Wl_sta.run ~seed ~seconds);
      w_pi_spec = Wl_sta.pi_spec;
      w_unit = Wl_sta.unit_under;
    };
    {
      w_name = Wl_serve.name;
      w_design = Common.eco_design;
      (* its set-up repetitions spawn `ssd serve` itself *)
      w_setup = (fun () -> ());
      w_run = Wl_serve.run;
      (* the server analyzes at the default PI windows *)
      w_pi_spec = (fun ~seed:_ -> Run_opts.default_pi_spec);
      w_unit = Wl_serve.unit_under;
    };
  ]

(* The traced run.  It reports every per-layer metric BENCHMARK.json
   lists, so each traced run measures them all: the set-up layers and the
   pass on the workload's own design, then the serve stack on the ECO
   design and the Monte-Carlo and ATPG flows on theirs.  The tracing
   overhead times the workload's own unit. *)
let trace w ~seed ~ssd ~trace_check =
  let l = Ledger.create () in
  let tally = Common.tally () in
  let lib, nl = Ledger.setup_layers l ~file:(Common.input_file w.w_design) in
  Wl_sta.probe l tally lib nl ~pi_spec:(w.w_pi_spec ~seed);
  Wl_serve.probe l tally lib ~seed ~ssd;
  Mc_probe.probe l tally lib ~seed;
  Atpg_probe.probe l tally lib;
  Ledger.set l "obs.overhead_pct"
    (Ledger.overhead_pct ~seconds:4. (w.w_unit lib nl ~seed));
  let accepted =
    Ledger.finish l ~trace_check ~prefix:(Filename.concat Common.work_dir w.w_name)
  in
  Common.check tally accepted "trace rejected by trace_check";
  Common.emit ~tally (Ledger.metrics l tally)

let usage () =
  prerr_endline
    "usage: perfbench.exe (warm | setup --workload W | run --workload W \
     --seed N --seconds S --trace 0|1 --ssd PATH --trace-check PATH)";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let opt key rest =
    let rec find = function
      | k :: v :: _ when k = key -> Some v
      | _ :: tl -> find tl
      | [] -> None
    in
    find rest
  in
  let need key rest =
    match opt key rest with Some v -> v | None -> usage ()
  in
  let workload rest =
    let n = need "--workload" rest in
    match List.find_opt (fun w -> w.w_name = n) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (know: %s)\n" n
        (String.concat ", " (List.map (fun w -> w.w_name) workloads));
      exit 2
  in
  let int_arg key rest =
    match int_of_string_opt (need key rest) with
    | Some v -> v
    | None -> usage ()
  in
  try
    match args with
    | [ "warm" ] -> Common.warm ()
    | "setup" :: rest ->
      (workload rest).w_setup ();
      print_endline "ready"
    | "run" :: rest -> (
      let w = workload rest in
      let seed = int_arg "--seed" rest in
      let ssd = need "--ssd" rest in
      match need "--trace" rest with
      | "0" ->
        let seconds = float_of_int (int_arg "--seconds" rest) in
        w.w_run ~seed ~seconds ~ssd
      | "1" -> trace w ~seed ~ssd ~trace_check:(need "--trace-check" rest)
      | _ -> usage ())
    | _ -> usage ()
  with Common.Not_warm what ->
    Printf.eprintf
      "perfbench: %s is missing; run the warm step first (perfbench/run.py \
       does)\n"
      what;
    exit 3
