module Charlib = Ssd_cell.Charlib
module DM = Ssd_core.Delay_model
module Ck = Ssd_circuit
module Run_opts = Ssd_sta.Run_opts
module Obs = Ssd_obs.Obs

open Cmdliner

type opt_spec = {
  o_names : string list;
  o_docv : string option;
  o_doc : string;
}

(* the single source of truth: every shared option's names and help
   text.  Terms below are generated from these rows, so the vocabulary
   stays identical across subcommands. *)
let option_table =
  [
    ( "verbose",
      { o_names = [ "v"; "verbose" ]; o_docv = None;
        o_doc = "Verbose logging." } );
    ( "fine",
      { o_names = [ "fine" ]; o_docv = None;
        o_doc =
          "Use the fine characterization profile (default: honour \
           \\$SSD_FAST, else fine)." } );
    ( "jobs",
      { o_names = [ "j"; "jobs" ]; o_docv = Some "N";
        o_doc =
          "Execution lanes for the timing analysis and the fault \
           simulator: 1 is sequential, 0 picks the recommended domain \
           count, N>1 uses N domains. Results are identical for any \
           value. The edits of $(b,ssd eco) run on one lane whatever \
           the value." } );
    ( "stats",
      { o_names = [ "stats" ]; o_docv = None;
        o_doc =
          "Print a telemetry summary after the run: counters, per-phase \
           timers and histograms (lane utilization, per-level times, \
           screening economics, ...)." } );
    ( "trace",
      { o_names = [ "trace" ]; o_docv = Some "FILE";
        o_doc =
          "Write a Chrome trace-event JSON file of the run's spans (load \
           in Perfetto or chrome://tracing); one track per execution \
           lane." } );
    ( "stats-json",
      { o_names = [ "stats-json" ]; o_docv = Some "FILE";
        o_doc =
          "Write the full telemetry snapshot as JSON: counters, gauges, \
           timers (total and self seconds), histogram rows and the \
           hierarchical span tree with per-span GC allocation deltas.  \
           This is the serve protocol's stats payload shape." } );
    ( "metrics",
      { o_names = [ "metrics" ]; o_docv = None;
        o_doc =
          "Print the telemetry snapshot in Prometheus text exposition \
           format after the run." } );
    ( "model",
      { o_names = [ "model" ]; o_docv = Some "NAME";
        o_doc = "Delay model: proposed, pin-to-pin, jun or nabavi." } );
  ]

let info_of key =
  let s = List.assoc key option_table in
  Arg.info s.o_names ?docv:s.o_docv ~doc:s.o_doc

let verbose_t = Arg.(value & flag & info_of "verbose")
let fine_t = Arg.(value & flag & info_of "fine")
let jobs_t = Arg.(value & opt int 1 & info_of "jobs")
let stats_t = Arg.(value & flag & info_of "stats")
let trace_t = Arg.(value & opt (some string) None & info_of "trace")
let stats_json_t = Arg.(value & opt (some string) None & info_of "stats-json")
let metrics_t = Arg.(value & flag & info_of "metrics")

let model_t =
  let parse s =
    match DM.find s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown model %S (try: %s)" s
             (String.concat ", " (List.map (fun m -> m.DM.name) DM.all))))
  in
  let print ppf m = Format.pp_print_string ppf m.DM.name in
  Arg.(value & opt (conv (parse, print)) DM.proposed & info_of "model")

let bench_file_t =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"FILE.bench"
           ~doc:"ISCAS85-format netlist, or a suite name (c17, c880s, ...).")

type common = {
  co_verbose : bool;
  co_jobs : int;
  co_stats : bool;
  co_trace : string option;
  co_stats_json : string option;
  co_metrics : bool;
}

let common_t =
  let mk co_verbose co_jobs co_stats co_trace co_stats_json co_metrics =
    { co_verbose; co_jobs; co_stats; co_trace; co_stats_json; co_metrics }
  in
  Term.(const mk $ verbose_t $ jobs_t $ stats_t $ trace_t $ stats_json_t
        $ metrics_t)

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)

let library_of fine =
  if fine then Charlib.default ~profile:Charlib.fine ()
  else Charlib.default ()

(* one sink per invocation: enabled only when the user asked for output,
   so the default path keeps the no-op sink's near-zero overhead.  A
   snapshot request turns span recording on too — the span tree (and its
   GC attribution) is part of the snapshot. *)
let make_obs ~stats ~trace ~stats_json ~metrics =
  let tracing = trace <> None || stats_json <> None in
  if stats || metrics || tracing then Obs.create ~trace:tracing ()
  else Obs.disabled

let emit_obs obs ~stats ~trace ~stats_json ~metrics =
  (match trace with
  | Some path ->
    Obs.write_trace obs path;
    Printf.printf "wrote trace to %s\n" path
  | None -> ());
  (match stats_json with
  | Some path ->
    Obs.write_snapshot obs path;
    Printf.printf "wrote stats to %s\n" path
  | None -> ());
  if metrics then print_string (Obs.to_prometheus (Obs.snapshot obs));
  if stats then print_string (Obs.report obs)

let setup_common c =
  setup_logs c.co_verbose;
  make_obs ~stats:c.co_stats ~trace:c.co_trace ~stats_json:c.co_stats_json
    ~metrics:c.co_metrics

let finish_common c obs =
  emit_obs obs ~stats:c.co_stats ~trace:c.co_trace
    ~stats_json:c.co_stats_json ~metrics:c.co_metrics

let run_opts_of c obs = Run_opts.make ~jobs:c.co_jobs ~obs ()

(* only the registry value selects the flat kernel, so an identity
   remap keeps the window functions and takes the closure walk *)
let check_model = DM.remap_cells Fun.id DM.proposed

let load_netlist path =
  match Ck.Benchmarks.by_name path with
  | Some nl -> nl
  | None ->
    if Sys.file_exists path then
      try Ck.Bench_io.parse_file path with
      | Ck.Bench_io.Parse_error { line; message } ->
        Printf.eprintf "ssd: %s:%d: %s\n" path line message;
        exit 2
      | Ck.Netlist.Invalid message ->
        Printf.eprintf "ssd: %s: %s\n" path message;
        exit 2
      | Sys_error message ->
        (* the reader's message names the path *)
        Printf.eprintf "ssd: %s\n" message;
        exit 2
    else begin
      Printf.eprintf
        "ssd: %S is neither a suite name (%s) nor an existing file\n" path
        (String.concat ", " Ck.Benchmarks.names);
      exit 2
    end
