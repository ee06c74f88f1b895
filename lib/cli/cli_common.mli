(** The shared option vocabulary of every [ssd] subcommand.

    All flag names, metavariables and help strings live in one
    {!option_table}; the cmdliner terms (and therefore every
    subcommand's [--help]) are generated from it, so [--jobs],
    [--stats], [--trace], [--stats-json] and [--metrics] cannot drift
    apart between subcommands. *)

(** One row of the option table. *)
type opt_spec = {
  o_names : string list;  (** cmdliner name set, short first *)
  o_docv : string option;  (** metavariable for valued options *)
  o_doc : string;  (** help string *)
}

val option_table : (string * opt_spec) list
(** Key → spec for every shared option ([verbose], [fine], [jobs],
    [stats], [trace], [stats-json], [metrics], [model]). *)

val info_of : string -> Cmdliner.Arg.info
(** The {!Cmdliner.Arg.info} generated from {!option_table}.
    @raise Not_found on an unknown key. *)

(** {2 Shared terms} *)

val verbose_t : bool Cmdliner.Term.t
val fine_t : bool Cmdliner.Term.t
val model_t : Ssd_core.Delay_model.t Cmdliner.Term.t
val bench_file_t : string Cmdliner.Term.t
(** Required positional netlist argument (file path or suite name). *)

(** The common option block every worker subcommand shares. *)
type common = {
  co_verbose : bool;
  co_jobs : int;
  co_stats : bool;
  co_trace : string option;
  co_stats_json : string option;
  co_metrics : bool;
}

val common_t : common Cmdliner.Term.t

(** {2 Runtime helpers} *)

val setup_logs : bool -> unit
val library_of : bool -> Ssd_cell.Charlib.t
(** [library_of fine]: the default library, fine profile when asked. *)

val setup_common : common -> Ssd_obs.Obs.t
(** Configure logging and build the run's telemetry sink (enabled only
    when some output was requested — the default path keeps the no-op
    sink). *)

val finish_common : common -> Ssd_obs.Obs.t -> unit
(** Emit whatever telemetry outputs the options requested. *)

val run_opts_of : common -> Ssd_obs.Obs.t -> Ssd_sta.Run_opts.t

val check_model : Ssd_core.Delay_model.t
(** The proposed model as an identity-remapped copy: same windows, but
    {!Ssd_sta.Sta.analyze_with} evaluates it through the scalar closure
    walk instead of the batched kernel, so the [--check] passes of
    [ssd corners] and [ssd mc] compare two independent kernels. *)

val load_netlist : string -> Ssd_circuit.Netlist.t
(** Resolve a suite name or parse a [.bench] file; exits with code 2
    after a one-line diagnostic when neither works: [ssd: FILE:LINE:
    message] for a malformed line, [ssd: FILE: message] for a file
    whose lines parse but whose circuit is invalid (a cycle, an
    undefined [OUTPUT]). *)
