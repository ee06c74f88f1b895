(** Shared run options for the timing engines.

    Every analysis entry point — {!Sta.analyze_with}, {!Engine.create},
    {!Ssd_atpg.Fault_sim.simulate_with}, {!Ssd_atpg.Atpg.run_with} — takes
    one {!t} record instead of re-declaring the same optional arguments. *)

type pi_spec = {
  pi_arrival : Ssd_util.Interval.t;
  pi_tt : Ssd_util.Interval.t;
}
(** Arrival-time and transition-time windows assumed at every primary
    input (per-input overrides are an {!Engine} edit). *)

val default_pi_spec : pi_spec
(** Arrival fixed at t = 0; transition time window [0.15 ns, 0.5 ns]. *)

type t = {
  jobs : int;
      (** execution lanes: [1] sequential, [> 1] that many domains,
          [<= 0] auto-selects the recommended domain count ({!Engine}
          ignores it: its edits run on one lane) *)
  obs : Ssd_obs.Obs.t;  (** telemetry sink (default: disabled no-op) *)
  pi_spec : pi_spec;  (** windows assumed at the primary inputs *)
  corners : int;
      (** timing planes to evaluate: [1] (default) the nominal corner
          through the single-corner pass ({!Sta.analyze_with}); [> 1]
          the batched corner sweep ({!Corner_sta}), which requires it to
          match the corner table's count *)
  mc_batch : int;
      (** Monte-Carlo chunk size K: samples fitted and swept together
          per batched-kernel pass ({!Corner_sta.monte_carlo}); clamped
          to the sample count, never changes results *)
}

val default : t
(** [jobs = 1], disabled telemetry, {!default_pi_spec}, [corners = 1],
    [mc_batch = 16]. *)

(** {2 Builder}

    Grow a record from {!default} through the [with_*] functions and
    finish with {!validate} (or {!make}, which validates and raises).
    Constructing or updating the record field-by-field with literal
    record syntax is deprecated: it bypasses the field checks and
    breaks silently whenever a field is added.  New call sites should
    read [Run_opts.(default |> with_jobs 4 |> with_corners 3)]. *)

val with_jobs : int -> t -> t
val with_obs : Ssd_obs.Obs.t -> t -> t
val with_pi_spec : pi_spec -> t -> t
val with_corners : int -> t -> t
val with_mc_batch : int -> t -> t

val validate : t -> (t, string) result
(** The single authority on field invariants: [corners >= 1],
    [mc_batch >= 1], and {!validate_pi_spec} on [pi_spec].  [Ok]
    returns the record unchanged. *)

val validate_pi_spec : pi_spec -> (pi_spec, string) result
(** The PI-spec rule alone: finite arrival and transition-time windows,
    with a non-negative transition floor.  {!Sta.analyze_with} and
    {!Engine} apply it to per-input overrides as well. *)

val make :
  ?jobs:int ->
  ?obs:Ssd_obs.Obs.t ->
  ?pi_spec:pi_spec ->
  ?corners:int ->
  ?mc_batch:int ->
  unit ->
  t
(** {!default} with the given fields replaced, passed through
    {!validate}.  @raise Invalid_argument when validation fails. *)
