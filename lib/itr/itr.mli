(** Incremental timing refinement (paper Section 5).

    Couples the two-frame implication state with the timing windows: as
    logic values are specified, transition states S ∈ {−1, 0, 1} restrict
    which gate inputs can or must switch, and the recomputed windows
    shrink.  The zero-state settings of the paper's Table 1 are realized
    as follows for each optimization target:

    - earliest to-controlling arrival: every input that {e may} switch is
      allowed to participate (simultaneous switching speeds the output up);
    - latest to-controlling arrival: potential switchers are assumed
      absent, but every {e definite} switcher upper-bounds the response
      ([A_L ≤ min over definite i of (A_i,L + d_i,max)]), which is where
      ITR beats STA;
    - earliest to-non-controlling arrival: definite switchers lower-bound
      it ([A_S ≥ max over definite i]);
    - latest to-non-controlling arrival: all potential switchers at their
      latest.

    STA is the special case where every line has state 0 for every
    transition (value xx everywhere).

    Every gate runs the production kernel
    ({!Ssd_core.Corner_batch.eval_node}) over the inputs whose state for
    the side's transition is not −1 and that have a window; the clamps
    take their pin delays from {!Ssd_core.Corner_batch.eval_pin_delays}.
    An output transition has no window when the line's own state for it
    is −1 or no input is kept on its side.

    After an assignment, the lines whose values changed and their
    fan-outs are re-timed on the calling domain's
    {!Ssd_circuit.Frontier}; a line whose windows come back bit-identical
    pushes nothing further.  The windows equal the closure walk's full
    topological rescan bit for bit ([Test_support.Itr_reference]). *)

type t

val create :
  ?pi_spec:Ssd_sta.Sta.pi_spec ->
  ?focus:int list ->
  library:Ssd_cell.Charlib.t ->
  model:Ssd_core.Delay_model.t ->
  Ssd_circuit.Netlist.t ->
  t
(** Initial state: all values xx; windows equal the STA windows.
    [focus] restricts window maintenance to the given lines and their
    transitive fan-in (the ATPG only consults the fault site's windows;
    skipping the rest makes refinement much cheaper).  Windows of
    out-of-focus lines are unspecified.
    @raise Invalid_argument when the model has no kernel rule
    ({!Ssd_core.Corner_batch.rule_of}), or {!Ssd_sta.Sta.Unsupported_gate}
    on a gate with no characterized cell (as {!Ssd_sta.Sta.analyze_with}). *)

val copy : t -> t
(** Snapshot for backtracking search: copies the values and the two
    flat window arrays, shares the rest. *)

val implication : t -> Implication.t

val assign : t -> int -> Value2f.t -> bool
(** Narrow a line's logic value, propagate implications and recompute the
    affected timing windows.  Returns false (state unspecified-safe: use
    {!copy} beforehand) on logic conflict.
    @raise Invalid_argument inside a frontier drain on the same domain. *)

val rise_window : t -> int -> Ssd_core.Types.win option
(** [None] when the line definitely has no rising transition (S = −1). *)

val fall_window : t -> int -> Ssd_core.Types.win option

val state : t -> int -> Value2f.transition -> int
(** The paper's S value for a line. *)

val window_width_sum : t -> float
(** Total arrival-window width over all live transitions — the shrink
    metric reported by the ITR experiments. *)

