(** The paper's proposed delay model (Section 3).

    The to-controlling gate delay of two δ-simultaneous transitions is a
    V-shape in the skew δ = A_b − A_a, anchored at (−SYR, D_YR),
    (0, D0R), (SR, D_R); outside the saturation skews the delay equals
    the pin-to-pin delay of the leading input alone.  The output
    transition time is an analogous V whose vertex may sit at a non-zero
    skew SK_{t,min}.

    Extension to more than two simultaneous transitions (Section 3.6 /
    [9]): the output event is the earliest over all single-input and
    pair-wise candidates, refined by the tied-k characterization when
    three or more transitions fall inside the saturation window. *)

val eps_skew : float
(** Floor applied to fitted saturation skews before dividing by them;
    shared with the batched kernel ({!Corner_batch}) so both paths
    degenerate identically. *)

val pair_delay : Ssd_cell.Charlib.cell -> fanout:int
  -> a:Types.transition_in -> b:Types.transition_in -> float
(** Delay of the to-controlling response measured from min(A_a, A_b).
    Falls back to pin-to-pin composition when the (a, b) position pair was
    not characterized. *)

val pair_out_tt : Ssd_cell.Charlib.cell -> fanout:int
  -> a:Types.transition_in -> b:Types.transition_in -> float

val v_points : Ssd_cell.Charlib.cell -> fanout:int -> pos_a:int -> pos_b:int
  -> t_a:float -> t_b:float
  -> (float * float) * (float * float) * (float * float)
(** The three anchor points ((−SYR, D_YR), (0, D0R), (SR, D_R)) of the
    delay V for the given transition times — Figure 2's annotated
    coordinates, used by benches and tests. *)

val ctl_event : Ssd_cell.Charlib.cell -> fanout:int
  -> Types.transition_in list -> Types.event
(** Output event for one or more to-controlling transitions. *)

val non_event : Ssd_cell.Charlib.cell -> fanout:int
  -> Types.transition_in list -> Types.event
(** To-non-controlling response: the paper keeps pin-to-pin composition
    (latest input + its pin delay). *)

(** {2 Window transfer functions (Section 4.2)}

    Each bound is a closed-form corner search over the fitted curves
    ({!Cellfn.min_delay_over} and friends), evaluated afresh per gate.
    The to-non-controlling window keeps pin-to-pin composition, as
    {!non_event} does: it is {!Pin_to_pin.non_window}. *)

val ctl_window : Ssd_cell.Charlib.cell -> fanout:int -> Types.win_in list
  -> Types.win
