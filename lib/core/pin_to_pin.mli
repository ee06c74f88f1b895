(** SDF-style pin-to-pin delay model (the paper's baseline for STA).

    Position-aware pin delays, but no simultaneous-switching speed-up: the
    to-controlling response is the earliest single-pin composition. *)

val single_delay : Ssd_cell.Charlib.cell -> fanout:int -> pos:int
  -> t_in:float -> float

val ctl_event : Ssd_cell.Charlib.cell -> fanout:int
  -> Types.transition_in list -> Types.event

val non_event : Ssd_cell.Charlib.cell -> fanout:int
  -> Types.transition_in list -> Types.event

val pair_delay : Ssd_cell.Charlib.cell -> fanout:int
  -> a:Types.transition_in -> b:Types.transition_in -> float
(** min-arrival-referenced delay ignoring the speed-up. *)

val pair_out_tt : Ssd_cell.Charlib.cell -> fanout:int
  -> a:Types.transition_in -> b:Types.transition_in -> float

val ctl_window : Ssd_cell.Charlib.cell -> fanout:int -> Types.win_in list
  -> Types.win

val non_window : Ssd_cell.Charlib.cell -> fanout:int -> Types.win_in list
  -> Types.win
(** The to-non-controlling window of both window-capable models. *)
