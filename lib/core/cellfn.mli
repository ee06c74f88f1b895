(** Shared helpers over characterized cells: pin-to-pin curve evaluation
    with load adjustment, and interval extremization of the (possibly
    bi-tonic) fitted curves — the paper's Figure 9 corner search. *)

type response = Ctl | Non
(** To-controlling vs. to-non-controlling output response. *)

val load_delta_delay : Ssd_cell.Charlib.cell -> fanout:int -> response -> float
(** Linear load correction added to every delay (paper Section 3.6:
    "delay increases linearly as load increases"). *)

val load_delta_tt : Ssd_cell.Charlib.cell -> fanout:int -> response -> float

val pin_edge : Ssd_cell.Charlib.cell -> response -> pos:int
  -> Ssd_cell.Charlib.edge_char
(** The characterized pin curves; @raise Invalid_argument on a bad
    position. *)

val pin_delay : Ssd_cell.Charlib.cell -> fanout:int -> response -> pos:int
  -> t_in:float -> float
val pin_out_tt : Ssd_cell.Charlib.cell -> fanout:int -> response -> pos:int
  -> t_in:float -> float

val tied_delay : Ssd_cell.Charlib.cell -> fanout:int -> k:int -> t_in:float
  -> float
(** Delay when the first [k] inputs switch to-controlling together. *)

val tied_out_tt : Ssd_cell.Charlib.cell -> fanout:int -> k:int -> t_in:float
  -> float

val min_tied_delay_over : Ssd_cell.Charlib.cell -> fanout:int -> k:int
  -> Ssd_util.Interval.t -> float
(** Minimum of the k-inputs-tied delay over a transition-time interval,
    honouring the fitted shape — the lower bound the window transfer
    functions need so the >2-simultaneous extension stays sound. *)

val min_tied_tt_over : Ssd_cell.Charlib.cell -> fanout:int -> k:int
  -> Ssd_util.Interval.t -> float
(** Same for the tied output transition time. *)

val min_delay_over : Ssd_cell.Charlib.cell -> fanout:int -> response
  -> pos:int -> Ssd_util.Interval.t -> float * float
(** [(t_best, d_min)] minimizing the pin delay over a transition-time
    interval, honouring the curve's fitted shape (endpoints + interior
    peak).  Figure 9's case analysis. *)

val max_delay_over : Ssd_cell.Charlib.cell -> fanout:int -> response
  -> pos:int -> Ssd_util.Interval.t -> float * float

val min_tt_over : Ssd_cell.Charlib.cell -> fanout:int -> response
  -> pos:int -> Ssd_util.Interval.t -> float * float

val max_tt_over : Ssd_cell.Charlib.cell -> fanout:int -> response
  -> pos:int -> Ssd_util.Interval.t -> float * float
