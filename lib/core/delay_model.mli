(** Unified delay-model interface.

    A [t] packages the point evaluations every model provides; models that
    additionally support worst-case corner identification (the paper's
    sufficient condition: all timing functions monotonic or bi-tonic in
    each variable) also carry window transfer functions and can drive
    STA/ITR. *)

type windowing = {
  ctl_window :
    Ssd_cell.Charlib.cell -> fanout:int -> Types.win_in list -> Types.win;
  non_window :
    Ssd_cell.Charlib.cell -> fanout:int -> Types.win_in list -> Types.win;
}
(** Window transfer functions: a gate's output window from its input
    windows, by worst-case corner search over the fitted curves. *)

type t = {
  name : string;
  single_delay :
    Ssd_cell.Charlib.cell -> fanout:int -> pos:int -> t_in:float -> float;
      (** to-controlling pin delay of a lone switching input *)
  pair_delay :
    Ssd_cell.Charlib.cell -> fanout:int -> a:Types.transition_in
    -> b:Types.transition_in -> float;
      (** simultaneous to-controlling delay from min(A_a, A_b) *)
  pair_out_tt :
    Ssd_cell.Charlib.cell -> fanout:int -> a:Types.transition_in
    -> b:Types.transition_in -> float;
  ctl_event :
    Ssd_cell.Charlib.cell -> fanout:int -> Types.transition_in list
    -> Types.event;
  non_event :
    Ssd_cell.Charlib.cell -> fanout:int -> Types.transition_in list
    -> Types.event;
  windowing : windowing option;
}

val proposed : t
(** The paper's V-shape model (window-capable). *)

val pin_to_pin : t
(** SDF-style baseline (window-capable). *)

val jun : t
(** Equivalent-inverter baseline [6]; point evaluation only. *)

val nabavi : t
(** Inverter-model baseline [18]; point evaluation only. *)

val remap_cells : ?name:string -> (Ssd_cell.Charlib.cell -> Ssd_cell.Charlib.cell) -> t -> t
(** [remap_cells f m] evaluates [m] through [f]-substituted cells: every
    entry point applies [f] to its cell argument first.  The copy is a
    new model value with no kernel rule, so it always takes the closure
    walk: [ssd corners --check] and [ssd mc --check] compare against an
    identity remap, and the tests remap derated twin libraries the same
    way.  [name] defaults to [m]'s. *)

val all : t list
val find : string -> t option
(** Lookup by [name]. *)
