type windowing = {
  ctl_window :
    Ssd_cell.Charlib.cell -> fanout:int -> Types.win_in list -> Types.win;
  non_window :
    Ssd_cell.Charlib.cell -> fanout:int -> Types.win_in list -> Types.win;
}

type t = {
  name : string;
  single_delay :
    Ssd_cell.Charlib.cell -> fanout:int -> pos:int -> t_in:float -> float;
  pair_delay :
    Ssd_cell.Charlib.cell -> fanout:int -> a:Types.transition_in
    -> b:Types.transition_in -> float;
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

let proposed =
  {
    name = "proposed";
    single_delay =
      (fun cell ~fanout ~pos ~t_in ->
        Cellfn.pin_delay cell ~fanout Cellfn.Ctl ~pos ~t_in);
    pair_delay = Vshape.pair_delay;
    pair_out_tt = Vshape.pair_out_tt;
    ctl_event = Vshape.ctl_event;
    non_event = Vshape.non_event;
    windowing =
      Some { ctl_window = Vshape.ctl_window; non_window = Pin_to_pin.non_window };
  }

let pin_to_pin =
  {
    name = "pin-to-pin";
    single_delay = Pin_to_pin.single_delay;
    pair_delay = Pin_to_pin.pair_delay;
    pair_out_tt = Pin_to_pin.pair_out_tt;
    ctl_event = Pin_to_pin.ctl_event;
    non_event = Pin_to_pin.non_event;
    windowing =
      Some
        {
          ctl_window = Pin_to_pin.ctl_window;
          non_window = Pin_to_pin.non_window;
        };
  }

let jun =
  {
    name = "jun";
    single_delay = Jun.single_delay;
    pair_delay = Jun.pair_delay;
    pair_out_tt = Jun.pair_out_tt;
    ctl_event = Jun.ctl_event;
    non_event = Jun.non_event;
    windowing = None;
  }

let nabavi =
  {
    name = "nabavi";
    single_delay = Nabavi.single_delay;
    pair_delay = Nabavi.pair_delay;
    pair_out_tt = Nabavi.pair_out_tt;
    ctl_event = Nabavi.ctl_event;
    non_event = Nabavi.non_event;
    windowing = None;
  }

let remap_cells ?name f m =
  {
    name = (match name with Some n -> n | None -> m.name);
    single_delay = (fun cell -> m.single_delay (f cell));
    pair_delay = (fun cell -> m.pair_delay (f cell));
    pair_out_tt = (fun cell -> m.pair_out_tt (f cell));
    ctl_event = (fun cell -> m.ctl_event (f cell));
    non_event = (fun cell -> m.non_event (f cell));
    windowing =
      Option.map
        (fun w ->
          {
            ctl_window = (fun cell -> w.ctl_window (f cell));
            non_window = (fun cell -> w.non_window (f cell));
          })
        m.windowing;
  }

let all = [ proposed; pin_to_pin; jun; nabavi ]

let find name = List.find_opt (fun m -> m.name = name) all
