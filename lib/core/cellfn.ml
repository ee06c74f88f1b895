module Charlib = Ssd_cell.Charlib
module Fit = Ssd_cell.Fit
module Func1d = Ssd_util.Func1d

type response = Ctl | Non

let load_delta_delay (cell : Charlib.cell) ~fanout resp =
  let slope =
    match resp with
    | Ctl -> cell.Charlib.load_d_ctl
    | Non -> cell.Charlib.load_d_non
  in
  slope *. float_of_int (fanout - cell.Charlib.ref_fanout)

let load_delta_tt (cell : Charlib.cell) ~fanout resp =
  let slope =
    match resp with
    | Ctl -> cell.Charlib.load_t_ctl
    | Non -> cell.Charlib.load_t_non
  in
  slope *. float_of_int (fanout - cell.Charlib.ref_fanout)

let pin_edge (cell : Charlib.cell) resp ~pos =
  if pos < 0 || pos >= cell.Charlib.n then
    invalid_arg
      (Printf.sprintf "Cellfn.pin_edge: position %d out of range (n=%d)" pos
         cell.Charlib.n);
  match resp with
  | Ctl -> cell.Charlib.to_ctl.(pos)
  | Non -> cell.Charlib.to_non.(pos)

let pin_delay cell ~fanout resp ~pos ~t_in =
  Fit.eval1 (pin_edge cell resp ~pos).Charlib.delay t_in
  +. load_delta_delay cell ~fanout resp

let pin_out_tt cell ~fanout resp ~pos ~t_in =
  Fit.eval1 (pin_edge cell resp ~pos).Charlib.out_tt t_in
  +. load_delta_tt cell ~fanout resp

let tied_edge (cell : Charlib.cell) ~k =
  if k < 1 || k > cell.Charlib.n then
    invalid_arg "Cellfn.tied_edge: bad k";
  cell.Charlib.tied_ctl.(k - 1)

let tied_delay cell ~fanout ~k ~t_in =
  Fit.eval1 (tied_edge cell ~k).Charlib.delay t_in
  +. load_delta_delay cell ~fanout Ctl

let tied_out_tt cell ~fanout ~k ~t_in =
  Fit.eval1 (tied_edge cell ~k).Charlib.out_tt t_in
  +. load_delta_tt cell ~fanout Ctl

(* Extremize a fitted pin curve over a transition-time interval: the two
   endpoints plus — when the fit is bi-tonic — the interior peak (Figure 9).
   The load correction is a constant shift and cannot move the extremum, so
   it is added afterwards. *)
let extremize which sel cell resp ~pos iv =
  let fit1 = sel (pin_edge cell resp ~pos) in
  let shape = Fit.shape1 fit1 in
  let f t = Fit.eval1 fit1 t in
  match which with
  | `Min -> Func1d.min_over shape f iv
  | `Max -> Func1d.max_over shape f iv

let delay_sel e = e.Charlib.delay
let tt_sel e = e.Charlib.out_tt

let tied_corner curve cell ~k iv =
  let fit1 =
    match curve with
    | `Delay -> (tied_edge cell ~k).Charlib.delay
    | `Tt -> (tied_edge cell ~k).Charlib.out_tt
  in
  Func1d.min_over (Fit.shape1 fit1) (Fit.eval1 fit1) iv

let with_load_delay cell ~fanout resp (t, v) =
  (t, v +. load_delta_delay cell ~fanout resp)

let with_load_tt cell ~fanout resp (t, v) =
  (t, v +. load_delta_tt cell ~fanout resp)

let min_delay_over cell ~fanout resp ~pos iv =
  with_load_delay cell ~fanout resp (extremize `Min delay_sel cell resp ~pos iv)

let max_delay_over cell ~fanout resp ~pos iv =
  with_load_delay cell ~fanout resp (extremize `Max delay_sel cell resp ~pos iv)

let min_tt_over cell ~fanout resp ~pos iv =
  with_load_tt cell ~fanout resp (extremize `Min tt_sel cell resp ~pos iv)

let max_tt_over cell ~fanout resp ~pos iv =
  with_load_tt cell ~fanout resp (extremize `Max tt_sel cell resp ~pos iv)

let min_tied_delay_over cell ~fanout ~k iv =
  let _, v = tied_corner `Delay cell ~k iv in
  v +. load_delta_delay cell ~fanout Ctl

let min_tied_tt_over cell ~fanout ~k iv =
  let _, v = tied_corner `Tt cell ~k iv in
  v +. load_delta_tt cell ~fanout Ctl
