module Interval = Ssd_util.Interval
open Types

let single_delay cell ~fanout ~pos ~t_in =
  Cellfn.pin_delay cell ~fanout Cellfn.Ctl ~pos ~t_in

let best_event ~better cell ~fanout resp transitions =
  match transitions with
  | [] -> invalid_arg "Pin_to_pin: no transitions"
  | _ ->
    List.fold_left
      (fun best t ->
        let arr =
          t.arrival
          +. Cellfn.pin_delay cell ~fanout resp ~pos:t.pos ~t_in:t.t_tr
        in
        let tt = Cellfn.pin_out_tt cell ~fanout resp ~pos:t.pos ~t_in:t.t_tr in
        match best with
        | Some e when not (better arr e.e_arr) -> Some e
        | Some _ | None -> Some { e_arr = arr; e_tt = tt })
      None transitions
    |> Option.get

let ctl_event cell ~fanout transitions =
  best_event ~better:( < ) cell ~fanout Cellfn.Ctl transitions

let non_event cell ~fanout transitions =
  best_event ~better:( > ) cell ~fanout Cellfn.Non transitions

let pair_delay cell ~fanout ~a ~b =
  let e = ctl_event cell ~fanout [ a; b ] in
  e.e_arr -. Float.min a.arrival b.arrival

let pair_out_tt cell ~fanout ~a ~b =
  (ctl_event cell ~fanout [ a; b ]).e_tt

let window_of resp cell ~fanout wins =
  match wins with
  | [] -> invalid_arg "Pin_to_pin: no inputs"
  | _ ->
    let fold f init sel =
      List.fold_left (fun acc w -> f acc (sel w)) init wins
    in
    let a_s =
      fold Float.min infinity (fun w ->
          Interval.lo w.window.w_arr
          +. snd
               (Cellfn.min_delay_over cell ~fanout resp
                  ~pos:w.wpos w.window.w_tt))
    in
    let a_l =
      fold Float.max neg_infinity (fun w ->
          Interval.hi w.window.w_arr
          +. snd
               (Cellfn.max_delay_over cell ~fanout resp
                  ~pos:w.wpos w.window.w_tt))
    in
    let t_s =
      fold Float.min infinity (fun w ->
          snd
            (Cellfn.min_tt_over cell ~fanout resp ~pos:w.wpos w.window.w_tt))
    in
    let t_l =
      fold Float.max neg_infinity (fun w ->
          snd
            (Cellfn.max_tt_over cell ~fanout resp ~pos:w.wpos w.window.w_tt))
    in
    {
      w_arr = Interval.make a_s (Float.max a_s a_l);
      w_tt = Interval.make t_s (Float.max t_s t_l);
    }

let ctl_window cell ~fanout wins = window_of Cellfn.Ctl cell ~fanout wins
let non_window cell ~fanout wins = window_of Cellfn.Non cell ~fanout wins
