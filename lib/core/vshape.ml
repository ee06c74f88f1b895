module Charlib = Ssd_cell.Charlib
module Fit = Ssd_cell.Fit
module Interval = Ssd_util.Interval
open Types

let eps_skew = 1e-15

(* V-shape data in the caller's orientation: skew = A_b − A_a, right arm
   (positive saturation) = input a switching alone.  Returns
   (d0, sr, dr_right, syr, dr_left), all without the load correction. *)
let v_data cell ~pos_a ~pos_b ~t_a ~t_b =
  let pin pos t = Fit.eval1 (Cellfn.pin_edge cell Cellfn.Ctl ~pos).Charlib.delay t in
  let dr_right = pin pos_a t_a in
  let dr_left = pin pos_b t_b in
  match Charlib.find_pair cell pos_a pos_b with
  | None -> None
  | Some (pc, true) ->
    let d0 = Fit.eval2 pc.Charlib.d0 t_a t_b in
    let sr = Float.max (Fit.eval2 pc.Charlib.sr t_a t_b) eps_skew in
    let syr = Float.max (Fit.eval2 pc.Charlib.syr t_a t_b) eps_skew in
    Some (d0, sr, dr_right, syr, dr_left)
  | Some (pc, false) ->
    (* stored orientation is (pos_b, pos_a): the stored positive-skew arm is
       the caller's negative-skew arm *)
    let d0 = Fit.eval2 pc.Charlib.d0 t_b t_a in
    let syr = Float.max (Fit.eval2 pc.Charlib.sr t_b t_a) eps_skew in
    let sr = Float.max (Fit.eval2 pc.Charlib.syr t_b t_a) eps_skew in
    Some (d0, sr, dr_right, syr, dr_left)

let v_eval ~d0 ~sr ~dr_right ~syr ~dr_left skew =
  if skew >= sr then dr_right
  else if skew <= -.syr then dr_left
  else if skew >= 0. then d0 +. ((dr_right -. d0) *. skew /. sr)
  else d0 +. ((dr_left -. d0) *. -.skew /. syr)

let pair_delay_nocheck cell ~fanout ~(a : transition_in) ~(b : transition_in) =
  let skew = b.arrival -. a.arrival in
  match v_data cell ~pos_a:a.pos ~pos_b:b.pos ~t_a:a.t_tr ~t_b:b.t_tr with
  | Some (d0, sr, dr_right, syr, dr_left) ->
    v_eval ~d0 ~sr ~dr_right ~syr ~dr_left skew
    +. Cellfn.load_delta_delay cell ~fanout Cellfn.Ctl
  | None ->
    (* uncharacterized pair: pin-to-pin composition, measured from the
       earliest arrival *)
    let a_min = Float.min a.arrival b.arrival in
    let cand t =
      t.arrival -. a_min
      +. Cellfn.pin_delay cell ~fanout Cellfn.Ctl ~pos:t.pos ~t_in:t.t_tr
    in
    Float.min (cand a) (cand b)

let pair_delay cell ~fanout ~a ~b =
  if a.pos = b.pos then invalid_arg "Vshape.pair_delay: identical positions";
  pair_delay_nocheck cell ~fanout ~a ~b

(* Output-transition V: vertex (sk_min, tt_min) with arms reaching the
   pin-to-pin transition times at the saturation skews. *)
let tt_v_data cell ~pos_a ~pos_b ~t_a ~t_b =
  let pin pos t =
    Fit.eval1 (Cellfn.pin_edge cell Cellfn.Ctl ~pos).Charlib.out_tt t
  in
  let tr_right = pin pos_a t_a in
  let tr_left = pin pos_b t_b in
  match Charlib.find_pair cell pos_a pos_b with
  | None -> None
  | Some (pc, direct) ->
    let ta, tb = if direct then (t_a, t_b) else (t_b, t_a) in
    let sr0 = Float.max (Fit.eval2 pc.Charlib.sr ta tb) eps_skew in
    let syr0 = Float.max (Fit.eval2 pc.Charlib.syr ta tb) eps_skew in
    let sk0 = Fit.eval2 pc.Charlib.tt_min_skew ta tb in
    let tmin = Fit.eval2 pc.Charlib.tt_min ta tb in
    let sr, syr, sk =
      if direct then (sr0, syr0, sk0) else (syr0, sr0, -.sk0)
    in
    let sk = Float.max (-.syr) (Float.min sr sk) in
    Some (sk, tmin, sr, tr_right, syr, tr_left)

let tt_v_eval ~sk ~tmin ~sr ~tr_right ~syr ~tr_left skew =
  if skew >= sr then tr_right
  else if skew <= -.syr then tr_left
  else if skew >= sk then begin
    let span = sr -. sk in
    if span <= eps_skew then tr_right
    else tmin +. ((tr_right -. tmin) *. (skew -. sk) /. span)
  end
  else begin
    let span = sk +. syr in
    if span <= eps_skew then tr_left
    else tmin +. ((tr_left -. tmin) *. (sk -. skew) /. span)
  end

let pair_out_tt cell ~fanout ~(a : transition_in) ~(b : transition_in) =
  if a.pos = b.pos then invalid_arg "Vshape.pair_out_tt: identical positions";
  let skew = b.arrival -. a.arrival in
  match tt_v_data cell ~pos_a:a.pos ~pos_b:b.pos ~t_a:a.t_tr ~t_b:b.t_tr with
  | Some (sk, tmin, sr, tr_right, syr, tr_left) ->
    tt_v_eval ~sk ~tmin ~sr ~tr_right ~syr ~tr_left skew
    +. Cellfn.load_delta_tt cell ~fanout Cellfn.Ctl
  | None ->
    (* uncharacterized: transition time of the earlier-responding pin *)
    let cand t =
      ( t.arrival
        +. Cellfn.pin_delay cell ~fanout Cellfn.Ctl ~pos:t.pos ~t_in:t.t_tr,
        Cellfn.pin_out_tt cell ~fanout Cellfn.Ctl ~pos:t.pos ~t_in:t.t_tr )
    in
    let aa, ta = cand a and ab, tb = cand b in
    if aa <= ab then ta else tb

let v_points cell ~fanout ~pos_a ~pos_b ~t_a ~t_b =
  match v_data cell ~pos_a ~pos_b ~t_a ~t_b with
  | None -> invalid_arg "Vshape.v_points: pair not characterized"
  | Some (d0, sr, dr_right, syr, dr_left) ->
    let dl = Cellfn.load_delta_delay cell ~fanout Cellfn.Ctl in
    ((-.syr, dr_left +. dl), (0., d0 +. dl), (sr, dr_right +. dl))

(* ----- point events ---------------------------------------------------- *)

let ctl_event cell ~fanout transitions =
  match transitions with
  | [] -> invalid_arg "Vshape.ctl_event: no transitions"
  | _ ->
    let a_min =
      List.fold_left (fun m t -> Float.min m t.arrival) infinity transitions
    in
    (* single-input candidates *)
    let singles =
      List.map
        (fun t ->
          ( t.arrival
            +. Cellfn.pin_delay cell ~fanout Cellfn.Ctl ~pos:t.pos
                 ~t_in:t.t_tr,
            Cellfn.pin_out_tt cell ~fanout Cellfn.Ctl ~pos:t.pos ~t_in:t.t_tr
          ))
        transitions
    in
    (* pair candidates *)
    let rec pairs acc = function
      | [] -> acc
      | a :: rest ->
        let acc =
          List.fold_left
            (fun acc b ->
              if a.pos = b.pos then acc
              else begin
                let base = Float.min a.arrival b.arrival in
                let arr = base +. pair_delay_nocheck cell ~fanout ~a ~b in
                let tt = pair_out_tt cell ~fanout ~a ~b in
                (arr, tt) :: acc
              end)
            acc rest
        in
        pairs acc rest
    in
    let cands = pairs singles transitions in
    (* k >= 3 refinement via the tied characterization: when at least three
       transitions land within the leading pair's saturation window, the
       extra charge paths speed the gate up beyond any pair's V-shape. *)
    let cands =
      let sorted =
        List.sort (fun x y -> Float.compare x.arrival y.arrival) transitions
      in
      match sorted with
      | t1 :: t2 :: _ :: _ -> (
        match v_data cell ~pos_a:t1.pos ~pos_b:t2.pos ~t_a:t1.t_tr ~t_b:t2.t_tr with
        | None -> cands
        | Some (d0, sr, dr_right, _, _) ->
          let inside =
            List.filter (fun t -> t.arrival -. a_min <= sr) sorted
          in
          let k = List.length inside in
          if k < 3 then cands
          else begin
            let fk = float_of_int k in
            let t_mean =
              List.fold_left (fun s t -> s +. t.t_tr) 0. inside /. fk
            in
            let spread =
              List.fold_left (fun s t -> s +. (t.arrival -. a_min)) 0. inside
              /. fk
            in
            let slope = (dr_right -. d0) /. sr in
            let arr =
              a_min
              +. Cellfn.tied_delay cell ~fanout ~k ~t_in:t_mean
              +. (spread *. slope)
            in
            let tt = Cellfn.tied_out_tt cell ~fanout ~k ~t_in:t_mean in
            (arr, tt) :: cands
          end)
      | _ -> cands
    in
    let e_arr, e_tt =
      List.fold_left
        (fun (ba, bt) (a, t) -> if a < ba then (a, t) else (ba, bt))
        (List.hd cands) (List.tl cands)
    in
    { e_arr; e_tt }

let non_event cell ~fanout transitions =
  match transitions with
  | [] -> invalid_arg "Vshape.non_event: no transitions"
  | _ ->
    List.fold_left
      (fun best t ->
        let arr =
          t.arrival
          +. Cellfn.pin_delay cell ~fanout Cellfn.Non ~pos:t.pos ~t_in:t.t_tr
        in
        let tt =
          Cellfn.pin_out_tt cell ~fanout Cellfn.Non ~pos:t.pos ~t_in:t.t_tr
        in
        match best with
        | Some e when e.e_arr >= arr -> Some e
        | Some _ | None -> Some { e_arr = arr; e_tt = tt })
      None transitions
    |> Option.get

(* ----- window transfer functions (STA, Section 4.2) -------------------- *)

let ctl_window cell ~fanout wins =
  match wins with
  | [] -> invalid_arg "Vshape.ctl_window: no inputs"
  | _ ->
    let resp = Cellfn.Ctl in
    (* earliest output arrival: singles plus both-earliest pairs, with the
       four {S, L} transition-time corner combinations (paper formula) *)
    let single_min w =
      Interval.lo w.window.w_arr
      +. snd
           (Cellfn.min_delay_over cell ~fanout resp ~pos:w.wpos w.window.w_tt)
    in
    let pair_min (wa : win_in) (wb : win_in) =
      let a_s = Interval.lo wa.window.w_arr in
      let b_s = Interval.lo wb.window.w_arr in
      let combos =
        List.concat_map
          (fun ta ->
            List.map
              (fun tb ->
                pair_delay_nocheck cell ~fanout
                  ~a:{ pos = wa.wpos; arrival = a_s; t_tr = ta }
                  ~b:{ pos = wb.wpos; arrival = b_s; t_tr = tb })
              [ Interval.lo wb.window.w_tt; Interval.hi wb.window.w_tt ])
          [ Interval.lo wa.window.w_tt; Interval.hi wa.window.w_tt ]
      in
      Float.min a_s b_s +. List.fold_left Float.min infinity combos
    in
    let rec pair_mins acc = function
      | [] -> acc
      | a :: rest ->
        let acc =
          List.fold_left
            (fun acc b ->
              if a.wpos = b.wpos then acc else pair_min a b :: acc)
            acc rest
        in
        pair_mins acc rest
    in
    let a_s_cands = pair_mins (List.map single_min wins) wins in
    let a_s = List.fold_left Float.min infinity a_s_cands in
    (* the >2-simultaneous extension can undercut every pair candidate, so
       the earliest bound must also cover the tied-k floor: all inputs at
       their earliest arrivals with the delay minimized over the combined
       transition-time span *)
    let a_s =
      let n_present = List.length wins in
      if n_present < 3 then a_s
      else begin
        let a_min =
          List.fold_left
            (fun acc w -> Float.min acc (Interval.lo w.Types.window.w_arr))
            infinity wins
        in
        let t_iv =
          List.fold_left
            (fun acc w -> Interval.hull acc w.Types.window.w_tt)
            (List.hd wins).Types.window.w_tt wins
        in
        let rec fold k acc =
          if k > n_present then acc
          else
            fold (k + 1)
              (Float.min acc
                 (a_min
                 +. Cellfn.min_tied_delay_over cell ~fanout ~k t_iv))
        in
        fold 3 a_s
      end
    in
    (* latest output arrival: a lagging δ-simultaneous transition cannot slow
       a to-controlling response, so the worst case is a single switch with
       the delay-maximizing transition time (Figure 9) *)
    let a_l =
      List.fold_left
        (fun acc w ->
          Float.max acc
            (Interval.hi w.window.w_arr
            +. snd
                 (Cellfn.max_delay_over cell ~fanout resp
                    ~pos:w.wpos w.window.w_tt)))
        neg_infinity wins
    in
    let a_l = Float.max a_l a_s in
    (* transition-time extremes *)
    let t_s_single w =
      snd
        (Cellfn.min_tt_over cell ~fanout resp ~pos:w.wpos w.window.w_tt)
    in
    let t_s_pair (wa : win_in) (wb : win_in) =
      (* feasible skew interval given both arrival windows *)
      let f_lo =
        Interval.lo wb.window.w_arr -. Interval.hi wa.window.w_arr
      in
      let f_hi =
        Interval.hi wb.window.w_arr -. Interval.lo wa.window.w_arr
      in
      let t_a = Interval.lo wa.window.w_tt in
      let t_b = Interval.lo wb.window.w_tt in
      match
        tt_v_data cell ~pos_a:wa.wpos ~pos_b:wb.wpos ~t_a ~t_b
      with
      | None -> infinity
      | Some (sk, tmin, sr, tr_right, syr, tr_left) ->
        (* the V attains its minimum at the feasible skew closest to the
           vertex (the paper's SK_{t,R,min} rule) *)
        let skew = Float.max f_lo (Float.min f_hi sk) in
        tt_v_eval ~sk ~tmin ~sr ~tr_right ~syr ~tr_left skew
        +. Cellfn.load_delta_tt cell ~fanout resp
    in
    let rec tt_pair_mins acc = function
      | [] -> acc
      | a :: rest ->
        let acc =
          List.fold_left
            (fun acc b ->
              if a.wpos = b.wpos then acc else t_s_pair a b :: acc)
            acc rest
        in
        tt_pair_mins acc rest
    in
    let t_s_cands = tt_pair_mins (List.map t_s_single wins) wins in
    let t_s = List.fold_left Float.min infinity t_s_cands in
    (* tied-k floor for the output transition time, mirroring the arrival
       bound above *)
    let t_s =
      let n_present = List.length wins in
      if n_present < 3 then t_s
      else begin
        let t_iv =
          List.fold_left
            (fun acc w -> Interval.hull acc w.Types.window.w_tt)
            (List.hd wins).Types.window.w_tt wins
        in
        let rec fold k acc =
          if k > n_present then acc
          else
            fold (k + 1)
              (Float.min acc
                 (Cellfn.min_tied_tt_over cell ~fanout ~k t_iv))
        in
        fold 3 t_s
      end
    in
    let t_l =
      List.fold_left
        (fun acc w ->
          Float.max acc
            (snd
               (Cellfn.max_tt_over cell ~fanout resp ~pos:w.wpos
                  w.window.w_tt)))
        neg_infinity wins
    in
    let t_l = Float.max t_l t_s in
    { w_arr = Interval.make a_s a_l; w_tt = Interval.make t_s t_l }
