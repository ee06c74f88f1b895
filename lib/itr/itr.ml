module Interval = Ssd_util.Interval
module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Types = Ssd_core.Types
module Delay_model = Ssd_core.Delay_model
module Cellfn = Ssd_core.Cellfn
module Netlist = Ssd_circuit.Netlist
module Sta = Ssd_sta.Sta

type line_windows = {
  rise : Types.win option;
  fall : Types.win option;
}

type t = {
  it_library : Charlib.t;
  it_model : Delay_model.t;
  it_windowing : Delay_model.windowing;
  it_pi_spec : Sta.pi_spec;
  it_impl : Implication.t;
  it_windows : line_windows array;
  it_in_focus : bool array;  (* lines whose windows are maintained *)
}

let implication t = t.it_impl

let state t i tr = Value2f.state (Implication.value t.it_impl i) tr

(* One gate-output transition window under transition states.
   [ins] lists, per input position, the state and (optional) window of the
   causal input transition. *)
let ctl_window_refined ~windowing ~cell ~load ins =
  let present =
    List.filter_map
      (fun (pos, st, w) ->
        match (st, w) with
        | -1, _ | _, None -> None
        | _, Some window -> Some (pos, st, window))
      ins
  in
  if present = [] then None
  else begin
    let win_ins =
      List.map (fun (pos, _, w) -> { Types.wpos = pos; window = w }) present
    in
    (* the model's ctl_window gives the correct earliest side (all possible
       switchers participate) and the pin-to-pin latest side *)
    let base = windowing.Delay_model.ctl_window cell ~fanout:load win_ins in
    (* Table-1 refinement of the latest arrival: every definite switcher i
       bounds the response by A_i,L + d_i,max, because additional
       simultaneous transitions can only speed a to-controlling response
       up. *)
    let definite = List.filter (fun (_, st, _) -> st = 1) present in
    let a_l_refined =
      List.fold_left
        (fun acc (pos, _, w) ->
          let _, d_max =
            Cellfn.max_delay_over cell ~fanout:load Cellfn.Ctl ~pos
              w.Types.w_tt
          in
          Float.min acc (Interval.hi w.Types.w_arr +. d_max))
        infinity definite
    in
    let a_s = Interval.lo base.Types.w_arr in
    let a_l = Float.max a_s (Float.min (Interval.hi base.Types.w_arr) a_l_refined) in
    Some
      {
        Types.w_arr = Interval.make a_s a_l;
        w_tt = base.Types.w_tt;
      }
  end

let non_window_refined ~windowing ~cell ~load ins =
  let present =
    List.filter_map
      (fun (pos, st, w) ->
        match (st, w) with
        | -1, _ | _, None -> None
        | _, Some window -> Some (pos, st, window))
      ins
  in
  if present = [] then None
  else begin
    let win_ins =
      List.map (fun (pos, _, w) -> { Types.wpos = pos; window = w }) present
    in
    let base = windowing.Delay_model.non_window cell ~fanout:load win_ins in
    (* refinement of the earliest arrival: the response cannot precede any
       definite switcher's earliest contribution *)
    let definite = List.filter (fun (_, st, _) -> st = 1) present in
    let a_s_refined =
      List.fold_left
        (fun acc (pos, _, w) ->
          let _, d_min =
            Cellfn.min_delay_over cell ~fanout:load Cellfn.Non ~pos
              w.Types.w_tt
          in
          Float.max acc (Interval.lo w.Types.w_arr +. d_min))
        neg_infinity definite
    in
    let a_l = Interval.hi base.Types.w_arr in
    let a_s = Float.min a_l (Float.max (Interval.lo base.Types.w_arr) a_s_refined) in
    Some
      {
        Types.w_arr = Interval.make a_s a_l;
        w_tt = base.Types.w_tt;
      }
  end

let gate_windows t i kind fanin =
  let nl = Implication.netlist t.it_impl in
  let cell = Sta.cell_of_gate t.it_library kind (Array.length fanin) in
  let load = Netlist.load_of nl i in
  let ctl_in_is_fall =
    match cell.Charlib.kind with Sweep.Nand -> true | Sweep.Nor -> false
  in
  let input_info tr sel =
    Array.to_list
      (Array.mapi
         (fun pos j ->
           let st = state t j tr in
           (pos, st, sel t.it_windows.(j)))
         fanin)
  in
  (* to-controlling: NAND needs falling inputs and produces a rise *)
  let ctl_tr = if ctl_in_is_fall then Value2f.Fall else Value2f.Rise in
  let non_tr = if ctl_in_is_fall then Value2f.Rise else Value2f.Fall in
  let ctl_ins = input_info ctl_tr (fun w -> if ctl_in_is_fall then w.fall else w.rise) in
  let non_ins = input_info non_tr (fun w -> if ctl_in_is_fall then w.rise else w.fall) in
  let out_ctl_tr = if ctl_in_is_fall then Value2f.Rise else Value2f.Fall in
  let windowing = t.it_windowing in
  let out_ctl =
    if state t i out_ctl_tr = -1 then None
    else ctl_window_refined ~windowing ~cell ~load ctl_ins
  in
  let out_non =
    let non_out_tr =
      match out_ctl_tr with Value2f.Rise -> Value2f.Fall | Value2f.Fall -> Value2f.Rise
    in
    if state t i non_out_tr = -1 then None
    else non_window_refined ~windowing ~cell ~load non_ins
  in
  ignore non_tr;
  if ctl_in_is_fall then { rise = out_ctl; fall = out_non }
  else { rise = out_non; fall = out_ctl }

let refresh_from t roots =
  (* recompute windows of all gates downstream of the changed nodes, in
     topological order *)
  let nl = Implication.netlist t.it_impl in
  let dirty = Array.make (Netlist.size nl) false in
  let mark = Array.make (Netlist.size nl) false in
  List.iter (fun i -> mark.(i) <- true) roots;
  Array.iter
    (fun i ->
      let self_changed = mark.(i) in
      let upstream_dirty =
        match Netlist.node nl i with
        | Netlist.Pi -> false
        | Netlist.Gate { fanin; _ } ->
          Array.exists (fun j -> dirty.(j) || mark.(j)) fanin
      in
      if (self_changed || upstream_dirty) && t.it_in_focus.(i) then begin
        dirty.(i) <- true;
        match Netlist.node nl i with
        | Netlist.Pi ->
          (* PI windows shrink only via state (value) changes *)
          let pi_win =
            {
              Types.w_arr = t.it_pi_spec.Sta.pi_arrival;
              w_tt = t.it_pi_spec.Sta.pi_tt;
            }
          in
          let w tr = if state t i tr = -1 then None else Some pi_win in
          t.it_windows.(i) <-
            { rise = w Value2f.Rise; fall = w Value2f.Fall }
        | Netlist.Gate { kind; fanin } ->
          t.it_windows.(i) <- gate_windows t i kind fanin
      end)
    (Netlist.topo_order nl)

let refresh_all t =
  let nl = Implication.netlist t.it_impl in
  refresh_from t (List.init (Netlist.size nl) Fun.id)

let create ?(pi_spec = Sta.default_pi_spec) ?focus ~library ~model nl =
  let windowing =
    match model.Delay_model.windowing with
    | Some w -> w
    | None ->
      invalid_arg
        (Printf.sprintf "Itr.create: model %S cannot identify corners"
           model.Delay_model.name)
  in
  let n = Netlist.size nl in
  let it_in_focus =
    match focus with
    | None -> Array.make n true
    | Some lines ->
      let mask = Array.make n false in
      List.iter
        (fun i ->
          mask.(i) <- true;
          List.iter (fun j -> mask.(j) <- true) (Netlist.transitive_fanin nl i))
        lines;
      mask
  in
  let t =
    {
      it_library = library;
      it_model = model;
      it_windowing = windowing;
      it_pi_spec = pi_spec;
      it_impl = Implication.create nl;
      it_windows = Array.make n { rise = None; fall = None };
      it_in_focus;
    }
  in
  refresh_all t;
  t

let copy t =
  {
    t with
    it_impl = Implication.copy t.it_impl;
    it_windows = Array.copy t.it_windows;
  }

let assign t i v =
  match Implication.assign_opt t.it_impl i v with
  | None -> false
  | Some changed ->
    refresh_from t changed;
    true

let rise_window t i = t.it_windows.(i).rise
let fall_window t i = t.it_windows.(i).fall

let window_width_sum t =
  Array.fold_left
    (fun acc w ->
      let add acc = function
        | None -> acc
        | Some win -> acc +. Interval.width win.Types.w_arr
      in
      add (add acc w.rise) w.fall)
    0. t.it_windows
