module Interval = Ssd_util.Interval
module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Types = Ssd_core.Types
module Cellfn = Ssd_core.Cellfn
module Netlist = Ssd_circuit.Netlist

type transition = Rise | Fall

type stage = {
  node : int;
  s_transition : transition;
  at : float;
  simultaneous : bool;
}

type path = { stages : stage list; endpoint : int; p_delay : float }

let window_of lt = function
  | Rise -> lt.Sta.rise
  | Fall -> lt.Sta.fall

let eps = 1e-13

(* For a given gate-output transition, every fan-in arc is either the
   to-controlling response (input switches the opposite way for
   NAND/NOT, the same way for NOR... derived from the cell kind) or the
   to-non-controlling one. *)
let arc_info library nl i out_tr =
  let cell =
    Sta.cell_of_gate library (Netlist.gate_kind nl i) (Netlist.fanin_count nl i)
  in
  let ctl_in_is_fall =
    match cell.Charlib.kind with Sweep.Nand -> true | Sweep.Nor -> false
  in
  let out_rise_is_ctl = ctl_in_is_fall in
  (* all primitives invert, so the causal input transition is the
     opposite of the output's; whether that is the to-controlling or the
     to-non-controlling response depends on the cell kind *)
  let resp =
    match out_tr with
    | Rise -> if out_rise_is_ctl then Cellfn.Ctl else Cellfn.Non
    | Fall -> if out_rise_is_ctl then Cellfn.Non else Cellfn.Ctl
  in
  let in_tr = match out_tr with Rise -> Fall | Fall -> Rise in
  (cell, Netlist.load_of nl i, resp, in_tr)

(* trace one step backward: pick the fan-in attaining the bound *)
let step ~late sta library nl i out_tr =
  if Netlist.is_pi nl i then None
  else begin
    let cell, load, resp, in_tr = arc_info library nl i out_tr in
    let lt_out = window_of (Sta.timing sta i) out_tr in
    let bound =
      if late then Interval.hi lt_out.Types.w_arr
      else Interval.lo lt_out.Types.w_arr
    in
    let best = ref None in
    for pin = 0 to Netlist.fanin_count nl i - 1 do
      let j = Netlist.fanin_nth nl i pin in
      let w_in = window_of (Sta.timing sta j) in_tr in
      let contrib =
        if late then
          Interval.hi w_in.Types.w_arr
          +. snd (Cellfn.max_delay_over cell ~fanout:load resp ~pos:pin w_in.Types.w_tt)
        else
          Interval.lo w_in.Types.w_arr
          +. snd (Cellfn.min_delay_over cell ~fanout:load resp ~pos:pin w_in.Types.w_tt)
      in
      match !best with
      | Some (_, c) when (late && c >= contrib) || ((not late) && c <= contrib) ->
        ()
      | _ -> best := Some (j, contrib)
    done;
    match !best with
    | None -> None
    | Some (j, contrib) ->
      (* when even the best single-pin composition cannot reach the bound
         on the early side, the simultaneous speed-up produced it *)
      let simultaneous = (not late) && contrib > bound +. eps in
      Some (j, in_tr, simultaneous)
  end

let trace ~late sta ~endpoint out_tr =
  let nl = Sta.netlist sta in
  let library = Sta.library sta in
  let rec walk i tr acc =
    let w = window_of (Sta.timing sta i) tr in
    let at =
      if late then Interval.hi w.Types.w_arr else Interval.lo w.Types.w_arr
    in
    match step ~late sta library nl i tr with
    | None ->
      { node = i; s_transition = tr; at; simultaneous = false } :: acc
    | Some (j, in_tr, simultaneous) ->
      walk j in_tr ({ node = i; s_transition = tr; at; simultaneous } :: acc)
  in
  let stages = walk endpoint out_tr [] in
  let w = window_of (Sta.timing sta endpoint) out_tr in
  {
    stages;
    endpoint;
    p_delay =
      (if late then Interval.hi w.Types.w_arr else Interval.lo w.Types.w_arr);
  }

let longest_path sta ~endpoint tr = trace ~late:true sta ~endpoint tr
let shortest_path sta ~endpoint tr = trace ~late:false sta ~endpoint tr

let candidates sta =
  let nl = Sta.netlist sta in
  List.concat_map
    (fun po -> [ (po, Rise); (po, Fall) ])
    (Netlist.outputs nl)

let critical_paths sta ~k =
  candidates sta
  |> List.map (fun (po, tr) -> longest_path sta ~endpoint:po tr)
  |> List.sort (fun a b -> Float.compare b.p_delay a.p_delay)
  |> List.filteri (fun i _ -> i < k)

let min_paths sta ~k =
  candidates sta
  |> List.map (fun (po, tr) -> shortest_path sta ~endpoint:po tr)
  |> List.sort (fun a b -> Float.compare a.p_delay b.p_delay)
  |> List.filteri (fun i _ -> i < k)

let to_string sta path =
  let nl = Sta.netlist sta in
  let b = Buffer.create 256 in
  Printf.bprintf b "path to %s: %.3f ns\n"
    (Netlist.signal_name nl path.endpoint)
    (path.p_delay *. 1e9);
  List.iter
    (fun s ->
      Printf.bprintf b "  %-20s %s @ %8.3f ns%s\n"
        (Netlist.signal_name nl s.node)
        (match s.s_transition with Rise -> "rise" | Fall -> "fall")
        (s.at *. 1e9)
        (if s.simultaneous then "   [simultaneous switching]" else ""))
    path.stages;
  Buffer.contents b
