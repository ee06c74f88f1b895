module Netlist = Ssd_circuit.Netlist
module Rng = Ssd_util.Rng
module Value2f = Ssd_itr.Value2f

type site = {
  aggressor : int;
  victim : int;
  agg_tr : Value2f.transition;
  vic_tr : Value2f.transition;
  delta : float;
  align_window : float;
}

let tr_name = function Value2f.Rise -> "rise" | Value2f.Fall -> "fall"

let describe nl s =
  Printf.sprintf "xtalk %s(%s) -> %s(%s), delta=%.0fps, w=%.0fps"
    (Netlist.signal_name nl s.aggressor)
    (tr_name s.agg_tr)
    (Netlist.signal_name nl s.victim)
    (tr_name s.vic_tr)
    (s.delta *. 1e12)
    (s.align_window *. 1e12)

let extract ?(count = 32) ?(delta = 200e-12) ?(align_window = 300e-12)
    ?max_level_diff ~seed nl =
  let rng = Rng.create seed in
  let n = Netlist.size nl in
  let gate_ids =
    List.filter
      (fun i -> not (Netlist.is_pi nl i))
      (List.init n Fun.id)
  in
  let gate_arr = Array.of_list gate_ids in
  if Array.length gate_arr < 2 then []
  else begin
    let depth = Netlist.depth nl in
    (* victims biased to the deep quarter of the circuit so their slowed
       transition has a short distance to a primary output *)
    let victims =
      List.filter (fun i -> 4 * Netlist.level nl i >= 3 * depth) gate_ids
      |> Array.of_list
    in
    let victims = if Array.length victims = 0 then gate_arr else victims in
    let in_cone_of a b =
      (* true when a is in b's transitive fan-in or fan-out *)
      List.mem a (Netlist.transitive_fanin nl b)
      || List.mem a (Netlist.transitive_fanout nl b)
    in
    let sites = ref [] in
    let attempts = ref 0 in
    while List.length !sites < count && !attempts < count * 40 do
      incr attempts;
      let victim = Rng.pick rng victims in
      let aggressor = Rng.pick rng gate_arr in
      let level_ok =
        match max_level_diff with
        | None -> true
        | Some d -> abs (Netlist.level nl victim - Netlist.level nl aggressor) <= d
      in
      if
        aggressor <> victim && level_ok
        && (not (in_cone_of aggressor victim))
        && not
             (List.exists
                (fun s -> s.aggressor = aggressor && s.victim = victim)
                !sites)
      then begin
        let vic_tr = if Rng.bool rng then Value2f.Rise else Value2f.Fall in
        let agg_tr =
          match vic_tr with Value2f.Rise -> Value2f.Fall | Value2f.Fall -> Value2f.Rise
        in
        sites :=
          { aggressor; victim; agg_tr; vic_tr; delta; align_window } :: !sites
      end
    done;
    List.rev !sites
  end

module Timing_sim = Ssd_sta.Timing_sim
module Types = Ssd_core.Types

let extract_screened ?(count = 32) ?(delta = 200e-12) ?(align_window = 300e-12)
    ?(samples = 150) ~seed ~library ~model nl =
  let rng = Rng.create seed in
  let npi = List.length (Netlist.inputs nl) in
  let sims =
    List.init samples (fun _ ->
        let vec = Array.init npi (fun _ -> (Rng.bool rng, Rng.bool rng)) in
        Timing_sim.simulate ~library ~model nl vec)
  in
  let n = Netlist.size nl in
  let gate_ids =
    List.filter
      (fun i -> not (Netlist.is_pi nl i))
      (List.init n Fun.id)
  in
  let gate_arr = Array.of_list gate_ids in
  if Array.length gate_arr < 2 then []
  else begin
    let depth = Netlist.depth nl in
    let victims =
      List.filter (fun i -> 4 * Netlist.level nl i >= 3 * depth) gate_ids
      |> Array.of_list
    in
    let victims = if Array.length victims = 0 then gate_arr else victims in
    let in_cone_of a b =
      List.mem a (Netlist.transitive_fanin nl b)
      || List.mem a (Netlist.transitive_fanout nl b)
    in
    (* find a witnessed opposite-direction co-transition of the pair *)
    let witness aggressor victim =
      let rec scan = function
        | [] -> None
        | lines :: rest ->
          let close =
            Timing_sim.has_event lines aggressor
            && Timing_sim.has_event lines victim
            && Float.abs
                 (Timing_sim.event_arr lines aggressor
                 -. Timing_sim.event_arr lines victim)
               <= 1.5 *. align_window
          in
          if
            close
            && Timing_sim.rising_at lines victim
            && Timing_sim.falling_at lines aggressor
          then Some (Value2f.Fall, Value2f.Rise)
          else if
            close
            && Timing_sim.falling_at lines victim
            && Timing_sim.rising_at lines aggressor
          then Some (Value2f.Rise, Value2f.Fall)
          else scan rest
      in
      scan sims
    in
    let sites = ref [] in
    let attempts = ref 0 in
    while List.length !sites < count && !attempts < count * 120 do
      incr attempts;
      let victim = Rng.pick rng victims in
      let aggressor = Rng.pick rng gate_arr in
      if
        aggressor <> victim
        && (not (in_cone_of aggressor victim))
        && not
             (List.exists
                (fun s -> s.aggressor = aggressor && s.victim = victim)
                !sites)
      then begin
        match witness aggressor victim with
        | Some (agg_tr, vic_tr) ->
          sites :=
            { aggressor; victim; agg_tr; vic_tr; delta; align_window }
            :: !sites
        | None -> ()
      end
    done;
    List.rev !sites
  end
