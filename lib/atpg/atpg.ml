module Interval = Ssd_util.Interval
module Rng = Ssd_util.Rng
module Types = Ssd_core.Types
module Netlist = Ssd_circuit.Netlist
module Timing_sim = Ssd_sta.Timing_sim
module Value2f = Ssd_itr.Value2f
module Implication = Ssd_itr.Implication
module Itr = Ssd_itr.Itr
module Obs = Ssd_obs.Obs

type outcome =
  | Detected of (bool * bool) array
  | Undetectable
  | Aborted

type config = {
  use_itr : bool;
  max_expansions : int;
      (** search-effort budget in decision-node expansions: every PI value
          decision costs one unit, so a branch pruned after k decisions
          costs k while a full descent costs the whole cone — this is what
          makes ITR pruning pay off, as in the paper.  A restart descent
          that expands nothing and finds no test costs one unit too, so
          the budget always ends a search. *)
  fill_tries : int;
  clock_period : float;
  seed : int64;
}

let default_config ~clock_period =
  {
    use_itr = true;
    max_expansions = 2500;
    fill_tries = 3;
    clock_period;
    seed = 20010618L;
  }

type fault_result = {
  site : Fault.site;
  outcome : outcome;
  expansions : int;
  descents : int;
  wall : float;
}

type stats = {
  total : int;
  detected : int;
  undetectable : int;
  aborted : int;
  total_expansions : int;
  total_descents : int;
  total_wall : float;
}

(* search state: with ITR we carry the timing windows, otherwise only the
   logic implication state *)
type search_state =
  | With_itr of Itr.t
  | Logic_only of Implication.t

let state_copy = function
  | With_itr t -> With_itr (Itr.copy t)
  | Logic_only t -> Logic_only (Implication.copy t)

let state_assign st i v =
  match st with
  | With_itr t -> Itr.assign t i v
  | Logic_only t -> Implication.assign_opt t i v <> None

let state_impl = function
  | With_itr t -> Itr.implication t
  | Logic_only t -> t

(* Whether the aggressor and victim transition windows still come within
   the coupling alignment window of each other (never when either
   transition has become impossible).  A branch where they do not is
   infeasible: a sound prune. *)
let windows_can_align itr (site : Fault.site) =
  let window_of tr i =
    match tr with
    | Value2f.Rise -> Itr.rise_window itr i
    | Value2f.Fall -> Itr.fall_window itr i
  in
  match
    ( window_of site.Fault.agg_tr site.Fault.aggressor,
      window_of site.Fault.vic_tr site.Fault.victim )
  with
  | None, _ | _, None -> false
  | Some wa, Some wv ->
    let a = wa.Types.w_arr and v = wv.Types.w_arr in
    Float.max
      (Interval.lo a -. Interval.hi v)
      (Interval.lo v -. Interval.hi a)
    <= site.Fault.align_window

let prune_ok st site =
  match st with
  | With_itr itr -> windows_can_align itr site
  | Logic_only _ -> true

exception Budget_exhausted

exception Found of (bool * bool) array

exception Slice_exhausted

(* full-vector evaluation at a search leaf, by the fault simulator's
   detection rule; the faulty run re-times only what the victim's delta
   moves on top of the fault-free one *)
let evaluate_leaf ~library ~model ~cfg nl (site : Fault.site) impl =
  let pis = Netlist.inputs nl in
  let vector =
    List.map
      (fun i ->
        match Implication.value impl i with
        | { Value2f.f1 = Value2f.One; f2 = Value2f.One } -> (true, true)
        | { f1 = Value2f.One; f2 = Value2f.Zero } -> (true, false)
        | { f1 = Value2f.Zero; f2 = Value2f.One } -> (false, true)
        | { f1 = Value2f.Zero; f2 = Value2f.Zero } -> (false, false)
        | _ -> raise Exit)
      pis
  in
  match vector with
  | exception Exit -> None
  | v ->
    let vector = Array.of_list v in
    let lines = Timing_sim.simulate ~library ~model nl vector in
    if not (Fault_sim.excited_and_aligned lines site) then None
    else
      let faulty =
        Timing_sim.resimulate ~library ~model nl ~base:lines
          ~line:site.Fault.victim ~delta:site.Fault.delta
      in
      if Fault_sim.observable nl site lines faulty cfg.clock_period then
        Some vector
      else None

(* Paths from the victim to any primary output: the first [max_paths]
   the depth-first walk reaches (fan-outs in CSR order), then sorted
   shortest first.  Sensitizing one of them (side inputs steady at the
   non-controlling value) guarantees the victim's delayed transition
   propagates: the path gates then respond only to the victim's event. *)
let paths_to_po ?(max_paths = 6) nl victim =
  let pos = Netlist.outputs nl in
  let is_po i = List.mem i pos in
  let acc = ref [] in
  let rec dfs node path =
    if List.length !acc >= max_paths then ()
    else begin
      let path = node :: path in
      if is_po node then acc := List.rev path :: !acc
      else Netlist.iter_fanout nl node ~f:(fun g -> dfs g path)
    end
  in
  dfs victim [];
  List.sort (fun a b -> compare (List.length a) (List.length b)) !acc

(* Steady side-input objectives along a sensitized path: every fan-in of a
   path gate that is not the incoming path line is held at the gate's
   non-controlling value in both frames. *)
let side_objectives nl path =
  let rec walk acc = function
    | [] | [ _ ] -> acc
    | from_line :: (gate :: _ as rest) ->
      let acc =
        if Netlist.is_pi nl gate then acc
        else
          match
            Ssd_circuit.Gate.controlling_value (Netlist.gate_kind nl gate)
          with
          | None -> acc
          | Some cv ->
            let v = Value2f.steady (not cv) and acc = ref acc in
            Netlist.iter_fanin nl gate ~f:(fun j ->
                if j <> from_line then acc := (j, v) :: !acc);
            !acc
      in
      walk acc rest
  in
  walk [] path

let generate cfg ~library ~model nl (site : Fault.site) =
  let t0 = Unix.gettimeofday () in
  let rng = Rng.create cfg.seed in
  let expansions = ref 0 in
  let descents = ref 0 in
  let slice_left = ref 0 in
  let charge () =
    incr expansions;
    if !expansions > cfg.max_expansions then raise Budget_exhausted;
    decr slice_left;
    if !slice_left < 0 then raise Slice_exhausted
  in
  let fanin_pis i =
    List.filter (Netlist.is_pi nl) (i :: Netlist.transitive_fanin nl i)
  in
  let all_pis = Netlist.inputs nl in
  let full_values =
    [|
      { Value2f.f1 = Value2f.Zero; f2 = Value2f.One };
      { Value2f.f1 = Value2f.One; f2 = Value2f.Zero };
      { Value2f.f1 = Value2f.One; f2 = Value2f.One };
      { Value2f.f1 = Value2f.Zero; f2 = Value2f.Zero };
    |]
  in
  (* test generation knows the tester's launch time and slew exactly, so
     the PI windows are points (matching Timing_sim's defaults); all
     remaining window width comes from the unresolved logic *)
  let pi_spec =
    {
      Ssd_sta.Sta.pi_arrival = Interval.point 0.;
      pi_tt = Interval.point 0.25e-9;
    }
  in
  let init_state () =
    if cfg.use_itr then
      With_itr
        (Itr.create ~pi_spec
           ~focus:[ site.Fault.aggressor; site.Fault.victim ]
           ~library ~model nl)
    else Logic_only (Implication.create nl)
  in
  (* Set up the excitation + sensitization objectives for one victim->PO
     path.  None when the objectives are contradictory (a sound
     undetectability argument for this path). *)
  let setup_path path =
    let st0 = init_state () in
    let ok =
      state_assign st0 site.Fault.victim (Value2f.requires site.Fault.vic_tr)
      && state_assign st0 site.Fault.aggressor
           (Value2f.requires site.Fault.agg_tr)
      && List.for_all
           (fun (line, v) -> state_assign st0 line v)
           (side_objectives nl path)
    in
    if not ok then None
    else if not (prune_ok st0 site) then None
    else begin
      let cone =
        List.sort_uniq compare
          (fanin_pis site.Fault.aggressor
          @ fanin_pis site.Fault.victim
          @ List.concat_map
              (fun (line, _) -> fanin_pis line)
              (side_objectives nl path))
      in
      let others = List.filter (fun i -> not (List.mem i cone)) all_pis in
      Some (st0, cone, others)
    end
  in
  (* Depth-first search over the decision PIs.  At every node the
     consistent values are expanded (one expansion charge); with ITR the
     branches whose fault-site windows can no longer align are pruned —
     cutting the whole subtree, which is where the refinement pays.  The
     surviving children are visited in a random value order, with or
     without ITR. *)
  let dfs_path (st0, cone, others) =
    let complete_and_evaluate st =
      let rec fills k =
        if k >= max 1 cfg.fill_tries then None
        else begin
          let impl = Implication.copy (state_impl st) in
          let ok =
            List.for_all
              (fun pi ->
                let cur = Implication.value impl pi in
                if Value2f.is_fully_specified cur then true
                else begin
                  let order = Array.copy full_values in
                  Rng.shuffle rng order;
                  Array.exists
                    (fun v ->
                      match Value2f.meet cur v with
                      | None -> false
                      | Some _ -> Implication.assign_opt impl pi v <> None)
                    order
                end)
              others
          in
          if ok then begin
            match evaluate_leaf ~library ~model ~cfg nl site impl with
            | Some vector -> Some vector
            | None -> fills (k + 1)
          end
          else fills (k + 1)
        end
      in
      fills 0
    in
    let rec walk st = function
      | [] -> (
        match complete_and_evaluate st with
        | Some vector -> raise (Found vector)
        | None -> ())
      | pi :: rest ->
        let current = Implication.value (state_impl st) pi in
        if Value2f.is_fully_specified current then walk st rest
        else begin
          charge ();
          let order = Array.copy full_values in
          Rng.shuffle rng order;
          let children = ref [] in
          Array.iter
            (fun v ->
              match Value2f.meet current v with
              | None -> ()
              | Some _ ->
                let st' = state_copy st in
                (* with ITR, a sound subtree prune: no completion can
                   align the aggressor and victim transitions any more *)
                if state_assign st' pi v && prune_ok st' site then
                  children := st' :: !children)
            order;
          List.iter (fun st' -> walk st' rest) (List.rev !children)
        end
    in
    walk (state_copy st0) cone
  in
  let result = ref None in
  let paths = paths_to_po nl site.Fault.victim in
  (match paths with
  | [] -> result := Some Undetectable
  | _ ->
    let setups = List.filter_map setup_path paths in
    if setups = [] then
      (* every sensitizable path is contradictory (logically or by the ITR
         alignment windows): proven undetectable *)
      result := Some Undetectable
    else begin
      let n_setups = List.length setups in
      let setups = Array.of_list setups in
      (* Restarted DFS: each slice runs a depth-first search with subtree
         pruning under a fresh random value order; the restarts provide
         the diversity a single DFS lacks, the DFS inside a slice lets a
         prune cut a whole subtree. *)
      (try
         let slice = 100 in
         while !result = None do
           if !expansions >= cfg.max_expansions then raise Budget_exhausted;
           let setup = setups.(Rng.int rng n_setups) in
           incr descents;
           slice_left := slice;
           let before = !expansions in
           (try dfs_path setup with
           | Found vector -> result := Some (Detected vector)
           | Slice_exhausted -> ());
           (* setup's implications can fix every cone PI, so a descent
              may expand nothing; when it finds no test either it costs
              one unit, or the restarts could run forever *)
           if !result = None && !expansions = before then incr expansions
         done
       with Budget_exhausted -> result := Some Aborted)
    end);
  {
    site;
    outcome = Option.value !result ~default:Aborted;
    expansions = !expansions;
    descents = !descents;
    wall = Unix.gettimeofday () -. t0;
  }

(* Per-site generation is independent — each site search carries its own
   Rng (seeded from the config) and implication state, and only reads the
   shared netlist/library — so sites can fan out across the domain pool.
   Results land in a per-site slot and telemetry is recorded afterwards
   in site order, making the output independent of the lane schedule. *)
let run_with (opts : Ssd_sta.Run_opts.t) cfg ~library ~model nl sites =
  let obs = opts.Ssd_sta.Run_opts.obs in
  let tm_fault = Obs.timer obs "atpg.fault" in
  let h_exp =
    Obs.histogram ~bins:16 ~lo:0.
      ~hi:(float_of_int (max 1 cfg.max_expansions))
      obs "atpg.expansions_per_fault"
  in
  let sites_a = Array.of_list sites in
  let slots = Array.make (Array.length sites_a) None in
  let eval i =
    slots.(i) <-
      Some
        (Obs.span obs tm_fault (fun () ->
             generate cfg ~library ~model nl sites_a.(i)))
  in
  (if opts.Ssd_sta.Run_opts.jobs = 1 then
     Array.iteri (fun i _ -> eval i) sites_a
   else
     Ssd_sta.Par.with_pool ~obs ~jobs:opts.Ssd_sta.Run_opts.jobs (fun pool ->
         Ssd_sta.Par.parallel_for pool ~chunk:1 ~label:"atpg"
           ~n:(Array.length sites_a) eval));
  let results =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false)
         slots)
  in
  List.iter
    (fun r ->
      Obs.add (Obs.counter obs "atpg.expansions") r.expansions;
      Obs.add (Obs.counter obs "atpg.descents") r.descents;
      Obs.observe h_exp (float_of_int r.expansions);
      Obs.incr
        (Obs.counter obs
           (match r.outcome with
           | Detected _ -> "atpg.detected"
           | Undetectable -> "atpg.undetectable"
           | Aborted -> "atpg.aborted")))
    results;
  let stats =
    List.fold_left
      (fun s r ->
        {
          total = s.total + 1;
          detected =
            (s.detected + match r.outcome with Detected _ -> 1 | _ -> 0);
          undetectable =
            (s.undetectable
            + match r.outcome with Undetectable -> 1 | _ -> 0);
          aborted = (s.aborted + match r.outcome with Aborted -> 1 | _ -> 0);
          total_expansions = s.total_expansions + r.expansions;
          total_descents = s.total_descents + r.descents;
          total_wall = s.total_wall +. r.wall;
        })
      {
        total = 0;
        detected = 0;
        undetectable = 0;
        aborted = 0;
        total_expansions = 0;
        total_descents = 0;
        total_wall = 0.;
      }
      results
  in
  (results, stats)

let efficiency s =
  if s.total = 0 then 0.
  else 100. *. float_of_int (s.detected + s.undetectable) /. float_of_int s.total

(* two whole-circuit simulations, so the re-check is independent of the
   search's incremental faulty run *)
let verify_detection cfg ~library ~model nl (site : Fault.site) vector =
  let lines = Timing_sim.simulate ~library ~model nl vector in
  Fault_sim.excited_and_aligned lines site
  &&
  let faulty =
    Timing_sim.simulate
      ~extra_delay:(fun i ->
        if i = site.Fault.victim then site.Fault.delta else 0.)
      ~library ~model nl vector
  in
  Fault_sim.observable nl site lines faulty cfg.clock_period
