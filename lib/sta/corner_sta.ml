module Interval = Ssd_util.Interval
module Stats = Ssd_util.Stats
module Corners = Ssd_cell.Corners
module Corner_batch = Ssd_core.Corner_batch
module Types = Ssd_core.Types
module Netlist = Ssd_circuit.Netlist
module Obs = Ssd_obs.Obs

type t = {
  ct_netlist : Netlist.t;
  ct_table : Corners.table;
  ct_timing : Windows.t;
}

(* corners evaluated per task: one level×corner-chunk cell of the
   parallel schedule.  Four keeps K = 4 in a single streaming pass and
   splits K = 16 into four independent lanes per node. *)
let corner_chunk = 4

(* the PI window of [opts.pi_spec], rejected up front when invalid: the
   flat kernel would store the NaNs that non-finite bounds produce *)
let checked_pi_win ctx opts =
  match Run_opts.validate_pi_spec opts.Run_opts.pi_spec with
  | Ok spec -> Sta.pi_window spec
  | Error m -> invalid_arg (ctx ^ ": " ^ m)

let rule = Corner_batch.V_shape (* the sweeps time the proposed model *)

(* one streaming topological pass over corners [0, planes) *)
let sweep_planes sw nl ~pi_win planes =
  let sc = Plane_sweep.scratch sw in
  Array.iter
    (fun i -> Plane_sweep.eval_range sw sc ~rule ~pi_win i 0 planes)
    (Netlist.topo_order nl)

let analyze ?(opts = Run_opts.default) ~table nl =
  let k = Corners.k table in
  if opts.Run_opts.corners <> 1 && opts.Run_opts.corners <> k then
    invalid_arg
      (Printf.sprintf
         "Corner_sta.analyze: opts.corners = %d but the table has %d corners"
         opts.Run_opts.corners k);
  let pi_win = checked_pi_win "Corner_sta.analyze" opts in
  let w = Windows.create ~planes:k (Netlist.size nl) in
  let sw = Plane_sweep.make ~cb:(Corner_batch.create table) w nl in
  let jobs =
    if opts.Run_opts.jobs <= 0 then Par.default_jobs () else opts.Run_opts.jobs
  in
  let obs = opts.Run_opts.obs in
  let tm_sweep = Obs.timer obs "corners.sweep" in
  if jobs <= 1 then
    (* one streaming pass over all K corners per node *)
    Obs.span obs tm_sweep (fun () -> sweep_planes sw nl ~pi_win k)
  else begin
    (* the pool parallelizes over (level slot × corner chunk): a level
       of width W fans out into W × ⌈K/chunk⌉ independent tasks, since
       corner planes never read each other; each lane evaluates into
       its own domain's scratch *)
    let nchunks = (k + corner_chunk - 1) / corner_chunk in
    Par.with_pool ~obs ~jobs (fun pool ->
        Obs.span obs tm_sweep (fun () ->
            for l = 0 to Netlist.level_count nl - 1 do
              Par.parallel_for pool
                ~label:(Printf.sprintf "L%d" l)
                ~n:(Netlist.level_width nl l * nchunks)
                (fun tsk ->
                  let i = Netlist.level_node nl l (tsk / nchunks) in
                  let c0 = tsk mod nchunks * corner_chunk in
                  let c1 = min k (c0 + corner_chunk) in
                  let sc = Plane_sweep.scratch sw in
                  Plane_sweep.eval_range sw sc ~rule ~pi_win i c0 c1)
            done))
  end;
  { ct_netlist = nl; ct_table = table; ct_timing = w }

let netlist t = t.ct_netlist
let table t = t.ct_table
let corners t = Corners.k t.ct_table
let windows t = t.ct_timing

let timing t ~corner i =
  {
    Sta.rise = Windows.rise_plane t.ct_timing ~plane:corner i;
    fall = Windows.fall_plane t.ct_timing ~plane:corner i;
  }

let po_window t ~corner =
  Sta.po_window_of t.ct_netlist t.ct_timing ~plane:corner

let min_delay t ~corner = Interval.lo (po_window t ~corner)
let max_delay t ~corner = Interval.hi (po_window t ~corner)

let plane_matches t ~corner (sta : Sta.t) =
  Windows.plane_eq t.ct_timing ~plane:corner (Sta.windows sta) ~plane:0

let summary t =
  let k = corners t in
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%s [%d corners]:" (Netlist.stats t.ct_netlist) k);
  for c = 0 to k - 1 do
    let s = Corners.spec t.ct_table c in
    Buffer.add_string buf
      (Printf.sprintf "\n  %-6s (d×%.3f t×%.3f): PO window [%.3f ns, %.3f ns]"
         s.Corners.c_name s.Corners.c_delay s.Corners.c_tt
         (min_delay t ~corner:c *. 1e9)
         (max_delay t ~corner:c *. 1e9))
  done;
  Buffer.contents buf

(* ----- Monte-Carlo parameter sampling ---------------------------------- *)

type mc_result = {
  mc_specs : Corners.spec array;
  mc_pos : int array;
  mc_delays : float array array;
      (* [po][sample]: latest arrival over both transitions *)
  mc_max : float array;  (* [sample]: circuit max delay *)
}

(* The extraction expressions of [monte_carlo]'s chunk loop, evaluated
   on the scalar analysis: [Float.max] of the two arrival-window tops
   per PO and the {!Sta.po_window_of} fold for the circuit max, so
   bit-identical windows compare equal. *)
let sample_matches res ~sample (sta : Sta.t) =
  if sample < 0 || sample >= Array.length res.mc_max then
    invalid_arg "Corner_sta.sample_matches: sample out of range";
  let beq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let po_matches pi =
    let lt = Sta.timing sta res.mc_pos.(pi) in
    beq res.mc_delays.(pi).(sample)
      (Float.max
         (Interval.hi lt.Sta.rise.Types.w_arr)
         (Interval.hi lt.Sta.fall.Types.w_arr))
  in
  let rec pos_match pi =
    pi >= Array.length res.mc_pos || (po_matches pi && pos_match (pi + 1))
  in
  beq res.mc_max.(sample) (Sta.max_delay sta) && pos_match 0

(* per-lane batched-kernel state: one K-corner table whose layouts are
   fitted once and then only re-coefficiented per chunk, the evaluator
   bound to it and a K-plane scratch window store (the gather/scatter
   scratch is the lane domain's own).  Lanes never share mutable state,
   so sample chunks can fan out across the domain pool without
   contention. *)
type mc_lane = {
  mc_sw : Plane_sweep.t;
  mc_cb : Corner_batch.t;
  mc_table : Corners.table;
  mutable mc_used : bool;  (* has this lane's table served a chunk yet? *)
}

let monte_carlo ?(opts = Run_opts.default) ?(samples = 64) ~seed ~library nl =
  if samples < 1 then invalid_arg "Corner_sta.monte_carlo: samples < 1";
  if opts.Run_opts.mc_batch < 1 then
    invalid_arg "Corner_sta.monte_carlo: opts.mc_batch < 1";
  let pos = Array.of_list (Netlist.outputs nl) in
  let npos = Array.length pos in
  if npos = 0 then invalid_arg "Corner_sta.monte_carlo: netlist has no outputs";
  let pi_win = checked_pi_win "Corner_sta.monte_carlo" opts in
  (* all samples are drawn from one splitmix stream up front, so the
     spec sequence is invariant under the chunking that follows *)
  let specs = Array.of_list (Corners.sample_specs ~seed samples) in
  let batch = min opts.Run_opts.mc_batch samples in
  let nchunks = (samples + batch - 1) / batch in
  let delays = Array.init npos (fun _ -> Array.make samples 0.) in
  let mc_max = Array.make samples 0. in
  let obs = opts.Run_opts.obs in
  (* counter handles created before any domain is spawned: creation
     takes the registry lock, increments are sharded and lock-free *)
  let c_chunks = Obs.counter obs "mc.chunks" in
  let c_built = Obs.counter obs "mc.tables_built" in
  let c_hits = Obs.counter obs "mc.fit_cache_hits" in
  let c_planes = Obs.counter obs "mc.planes" in
  (* timer handles likewise; the spans nest (chunk > refit/refresh/
     sweep), so each timer's self time isolates its own phase *)
  let tm_chunk = Obs.timer obs "mc.chunk" in
  let tm_refit = Obs.timer obs "corners.refit" in
  let tm_refresh = Obs.timer obs "corner_batch.refresh" in
  let tm_sweep = Obs.timer obs "mc.sweep" in
  let proto_specs = Array.to_list (Array.sub specs 0 batch) in
  (* the prototype lane also resolves the gate → table-slot mapping,
     shared read-only by every other lane *)
  let lane_of sweep table =
    Obs.incr c_built;
    let cb = Corner_batch.create table in
    let w = Windows.create ~planes:batch (Netlist.size nl) in
    { mc_sw = sweep ~cb w; mc_cb = cb; mc_table = table; mc_used = false }
  in
  let lane0 =
    lane_of
      (fun ~cb w -> Plane_sweep.make ~cb w nl)
      (Corners.build ~specs:proto_specs library)
  in
  let new_lane () =
    lane_of (Plane_sweep.rebind lane0.mc_sw)
      (Corners.build ~specs:proto_specs library)
  in
  let run_chunk lane chunk =
    Obs.span obs tm_chunk (fun () ->
    let s0 = chunk * batch in
    let r = min batch (samples - s0) in
    Obs.incr c_chunks;
    if lane.mc_used then Obs.incr c_hits else lane.mc_used <- true;
    Obs.add c_planes r;
    (* retarget the lane's resident table: layouts, index and storage
       are reused, only r corners' coefficient blocks are rewritten *)
    Obs.span obs tm_refit (fun () ->
        Corners.refit lane.mc_table (Array.sub specs s0 r));
    Obs.span obs tm_refresh (fun () -> Corner_batch.refresh lane.mc_cb);
    Obs.span obs tm_sweep (fun () ->
        sweep_planes lane.mc_sw nl ~pi_win r);
    (* stream the per-PO delays and circuit max out of the finished
       planes; the window store is scratch reused by the next chunk.
       Both extractions are the scalar path's float expressions
       ([Sta.timing] + Float.max / {!Sta.po_window_of}), so
       bit-identical windows give bit-identical results.  Writes land
       at disjoint sample indices, hence are safe across lanes. *)
    let w = Plane_sweep.windows lane.mc_sw in
    for c = 0 to r - 1 do
      let s = s0 + c in
      for pi = 0 to npos - 1 do
        let po = pos.(pi) in
        delays.(pi).(s) <-
          Float.max
            (Interval.hi (Windows.rise_plane w ~plane:c po).Types.w_arr)
            (Interval.hi (Windows.fall_plane w ~plane:c po).Types.w_arr)
      done;
      mc_max.(s) <- Interval.hi (Sta.po_window_of nl w ~plane:c)
    done)
  in
  let jobs =
    if opts.Run_opts.jobs <= 0 then Par.default_jobs () else opts.Run_opts.jobs
  in
  (* an instrumented run always goes through the pool, even single-lane
     or single-chunk, so the par.lane<i> utilization probes exist: a
     1-lane pool executes the chunks in ascending order on the caller
     against the same prototype lane as the plain loop, so results stay
     bit-identical whether telemetry is on or off *)
  if (jobs <= 1 || nchunks = 1) && not (Obs.enabled obs) then
    for chunk = 0 to nchunks - 1 do
      run_chunk lane0 chunk
    done
  else begin
    let lane = Domain.DLS.new_key new_lane in
    (* the caller participates as a pool lane; hand it the prototype *)
    Domain.DLS.set lane lane0;
    Par.with_pool ~obs ~jobs (fun pool ->
        Par.parallel_for pool ~chunk:1 ~label:"mc.chunk" ~n:nchunks
          (fun chunk -> run_chunk (Domain.DLS.get lane) chunk))
  end;
  { mc_specs = specs; mc_pos = pos; mc_delays = delays; mc_max }

let mc_po_quantiles res qs =
  Array.map (fun d -> Stats.quantiles qs (Array.to_list d)) res.mc_delays

let mc_max_quantiles res qs = Stats.quantiles qs (Array.to_list res.mc_max)
