module Interval = Ssd_util.Interval
module Stats = Ssd_util.Stats
module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Corners = Ssd_cell.Corners
module Corner_batch = Ssd_core.Corner_batch
module Types = Ssd_core.Types
module Netlist = Ssd_circuit.Netlist
module Gate = Ssd_circuit.Gate
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

let slot_of_gate table kind n_in =
  let lookup k n =
    match Corners.cell_slot table k n with
    | Some s -> s
    | None ->
      raise
        (Sta.Unsupported_gate
           (Printf.sprintf "no characterized cell for %s with %d inputs"
              (Gate.to_string kind) n_in))
  in
  match kind with
  | Gate.Not -> lookup Sweep.Nand 1
  | Gate.Nand -> lookup Sweep.Nand n_in
  | Gate.Nor -> lookup Sweep.Nor n_in
  | Gate.And | Gate.Or | Gate.Xor | Gate.Xnor | Gate.Buf ->
    raise
      (Sta.Unsupported_gate
         (Printf.sprintf
            "gate type %s is not primitive; decompose the netlist first"
            (Gate.to_string kind)))

(* resolve every gate's table slot up front: one hash lookup per node
   instead of one per (node × corner), and unsupported gates fail
   before any work is done.  Slot indices depend only on the library's
   cell order, so the array can be shared read-only across the lanes of
   a Monte-Carlo fan-out whose tables were built from the same
   library. *)
let resolve_slots table nl =
  let n = Netlist.size nl in
  let slots = Array.make n (-1) in
  let max_fanin = ref 1 in
  for i = 0 to n - 1 do
    if not (Netlist.is_pi nl i) then begin
      let m = Netlist.fanin_count nl i in
      slots.(i) <- slot_of_gate table (Netlist.gate_kind nl i) m;
      if m > !max_fanin then max_fanin := m
    end
  done;
  (slots, !max_fanin)

(* one corner sweep's resolved state: everything [eval_range] touches
   per node, bundled so the analyze and Monte-Carlo paths share the
   same gather/kernel/scatter code (and hence the same float ops) *)
type sweep = {
  sw_nl : Netlist.t;
  sw_cb : Corner_batch.t;
  sw_w : Windows.t;
  sw_data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  sw_nw : int;
  sw_slots : int array;
  sw_pi_win : Types.win;
}

let make_sweep ~pi_spec ~slots ~planes ~cb nl =
  let w = Windows.create ~planes (Netlist.size nl) in
  {
    sw_nl = nl;
    sw_cb = cb;
    sw_w = w;
    sw_data = Windows.data w;
    sw_nw = Windows.length w;
    sw_slots = slots;
    sw_pi_win = Sta.pi_window pi_spec;
  }

let eval_range sw ~inp ~out i c0 c1 =
  let nl = sw.sw_nl in
  if Netlist.is_pi nl i then
    for c = c0 to c1 - 1 do
      Windows.set_plane sw.sw_w ~plane:c i ~rise:sw.sw_pi_win
        ~fall:sw.sw_pi_win
    done
  else begin
    let data = sw.sw_data and nw = sw.sw_nw in
    let m = Netlist.fanin_count nl i in
    (* pin-major gather: the fanin lookup runs once per pin, not once
       per (pin × corner), and the plane base is inlined arithmetic
       ([Windows.base] = ((plane·n)+node)·8) *)
    for p = 0 to m - 1 do
      let j = Netlist.fanin_nth nl i p in
      let d0 = p * 8 in
      for c = c0 to c1 - 1 do
        let src = ((c * nw) + j) * 8 in
        let dst = ((c - c0) * m * 8) + d0 in
        for f = 0 to 7 do
          Array.unsafe_set inp (dst + f)
            (Bigarray.Array1.unsafe_get data (src + f))
        done
      done
    done;
    Corner_batch.eval_node sw.sw_cb ~slot:sw.sw_slots.(i)
      ~fanout:(Netlist.load_of nl i) ~m ~c0 ~c1 ~inputs:inp ~outputs:out;
    for c = c0 to c1 - 1 do
      let dst = ((c * nw) + i) * 8 in
      let ob = (c - c0) * 8 in
      for f = 0 to 7 do
        Bigarray.Array1.unsafe_set data (dst + f) (Array.unsafe_get out (ob + f))
      done
    done
  end

(* one streaming topological pass over corners [0, planes) *)
let sweep_planes sw ~inp ~out planes =
  Array.iter
    (fun i -> eval_range sw ~inp ~out i 0 planes)
    (Netlist.topo_order sw.sw_nl)

let analyze ?(opts = Run_opts.default) ~table nl =
  let k = Corners.k table in
  if opts.Run_opts.corners <> 1 && opts.Run_opts.corners <> k then
    invalid_arg
      (Printf.sprintf
         "Corner_sta.analyze: opts.corners = %d but the table has %d corners"
         opts.Run_opts.corners k);
  let cb = Corner_batch.create table in
  let slots, max_fanin = resolve_slots table nl in
  let sw = make_sweep ~pi_spec:opts.Run_opts.pi_spec ~slots ~planes:k ~cb nl in
  let w = sw.sw_w in
  let jobs =
    if opts.Run_opts.jobs <= 0 then Par.default_jobs () else opts.Run_opts.jobs
  in
  let obs = opts.Run_opts.obs in
  let tm_sweep = Obs.timer obs "corners.sweep" in
  if jobs <= 1 then begin
    (* one streaming pass over all K corners per node *)
    let inp = Array.make (k * max_fanin * 8) 0. in
    let out = Array.make (k * 8) 0. in
    Obs.span obs tm_sweep (fun () -> sweep_planes sw ~inp ~out k)
  end
  else begin
    (* the pool parallelizes over (level slot × corner chunk): a level
       of width W fans out into W × ⌈K/chunk⌉ independent tasks, since
       corner planes never read each other *)
    let nchunks = (k + corner_chunk - 1) / corner_chunk in
    let scratch =
      Domain.DLS.new_key (fun () ->
          ( Array.make (corner_chunk * max_fanin * 8) 0.,
            Array.make (corner_chunk * 8) 0. ))
    in
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
                  let inp, out = Domain.DLS.get scratch in
                  eval_range sw ~inp ~out i c0 c1)
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
  match Netlist.outputs t.ct_netlist with
  | [] -> invalid_arg "Corner_sta.po_window: netlist has no outputs"
  | first :: rest ->
    let win_of i =
      let lt = timing t ~corner i in
      Interval.hull lt.Sta.rise.Types.w_arr lt.Sta.fall.Types.w_arr
    in
    List.fold_left (fun acc i -> Interval.hull acc (win_of i)) (win_of first)
      rest

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
   per PO and the [po_window] hull fold for the circuit max, so
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
   bound to it, a K-plane scratch window store, and the gather/scatter
   scratch.  Lanes never share mutable state, so sample chunks can fan
   out across the domain pool without contention. *)
type mc_lane = {
  mc_sw : sweep;
  mc_table : Corners.table;
  mc_inp : float array;
  mc_out : float array;
  mutable mc_used : bool;  (* has this lane's table served a chunk yet? *)
}

let monte_carlo ?(opts = Run_opts.default) ?(samples = 64) ~seed ~library nl =
  if samples < 1 then invalid_arg "Corner_sta.monte_carlo: samples < 1";
  if opts.Run_opts.mc_batch < 1 then
    invalid_arg "Corner_sta.monte_carlo: opts.mc_batch < 1";
  let pos = Array.of_list (Netlist.outputs nl) in
  let npos = Array.length pos in
  if npos = 0 then invalid_arg "Corner_sta.monte_carlo: netlist has no outputs";
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
  let lane_of ~slots ~max_fanin table =
    Obs.incr c_built;
    let cb = Corner_batch.create table in
    {
      mc_sw =
        make_sweep ~pi_spec:opts.Run_opts.pi_spec ~slots ~planes:batch ~cb nl;
      mc_table = table;
      mc_inp = Array.make (batch * max_fanin * 8) 0.;
      mc_out = Array.make (batch * 8) 0.;
      mc_used = false;
    }
  in
  let new_lane ~slots ~max_fanin () =
    lane_of ~slots ~max_fanin (Corners.build ~specs:proto_specs library)
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
    Obs.span obs tm_refresh (fun () ->
        Corner_batch.refresh lane.mc_sw.sw_cb);
    Obs.span obs tm_sweep (fun () ->
        sweep_planes lane.mc_sw ~inp:lane.mc_inp ~out:lane.mc_out r);
    (* stream the per-PO delays and circuit max out of the finished
       planes; the window store is scratch reused by the next chunk.
       Both extractions replicate the scalar path's float expressions
       ([Sta.timing] + Float.max / the [po_window] hull fold), so
       bit-identical windows give bit-identical results.  Writes land
       at disjoint sample indices, hence are safe across lanes. *)
    let w = lane.mc_sw.sw_w in
    for c = 0 to r - 1 do
      let s = s0 + c in
      let win_of po =
        Interval.hull
          (Windows.rise_plane w ~plane:c po).Types.w_arr
          (Windows.fall_plane w ~plane:c po).Types.w_arr
      in
      let acc = ref (win_of pos.(0)) in
      for pi = 0 to npos - 1 do
        let po = pos.(pi) in
        delays.(pi).(s) <-
          Float.max
            (Interval.hi (Windows.rise_plane w ~plane:c po).Types.w_arr)
            (Interval.hi (Windows.fall_plane w ~plane:c po).Types.w_arr);
        if pi > 0 then acc := Interval.hull !acc (win_of po)
      done;
      mc_max.(s) <- Interval.hi !acc
    done)
  in
  (* the prototype lane also resolves the gate → table-slot mapping,
     shared read-only by every other lane *)
  let table0 = Corners.build ~specs:proto_specs library in
  let slots, max_fanin = resolve_slots table0 nl in
  let lane0 = lane_of ~slots ~max_fanin table0 in
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
    let lane = Domain.DLS.new_key (new_lane ~slots ~max_fanin) in
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
