module Interval = Ssd_util.Interval
module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Types = Ssd_core.Types
module Delay_model = Ssd_core.Delay_model
module Corner_batch = Ssd_core.Corner_batch
module Netlist = Ssd_circuit.Netlist
module Obs = Ssd_obs.Obs

type line_timing = { rise : Types.win; fall : Types.win }

type required = Plane_sweep.required

type pi_spec = Run_opts.pi_spec = {
  pi_arrival : Interval.t;
  pi_tt : Interval.t;
}

let default_pi_spec = Run_opts.default_pi_spec

type t = {
  st_netlist : Netlist.t;
  st_library : Charlib.t;
  st_model : Delay_model.t;
  st_timing : Windows.t;
  st_sweep : Plane_sweep.t option;
      (* the forward pass's resolved table slots, when it ran the flat
         kernel; the backward pass reuses them *)
}

exception Unsupported_gate = Plane_sweep.Unsupported_gate

let cell_of_gate = Plane_sweep.cell_of_gate

(* Output windows of gate [i] timed as [kind], from its fan-in windows
   read through [timing].  The fan-in order defines input positions
   (index 0 = closest to the output).  For NAND/NOT the controlling
   input transition is the fall, and the to-controlling response is the
   output rise; for NOR it is the dual. *)
let gate_windows ~windowing ~library nl timing ~kind i =
  let n_in = Netlist.fanin_count nl i in
  let cell = cell_of_gate library kind n_in in
  let fanin = List.init n_in (fun p -> timing (Netlist.fanin_nth nl i p)) in
  let wins_of sel =
    List.mapi (fun idx lt -> { Types.wpos = idx; window = sel lt }) fanin
  in
  let ctl_in_is_fall =
    match cell.Charlib.kind with Sweep.Nand -> true | Sweep.Nor -> false
  in
  let ctl_wins = wins_of (fun lt -> if ctl_in_is_fall then lt.fall else lt.rise) in
  let non_wins = wins_of (fun lt -> if ctl_in_is_fall then lt.rise else lt.fall) in
  let load = Netlist.load_of nl i in
  let ctl_out = windowing.Delay_model.ctl_window cell ~fanout:load ctl_wins in
  let non_out = windowing.Delay_model.non_window cell ~fanout:load non_wins in
  if ctl_in_is_fall then { rise = ctl_out; fall = non_out }
  else { rise = non_out; fall = ctl_out }

let windowing_of model =
  match model.Delay_model.windowing with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "Sta: model %S has no window transfer functions"
         model.Delay_model.name)

let pi_window (spec : pi_spec) =
  { Types.w_arr = spec.pi_arrival; w_tt = spec.pi_tt }

(* Translate both transitions' arrival windows by a line's extra delay
   (the crosstalk-fault primitive).  Guarded so the common extra = 0 case
   is the identity — not merely numerically but bit-for-bit ([x +. 0.]
   can flip the sign of a negative zero). *)
let shift_timing lt extra =
  if extra = 0. then lt
  else
    let sh (w : Types.win) =
      { w with Types.w_arr = Interval.shift w.Types.w_arr extra }
    in
    { rise = sh lt.rise; fall = sh lt.fall }

(* The closure walk's per-node step — the forward pass of a model with
   no kernel rule, and the tests' oracle for the kernel: a
   pure function of the fan-in entries read through [timing] (for a PI,
   of [pi_win]), so recomputing any node whose inputs are bit-identical
   reproduces its windows bit-identically.  [timing] abstracts the
   storage, so any store that feeds the identical float values gets the
   identical windows. *)
let eval_node ~windowing ~library nl timing ~pi_win ~extra i =
  let lt =
    if Netlist.is_pi nl i then { rise = pi_win; fall = pi_win }
    else
      gate_windows ~windowing ~library nl timing ~kind:(Netlist.gate_kind nl i) i
  in
  shift_timing lt extra

let analyze_with ?(extra_delay = fun _ -> 0.) ?(pi_override = fun _ -> None)
    (opts : Run_opts.t) ~library ~model nl =
  let { Run_opts.jobs; obs; pi_spec; corners; mc_batch = _ } = opts in
  if corners <> 1 then
    invalid_arg
      "Sta.analyze_with: corners > 1 is the batched sweep (Corner_sta.analyze)";
  let check what spec =
    match Run_opts.validate_pi_spec spec with
    | Ok _ -> ()
    | Error m -> invalid_arg (Printf.sprintf "Sta.analyze_with: %s%s" what m)
  in
  check "" pi_spec;
  List.iter
    (fun i ->
      match pi_override i with
      | Some spec ->
        check (Printf.sprintf "pi_override on %s: " (Netlist.signal_name nl i))
          spec
      | None -> ())
    (Netlist.inputs nl);
  let windowing = windowing_of model in
  let n = Netlist.size nl in
  let pi_win = pi_window pi_spec in
  let pi_win_of i =
    match pi_override i with None -> pi_win | Some spec -> pi_window spec
  in
  let extra_of i =
    let x = extra_delay i in
    if not (Float.is_finite x) then
      invalid_arg
        (Printf.sprintf "Sta.analyze_with: extra delay %g on %s is not finite"
           x (Netlist.signal_name nl i));
    x
  in
  let timing = Windows.create n in
  let get j = { rise = Windows.rise timing j; fall = Windows.fall timing j } in
  let c_gates = Obs.counter obs "sta.gates" in
  let closure_step i =
    let lt =
      eval_node ~windowing ~library nl get
        ~pi_win:(pi_win_of i) ~extra:(extra_of i) i
    in
    Windows.set timing i ~rise:lt.rise ~fall:lt.fall
  in
  (* the flat kernel at K = 1 is the production evaluator of a model
     with a kernel rule; any other model takes the closure walk *)
  let rule = Corner_batch.rule_of model in
  let sweep = Option.map (fun _ -> Plane_sweep.nominal library timing nl) rule in
  let step =
    match (rule, sweep) with
    | Some rule, Some sw ->
      fun i ->
        if Netlist.is_pi nl i then closure_step i
        else begin
          let sc = Plane_sweep.scratch sw in
          Plane_sweep.eval_gate sw sc ~rule i 0 1;
          Plane_sweep.shift_arrivals sc.Plane_sweep.out ~off:0 (extra_of i);
          Plane_sweep.scatter sw sc i 0 1
        end
    | _ -> closure_step
  in
  let eval i =
    if not (Netlist.is_pi nl i) then Obs.incr c_gates;
    step i
  in
  (* gates of one topological level are independent; the per-gate window
     computation is a pure function of the fan-in windows, so the
     parallel schedule produces bit-identical results to the sequential
     walk.  An instrumented run
     always walks level-by-level — also for [jobs = 1] — so the spans
     line up with the parallel schedule; the levelized order is a
     topological order, so the windows stay bit-identical either way. *)
  let jobs = if jobs <= 0 then Par.default_jobs () else jobs in
  if jobs <= 1 && not (Obs.enabled obs) then
    Array.iter eval (Netlist.topo_order nl)
  else
    Par.with_pool ~obs ~jobs (fun pool ->
        let nlevels = Netlist.level_count nl in
        if not (Obs.enabled obs) then
          for l = 0 to nlevels - 1 do
            Par.parallel_for pool ~n:(Netlist.level_width nl l) (fun k ->
                eval (Netlist.level_node nl l k))
          done
        else begin
          (* one caller-side span per level (named "sta.level.<l>",
             appearing exactly once per level in the trace) wrapping the
             fan-out; the lanes' own participation spans are labelled
             "L<l>" on their per-lane tracks *)
          Obs.add (Obs.counter obs "sta.levels") nlevels;
          let widest = ref 1 in
          for l = 0 to nlevels - 1 do
            widest := max !widest (Netlist.level_width nl l)
          done;
          let h_gates =
            Obs.histogram ~bins:16 ~lo:0. ~hi:(float_of_int !widest) obs
              "sta.level_gates"
          in
          for l = 0 to nlevels - 1 do
            let width = Netlist.level_width nl l in
            let tm = Obs.timer obs (Printf.sprintf "sta.level.%d" l) in
            Obs.observe h_gates (float_of_int width);
            Obs.span obs tm (fun () ->
                Par.parallel_for pool
                  ~label:(Printf.sprintf "L%d" l)
                  ~n:width
                  (fun k -> eval (Netlist.level_node nl l k)))
          done
        end);
  { st_netlist = nl; st_library = library; st_model = model;
    st_timing = timing; st_sweep = sweep }

let netlist t = t.st_netlist
let library t = t.st_library

let timing t i =
  { rise = Windows.rise t.st_timing i; fall = Windows.fall t.st_timing i }

let windows t = t.st_timing

(* The hull of each PO's rise and fall arrival windows in one plane,
   folded in [Netlist.outputs] order: [Interval.hull]'s [Float.min] /
   [Float.max] sequence, read straight from the packed slots (rise
   arrival at +0/+1, fall arrival at +4/+5) without materializing a
   window.  The fold is a loop over float refs, which stay unboxed; a
   recursive fold would box its accumulators at every PO. *)
let po_window_of nl w ~plane =
  if plane < 0 || plane >= Windows.planes w then
    invalid_arg
      (Printf.sprintf "Sta.po_window_of: plane %d out of range [0, %d)" plane
         (Windows.planes w));
  let d = Windows.data w in
  match Netlist.outputs nl with
  | [] -> invalid_arg "Sta.po_window_of: netlist has no outputs"
  | pos ->
    (* [Float.min infinity x] is [x] bit for bit, NaN and -0. included *)
    let lo = ref infinity and hi = ref neg_infinity in
    let rest = ref pos and more = ref true in
    while !more do
      match !rest with
      | [] -> more := false
      | i :: tl ->
        let b = Windows.base w ~plane i in
        lo :=
          Float.min !lo
            (Float.min (Bigarray.Array1.get d b)
               (Bigarray.Array1.get d (b + 4)));
        hi :=
          Float.max !hi
            (Float.max (Bigarray.Array1.get d (b + 1))
               (Bigarray.Array1.get d (b + 5)));
        rest := tl
    done;
    Interval.make !lo !hi

let po_window t = po_window_of t.st_netlist t.st_timing ~plane:0

let min_delay t = Interval.lo (po_window t)
let max_delay t = Interval.hi (po_window t)

let validate_clock_period p =
  let bad why =
    Error (Printf.sprintf "%g is %s; the period must be finite and >= 0" p why)
  in
  if Float.is_nan p then bad "not a number"
  else if not (Float.is_finite p) then bad "not finite"
  else if p < 0. then bad "negative"
  else Ok p

(* The backward pass is the flat step at K = 1 over the forward pass's
   own table slots; a closure-walk model's pass resolved none, so they
   are built here over the same library.  The bounds depend only on the
   library's pin fits, never on the model. *)
let compute_required t ~clock_period =
  (match validate_clock_period clock_period with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Sta.compute_required: clock period " ^ m));
  let sw =
    match t.st_sweep with
    | Some sw -> sw
    | None -> Plane_sweep.nominal t.st_library t.st_timing t.st_netlist
  in
  Plane_sweep.required sw ~clock_period

let required_window ?(plane = 0) (r : required) i ~rise =
  let n = Netlist.size r.Plane_sweep.rq_nl in
  if plane < 0 || plane >= r.Plane_sweep.rq_planes || i < 0 || i >= n then
    invalid_arg
      (Printf.sprintf "Sta.required_window: node %d / plane %d out of range" i
         plane);
  let a = (((plane * n) + i) * 4) + if rise then 0 else 2 in
  let q = r.Plane_sweep.rq_data in
  Interval.make (Bigarray.Array1.get q a) (Bigarray.Array1.get q (a + 1))

(* Read straight from the packed slots (arrival at +0/+1 of each 4-slot
   transition half of a window, required at +0/+1 of each 2-slot half);
   a message is formatted only for a violating line. *)
let violations t (r : required) =
  let nl = t.st_netlist in
  if r.Plane_sweep.rq_nl != nl then
    invalid_arg "Sta.violations: required times of another netlist";
  let w = Windows.data t.st_timing and q = r.Plane_sweep.rq_data in
  let issues = ref [] in
  let check i label wa qa =
    let q_hi = Bigarray.Array1.unsafe_get q (qa + 1) in
    if Float.is_finite q_hi then begin
      let q_lo = Bigarray.Array1.unsafe_get q qa in
      let a_lo = Bigarray.Array1.unsafe_get w wa in
      let a_hi = Bigarray.Array1.unsafe_get w (wa + 1) in
      if a_hi > q_hi +. 1e-15 then
        issues :=
          ( i,
            Printf.sprintf "%s %s: arrives by %.3f ns but required by %.3f ns"
              (Netlist.signal_name nl i) label (a_hi *. 1e9) (q_hi *. 1e9) )
          :: !issues
      else if a_lo < q_lo -. 1e-15 then
        issues :=
          ( i,
            Printf.sprintf
              "%s %s: can arrive at %.3f ns but not allowed before %.3f ns"
              (Netlist.signal_name nl i) label (a_lo *. 1e9) (q_lo *. 1e9) )
          :: !issues
    end
  in
  for i = Netlist.size nl - 1 downto 0 do
    let wa = Windows.base t.st_timing ~plane:0 i in
    check i "rise" wa (i * 4);
    check i "fall" (wa + 4) ((i * 4) + 2)
  done;
  !issues

let summary t =
  let w = po_window t in
  Printf.sprintf "%s [%s]: PO delay window [%.3f ns, %.3f ns]"
    (Netlist.stats t.st_netlist) t.st_model.Delay_model.name
    (Interval.lo w *. 1e9) (Interval.hi w *. 1e9)
