module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Corners = Ssd_cell.Corners
module Corner_batch = Ssd_core.Corner_batch
module Types = Ssd_core.Types
module Interval = Ssd_util.Interval
module Netlist = Ssd_circuit.Netlist
module Gate = Ssd_circuit.Gate

exception Unsupported_gate of string

(* The characterized cell shape that times a primitive gate: NOT is a
   1-input NAND.  Kind and arity are separate functions so a lookup
   allocates nothing (the backward pass resolves a cell per gate). *)
let cell_kind = function
  | Gate.Not | Gate.Nand -> Sweep.Nand
  | Gate.Nor -> Sweep.Nor
  | (Gate.And | Gate.Or | Gate.Xor | Gate.Xnor | Gate.Buf) as kind ->
    raise
      (Unsupported_gate
         (Printf.sprintf
            "gate type %s is not primitive; decompose the netlist first"
            (Gate.to_string kind)))

let cell_arity kind n_in = match kind with Gate.Not -> 1 | _ -> n_in

let uncharacterized kind n_in =
  Unsupported_gate
    (Printf.sprintf "no characterized cell for %s with %d inputs"
       (Gate.to_string kind) n_in)

let cell_of_gate library kind n_in =
  let k = cell_kind kind in
  match Charlib.find library k (cell_arity kind n_in) with
  | cell -> cell
  | exception Not_found -> raise (uncharacterized kind n_in)

let slot_of_gate table kind n_in =
  let k = cell_kind kind in
  match Corners.cell_slot table k (cell_arity kind n_in) with
  | Some s -> s
  | None -> raise (uncharacterized kind n_in)

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

(* a sweep's resolved state: everything [eval_gate] touches per node,
   bundled so every caller runs the same gather/kernel/scatter code
   (and hence the same float ops) *)
type t = {
  sw_nl : Netlist.t;
  sw_cb : Corner_batch.t;
  sw_w : Windows.t;
  sw_data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  sw_nw : int;
  sw_slots : int array;
  sw_max_fanin : int;
}

let rebind sw ~cb w =
  if Windows.length w <> Netlist.size sw.sw_nl then
    invalid_arg "Plane_sweep: store and netlist sizes differ";
  if Windows.planes w > Corner_batch.k cb then
    invalid_arg "Plane_sweep: more planes than table corners";
  { sw with sw_cb = cb; sw_w = w; sw_data = Windows.data w;
            sw_nw = Windows.length w }

let make ~cb w nl =
  let slots, max_fanin = resolve_slots (Corner_batch.table cb) nl in
  rebind
    { sw_nl = nl; sw_cb = cb; sw_w = w; sw_data = Windows.data w;
      sw_nw = 0; sw_slots = slots; sw_max_fanin = max_fanin }
    ~cb w

(* a one-corner table at the nominal spec packs the library's own
   coefficients ([1. *. c] is exact), so plane 0 reproduces the closure
   walk bit for bit *)
let nominal_kernel library =
  Corner_batch.create (Corners.build ~specs:(Corners.default_specs 1) library)

let nominal library w nl = make ~cb:(nominal_kernel library) w nl

let windows sw = sw.sw_w

let retype sw i kind =
  sw.sw_slots.(i) <-
    slot_of_gate (Corner_batch.table sw.sw_cb) kind
      (Netlist.fanin_count sw.sw_nl i)

type scratch = {
  inp : float array;
  out : float array;
  acc : float array;
  dly : float array;
}

(* one scratch per domain, grown on demand and never shrunk: every
   evaluation runs to completion on the domain that fetched it, so
   the lanes of a parallel level never share one *)
let scratch_key =
  Domain.DLS.new_key (fun () ->
      { inp = [||]; out = [||]; acc = Array.make 8 0.; dly = [||] })

let scratch_for ~planes ~max_fanin =
  let s = Domain.DLS.get scratch_key in
  let n_inp = planes * max_fanin * 8 and n_out = planes * 8 in
  let n_dly = planes * max_fanin * 4 in
  if Array.length s.inp >= n_inp && Array.length s.out >= n_out
     && Array.length s.dly >= n_dly
  then s
  else begin
    let grow a n = if Array.length a >= n then a else Array.make n 0. in
    let s =
      { inp = grow s.inp n_inp; out = grow s.out n_out; acc = s.acc;
        dly = grow s.dly n_dly }
    in
    Domain.DLS.set scratch_key s;
    s
  end

let scratch sw =
  scratch_for ~planes:(Windows.planes sw.sw_w) ~max_fanin:sw.sw_max_fanin

(* pin-major gather of gate [i]'s fan-in windows into [sc.inp]: the
   fanin lookup runs once per pin, not once per (pin × corner), and the
   plane base is inlined arithmetic ([Windows.base] = ((plane·n)+node)·8) *)
let[@inline] gather sw sc i c0 c1 =
  let nl = sw.sw_nl in
  let data = sw.sw_data and nw = sw.sw_nw and inp = sc.inp in
  let m = Netlist.fanin_count nl i in
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
  m

let eval_gate sw sc ~rule i c0 c1 =
  let m = gather sw sc i c0 c1 in
  Corner_batch.eval_node sw.sw_cb ~rule ~slot:sw.sw_slots.(i)
    ~fanout:(Netlist.load_of sw.sw_nl i) ~m ~ctl_mask:(-1) ~non_mask:(-1) ~c0
    ~c1 ~inputs:sc.inp ~outputs:sc.out ~acc:sc.acc

let store sw ~plane i (src : float array) ~off =
  let dst = ((plane * sw.sw_nw) + i) * 8 in
  for f = 0 to 7 do
    Bigarray.Array1.unsafe_set sw.sw_data (dst + f) src.(off + f)
  done

let load sw ~plane i (dst : float array) ~off =
  let src = ((plane * sw.sw_nw) + i) * 8 in
  for f = 0 to 7 do
    dst.(off + f) <- Bigarray.Array1.unsafe_get sw.sw_data (src + f)
  done

let scatter sw sc i c0 c1 =
  for c = c0 to c1 - 1 do
    store sw ~plane:c i sc.out ~off:((c - c0) * 8)
  done

(* inlined so the compared floats are never boxed *)
let[@inline] beq a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let stored_equal sw ~plane i (src : float array) ~off =
  let b = ((plane * sw.sw_nw) + i) * 8 in
  let f = ref 0 in
  while
    !f < 8
    && beq (Bigarray.Array1.unsafe_get sw.sw_data (b + !f)) src.(off + !f)
  do
    incr f
  done;
  !f = 8

let eval_range sw sc ~rule ~pi_win i c0 c1 =
  if Netlist.is_pi sw.sw_nl i then
    for c = c0 to c1 - 1 do
      Windows.set_plane sw.sw_w ~plane:c i ~rise:pi_win ~fall:pi_win
    done
  else begin
    eval_gate sw sc ~rule i c0 c1;
    scatter sw sc i c0 c1
  end

(* the arrival translation of [Sta.shift_timing] ([Interval.shift]'s
   [lo +. d], [hi +. d]) on one packed 8-slot window; [0.] is the
   bit-exact identity *)
let shift_arrivals (a : float array) ~off extra =
  if extra <> 0. then begin
    a.(off) <- a.(off) +. extra;
    a.(off + 1) <- a.(off + 1) +. extra;
    a.(off + 4) <- a.(off + 4) +. extra;
    a.(off + 5) <- a.(off + 5) +. extra
  end

let put_win (a : float array) ~off (w : Types.win) =
  a.(off) <- Interval.lo w.Types.w_arr;
  a.(off + 1) <- Interval.hi w.Types.w_arr;
  a.(off + 2) <- Interval.lo w.Types.w_tt;
  a.(off + 3) <- Interval.hi w.Types.w_tt

(* ---- required times: the backward step ---------------------------- *)

type required = {
  rq_nl : Netlist.t;
  rq_planes : int;
  rq_data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
}

(* Merge the window [lo, hi] a sink imposes into a line's slots at [a].
   The line must satisfy every sink, so the earliest-allowed bound grows
   to the max and the latest-allowed shrinks to the min; a crossed pair,
   imposed or merged, collapses to [lo, lo] so the violation check
   still fires through A_L > Q_L.  The tests' record-array oracle runs
   the same [Float.max] / [Float.min] sequence, so the two agree bit for
   bit. *)
let[@inline] tighten
    (q : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t) a
    lo hi =
  let hi = if lo <= hi then hi else lo in
  let lo = Float.max (Bigarray.Array1.unsafe_get q a) lo in
  let hi = Float.min (Bigarray.Array1.unsafe_get q (a + 1)) hi in
  Bigarray.Array1.unsafe_set q a lo;
  Bigarray.Array1.unsafe_set q (a + 1) (if lo <= hi then hi else lo)

let required sw ~clock_period =
  let nl = sw.sw_nl and n = sw.sw_nw in
  let planes = Windows.planes sw.sw_w in
  let q =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (planes * n * 4)
  in
  (* a line no PO depends on stays unconstrained *)
  for s = 0 to (planes * n * 2) - 1 do
    Bigarray.Array1.unsafe_set q (2 * s) neg_infinity;
    Bigarray.Array1.unsafe_set q ((2 * s) + 1) infinity
  done;
  (* at a PO, A_S >= 0 (hold side) and A_L <= the clock period *)
  List.iter
    (fun po ->
      for c = 0 to planes - 1 do
        let a = ((c * n) + po) * 4 in
        Bigarray.Array1.set q a 0.;
        Bigarray.Array1.set q (a + 1) clock_period;
        Bigarray.Array1.set q (a + 2) 0.;
        Bigarray.Array1.set q (a + 3) clock_period
      done)
    (Netlist.outputs nl);
  let sc = scratch sw in
  let[@inline] get k = Bigarray.Array1.unsafe_get q k in
  let order = Netlist.topo_order nl in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    if not (Netlist.is_pi nl i) then begin
      let m = gather sw sc i 0 planes in
      Corner_batch.eval_pin_delays sw.sw_cb ~slot:sw.sw_slots.(i)
        ~fanout:(Netlist.load_of nl i) ~m ~c0:0 ~c1:planes ~inputs:sc.inp
        ~outputs:sc.dly;
      let dly = sc.dly in
      for c = 0 to planes - 1 do
        let qi = ((c * n) + i) * 4 in
        for p = 0 to m - 1 do
          let qj = ((c * n) + Netlist.fanin_nth nl i p) * 4 in
          let d = ((c * m) + p) * 4 in
          (* a rising input answers the output's fall requirement, a
             falling input its rise requirement *)
          tighten q qj
            (get (qi + 2) -. Array.unsafe_get dly d)
            (get (qi + 3) -. Array.unsafe_get dly (d + 1));
          tighten q (qj + 2)
            (get qi -. Array.unsafe_get dly (d + 2))
            (get (qi + 1) -. Array.unsafe_get dly (d + 3))
        done
      done
    end
  done;
  { rq_nl = nl; rq_planes = planes; rq_data = q }
