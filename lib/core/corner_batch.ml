module Corners = Ssd_cell.Corners
module Sweep = Ssd_cell.Sweep

(* Batched multi-corner window kernel.

   Evaluates the window transfer functions of both window-capable
   models ({!Vshape.ctl_window}, {!Pin_to_pin.ctl_window} /
   {!Pin_to_pin.non_window}) over the inputs a mask keeps, for a
   contiguous range of corners of one node in a single pass, streaming
   coefficients from
   the flat corner-major table of {!Ssd_cell.Corners} — no cell lookup,
   no closure, tuple, list or basis-array allocation per evaluation.
   Each arithmetic expression reproduces the scalar path's float
   operations literally (same clamp order, same fold candidate order,
   same strict-comparison extremum rule), so a corner plane of the
   batched analysis is bit-identical to an independent scalar analysis
   over that corner's derated library.

   The only intentional divergences from the scalar code are
   value-preserving: min/max reductions are re-associated (fmin /
   fmax are commutative and associative, NaN-propagating in both
   shapes), and load deltas are hoisted out of the per-candidate loop
   (the scalar path recomputes the identical product).

   This file is the hot loop of every forward window pass of both
   models (single-corner at K = 1, ITR, multi-corner, Monte-Carlo) and
   of every required-time pass ({!eval_pin_delays}), compiled with a
   high inline threshold (see the library's
   [ocamlopt_flags]) so the fit evaluators below flatten into their call
   sites and the floats stay unboxed.  It deliberately uses unsafe array
   accesses: every index is derived from the layout record of a table
   slot validated once per call ({!checked_layout}: m = l_n, corner
   range inside [0, K)), and the scratch arrays are sized by the caller
   to [corners × m × 8] / [corners × 8] / [8] ([corners × m × 4] for
   the backward bounds).
   Local [ref] accumulators never escape, so they compile to mutable
   stack variables, not heap cells. *)

let eps_skew = Vshape.eps_skew

(* Typed wrappers around the unsafe array primitives.  The type
   annotations matter: an untyped alias like [let get = Array.unsafe_get]
   binds the *generic* array primitive (runtime tag dispatch, boxed
   float results); a syntactic application at a statically-known float
   array type specializes to the flat unboxed access. *)
let[@inline] get (a : float array) i = Array.unsafe_get a i
let[@inline] set (a : float array) i (v : float) = Array.unsafe_set a i v
let[@inline] iget (a : int array) i = Array.unsafe_get a i
let[@inline] bget (a : bool array) i = Array.unsafe_get a i

(* [fmin]/[fmax] clones that produce the same value bit for
   bit but stay inline: the stdlib versions call the [caml_signbit] C
   primitive, which costs a function call (and float boxing) per min in
   the non-flambda build.  The comparison-based sign test below agrees
   with [signbit] on every non-NaN input (including -0. and -infinity);
   on NaN it may differ, but the stdlib branches are arranged so the
   returned value is the same float either way. *)
let[@inline] sbit (v : float) = v < 0. || (v = 0. && 1. /. v < 0.)

(* The [*. 1.] on every branch leaf below (and throughout this file) is
   a bit-exact identity (IEEE multiplication by one preserves -0.,
   infinities and NaN) that keeps the conditional unboxed: the classic
   compiler only unboxes a float-valued [if] when each branch is a
   syntactic float operation — a plain variable leaf forces the join,
   and transitively its operands, into heap boxes. *)
let[@inline] fmin (x : float) (y : float) =
  if y > x || ((not (sbit y)) && sbit x) then
    if y <> y then y *. 1. else x *. 1.
  else if x <> x then x *. 1.
  else y *. 1.

let[@inline] fmax (x : float) (y : float) =
  if y > x || ((not (sbit y)) && sbit x) then
    if x <> x then x *. 1. else y *. 1.
  else if y <> y then y *. 1.
  else x *. 1.

(* fit1 evaluation: clamp, then the quadratic_1d dot product in basis
   order (T², T, 1) starting from 0 — the exact [Lsq.predict] fold. *)
let[@inline] eval1 (co : float array) ~o ~lo ~hi t =
  let tc = fmax lo (fmin hi t) in
  let s = 0. +. (get co o *. (tc *. tc)) in
  let s = s +. (get co (o + 1) *. tc) in
  s +. (get co (o + 2) *. 1.)

(* fit1 extremum over [ivlo, ivhi]: candidates lo, interior peak (when
   the stored abscissa is non-NaN and contained), hi — evaluated in that
   order with a strict comparison keeping the first best, as
   [Func1d.min_over]/[max_over]. *)
let[@inline] min1 (co : float array) ~o ~lo ~hi ~ivlo ~ivhi =
  let bv = eval1 co ~o ~lo ~hi ivlo in
  let p = get co (o + 3) in
  let bv =
    if ivlo <= p && p <= ivhi then begin
      let v = eval1 co ~o ~lo ~hi p in
      if v < bv then v *. 1. else bv *. 1.
    end
    else bv *. 1.
  in
  let v = eval1 co ~o ~lo ~hi ivhi in
  if v < bv then v *. 1. else bv *. 1.

let[@inline] max1 (co : float array) ~o ~lo ~hi ~ivlo ~ivhi =
  let bv = eval1 co ~o ~lo ~hi ivlo in
  let p = get co (o + 3) in
  let bv =
    if ivlo <= p && p <= ivhi then begin
      let v = eval1 co ~o ~lo ~hi p in
      if v > bv then v *. 1. else bv *. 1.
    end
    else bv *. 1.
  in
  let v = eval1 co ~o ~lo ~hi ivhi in
  if v > bv then v *. 1. else bv *. 1.

(* fit2 evaluation: both arguments clamped to the shared pair range,
   then the tagged basis dot product in declaration order. *)
let[@inline] eval2 (co : float array) ~o ~lo ~hi ~tag x y =
  let x = fmax lo (fmin hi x)
  and y = fmax lo (fmin hi y) in
  if tag = 0 then begin
    (* Quad2: a², b², ab, a, b, 1 *)
    let s = 0. +. (get co o *. (x *. x)) in
    let s = s +. (get co (o + 1) *. (y *. y)) in
    let s = s +. (get co (o + 2) *. (x *. y)) in
    let s = s +. (get co (o + 3) *. x) in
    let s = s +. (get co (o + 4) *. y) in
    s +. (get co (o + 5) *. 1.)
  end
  else if tag = 1 then begin
    (* Cuberoot2: ∛a·∛b, ∛a, ∛b, 1 *)
    let ca = Float.pow x (1. /. 3.) and cb = Float.pow y (1. /. 3.) in
    let s = 0. +. (get co o *. (ca *. cb)) in
    let s = s +. (get co (o + 1) *. ca) in
    let s = s +. (get co (o + 2) *. cb) in
    s +. (get co (o + 3) *. 1.)
  end
  else begin
    (* Cubic2: a³, b³, a²b, ab², a², b², ab, a, b, 1 *)
    let s = 0. +. (get co o *. (x *. x *. x)) in
    let s = s +. (get co (o + 1) *. (y *. y *. y)) in
    let s = s +. (get co (o + 2) *. (x *. x *. y)) in
    let s = s +. (get co (o + 3) *. (x *. y *. y)) in
    let s = s +. (get co (o + 4) *. (x *. x)) in
    let s = s +. (get co (o + 5) *. (y *. y)) in
    let s = s +. (get co (o + 6) *. (x *. y)) in
    let s = s +. (get co (o + 7) *. x) in
    let s = s +. (get co (o + 8) *. y) in
    s +. (get co (o + 9) *. 1.)
  end

(* [Vshape.pair_delay_nocheck] for a characterized pair: the V arm
   interpolation at [skew], load excluded (the caller adds it).  [pb] is
   the pair block base (d0 at pb, sr at pb+10, syr at pb+20), [tb0] the
   slot's index into the basis-tag array. *)
let[@inline] v_arm ~d0 ~sr ~syr ~dr_right ~dr_left ~skew =
  if skew >= sr then dr_right *. 1.
  else if skew <= -.syr then dr_left *. 1.
  else if skew >= 0. then d0 +. ((dr_right -. d0) *. skew /. sr)
  else d0 +. ((dr_left -. d0) *. -.skew /. syr)

let[@inline] pair_v (co : float array) (l : Corners.layout) ~pb ~tb0 ~direct
    ~dr_right ~dr_left ~skew ta tb =
  let plo = l.Corners.l_p_lo and phi = l.Corners.l_p_hi in
  let tags = l.Corners.l_surf_basis in
  if direct then begin
    let d0 = eval2 co ~o:pb ~lo:plo ~hi:phi ~tag:(iget tags tb0) ta tb in
    let sr =
      fmax
        (eval2 co ~o:(pb + 10) ~lo:plo ~hi:phi ~tag:(iget tags (tb0 + 1)) ta tb)
        eps_skew
    in
    let syr =
      fmax
        (eval2 co ~o:(pb + 20) ~lo:plo ~hi:phi ~tag:(iget tags (tb0 + 2)) ta tb)
        eps_skew
    in
    v_arm ~d0 ~sr ~syr ~dr_right ~dr_left ~skew
  end
  else begin
    (* stored orientation is (pos_b, pos_a): arguments and arms swap *)
    let d0 = eval2 co ~o:pb ~lo:plo ~hi:phi ~tag:(iget tags tb0) tb ta in
    let syr =
      fmax
        (eval2 co ~o:(pb + 10) ~lo:plo ~hi:phi ~tag:(iget tags (tb0 + 1)) tb ta)
        eps_skew
    in
    let sr =
      fmax
        (eval2 co ~o:(pb + 20) ~lo:plo ~hi:phi ~tag:(iget tags (tb0 + 2)) tb ta)
        eps_skew
    in
    v_arm ~d0 ~sr ~syr ~dr_right ~dr_left ~skew
  end

(* The t_s_pair rule of [Vshape.ctl_window]: the tt V-shape evaluated at
   the feasible skew closest to the vertex, load included; [infinity]
   for an uncharacterized pair. *)
let[@inline] pair_tt_c (co : float array) (l : Corners.layout) ~b ~ld_t ~pos_a
    ~pos_b ~f_lo ~f_hi ~t_a ~t_b =
  let n = l.Corners.l_n in
  let s = iget l.Corners.l_pair_slot ((pos_a * n) + pos_b) in
  if s < 0 then infinity
  else begin
    let tlo = l.Corners.l_t_lo and thi = l.Corners.l_t_hi in
    let tr_right = eval1 co ~o:(b + (pos_a * 8) + 4) ~lo:tlo ~hi:thi t_a in
    let tr_left = eval1 co ~o:(b + (pos_b * 8) + 4) ~lo:tlo ~hi:thi t_b in
    let plo = l.Corners.l_p_lo and phi = l.Corners.l_p_hi in
    let direct = bget l.Corners.l_pair_direct ((pos_a * n) + pos_b) in
    let tags = l.Corners.l_surf_basis in
    let tb0 = s * 5 in
    let pb = b + (24 * n) + 4 + (s * 50) in
    let ta = if direct then t_a *. 1. else t_b *. 1. in
    let tb = if direct then t_b *. 1. else t_a *. 1. in
    let sr0 =
      fmax
        (eval2 co ~o:(pb + 10) ~lo:plo ~hi:phi ~tag:(iget tags (tb0 + 1)) ta tb)
        eps_skew
    in
    let syr0 =
      fmax
        (eval2 co ~o:(pb + 20) ~lo:plo ~hi:phi ~tag:(iget tags (tb0 + 2)) ta tb)
        eps_skew
    in
    let sk0 =
      eval2 co ~o:(pb + 30) ~lo:plo ~hi:phi ~tag:(iget tags (tb0 + 3)) ta tb
    in
    let tmin =
      eval2 co ~o:(pb + 40) ~lo:plo ~hi:phi ~tag:(iget tags (tb0 + 4)) ta tb
    in
    let sr = if direct then sr0 *. 1. else syr0 *. 1. in
    let syr = if direct then syr0 *. 1. else sr0 *. 1. in
    let sk = if direct then sk0 *. 1. else -.sk0 in
    let sk = fmax (-.syr) (fmin sr sk) in
    let skew = fmax f_lo (fmin f_hi sk) in
    let v =
      if skew >= sr then tr_right *. 1.
      else if skew <= -.syr then tr_left *. 1.
      else if skew >= sk then begin
        let span = sr -. sk in
        if span <= eps_skew then tr_right *. 1.
        else tmin +. ((tr_right -. tmin) *. (skew -. sk) /. span)
      end
      else begin
        let span = sk +. syr in
        if span <= eps_skew then tr_left *. 1.
        else tmin +. ((tr_left -. tmin) *. (sk -. skew) /. span)
      end
    in
    v +. ld_t
  end

let[@inline] kept mask i = mask land (1 lsl i) <> 0

(* [Vshape.ctl_window] for one corner over the list of inputs [mask]
   keeps (bit [i] for pin [i], positions unchanged).  Inputs are read
   from [inp] at [ib + pin*8 + io] (io selects the rise or fall half of
   the 8-slot window record); the four result bounds are written to
   [out] at [ob .. ob+3].  [acc] is an 8-slot accumulator scratch: the
   classic compiler boxes every assignment to a mutable float variable,
   so the running min/max folds live in a float array (unboxed stores)
   instead of refs — slots 0..3 hold a_s/a_l/t_s/t_l, 4..6 the
   tied-floor a_min/hull_lo/hull_hi. *)
let ctl_c (co : float array) (l : Corners.layout) ~b ~fd ~m ~mask
    ~(inp : float array) ~ib ~io ~(acc : float array) ~(out : float array) ~ob
    =
  let n = l.Corners.l_n in
  let tlo = l.Corners.l_t_lo and thi = l.Corners.l_t_hi in
  let lo = b + (24 * n) in
  let ld_d = get co lo *. fd in
  let ld_t = get co (lo + 1) *. fd in
  (* the tied-k floors count the kept inputs *)
  let mk = ref 0 in
  for i = 0 to m - 1 do if kept mask i then incr mk done;
  (* earliest arrival: singles, both-earliest pairs, tied-k floor *)
  set acc 0 infinity;
  for i = 0 to m - 1 do
    if kept mask i then
      let oi = ib + (i * 8) + io in
      let v =
        get inp oi
        +. (min1 co ~o:(b + (i * 8)) ~lo:tlo ~hi:thi ~ivlo:(get inp (oi + 2))
              ~ivhi:(get inp (oi + 3))
           +. ld_d)
      in
      set acc 0 (fmin (get acc 0) v)
  done;
  for i = 0 to m - 1 do
    if kept mask i then
      let oi = ib + (i * 8) + io in
      let arr_a = get inp oi in
      let ta_lo = get inp (oi + 2) and ta_hi = get inp (oi + 3) in
      let dro_a = b + (i * 8) in
      for j = i + 1 to m - 1 do
        if kept mask j then
          let oj = ib + (j * 8) + io in
          let arr_b = get inp oj in
          let tb_lo = get inp (oj + 2) and tb_hi = get inp (oj + 3) in
          let skew = arr_b -. arr_a in
          let s = iget l.Corners.l_pair_slot ((i * n) + j) in
          let cmin =
            if s < 0 then begin
              (* uncharacterized pair: pin-to-pin composition from the
                 earliest.  The four {S, L} combos reuse one candidate per
                 pin per transition-time bound, hoisted here (the scalar
                 path evaluates the identical expressions inside each
                 combo) *)
              let a_min = fmin arr_a arr_b in
              let ca_lo =
                arr_a -. a_min +. (eval1 co ~o:dro_a ~lo:tlo ~hi:thi ta_lo +. ld_d)
              in
              let ca_hi =
                arr_a -. a_min +. (eval1 co ~o:dro_a ~lo:tlo ~hi:thi ta_hi +. ld_d)
              in
              let dro_b = b + (j * 8) in
              let cb_lo =
                arr_b -. a_min +. (eval1 co ~o:dro_b ~lo:tlo ~hi:thi tb_lo +. ld_d)
              in
              let cb_hi =
                arr_b -. a_min +. (eval1 co ~o:dro_b ~lo:tlo ~hi:thi tb_hi +. ld_d)
              in
              fmin
                (fmin (fmin ca_lo cb_lo) (fmin ca_lo cb_hi))
                (fmin (fmin ca_hi cb_lo) (fmin ca_hi cb_hi))
            end
            else begin
              let direct = bget l.Corners.l_pair_direct ((i * n) + j) in
              let pb = b + (24 * n) + 4 + (s * 50) in
              let tb0 = s * 5 in
              let dro_b = b + (j * 8) in
              let dr_a_lo = eval1 co ~o:dro_a ~lo:tlo ~hi:thi ta_lo in
              let dr_a_hi = eval1 co ~o:dro_a ~lo:tlo ~hi:thi ta_hi in
              let dr_b_lo = eval1 co ~o:dro_b ~lo:tlo ~hi:thi tb_lo in
              let dr_b_hi = eval1 co ~o:dro_b ~lo:tlo ~hi:thi tb_hi in
              let c1 =
                pair_v co l ~pb ~tb0 ~direct ~dr_right:dr_a_lo ~dr_left:dr_b_lo
                  ~skew ta_lo tb_lo
              in
              let c2 =
                pair_v co l ~pb ~tb0 ~direct ~dr_right:dr_a_lo ~dr_left:dr_b_hi
                  ~skew ta_lo tb_hi
              in
              let c3 =
                pair_v co l ~pb ~tb0 ~direct ~dr_right:dr_a_hi ~dr_left:dr_b_lo
                  ~skew ta_hi tb_lo
              in
              let c4 =
                pair_v co l ~pb ~tb0 ~direct ~dr_right:dr_a_hi ~dr_left:dr_b_hi
                  ~skew ta_hi tb_hi
              in
              fmin (fmin (c1 +. ld_d) (c2 +. ld_d))
                (fmin (c3 +. ld_d) (c4 +. ld_d))
            end
          in
          set acc 0 (fmin (get acc 0) (fmin arr_a arr_b +. cmin))
      done
  done;
  (* the hulled tt span and earliest arrival feed both tied-k floors *)
  if !mk >= 3 then begin
    set acc 4 infinity;
    set acc 5 infinity;
    set acc 6 neg_infinity;
    for i = 0 to m - 1 do
      if kept mask i then
        let oi = ib + (i * 8) + io in
        set acc 4 (fmin (get acc 4) (get inp oi));
        set acc 5 (fmin (get acc 5) (get inp (oi + 2)));
        set acc 6 (fmax (get acc 6) (get inp (oi + 3)))
    done;
    for k = 3 to !mk do
      let o = b + (((2 * n) + (k - 1)) * 8) in
      let v =
        min1 co ~o ~lo:tlo ~hi:thi ~ivlo:(get acc 5) ~ivhi:(get acc 6)
        +. ld_d
      in
      set acc 0 (fmin (get acc 0) (get acc 4 +. v))
    done
  end;
  (* latest arrival: single switch, delay-maximizing transition time *)
  set acc 1 neg_infinity;
  for i = 0 to m - 1 do
    if kept mask i then
      let oi = ib + (i * 8) + io in
      let v =
        get inp (oi + 1)
        +. (max1 co ~o:(b + (i * 8)) ~lo:tlo ~hi:thi ~ivlo:(get inp (oi + 2))
              ~ivhi:(get inp (oi + 3))
           +. ld_d)
      in
      set acc 1 (fmax (get acc 1) v)
  done;
  let a_l = fmax (get acc 1) (get acc 0) in
  (* output transition-time extremes *)
  set acc 2 infinity;
  for i = 0 to m - 1 do
    if kept mask i then
      let oi = ib + (i * 8) + io in
      let v =
        min1 co ~o:(b + (i * 8) + 4) ~lo:tlo ~hi:thi ~ivlo:(get inp (oi + 2))
          ~ivhi:(get inp (oi + 3))
        +. ld_t
      in
      set acc 2 (fmin (get acc 2) v)
  done;
  for i = 0 to m - 1 do
    if kept mask i then
      let oi = ib + (i * 8) + io in
      for j = i + 1 to m - 1 do
        if kept mask j then
          let oj = ib + (j * 8) + io in
          let f_lo = get inp oj -. get inp (oi + 1) in
          let f_hi = get inp (oj + 1) -. get inp oi in
          let v =
            pair_tt_c co l ~b ~ld_t ~pos_a:i ~pos_b:j ~f_lo ~f_hi
              ~t_a:(get inp (oi + 2)) ~t_b:(get inp (oj + 2))
          in
          set acc 2 (fmin (get acc 2) v)
      done
  done;
  if !mk >= 3 then
    for k = 3 to !mk do
      let o = b + (((2 * n) + (k - 1)) * 8) + 4 in
      let v =
        min1 co ~o ~lo:tlo ~hi:thi ~ivlo:(get acc 5) ~ivhi:(get acc 6)
        +. ld_t
      in
      set acc 2 (fmin (get acc 2) v)
    done;
  set acc 3 neg_infinity;
  for i = 0 to m - 1 do
    if kept mask i then
      let oi = ib + (i * 8) + io in
      let v =
        max1 co ~o:(b + (i * 8) + 4) ~lo:tlo ~hi:thi ~ivlo:(get inp (oi + 2))
          ~ivhi:(get inp (oi + 3))
        +. ld_t
      in
      set acc 3 (fmax (get acc 3) v)
  done;
  let t_l = fmax (get acc 3) (get acc 2) in
  set out ob (get acc 0);
  set out (ob + 1) a_l;
  set out (ob + 2) (get acc 2);
  set out (ob + 3) t_l

(* The per-pin min/max fold over the inputs [mask] keeps, from the edge
   block of pin group [g] (0: to-controlling, [n]: to-non-controlling)
   with the load slopes at [ls] (0 and 2 likewise): both
   [Pin_to_pin] windows, the second one also the proposed model's
   to-non-controlling window.  [acc] slots 0..3
   are the a_s/a_l/t_s/t_l accumulators (same unboxing rationale as
   {!ctl_c}). *)
let fold_c (co : float array) (l : Corners.layout) ~b ~fd ~m ~mask ~g ~ls
    ~(inp : float array) ~ib ~io ~(acc : float array) ~(out : float array) ~ob
    =
  let n = l.Corners.l_n in
  let tlo = l.Corners.l_t_lo and thi = l.Corners.l_t_hi in
  let lo = b + (24 * n) + ls in
  let ld_d = get co lo *. fd in
  let ld_t = get co (lo + 1) *. fd in
  set acc 0 infinity;
  set acc 1 neg_infinity;
  set acc 2 infinity;
  set acc 3 neg_infinity;
  for i = 0 to m - 1 do
    if kept mask i then
      let oi = ib + (i * 8) + io in
      let ivlo = get inp (oi + 2) and ivhi = get inp (oi + 3) in
      let od = b + ((g + i) * 8) in
      set acc 0
        (fmin (get acc 0)
           (get inp oi +. (min1 co ~o:od ~lo:tlo ~hi:thi ~ivlo ~ivhi +. ld_d)));
      set acc 1
        (fmax (get acc 1)
           (get inp (oi + 1)
           +. (max1 co ~o:od ~lo:tlo ~hi:thi ~ivlo ~ivhi +. ld_d)));
      set acc 2
        (fmin (get acc 2)
           (min1 co ~o:(od + 4) ~lo:tlo ~hi:thi ~ivlo ~ivhi +. ld_t));
      set acc 3
        (fmax (get acc 3)
           (max1 co ~o:(od + 4) ~lo:tlo ~hi:thi ~ivlo ~ivhi +. ld_t))
  done;
  set out ob (get acc 0);
  set out (ob + 1) (fmax (get acc 0) (get acc 1));
  set out (ob + 2) (get acc 2);
  set out (ob + 3) (fmax (get acc 2) (get acc 3))

type t = {
  bt_table : Corners.table;
  bt_co : float array;
      (* the flat corner-major coefficient store, copied out of the
         table's Bigarray once: a plain float array keeps the data
         pointer in a register inside the kernels above *)
  bt_k : int;
}

let refresh t =
  let ba = Corners.coeffs t.bt_table in
  let co = t.bt_co in
  for i = 0 to Bigarray.Array1.dim ba - 1 do
    Array.unsafe_set co i (Bigarray.Array1.unsafe_get ba i)
  done

let create table =
  let ba = Corners.coeffs table in
  let len = Bigarray.Array1.dim ba in
  let co = Array.make (max 1 len) 0. in
  let t = { bt_table = table; bt_co = co; bt_k = Corners.k table } in
  refresh t;
  t

let table t = t.bt_table
let k t = t.bt_k

(* the checks both evaluators make once per call, before any unsafe
   access: the slot's fan-in count, the corner range, and scratch sizes
   ([out_len] floats of output per corner) *)
let checked_layout what t ~slot ~m ~c0 ~c1 ~(inputs : float array)
    ~(outputs : float array) ~out_len =
  let l = Corners.layout t.bt_table slot in
  if m <> l.Corners.l_n then
    invalid_arg
      (Printf.sprintf "Corner_batch.%s: %d inputs for a %d-input cell" what m
         l.Corners.l_n);
  if c0 < 0 || c1 > t.bt_k || c0 >= c1 then
    invalid_arg (Printf.sprintf "Corner_batch.%s: bad corner range" what);
  if Array.length inputs < (c1 - c0) * m * 8
     || Array.length outputs < (c1 - c0) * out_len
  then
    invalid_arg (Printf.sprintf "Corner_batch.%s: scratch arrays too small" what);
  l

type rule = V_shape | Per_pin

(* The one place a model value picks its kernel rule: physical equality
   with a registry model, so a cell-remapped copy gets none. *)
let rule_of model =
  if model == Delay_model.proposed then Some V_shape
  else if model == Delay_model.pin_to_pin then Some Per_pin
  else None

let eval_node t ~rule ~slot ~fanout ~m ~ctl_mask ~non_mask ~c0 ~c1
    ~(inputs : float array) ~(outputs : float array) ~(acc : float array) =
  let l =
    checked_layout "eval_node" t ~slot ~m ~c0 ~c1 ~inputs ~outputs ~out_len:8
  in
  if Array.length acc < 8 then
    invalid_arg "Corner_batch.eval_node: scratch arrays too small";
  let co = t.bt_co in
  let fd = float_of_int (fanout - l.Corners.l_ref_fanout) in
  let ctl_is_fall =
    match l.Corners.l_kind with Sweep.Nand -> true | Sweep.Nor -> false
  in
  (* the to-controlling response flips the transition: falling inputs
     produce the rising output for NAND, dually for NOR *)
  let io_ctl = if ctl_is_fall then 4 else 0 in
  let io_non = if ctl_is_fall then 0 else 4 in
  let ob_ctl = if ctl_is_fall then 0 else 4 in
  let ob_non = if ctl_is_fall then 4 else 0 in
  (* the accumulator scratch is shared by all corners of the node:
     each window evaluation re-initializes the slots it uses *)
  for c = c0 to c1 - 1 do
    let b = l.Corners.l_base + (c * l.Corners.l_stride) in
    let ib = (c - c0) * m * 8 in
    let ob = (c - c0) * 8 in
    (match rule with
    | V_shape ->
      ctl_c co l ~b ~fd ~m ~mask:ctl_mask ~inp:inputs ~ib ~io:io_ctl ~acc
        ~out:outputs ~ob:(ob + ob_ctl)
    | Per_pin ->
      fold_c co l ~b ~fd ~m ~mask:ctl_mask ~g:0 ~ls:0 ~inp:inputs ~ib
        ~io:io_ctl ~acc ~out:outputs ~ob:(ob + ob_ctl));
    fold_c co l ~b ~fd ~m ~mask:non_mask ~g:l.Corners.l_n ~ls:2 ~inp:inputs
      ~ib ~io:io_non ~acc ~out:outputs ~ob:(ob + ob_non)
  done

(* The backward evaluator: [Cellfn.min_delay_over] / [max_delay_over]
   of every fan-in pin, the required-time pass's single-pin bounds.
   Every primitive inverts, so a rising input drives the output's fall
   (the to-non-controlling response of a NAND, the to-controlling one
   of a NOR) and a falling input its rise.  The extremizers and the
   load term are the forward kernel's, over the same table blocks. *)
let eval_pin_delays t ~slot ~fanout ~m ~c0 ~c1 ~(inputs : float array)
    ~(outputs : float array) =
  let l =
    checked_layout "eval_pin_delays" t ~slot ~m ~c0 ~c1 ~inputs ~outputs
      ~out_len:(m * 4)
  in
  let co = t.bt_co in
  let n = l.Corners.l_n in
  let tlo = l.Corners.l_t_lo and thi = l.Corners.l_t_hi in
  let fd = float_of_int (fanout - l.Corners.l_ref_fanout) in
  let ctl_is_fall =
    match l.Corners.l_kind with Sweep.Nand -> true | Sweep.Nor -> false
  in
  (* edge group (to_ctl at 0, to_non at n) and load-slope offset (d_ctl
     at +0, d_non at +2) of each input transition's response *)
  let g_rise = if ctl_is_fall then n else 0 in
  let g_fall = if ctl_is_fall then 0 else n in
  let ld_rise = if ctl_is_fall then 2 else 0 in
  let ld_fall = if ctl_is_fall then 0 else 2 in
  for c = c0 to c1 - 1 do
    let b = l.Corners.l_base + (c * l.Corners.l_stride) in
    let lo = b + (24 * n) in
    let ld_r = get co (lo + ld_rise) *. fd in
    let ld_f = get co (lo + ld_fall) *. fd in
    for i = 0 to m - 1 do
      let ii = (((c - c0) * m) + i) * 8 in
      let oi = (((c - c0) * m) + i) * 4 in
      let o_r = b + ((g_rise + i) * 8) and o_f = b + ((g_fall + i) * 8) in
      let r_lo = get inputs (ii + 2) and r_hi = get inputs (ii + 3) in
      let f_lo = get inputs (ii + 6) and f_hi = get inputs (ii + 7) in
      set outputs oi
        (min1 co ~o:o_r ~lo:tlo ~hi:thi ~ivlo:r_lo ~ivhi:r_hi +. ld_r);
      set outputs (oi + 1)
        (max1 co ~o:o_r ~lo:tlo ~hi:thi ~ivlo:r_lo ~ivhi:r_hi +. ld_r);
      set outputs (oi + 2)
        (min1 co ~o:o_f ~lo:tlo ~hi:thi ~ivlo:f_lo ~ivhi:f_hi +. ld_f);
      set outputs (oi + 3)
        (max1 co ~o:o_f ~lo:tlo ~hi:thi ~ivlo:f_lo ~ivhi:f_hi +. ld_f)
    done
  done
