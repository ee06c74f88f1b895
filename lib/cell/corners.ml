module Rng = Ssd_util.Rng

(* A corner is a pair of positive derate factors applied to a nominal
   characterized library: delays (and the skew-axis surfaces derived from
   them) scale by [c_delay], output transition times by [c_tt].  Every
   fitted form is linear in its coefficients, so scaling the coefficient
   vectors scales the fitted surfaces exactly — a derated cell is a real
   [Charlib.cell] that evaluates through the unchanged scalar kernels,
   which is what lets the batched corner path be checked bit-for-bit
   against K independent single-corner analyses. *)

type spec = { c_name : string; c_delay : float; c_tt : float }

let check_spec s =
  let ok v = Float.is_finite v && v > 0. in
  if not (ok s.c_delay && ok s.c_tt) then
    invalid_arg
      (Printf.sprintf "Corners: spec %s has non-positive derate (%g, %g)"
         s.c_name s.c_delay s.c_tt)

let default_specs k =
  if k < 1 then invalid_arg "Corners.default_specs: k < 1";
  List.init k (fun i ->
      (* evenly spread over [-1, 1]; delay and transition-time factors
         anti-correlated so the corner set is not a single scaled axis *)
      let u =
        if k = 1 then 0.
        else (2. *. float_of_int i /. float_of_int (k - 1)) -. 1.
      in
      {
        c_name = Printf.sprintf "c%02d" i;
        c_delay = 1. +. (0.25 *. u);
        c_tt = 1. -. (0.10 *. u);
      })

let sample_specs ~seed n =
  if n < 1 then invalid_arg "Corners.sample_specs: n < 1";
  let rng = Rng.create seed in
  let gauss () =
    (* Box–Muller on the deterministic splitmix stream *)
    let u1 = Float.max (Rng.float rng 1.) 1e-12 in
    let u2 = Rng.float rng 1. in
    sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)
  in
  let clampf lo hi v = Float.max lo (Float.min hi v) in
  List.init n (fun i ->
      {
        c_name = Printf.sprintf "s%04d" i;
        c_delay = clampf 0.6 1.4 (1. +. (0.08 *. gauss ()));
        c_tt = clampf 0.6 1.4 (1. +. (0.05 *. gauss ()));
      })

(* --- coefficient derating ---------------------------------------------- *)

let scale1 s (f : Fit.fit1) =
  let k = Array.map (fun c -> s *. c) f.Fit.k in
  let lo, hi = f.Fit.range in
  (* same interior-extremum rule as [Fit.fit1_of_samples], re-derived from
     the scaled coefficients so the record is self-consistent *)
  let peak =
    if k.(0) = 0. then None
    else begin
      let p = -.k.(1) /. (2. *. k.(0)) in
      if p > lo && p < hi then Some p else None
    end
  in
  { Fit.k; range = f.Fit.range; peak; rms = s *. f.Fit.rms }

let scale2 s (f : Fit.fit2) =
  {
    f with
    Fit.k2 = Array.map (fun c -> s *. c) f.Fit.k2;
    rms2 = s *. f.Fit.rms2;
  }

let derate_edge ~sd ~st (e : Charlib.edge_char) =
  {
    Charlib.delay = scale1 sd e.Charlib.delay;
    out_tt = scale1 st e.Charlib.out_tt;
  }

let derate_cell spec (c : Charlib.cell) =
  check_spec spec;
  let sd = spec.c_delay and st = spec.c_tt in
  {
    c with
    Charlib.to_ctl = Array.map (derate_edge ~sd ~st) c.Charlib.to_ctl;
    to_non = Array.map (derate_edge ~sd ~st) c.Charlib.to_non;
    tied_ctl = Array.map (derate_edge ~sd ~st) c.Charlib.tied_ctl;
    pairs =
      List.map
        (fun (p : Charlib.pair_char) ->
          {
            p with
            Charlib.d0 = scale2 sd p.Charlib.d0;
            (* the saturation skews and the t-V vertex abscissa live on
               the skew axis, which tracks the delay scale *)
            sr = scale2 sd p.Charlib.sr;
            syr = scale2 sd p.Charlib.syr;
            tt_min_skew = scale2 sd p.Charlib.tt_min_skew;
            tt_min = scale2 st p.Charlib.tt_min;
          })
        c.Charlib.pairs;
    load_d_ctl = sd *. c.Charlib.load_d_ctl;
    load_t_ctl = st *. c.Charlib.load_t_ctl;
    load_d_non = sd *. c.Charlib.load_d_non;
    load_t_non = st *. c.Charlib.load_t_non;
  }

let derate_library spec (lib : Charlib.t) =
  {
    Charlib.cells = List.map (derate_cell spec) lib.Charlib.cells;
    tag = lib.Charlib.tag ^ "@" ^ spec.c_name;
  }

let remap_of_library (lib : Charlib.t) (cell : Charlib.cell) =
  Charlib.find lib cell.Charlib.kind cell.Charlib.n

(* --- flat corner-major coefficient table ------------------------------- *)

(* Per cell the table holds one contiguous block of [K * stride] floats:
   corner k's coefficients live at [l_base + k * stride, ... + stride) —
   the corner is the contiguous axis, mirroring the K-plane layout of
   [Ssd_sta.Windows].  Within a corner block:

     fit1 blocks (4 floats: k0 k1 k2 peak-or-NaN), for each of the three
     edge groups (to_ctl, to_non, tied_ctl) × position × (delay, out_tt):
       edge_off = ((group·n + pos)·2 + fit)·4          — 24·n floats
     load slopes (d_ctl, t_ctl, d_non, t_non) at 24·n  —    4 floats
     fit2 blocks (10 floats, zero-padded) for each pair slot × surface
     (d0, sr, syr, tt_min_skew, tt_min):
       pair_off = 24·n + 4 + (slot·5 + surf)·10        — 50·P floats

   Ranges and the fit2 basis selectors cannot vary across corners
   (derating rescales coefficients only), so they live once in the
   per-cell layout rather than per corner. *)

type layout = {
  l_kind : Sweep.gate_kind;
  l_n : int;
  l_ref_fanout : int;
  l_t_lo : float;
  l_t_hi : float;  (** shared [fit1] clamp range *)
  l_p_lo : float;
  l_p_hi : float;  (** shared [fit2] clamp range *)
  l_base : int;
  l_stride : int;
  l_npairs : int;
  l_pair_slot : int array;  (** [n·n] row-major [(a·n + b)]; -1 = absent *)
  l_pair_direct : bool array;  (** stored orientation is (a, b) *)
  l_surf_basis : int array;  (** [npairs·5] basis tags, see {!basis_tag} *)
}

let fit1_floats = 4
let fit2_floats = 10
let n_surfaces = 5

let group_ctl = 0
let group_non = 1
let group_tied = 2
let fit_delay = 0
let fit_tt = 1
let surf_d0 = 0
let surf_sr = 1
let surf_syr = 2
let surf_tts = 3
let surf_ttm = 4

let edge_off l ~group ~pos ~fit =
  (((group * l.l_n) + pos) * 2 + fit) * fit1_floats

let loads_off l = 3 * l.l_n * 2 * fit1_floats

let pair_off l ~slot ~surf =
  loads_off l + 4 + (((slot * n_surfaces) + surf) * fit2_floats)

let stride_of ~n ~npairs =
  (3 * n * 2 * fit1_floats) + 4 + (npairs * n_surfaces * fit2_floats)

let basis_tag = function Fit.Quad2 -> 0 | Fit.Cuberoot2 -> 1 | Fit.Cubic2 -> 2

type coeffs =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type table = {
  t_specs : spec array;  (* elements overwritten in place by [refit] *)
  t_nominal : Charlib.t;
  t_libs : Charlib.t option array;
      (* per-corner derated libraries, materialized on first [library]
         request and invalidated by [refit]: the batched kernel never
         needs them, only the scalar oracle / remap paths do *)
  t_layouts : layout array;
  t_coeffs : coeffs;
  t_cells : Charlib.cell array;  (* nominal cells, aligned with layouts *)
  t_slots : int option array array;
      (* [kind_row kind] then arity: the first cell of that shape, as a
         shared [Some], so a lookup allocates nothing *)
}

let kind_row = function Sweep.Nand -> 0 | Sweep.Nor -> 1

let layout_of_cell ~base (c : Charlib.cell) =
  let n = c.Charlib.n in
  let t_lo, t_hi = c.Charlib.t_range in
  let pairs = Array.of_list c.Charlib.pairs in
  let npairs = Array.length pairs in
  let p_lo, p_hi =
    if npairs = 0 then (0., 0.) else pairs.(0).Charlib.d0.Fit.range2
  in
  let pair_slot = Array.make (n * n) (-1) in
  let pair_direct = Array.make (n * n) false in
  let surf_basis = Array.make (npairs * n_surfaces) 0 in
  Array.iteri
    (fun j (p : Charlib.pair_char) ->
      let a = p.Charlib.pos_a and b = p.Charlib.pos_b in
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Corners.build: pair position out of range";
      pair_slot.((a * n) + b) <- j;
      pair_direct.((a * n) + b) <- true;
      if pair_slot.((b * n) + a) < 0 then begin
        pair_slot.((b * n) + a) <- j;
        pair_direct.((b * n) + a) <- false
      end;
      surf_basis.((j * n_surfaces) + surf_d0) <- basis_tag p.Charlib.d0.Fit.basis;
      surf_basis.((j * n_surfaces) + surf_sr) <- basis_tag p.Charlib.sr.Fit.basis;
      surf_basis.((j * n_surfaces) + surf_syr) <- basis_tag p.Charlib.syr.Fit.basis;
      surf_basis.((j * n_surfaces) + surf_tts) <-
        basis_tag p.Charlib.tt_min_skew.Fit.basis;
      surf_basis.((j * n_surfaces) + surf_ttm) <-
        basis_tag p.Charlib.tt_min.Fit.basis)
    pairs;
  {
    l_kind = c.Charlib.kind;
    l_n = n;
    l_ref_fanout = c.Charlib.ref_fanout;
    l_t_lo = t_lo;
    l_t_hi = t_hi;
    l_p_lo = p_lo;
    l_p_hi = p_hi;
    l_base = base;
    l_stride = stride_of ~n ~npairs;
    l_npairs = npairs;
    l_pair_slot = pair_slot;
    l_pair_direct = pair_direct;
    l_surf_basis = surf_basis;
  }

(* Coefficient fill writes the {e derated} values directly from the
   nominal fits: [s *. c] per coefficient, exactly the float operations
   {!scale1}/{!scale2} perform — so the packed block is bit-identical to
   packing a [derate_cell] result, without materializing derated cell
   records.  This is what makes {!refit} cheap enough to run once per
   Monte-Carlo chunk. *)

let put1 co ~off ~s (f : Fit.fit1) ~range =
  if f.Fit.range <> range then
    invalid_arg "Corners: fit1 range differs from the cell range";
  if Array.length f.Fit.k <> 3 then
    invalid_arg "Corners: fit1 coefficient count <> 3";
  let k0 = s *. f.Fit.k.(0) in
  let k1 = s *. f.Fit.k.(1) in
  Bigarray.Array1.set co off k0;
  Bigarray.Array1.set co (off + 1) k1;
  Bigarray.Array1.set co (off + 2) (s *. f.Fit.k.(2));
  (* same interior-extremum rule as [scale1], from the scaled coefficients *)
  let lo, hi = f.Fit.range in
  let peak =
    if k0 = 0. then Float.nan
    else begin
      let p = -.k1 /. (2. *. k0) in
      if p > lo && p < hi then p else Float.nan
    end
  in
  Bigarray.Array1.set co (off + 3) peak

let put2 co ~off ~s (f : Fit.fit2) ~range =
  if f.Fit.range2 <> range then
    invalid_arg "Corners: fit2 range differs from the cell pair range";
  let nk = Array.length f.Fit.k2 in
  if nk > fit2_floats then invalid_arg "Corners: fit2 coefficient count > 10";
  for i = 0 to fit2_floats - 1 do
    Bigarray.Array1.set co (off + i) (if i < nk then s *. f.Fit.k2.(i) else 0.)
  done

let fill_corner co (l : layout) ~corner spec (c : Charlib.cell) =
  let b = l.l_base + (corner * l.l_stride) in
  let sd = spec.c_delay and st = spec.c_tt in
  let range = (l.l_t_lo, l.l_t_hi) in
  let edge ~group ~pos (e : Charlib.edge_char) =
    put1 co ~off:(b + edge_off l ~group ~pos ~fit:fit_delay) ~s:sd
      e.Charlib.delay ~range;
    put1 co ~off:(b + edge_off l ~group ~pos ~fit:fit_tt) ~s:st e.Charlib.out_tt
      ~range
  in
  Array.iteri (fun pos e -> edge ~group:group_ctl ~pos e) c.Charlib.to_ctl;
  Array.iteri (fun pos e -> edge ~group:group_non ~pos e) c.Charlib.to_non;
  Array.iteri (fun pos e -> edge ~group:group_tied ~pos e) c.Charlib.tied_ctl;
  let lo = b + loads_off l in
  Bigarray.Array1.set co lo (sd *. c.Charlib.load_d_ctl);
  Bigarray.Array1.set co (lo + 1) (st *. c.Charlib.load_t_ctl);
  Bigarray.Array1.set co (lo + 2) (sd *. c.Charlib.load_d_non);
  Bigarray.Array1.set co (lo + 3) (st *. c.Charlib.load_t_non);
  let prange = (l.l_p_lo, l.l_p_hi) in
  List.iteri
    (fun slot (p : Charlib.pair_char) ->
      let put surf s f =
        put2 co ~off:(b + pair_off l ~slot ~surf) ~s f ~range:prange
      in
      put surf_d0 sd p.Charlib.d0;
      (* skew-axis surfaces track the delay scale, as in [derate_cell] *)
      put surf_sr sd p.Charlib.sr;
      put surf_syr sd p.Charlib.syr;
      put surf_tts sd p.Charlib.tt_min_skew;
      put surf_ttm st p.Charlib.tt_min)
    c.Charlib.pairs

let build ?specs (lib : Charlib.t) =
  let specs =
    Array.of_list (match specs with Some s -> s | None -> default_specs 4)
  in
  if Array.length specs = 0 then invalid_arg "Corners.build: no corner specs";
  Array.iter check_spec specs;
  let k = Array.length specs in
  let cells = Array.of_list lib.Charlib.cells in
  let base = ref 0 in
  let layouts =
    Array.map
      (fun c ->
        let l = layout_of_cell ~base:!base c in
        base := !base + (k * l.l_stride);
        l)
      cells
  in
  let coeffs =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout !base
  in
  Array.iteri
    (fun ci l ->
      for corner = 0 to k - 1 do
        fill_corner coeffs l ~corner specs.(corner) cells.(ci)
      done)
    layouts;
  let max_n = Array.fold_left (fun m c -> max m c.Charlib.n) 0 cells in
  let slots = Array.init 2 (fun _ -> Array.make (max_n + 1) None) in
  Array.iteri
    (fun ci (c : Charlib.cell) ->
      let row = slots.(kind_row c.Charlib.kind) in
      if row.(c.Charlib.n) = None then row.(c.Charlib.n) <- Some ci)
    cells;
  {
    t_specs = specs;
    t_nominal = lib;
    t_libs = Array.make k None;
    t_layouts = layouts;
    t_coeffs = coeffs;
    t_cells = cells;
    t_slots = slots;
  }

let k t = Array.length t.t_specs
let spec t i = t.t_specs.(i)
let nominal t = t.t_nominal

let library t i =
  match t.t_libs.(i) with
  | Some lib -> lib
  | None ->
    let lib = derate_library t.t_specs.(i) t.t_nominal in
    t.t_libs.(i) <- Some lib;
    lib

let coeffs t = t.t_coeffs
let layouts t = t.t_layouts
let layout t i = t.t_layouts.(i)

let cell_slot t kind n =
  let row = t.t_slots.(kind_row kind) in
  if n < 0 || n >= Array.length row then None else row.(n)

let remap t corner (cell : Charlib.cell) =
  Charlib.find (library t corner) cell.Charlib.kind cell.Charlib.n

let refit t specs =
  let n = Array.length specs in
  let kk = k t in
  if n < 1 || n > kk then
    invalid_arg
      (Printf.sprintf "Corners.refit: %d specs for a %d-corner table" n kk);
  Array.iter check_spec specs;
  for c = 0 to n - 1 do
    t.t_specs.(c) <- specs.(c);
    t.t_libs.(c) <- None
  done;
  Array.iteri
    (fun ci l ->
      for corner = 0 to n - 1 do
        fill_corner t.t_coeffs l ~corner specs.(corner) t.t_cells.(ci)
      done)
    t.t_layouts

let bytes t = 8 * Bigarray.Array1.dim t.t_coeffs
