module Func1d = Ssd_util.Func1d

let src = Logs.Src.create "ssd.cell" ~doc:"cell characterization"

module Log = (val Logs.src_log src : Logs.LOG)

type profile = {
  t_grid : float list;
  pair_grid : float list;
  sim_h : float;
  sr_rel_tol : float;
  sr_iters : int;
  tmin_iters : int;
  fanouts : int list;
  ref_fanout : int;
}

let fine =
  {
    t_grid = [ 0.1e-9; 0.3e-9; 0.6e-9; 1.0e-9; 1.5e-9; 2.2e-9; 3.0e-9 ];
    pair_grid = [ 0.12e-9; 0.3e-9; 0.55e-9; 0.9e-9; 1.5e-9; 2.4e-9 ];
    sim_h = 2e-12;
    sr_rel_tol = 0.05;
    sr_iters = 10;
    tmin_iters = 10;
    fanouts = [ 1; 2; 4 ];
    ref_fanout = 1;
  }

let coarse =
  {
    t_grid = [ 0.15e-9; 0.6e-9; 1.5e-9; 3.0e-9 ];
    pair_grid = [ 0.2e-9; 0.8e-9; 2.0e-9 ];
    sim_h = 4e-12;
    sr_rel_tol = 0.08;
    sr_iters = 6;
    tmin_iters = 6;
    fanouts = [ 1; 4 ];
    ref_fanout = 1;
  }

type edge_char = { delay : Fit.fit1; out_tt : Fit.fit1 }

type pair_char = {
  pos_a : int;
  pos_b : int;
  d0 : Fit.fit2;
  sr : Fit.fit2;
  syr : Fit.fit2;
  tt_min_skew : Fit.fit2;
  tt_min : Fit.fit2;
}

type cell = {
  kind : Sweep.gate_kind;
  n : int;
  t_range : float * float;
  ref_fanout : int;
  to_ctl : edge_char array;
  to_non : edge_char array;
  tied_ctl : edge_char array;
  pairs : pair_char list;
  load_d_ctl : float;
  load_t_ctl : float;
  load_d_non : float;
  load_t_non : float;
}

type t = { cells : cell list; tag : string }

let range_of grid =
  match (grid : float list) with
  | [] -> invalid_arg "Charlib: empty grid"
  | x :: rest ->
    List.fold_left
      (fun (lo, hi) v -> (Float.min lo v, Float.max hi v))
      (x, x) rest

(* --- pin-to-pin characterization ------------------------------------- *)

let edge_of_sweep (profile : profile) measure =
  let range = range_of profile.t_grid in
  let rows = List.map (fun t -> (t, measure t)) profile.t_grid in
  let delay =
    Fit.fit1_of_samples ~range
      (List.map (fun (t, m) -> (t, m.Sweep.m_delay)) rows)
  in
  let out_tt =
    Fit.fit1_of_samples ~range
      (List.map (fun (t, m) -> (t, m.Sweep.m_out_tt)) rows)
  in
  { delay; out_tt }

(* --- pair characterization ------------------------------------------- *)

(* Find the saturation skew on one side of the V: the smallest |skew| at
   which the pair delay reaches the corresponding pin-to-pin delay.  The
   delay is monotonic in |skew| between 0 and saturation, so a doubling
   bracket followed by bisection converges quickly. *)
let saturation_skew (profile : profile) ~pair_delay ~d_pin ~d0 =
  let tol = Float.max (profile.sr_rel_tol *. (d_pin -. d0)) 1e-12 in
  let threshold = d_pin -. tol in
  if d0 >= threshold then 0.
  else begin
    let rec bracket s k =
      if k > 8 then s
      else if pair_delay s >= threshold then s
      else bracket (2. *. s) (k + 1)
    in
    let hi = bracket 0.15e-9 0 in
    if pair_delay hi < threshold then hi
    else
      Func1d.bisect
        ~tol:(Float.max (hi /. 200.) 1e-12)
        ~iters:profile.sr_iters
        (fun s -> pair_delay s -. threshold)
        0. hi
  end

let pair_of_sweep (profile : profile) ~single_a ~single_b ~pair_meas ~pos_a ~pos_b =
  let range = range_of profile.pair_grid in
  let d0_rows = ref [] in
  let sr_rows = ref [] in
  let syr_rows = ref [] in
  let tmin_sk_rows = ref [] in
  let tmin_rows = ref [] in
  List.iter
    (fun t_a ->
      List.iter
        (fun t_b ->
          let m0 = pair_meas ~t_a ~t_b ~skew:0. in
          let d0 = m0.Sweep.m_delay in
          let da = (single_a t_a).Sweep.m_delay in
          let db = (single_b t_b).Sweep.m_delay in
          let delay_right s = (pair_meas ~t_a ~t_b ~skew:s).Sweep.m_delay in
          let delay_left s =
            (pair_meas ~t_a ~t_b ~skew:(-.s)).Sweep.m_delay
          in
          let sr = saturation_skew profile ~pair_delay:delay_right ~d_pin:da ~d0 in
          let syr =
            saturation_skew profile ~pair_delay:delay_left ~d_pin:db ~d0
          in
          (* Output-transition V-shape vertex: minimize over the skew span
             where simultaneity matters. *)
          let lo = -.syr -. 0.05e-9 and hi = sr +. 0.05e-9 in
          let sk_min, tt_min =
            Func1d.golden_min ~iters:profile.tmin_iters
              (fun s -> (pair_meas ~t_a ~t_b ~skew:s).Sweep.m_out_tt)
              lo hi
          in
          let key = (t_a, t_b) in
          d0_rows := (key, d0) :: !d0_rows;
          sr_rows := (key, sr) :: !sr_rows;
          syr_rows := (key, syr) :: !syr_rows;
          tmin_sk_rows := (key, sk_min) :: !tmin_sk_rows;
          tmin_rows := (key, tt_min) :: !tmin_rows)
        profile.pair_grid)
    profile.pair_grid;
  {
    pos_a;
    pos_b;
    d0 = Fit.fit2_best ~range !d0_rows;
    sr = Fit.fit2_of_samples ~basis:Fit.Quad2 ~range !sr_rows;
    syr = Fit.fit2_of_samples ~basis:Fit.Quad2 ~range !syr_rows;
    tt_min_skew = Fit.fit2_of_samples ~basis:Fit.Quad2 ~range !tmin_sk_rows;
    tt_min = Fit.fit2_best ~range !tmin_rows;
  }

(* --- load characterization ------------------------------------------- *)

let load_slopes (profile : profile) tech kind ~n =
  let lo, hi = range_of profile.t_grid in
  let t_ref = sqrt (lo *. hi) in
  let slope measure =
    let rows =
      List.map
        (fun f -> ([| float_of_int f |], measure f))
        profile.fanouts
    in
    let k = Ssd_util.Lsq.fit Ssd_util.Lsq.linear_1d rows in
    Float.max k.(0) 0.
  in
  let meas_ctl f =
    Sweep.single ~sim_h:profile.sim_h tech kind ~n ~fanout:f ~pos:0
      ~to_controlling:true ~t_in:t_ref
  in
  let meas_non f =
    Sweep.single ~sim_h:profile.sim_h tech kind ~n ~fanout:f ~pos:0
      ~to_controlling:false ~t_in:t_ref
  in
  let ctl = List.map (fun f -> (f, meas_ctl f)) profile.fanouts in
  let non = List.map (fun f -> (f, meas_non f)) profile.fanouts in
  let get rows sel f = sel (List.assoc f rows) in
  ( slope (get ctl (fun m -> m.Sweep.m_delay)),
    slope (get ctl (fun m -> m.Sweep.m_out_tt)),
    slope (get non (fun m -> m.Sweep.m_delay)),
    slope (get non (fun m -> m.Sweep.m_out_tt)) )

(* --- cell characterization ------------------------------------------- *)

let characterize_cell ?(with_pairs = true) (profile : profile) tech kind ~n =
  let fanout = profile.ref_fanout in
  let sim_h = profile.sim_h in
  Log.info (fun m ->
      m "characterizing %s%d (pairs=%b)"
        (match kind with Sweep.Nand -> "nand" | Sweep.Nor -> "nor")
        n with_pairs);
  (* memoize single-input measurements: the pair loop re-uses them *)
  let single_cache : (int * bool * float, Sweep.meas) Hashtbl.t =
    Hashtbl.create 64
  in
  let single ~pos ~to_controlling ~t_in =
    let key = (pos, to_controlling, t_in) in
    match Hashtbl.find_opt single_cache key with
    | Some m -> m
    | None ->
      let m =
        Sweep.single ~sim_h tech kind ~n ~fanout ~pos ~to_controlling ~t_in
      in
      Hashtbl.add single_cache key m;
      m
  in
  let to_ctl =
    Array.init n (fun pos ->
        edge_of_sweep profile (fun t_in ->
            single ~pos ~to_controlling:true ~t_in))
  in
  let to_non =
    Array.init n (fun pos ->
        edge_of_sweep profile (fun t_in ->
            single ~pos ~to_controlling:false ~t_in))
  in
  let tied_ctl =
    Array.init n (fun i ->
        let k = i + 1 in
        if k = 1 then to_ctl.(0)
        else
          edge_of_sweep profile (fun t_in ->
              Sweep.tied ~sim_h tech kind ~n ~fanout ~k ~t_in))
  in
  let pairs =
    if not with_pairs || n < 2 then []
    else begin
      let acc = ref [] in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          let pc =
            pair_of_sweep profile
              ~single_a:(fun t -> single ~pos:a ~to_controlling:true ~t_in:t)
              ~single_b:(fun t -> single ~pos:b ~to_controlling:true ~t_in:t)
              ~pair_meas:(fun ~t_a ~t_b ~skew ->
                Sweep.pair ~sim_h tech kind ~n ~fanout ~pos_a:a ~pos_b:b ~t_a
                  ~t_b ~skew)
              ~pos_a:a ~pos_b:b
          in
          acc := pc :: !acc
        done
      done;
      List.rev !acc
    end
  in
  let load_d_ctl, load_t_ctl, load_d_non, load_t_non =
    load_slopes profile tech kind ~n
  in
  {
    kind;
    n;
    t_range = range_of profile.t_grid;
    ref_fanout = fanout;
    to_ctl;
    to_non;
    tied_ctl;
    pairs;
    load_d_ctl;
    load_t_ctl;
    load_d_non;
    load_t_non;
  }

let default_spec =
  [
    (Sweep.Nand, 1);
    (Sweep.Nand, 2);
    (Sweep.Nand, 3);
    (Sweep.Nand, 4);
    (Sweep.Nor, 2);
    (Sweep.Nor, 3);
    (Sweep.Nor, 4);
  ]

let spec_tag spec =
  String.concat "+"
    (List.map
       (fun (k, n) ->
         Printf.sprintf "%s%d"
           (match k with Sweep.Nand -> "nand" | Sweep.Nor -> "nor")
           n)
       spec)

let characterize profile tech spec =
  let cells =
    List.map (fun (kind, n) -> characterize_cell profile tech kind ~n) spec
  in
  { cells; tag = spec_tag spec }

(* --- disk cache -------------------------------------------------------- *)

let cache_version = 4

(* A cache file is this header, the MD5 digest of the payload (16
   bytes), then the marshalled library.  All three are checked before
   the payload is unmarshalled. *)
let cache_header = Printf.sprintf "ssd-charlib %d\n" cache_version

let cache_dir () =
  match Sys.getenv_opt "SSD_CACHE_DIR" with
  | Some d -> d
  | None -> (
    match Sys.getenv_opt "HOME" with
    | Some h -> Filename.concat h ".cache/ssd-repro"
    | None -> ".")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let cache_key profile tech spec =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (cache_version, profile, tech, spec) []))

(* [None] on a miss: no readable file, or one whose header or payload
   digest does not match (truncated, foreign or corrupted).  The digest
   is taken through the channel, which is then rewound for [Marshal]. *)
let read_cache path =
  let h = String.length cache_header in
  match
    In_channel.with_open_bin path (fun ic ->
        let head = really_input_string ic (h + 16) in
        if not (String.equal (String.sub head 0 h) cache_header) then None
        else if
          not
            (String.equal (String.sub head h 16)
               (Digest.channel ic (in_channel_length ic - h - 16)))
        then None
        else begin
          seek_in ic (h + 16);
          Some (Marshal.from_channel ic : t)
        end)
  with
  | exception (Sys_error _ | End_of_file) -> None
  | lib -> lib

(* Written to a fresh file in the cache directory, then renamed into
   place, so a reader never meets a partial file.  The temporary file
   is created private; the cache is made as readable as [open_out]
   would leave it. *)
let write_cache dir path lib =
  mkdir_p dir;
  let payload = Marshal.to_string lib [] in
  let tmp = Filename.temp_file ~temp_dir:dir "ssdchar-" ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc cache_header;
        Out_channel.output_string oc (Digest.string payload);
        Out_channel.output_string oc payload);
    Unix.chmod tmp 0o644;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let load_or_characterize ?cache_dir:dir profile tech spec =
  let dir = match dir with Some d -> d | None -> cache_dir () in
  let path =
    Filename.concat dir
      (Printf.sprintf "ssdchar-%s.bin" (cache_key profile tech spec))
  in
  match read_cache path with
  | Some lib ->
    Log.info (fun m -> m "loaded characterization cache %s" path);
    lib
  | None ->
    let lib = characterize profile tech spec in
    let warn e = Log.warn (fun m -> m "could not save characterization cache: %s" e) in
    (try
       write_cache dir path lib;
       Log.info (fun m -> m "saved characterization cache %s" path)
     with
    | Sys_error e -> warn e
    | Unix.Unix_error (err, call, arg) ->
      warn (Printf.sprintf "%s %s: %s" call arg (Unix.error_message err)));
    lib

(* shared by every domain: a second caller waits for the first one's
   load, then gets the same library *)
let memo : (string, t) Hashtbl.t = Hashtbl.create 4
let memo_lock = Mutex.create ()

let default ?profile () =
  let profile =
    match profile with
    | Some p -> p
    | None -> if Sys.getenv_opt "SSD_FAST" <> None then coarse else fine
  in
  let key = cache_key profile Ssd_spice.Tech.default default_spec in
  Mutex.protect memo_lock (fun () ->
      match Hashtbl.find_opt memo key with
      | Some lib -> lib
      | None ->
        let lib =
          load_or_characterize profile Ssd_spice.Tech.default default_spec
        in
        Hashtbl.replace memo key lib;
        lib)

let find lib kind n =
  match
    List.find_opt (fun c -> c.kind = kind && c.n = n) lib.cells
  with
  | Some c -> c
  | None -> raise Not_found

let find_pair cell a b =
  let direct =
    List.find_opt (fun p -> p.pos_a = a && p.pos_b = b) cell.pairs
  in
  match direct with
  | Some p -> Some (p, true)
  | None -> (
    match
      List.find_opt (fun p -> p.pos_a = b && p.pos_b = a) cell.pairs
    with
    | Some p -> Some (p, false)
    | None -> None)

let pp_cell_summary ppf c =
  Format.fprintf ppf "%s%d: %d pin chars, %d pairs, load slope %.1f ps/fo"
    (match c.kind with Sweep.Nand -> "nand" | Sweep.Nor -> "nor")
    c.n (2 * c.n) (List.length c.pairs)
    (c.load_d_ctl *. 1e12)
