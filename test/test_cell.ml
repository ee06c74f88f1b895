module C = Ssd_cell
module Fit = C.Fit
module Charlib = C.Charlib
module Sweep = C.Sweep

let tech = Ssd_spice.Tech.default

(* shared coarse library (cached on disk after the first run) *)
let lib = lazy (Charlib.default ~profile:Charlib.coarse ())

let nand2 () = Charlib.find (Lazy.force lib) Sweep.Nand 2

(* ---------- Fit ---------- *)

let test_fit1_eval_and_peak () =
  (* samples of a downward parabola peaking at 2e-9 *)
  let f t = -.(1e16 *. (t -. 2e-9) ** 2.) +. 1e-10 in
  let samples = List.map (fun t -> (t, f t)) [ 0.5e-9; 1e-9; 2e-9; 3e-9; 3.5e-9 ] in
  let fit = Fit.fit1_of_samples ~range:(0.5e-9, 3.5e-9) samples in
  (match fit.Fit.peak with
  | Some p -> Alcotest.(check (float 1e-11)) "peak location" 2e-9 p
  | None -> Alcotest.fail "expected an interior peak");
  Alcotest.(check (float 1e-8)) "evaluates" (f 1.5e-9) (Fit.eval1 fit 1.5e-9);
  (* clamped evaluation: outside the range uses the boundary *)
  Alcotest.(check (float 1e-8)) "clamped" (f 3.5e-9) (Fit.eval1 fit 10e-9);
  match Fit.shape1 fit with
  | Ssd_util.Func1d.Bitonic _ -> ()
  | Ssd_util.Func1d.Monotonic -> Alcotest.fail "expected bitonic shape"

let test_fit1_monotonic_no_peak () =
  let samples = List.map (fun t -> (t, 2e8 *. t)) [ 0.1e-9; 1e-9; 2e-9 ] in
  let fit = Fit.fit1_of_samples ~range:(0.1e-9, 2e-9) samples in
  Alcotest.(check bool) "no interior peak" true (fit.Fit.peak = None)

let test_fit2_best_picks_lower_rms () =
  (* a saddle-ish surface the cube-root product cannot express *)
  let f x y = (x *. 1e8) -. (1e17 *. (x -. 1e-9) *. (y -. 1e-9)) in
  let grid = [ 0.2e-9; 0.8e-9; 1.5e-9; 2.2e-9 ] in
  let samples =
    List.concat_map (fun x -> List.map (fun y -> ((x, y), f x y)) grid) grid
  in
  let best = Fit.fit2_best ~range:(0.2e-9, 2.2e-9) samples in
  let cr = Fit.fit2_of_samples ~basis:Fit.Cuberoot2 ~range:(0.2e-9, 2.2e-9) samples in
  Alcotest.(check bool) "best is at least as good as cube-root" true
    (best.Fit.rms2 <= cr.Fit.rms2 +. 1e-18)

(* ---------- Sweep ---------- *)

let test_sweep_controlling_conventions () =
  Alcotest.(check bool) "nand cv" false (Sweep.controlling_value Sweep.Nand);
  Alcotest.(check bool) "nor cv" true (Sweep.controlling_value Sweep.Nor);
  Alcotest.(check bool) "nand rises" true
    (Sweep.output_rises_on_controlling Sweep.Nand);
  Alcotest.(check bool) "nor falls" false
    (Sweep.output_rises_on_controlling Sweep.Nor)

let test_sweep_single_measures () =
  let m =
    Sweep.single ~sim_h:4e-12 tech Sweep.Nand ~n:2 ~fanout:1 ~pos:0
      ~to_controlling:true ~t_in:0.5e-9
  in
  Alcotest.(check bool) "positive delay" true
    (m.Sweep.m_delay > 10e-12 && m.Sweep.m_delay < 1e-9);
  Alcotest.(check bool) "positive transition" true (m.Sweep.m_out_tt > 10e-12)

let test_sweep_pair_skew_reference () =
  (* delay is measured from the earliest arrival on both sides of the V *)
  let d skew =
    (Sweep.pair ~sim_h:4e-12 tech Sweep.Nand ~n:2 ~fanout:1 ~pos_a:0 ~pos_b:1
       ~t_a:0.4e-9 ~t_b:0.4e-9 ~skew).Sweep.m_delay
  in
  let d0 = d 0. and dr = d 1.2e-9 and dl = d (-1.2e-9) in
  Alcotest.(check bool) "zero skew fastest" true (d0 < dr && d0 < dl);
  Alcotest.(check bool) "arms are positive and bounded" true
    (dr > 0. && dr < 1e-9 && dl > 0. && dl < 1e-9)

let test_sweep_rejects_bad_stimuli () =
  Alcotest.check_raises "no transitions"
    (Invalid_argument "Sweep.run: no transition in stimulus") (fun () ->
      ignore
        (Sweep.run tech Sweep.Nand ~n:2 ~fanout:1
           [| Sweep.Steady true; Sweep.Steady true |]));
  Alcotest.check_raises "mixed directions"
    (Invalid_argument "Sweep.run: mixed transition directions are not supported")
    (fun () ->
      ignore
        (Sweep.run tech Sweep.Nand ~n:2 ~fanout:1
           [|
             Sweep.To_controlling { arrival = 0.; t_tr = 0.3e-9 };
             Sweep.To_non_controlling { arrival = 0.; t_tr = 0.3e-9 };
           |]))

(* ---------- Charlib ---------- *)

let test_charlib_default_contents () =
  let l = Lazy.force lib in
  List.iter
    (fun (kind, n) ->
      match Charlib.find l kind n with
      | cell ->
        Alcotest.(check int) "n matches" n cell.Charlib.n;
        Alcotest.(check int) "pin chars" n (Array.length cell.Charlib.to_ctl);
        Alcotest.(check int) "tied chars" n (Array.length cell.Charlib.tied_ctl);
        let expected_pairs = n * (n - 1) / 2 in
        Alcotest.(check int) "pair chars" expected_pairs
          (List.length cell.Charlib.pairs)
      | exception Not_found -> Alcotest.fail "missing default cell")
    Charlib.default_spec

let test_charlib_find_missing () =
  let l = Lazy.force lib in
  Alcotest.check_raises "missing cell" Not_found (fun () ->
      ignore (Charlib.find l Sweep.Nand 7))

let test_charlib_pin_fit_accuracy () =
  let cell = nand2 () in
  (* the fitted pin-to-pin delay matches a fresh simulation within the
     quadratic-form error budget *)
  List.iter
    (fun t_in ->
      let m =
        Sweep.single ~sim_h:4e-12 tech Sweep.Nand ~n:2 ~fanout:1 ~pos:0
          ~to_controlling:true ~t_in
      in
      let p = Fit.eval1 cell.Charlib.to_ctl.(0).Charlib.delay t_in in
      let rel = Float.abs (p -. m.Sweep.m_delay) /. m.Sweep.m_delay in
      Alcotest.(check bool)
        (Printf.sprintf "fit within 15%% at %.1fns" (t_in *. 1e9))
        true (rel < 0.15))
    [ 0.3e-9; 0.9e-9; 2.0e-9 ]

let test_charlib_pair_surfaces_positive () =
  let cell = nand2 () in
  match cell.Charlib.pairs with
  | [ pc ] ->
    List.iter
      (fun (ta, tb) ->
        let sr = Fit.eval2 pc.Charlib.sr ta tb in
        let syr = Fit.eval2 pc.Charlib.syr ta tb in
        Alcotest.(check bool) "SR sane" true (sr > -1e-11 && sr < 3e-9);
        Alcotest.(check bool) "SYR sane" true (syr > -1e-11 && syr < 3e-9))
      [ (0.3e-9, 0.3e-9); (0.5e-9, 1.0e-9); (1.5e-9, 1.5e-9) ]
  | l -> Alcotest.fail (Printf.sprintf "expected 1 pair, got %d" (List.length l))

let test_charlib_d0_below_arms () =
  (* the zero-skew delay is below both pin-to-pin arms (the speed-up) *)
  let cell = nand2 () in
  match cell.Charlib.pairs with
  | [ pc ] ->
    List.iter
      (fun t ->
        let d0 = Fit.eval2 pc.Charlib.d0 t t in
        let dr = Fit.eval1 cell.Charlib.to_ctl.(0).Charlib.delay t in
        let dl = Fit.eval1 cell.Charlib.to_ctl.(1).Charlib.delay t in
        Alcotest.(check bool) "D0R below DR" true (d0 < dr);
        Alcotest.(check bool) "D0R below DYR" true (d0 < dl))
      [ 0.3e-9; 0.8e-9 ]
  | _ -> Alcotest.fail "expected 1 pair"

let test_charlib_load_slopes_nonneg () =
  let l = Lazy.force lib in
  List.iter
    (fun cell ->
      Alcotest.(check bool) "ctl delay slope >= 0" true
        (cell.Charlib.load_d_ctl >= 0.);
      Alcotest.(check bool) "non delay slope >= 0" true
        (cell.Charlib.load_d_non >= 0.))
    l.Charlib.cells

let test_charlib_position_ordering () =
  (* deeper stack positions have larger to-controlling delay (Section 3.1.2) *)
  let l = Lazy.force lib in
  let cell = Charlib.find l Sweep.Nand 4 in
  let d pos = Fit.eval1 cell.Charlib.to_ctl.(pos).Charlib.delay 0.5e-9 in
  Alcotest.(check bool) "monotone with position" true (d 3 > d 0)

let test_charlib_cache_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ssd-test-cache" in
  let spec = [ (Sweep.Nand, 1) ] in
  let l1 = Charlib.load_or_characterize ~cache_dir:dir Charlib.coarse tech spec in
  let l2 = Charlib.load_or_characterize ~cache_dir:dir Charlib.coarse tech spec in
  let d l = Fit.eval1 ((Charlib.find l Sweep.Nand 1).Charlib.to_ctl.(0)).Charlib.delay 0.5e-9 in
  Alcotest.(check (float 1e-18)) "cache reproduces fits" (d l1) (d l2)

(* A one-cell cache in a fresh directory, so each miss characterizes in
   well under a second: a truncated file, a file of random bytes and one
   with a flipped payload byte each load as a miss, and the miss
   rewrites the file whole. *)
let test_charlib_cache_rejects_damage () =
  let dir = Filename.temp_dir "ssd-cache-" "" in
  let spec = [ (Sweep.Nand, 1) ] in
  let load () = Charlib.load_or_characterize ~cache_dir:dir Charlib.coarse tech spec in
  let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let fresh = load () in
  let path =
    match files () with
    | [ f ] -> Filename.concat dir f
    | fs -> Alcotest.failf "expected one cache file, found [%s]" (String.concat "; " fs)
  in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let good = read () in
  let rng = Ssd_util.Rng.create 7L in
  let flipped =
    let b = Bytes.of_string good in
    let k = String.length good - 1 - Ssd_util.Rng.int rng 64 in
    Bytes.set b k (Char.chr (Char.code good.[k] lxor 0x10));
    Bytes.to_string b
  in
  List.iter
    (fun (what, bytes) ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
      let lib = load () in
      Alcotest.(check bool) (what ^ ": same library") true (lib = fresh);
      Alcotest.(check bool) (what ^ ": file replaced") true (String.equal (read ()) good);
      Alcotest.(check int) (what ^ ": no stray file") 1 (List.length (files ())))
    [
      ("truncated", String.sub good 0 (String.length good / 2));
      ( "random bytes",
        String.init (String.length good) (fun _ ->
            Char.chr (Ssd_util.Rng.int rng 256)) );
      ("flipped payload byte", flipped);
    ];
  (* a cache directory that cannot be made is logged, not raised *)
  let under_file = Filename.concat path "sub" in
  Alcotest.(check bool) "unwritable cache: same library" true
    (Charlib.load_or_characterize ~cache_dir:under_file Charlib.coarse tech spec
    = fresh);
  Sys.remove path;
  Sys.rmdir dir

(* the memo is shared by every domain: two first callers get one library *)
let test_charlib_default_across_domains () =
  let other = Domain.spawn (fun () -> Charlib.default ~profile:Charlib.coarse ()) in
  let here = Charlib.default ~profile:Charlib.coarse () in
  Alcotest.(check bool) "same library" true (Domain.join other == here)

let test_find_pair_orientation () =
  let l = Lazy.force lib in
  let cell = Charlib.find l Sweep.Nand 3 in
  (match Charlib.find_pair cell 0 2 with
  | Some (_, true) -> ()
  | Some (_, false) -> Alcotest.fail "expected direct orientation for (0,2)"
  | None -> Alcotest.fail "missing pair (0,2)");
  (match Charlib.find_pair cell 2 0 with
  | Some (_, false) -> ()
  | Some (_, true) -> Alcotest.fail "expected mirrored orientation for (2,0)"
  | None -> Alcotest.fail "missing pair (2,0)");
  Alcotest.(check bool) "identical positions" true
    (Charlib.find_pair cell 1 1 = None)

let suites =
  [
    ( "cell.fit",
      [
        Alcotest.test_case "fit1 peak & eval" `Quick test_fit1_eval_and_peak;
        Alcotest.test_case "fit1 monotonic" `Quick test_fit1_monotonic_no_peak;
        Alcotest.test_case "fit2 best-of" `Quick test_fit2_best_picks_lower_rms;
      ] );
    ( "cell.sweep",
      [
        Alcotest.test_case "conventions" `Quick test_sweep_controlling_conventions;
        Alcotest.test_case "single" `Slow test_sweep_single_measures;
        Alcotest.test_case "pair reference" `Slow test_sweep_pair_skew_reference;
        Alcotest.test_case "stimulus validation" `Quick
          test_sweep_rejects_bad_stimuli;
      ] );
    ( "cell.charlib",
      [
        Alcotest.test_case "default contents" `Slow test_charlib_default_contents;
        Alcotest.test_case "find missing" `Slow test_charlib_find_missing;
        Alcotest.test_case "pin fit accuracy" `Slow test_charlib_pin_fit_accuracy;
        Alcotest.test_case "pair surfaces" `Slow
          test_charlib_pair_surfaces_positive;
        Alcotest.test_case "D0 below arms" `Slow test_charlib_d0_below_arms;
        Alcotest.test_case "load slopes" `Slow test_charlib_load_slopes_nonneg;
        Alcotest.test_case "position ordering" `Slow
          test_charlib_position_ordering;
        Alcotest.test_case "cache roundtrip" `Slow test_charlib_cache_roundtrip;
        Alcotest.test_case "cache rejects damaged files" `Slow
          test_charlib_cache_rejects_damage;
        Alcotest.test_case "default across domains" `Slow
          test_charlib_default_across_domains;
        Alcotest.test_case "pair orientation" `Slow test_find_pair_orientation;
      ] );
  ]
