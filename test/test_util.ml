module Interval = Ssd_util.Interval
module Linalg = Ssd_util.Linalg
module Lsq = Ssd_util.Lsq
module Func1d = Ssd_util.Func1d
module Pwl = Ssd_util.Pwl
module Rng = Ssd_util.Rng
module Stats = Ssd_util.Stats
module Texttab = Ssd_util.Texttab
module Json = Ssd_util.Json

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Interval ---------- *)

let test_interval_basics () =
  let i = Interval.make 1. 3. in
  check_float "lo" 1. (Interval.lo i);
  check_float "hi" 3. (Interval.hi i);
  check_float "width" 2. (Interval.width i);
  check_float "mid" 2. (Interval.mid i);
  Alcotest.(check bool) "contains" true (Interval.contains i 2.);
  Alcotest.(check bool) "not contains" false (Interval.contains i 3.5);
  Alcotest.check_raises "bad bounds" (Invalid_argument "Interval.make: lo (2) > hi (1)")
    (fun () -> ignore (Interval.make 2. 1.))

let test_interval_ops () =
  let a = Interval.make 0. 2. and b = Interval.make 1. 4. in
  Alcotest.(check bool) "overlaps" true (Interval.overlaps a b);
  (match Interval.intersect a b with
  | Some i ->
    check_float "inter lo" 1. (Interval.lo i);
    check_float "inter hi" 2. (Interval.hi i)
  | None -> Alcotest.fail "expected intersection");
  let h = Interval.hull a b in
  check_float "hull lo" 0. (Interval.lo h);
  check_float "hull hi" 4. (Interval.hi h);
  let s = Interval.add a b in
  check_float "sum lo" 1. (Interval.lo s);
  check_float "sum hi" 6. (Interval.hi s);
  let d = Interval.sub a b in
  check_float "diff lo" (-4.) (Interval.lo d);
  check_float "diff hi" 1. (Interval.hi d);
  let disjoint = Interval.make 10. 11. in
  Alcotest.(check bool) "disjoint" false (Interval.overlaps a disjoint);
  Alcotest.(check bool) "no intersection" true
    (Interval.intersect a disjoint = None)

let test_interval_clamp_subset () =
  let i = Interval.make (-1.) 1. in
  check_float "clamp below" (-1.) (Interval.clamp i (-5.));
  check_float "clamp above" 1. (Interval.clamp i 5.);
  check_float "clamp inside" 0.5 (Interval.clamp i 0.5);
  Alcotest.(check bool) "subset" true
    (Interval.subset (Interval.make 0. 0.5) i);
  Alcotest.(check bool) "not subset" false
    (Interval.subset (Interval.make 0. 2.) i)

let prop_interval_hull_contains =
  QCheck.Test.make ~name:"hull contains both operands" ~count:200
    QCheck.(quad (float_range (-100.) 100.) (float_range 0. 50.)
              (float_range (-100.) 100.) (float_range 0. 50.))
    (fun (a, wa, b, wb) ->
      let ia = Interval.make a (a +. wa) and ib = Interval.make b (b +. wb) in
      let h = Interval.hull ia ib in
      Interval.subset ia h && Interval.subset ib h)

let prop_interval_add_sound =
  QCheck.Test.make ~name:"interval sum contains pointwise sums" ~count:200
    QCheck.(quad (float_range (-10.) 10.) (float_range 0. 5.)
              (float_range (-10.) 10.) (float_range 0. 5.))
    (fun (a, wa, b, wb) ->
      let ia = Interval.make a (a +. wa) and ib = Interval.make b (b +. wb) in
      let s = Interval.add ia ib in
      (* sample a few points *)
      List.for_all
        (fun (fa, fb) ->
          let x = a +. (fa *. wa) and y = b +. (fb *. wb) in
          Interval.contains s (x +. y))
        [ (0., 0.); (1., 1.); (0.5, 0.25); (0., 1.) ])

(* ---------- Linalg ---------- *)

let test_linalg_solve () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let b = [| 5.; 10. |] in
  let x = Linalg.solve a b in
  check_float "x0" 1. x.(0);
  check_float "x1" 3. x.(1);
  (* original not clobbered *)
  check_float "a intact" 2. a.(0).(0)

let test_linalg_singular () =
  let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Linalg.Singular (fun () ->
      ignore (Linalg.solve a [| 1.; 1. |]))

let test_linalg_matvec () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let y = Linalg.mat_vec a [| 1.; 1. |] in
  check_float "y0" 3. y.(0);
  check_float "y1" 7. y.(1);
  let at = Linalg.transpose a in
  check_float "t01" 3. at.(0).(1);
  let m = Linalg.mat_mul a (Linalg.identity 2) in
  check_float "mul id" 4. m.(1).(1)

let prop_linalg_solve_random =
  QCheck.Test.make ~name:"solve recovers random solutions" ~count:100
    QCheck.(list_of_size (Gen.return 9) (float_range (-5.) 5.))
    (fun vals ->
      (* build a diagonally-dominated 3x3 system and a random solution *)
      match vals with
      | [ a; b; c; d; e; f; x0; x1; x2 ] ->
        let m =
          [|
            [| 10. +. abs_float a; b; c |];
            [| d; 10. +. abs_float e; f |];
            [| a; f; 10. +. abs_float b |];
          |]
        in
        let x = [| x0; x1; x2 |] in
        let rhs = Linalg.mat_vec m x in
        let x' = Linalg.solve m rhs in
        Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-8) x x'
      | _ -> QCheck.assume_fail ())

(* ---------- Lsq ---------- *)

let test_lsq_exact_quadratic () =
  (* samples from 3x² − 2x + 1 must be reproduced exactly *)
  let samples =
    List.map
      (fun x -> ([| x |], (3. *. x *. x) -. (2. *. x) +. 1.))
      [ -2.; -1.; 0.; 1.; 2.; 3. ]
  in
  let k = Lsq.fit Lsq.quadratic_1d samples in
  Alcotest.(check (float 1e-6)) "k0" 3. k.(0);
  Alcotest.(check (float 1e-6)) "k1" (-2.) k.(1);
  Alcotest.(check (float 1e-6)) "k2" 1. k.(2);
  Alcotest.(check (float 1e-6)) "rms" 0. (Lsq.rms_error Lsq.quadratic_1d k samples)

let test_lsq_nano_scale () =
  (* the regression that motivated column normalization: T ~ 1e-9 *)
  let f t = (1e7 *. t *. t) +. (0.1 *. t) +. 1e-10 in
  let samples = List.map (fun t -> ([| t |], f t)) [ 1e-10; 5e-10; 1e-9; 2e-9; 3e-9 ] in
  let k = Lsq.fit Lsq.quadratic_1d samples in
  let rel_err =
    Float.abs (Lsq.predict Lsq.quadratic_1d k [| 1.5e-9 |] -. f 1.5e-9)
    /. f 1.5e-9
  in
  Alcotest.(check bool) "interpolates at nano scale" true (rel_err < 1e-6)

let test_lsq_2d_bases () =
  let f x y = (2. *. x *. x) +. (3. *. y) -. 1. in
  let grid = [ 0.5; 1.0; 1.5; 2.0 ] in
  let samples =
    List.concat_map (fun x -> List.map (fun y -> ([| x; y |], f x y)) grid) grid
  in
  let k = Lsq.fit Lsq.quadratic_2d samples in
  Alcotest.(check (float 1e-6)) "recovers 2d quadratic" (f 0.7 1.2)
    (Lsq.predict Lsq.quadratic_2d k [| 0.7; 1.2 |]);
  let kc = Lsq.fit Lsq.cubic_2d samples in
  Alcotest.(check (float 1e-5)) "cubic superset fits too" (f 0.7 1.2)
    (Lsq.predict Lsq.cubic_2d kc [| 0.7; 1.2 |])

let test_lsq_cuberoot_basis () =
  let b = Lsq.bilinear_cuberoot_2d [| 8.; 27. |] in
  Alcotest.(check (float 1e-9)) "xy term" 6. b.(0);
  Alcotest.(check (float 1e-9)) "x term" 2. b.(1);
  Alcotest.(check (float 1e-9)) "y term" 3. b.(2);
  Alcotest.(check (float 1e-9)) "const" 1. b.(3)

let test_lsq_singular_raises () =
  (* a fit poisoned by non-finite data must raise a message naming the
     basis and sample count, not hand back NaN coefficients *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let expect_fail samples =
    match Lsq.fit Lsq.quadratic_1d samples with
    | _ -> Alcotest.fail "expected Invalid_argument from Lsq.fit"
    | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the basis" true
        (contains msg (Lsq.basis_name Lsq.quadratic_1d));
      Alcotest.(check bool) "names the sample count" true
        (contains msg "3 sample(s)")
  in
  expect_fail [ ([| Float.nan |], 1.); ([| 1. |], 2.); ([| 2. |], 3.) ];
  expect_fail [ ([| 1. |], Float.infinity); ([| 2. |], 2.); ([| 3. |], 3.) ];
  Alcotest.check_raises "empty" (Invalid_argument "Lsq.fit: empty sample list")
    (fun () -> ignore (Lsq.fit Lsq.quadratic_1d []))

(* ---------- Stats.quantile ---------- *)

let test_stats_quantile () =
  let xs = [ 3.; 1.; 4.; 2. ] in
  (* type-7 estimator on the sorted samples [1;2;3;4] *)
  Alcotest.(check (float 1e-12)) "q0 = min" 1. (Stats.quantile 0. xs);
  Alcotest.(check (float 1e-12)) "q1 = max" 4. (Stats.quantile 1. xs);
  Alcotest.(check (float 1e-12)) "median" 2.5 (Stats.quantile 0.5 xs);
  Alcotest.(check (float 1e-12)) "q25 interpolates" 1.75 (Stats.quantile 0.25 xs);
  Alcotest.(check (float 1e-12)) "singleton" 7. (Stats.quantile 0.5 [ 7. ]);
  (match Stats.quantiles [ 0.; 0.5; 1. ] xs with
  | [ (0., a); (0.5, b); (1., c) ] ->
    Alcotest.(check (float 1e-12)) "qs min" 1. a;
    Alcotest.(check (float 1e-12)) "qs median" 2.5 b;
    Alcotest.(check (float 1e-12)) "qs max" 4. c
  | _ -> Alcotest.fail "quantiles shape");
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty sample list")
    (fun () -> ignore (Stats.quantile 0.5 []));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Stats.quantile: q = 1.5 outside [0, 1]")
    (fun () -> ignore (Stats.quantile 1.5 xs))

(* ---------- Func1d ---------- *)

let test_func1d_corner_search () =
  let f x = -.((x -. 2.) ** 2.) +. 5. in
  (* bitonic with peak at 2 *)
  let iv = Interval.make 0. 5. in
  let x, v = Func1d.max_over (Func1d.Bitonic 2.) f iv in
  check_float "peak x" 2. x;
  check_float "peak v" 5. v;
  (* peak outside the interval: endpoints only *)
  let iv2 = Interval.make 3. 5. in
  let x2, _ = Func1d.max_over (Func1d.Bitonic 2.) f iv2 in
  check_float "clipped peak" 3. x2;
  let x3, _ = Func1d.min_over Func1d.Monotonic (fun x -> x) iv in
  check_float "monotonic min at lo" 0. x3

let test_func1d_golden () =
  let f x = ((x -. 1.3) ** 2.) +. 0.7 in
  let x, v = Func1d.golden_min ~tol:1e-9 f (-10.) 10. in
  Alcotest.(check (float 1e-5)) "argmin" 1.3 x;
  Alcotest.(check (float 1e-5)) "min" 0.7 v;
  let xm, _ = Func1d.golden_max ~tol:1e-9 (fun x -> -.f x) (-10.) 10. in
  Alcotest.(check (float 1e-5)) "argmax" 1.3 xm

let test_func1d_bisect () =
  let root = Func1d.bisect ~tol:1e-12 (fun x -> (x *. x) -. 2.) 0. 2. in
  Alcotest.(check (float 1e-9)) "sqrt 2" (sqrt 2.) root;
  Alcotest.check_raises "no bracket"
    (Invalid_argument "Func1d.bisect: no sign change on the bracket")
    (fun () -> ignore (Func1d.bisect (fun x -> x +. 10.) 0. 1.))

let test_func1d_shape_checks () =
  Alcotest.(check bool) "monotone" true
    (Func1d.is_monotonic_nondecreasing [ (0., 1.); (1., 2.); (2., 2.); (3., 5.) ]);
  Alcotest.(check bool) "not monotone" false
    (Func1d.is_monotonic_nondecreasing [ (0., 1.); (1., 0.5) ]);
  Alcotest.(check bool) "bitonic" true
    (Func1d.is_bitonic_up_down [ (0., 1.); (1., 3.); (2., 2.); (3., 0.) ]);
  Alcotest.(check bool) "not bitonic" false
    (Func1d.is_bitonic_up_down [ (0., 1.); (1., 0.); (2., 2.) ])

let prop_golden_min_quadratics =
  QCheck.Test.make ~name:"golden section finds quadratic minima" ~count:100
    QCheck.(pair (float_range (-3.) 3.) (float_range 0.1 5.))
    (fun (c, a) ->
      let f x = (a *. (x -. c) ** 2.) +. 1. in
      let x, _ = Func1d.golden_min ~tol:1e-10 f (-5.) 5. in
      Float.abs (x -. c) < 1e-4)

(* ---------- Pwl ---------- *)

let test_pwl_interp () =
  let w = Pwl.of_points [ (0., 0.); (1., 2.); (3., 0.) ] in
  check_float "before" 0. (Pwl.value_at w (-1.));
  check_float "mid seg1" 1. (Pwl.value_at w 0.5);
  check_float "breakpoint" 2. (Pwl.value_at w 1.);
  check_float "mid seg2" 1. (Pwl.value_at w 2.);
  check_float "after" 0. (Pwl.value_at w 10.)

let test_pwl_crossings () =
  let w = Pwl.of_points [ (0., 0.); (1., 2.); (3., 0.) ] in
  (match Pwl.first_crossing w ~rising:true 1. with
  | Some t -> check_float "rising crossing" 0.5 t
  | None -> Alcotest.fail "expected rising crossing");
  (match Pwl.first_crossing w ~rising:false 1. with
  | Some t -> check_float "falling crossing" 2. t
  | None -> Alcotest.fail "expected falling crossing");
  Alcotest.(check bool) "no crossing above range" true
    (Pwl.first_crossing w ~rising:true 3. = None)

let test_pwl_ramps () =
  let w = Pwl.rising_ramp ~t0:1e-9 ~t_transition:0.8e-9 ~v_lo:0. ~v_hi:1. in
  (* full span = 0.8 / 0.8 = 1 ns *)
  check_float "start" 0. (Pwl.value_at w 1e-9);
  check_float "end" 1. (Pwl.value_at w 2e-9);
  (match
     Pwl.crossing_pair w ~rising:true ~low_frac:0.1 ~high_frac:0.9 ~v_lo:0.
       ~v_hi:1.
   with
  | Some (t10, t90) ->
    Alcotest.(check (float 1e-12)) "transition time" 0.8e-9 (t90 -. t10)
  | None -> Alcotest.fail "expected crossings");
  Alcotest.check_raises "bad transition"
    (Invalid_argument "Pwl.rising_ramp: t_transition <= 0") (fun () ->
      ignore (Pwl.rising_ramp ~t0:0. ~t_transition:0. ~v_lo:0. ~v_hi:1.))

let test_pwl_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Pwl.of_points: empty")
    (fun () -> ignore (Pwl.of_points []));
  Alcotest.check_raises "unordered"
    (Invalid_argument "Pwl.of_points: times must be strictly increasing")
    (fun () -> ignore (Pwl.of_points [ (1., 0.); (1., 1.) ]))

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_ranges () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let f = Rng.float r 10. in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 10.);
    let i = Rng.int r 17 in
    Alcotest.(check bool) "int in range" true (i >= 0 && i < 17)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 3L in
  let arr = Array.init 30 Fun.id in
  let orig = Array.copy arr in
  Rng.shuffle r arr;
  Array.sort compare arr;
  Alcotest.(check bool) "same multiset" true (arr = orig)

(* ---------- Stats ---------- *)

let test_stats () =
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "mean empty" 0. (Stats.mean []);
  check_float "rms" (sqrt 2.) (Stats.rms [ 1.; -1.; 2.; 0. ] |> fun x -> x *. x |> sqrt |> fun _ -> Stats.rms [ sqrt 2.; sqrt 2. ]);
  check_float "max_abs" 3. (Stats.max_abs [ 1.; -3.; 2. ]);
  (match Stats.min_max [ 3.; 1.; 2. ] with
  | Some (lo, hi) ->
    check_float "min" 1. lo;
    check_float "max" 3. hi
  | None -> Alcotest.fail "expected min_max");
  check_float "pct error" 10.
    (Stats.mean_abs_pct_error ~reference:[ 10.; 20. ] [ 11.; 22. ])

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.; 1.; 2.; 3. ] in
  Alcotest.(check int) "bins" 2 (List.length h);
  let total = List.fold_left (fun a (_, _, c) -> a + c) 0 h in
  Alcotest.(check int) "all counted" 4 total

let test_stats_histogram_range () =
  (* pinned edges are data-independent, so histograms built from
     different sample subsets (e.g. per-lane shards) add bin-by-bin *)
  let edges h = List.map (fun (lo, hi, _) -> (lo, hi)) h in
  let counts h = List.map (fun (_, _, c) -> c) h in
  let a = [ 0.5; 1.5 ] and b = [ 2.5; 3.5; 0.6 ] in
  let bins = 4 and lo = 0. and hi = 4. in
  let ha = Stats.histogram ~bins ~lo ~hi a in
  let hb = Stats.histogram ~bins ~lo ~hi b in
  let hall = Stats.histogram ~bins ~lo ~hi (a @ b) in
  Alcotest.(check bool) "same edges" true
    (edges ha = edges hb && edges ha = edges hall);
  Alcotest.(check (list int)) "shards merge"
    (counts hall)
    (List.map2 ( + ) (counts ha) (counts hb));
  (* out-of-range samples clamp into the edge bins *)
  let hc = Stats.histogram ~bins:2 ~lo:0. ~hi:2. [ -5.; 0.5; 99. ] in
  Alcotest.(check (list int)) "clamped" [ 2; 1 ] (counts hc);
  (* both ends pinned: even an empty input renders the fixed bins *)
  let he = Stats.histogram ~bins:3 ~lo:0. ~hi:3. [] in
  Alcotest.(check (list int)) "empty fixed range" [ 0; 0; 0 ] (counts he);
  Alcotest.check_raises "bad range"
    (Invalid_argument "Stats.histogram: hi <= lo") (fun () ->
      ignore (Stats.histogram ~bins:2 ~lo:1. ~hi:1. [ 0. ]))

(* ---------- Json ---------- *)

let test_json_print () =
  let j =
    Json.Obj
      [
        ("a", Json.Num 1.);
        ("b", Json.Str "x\"y\n");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Num 2.5 ]);
      ]
  in
  Alcotest.(check string) "render"
    {|{"a":1,"b":"x\"y\n","c":[true,null,2.5]}|}
    (Json.to_string j);
  Alcotest.(check string) "integral floats stay integral" {|[42,-3]|}
    (Json.to_string (Json.List [ Json.Num 42.; Json.Num (-3.) ]));
  Alcotest.(check string) "non-finite becomes null" "null"
    (Json.to_string (Json.Num nan))

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("name", Json.Str "trace");
        ("xs", Json.List [ Json.Num 0.; Json.Num 1.5; Json.Num (-2e-3) ]);
        ("ok", Json.Bool false);
        ("nested", Json.Obj [ ("u", Json.Str "caf\xc3\xa9") ]);
      ]
  in
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "truncated" true (bad "{\"a\": [1, 2");
  Alcotest.(check bool) "trailing" true (bad "{} x");
  Alcotest.(check bool) "bare word" true (bad "nope");
  (match Json.parse {|{"t": "a\u00e9\ud83d\ude00"}|} with
  | Ok (Json.Obj [ ("t", Json.Str s) ]) ->
    Alcotest.(check string) "unicode escapes decode to UTF-8"
      "a\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected unicode string");
  match Json.parse "[1, 2.5e2, -0.25]" with
  | Ok (Json.List [ Json.Num a; Json.Num b; Json.Num c ]) ->
    check_float "int" 1. a;
    check_float "exp" 250. b;
    check_float "neg frac" (-0.25) c
  | _ -> Alcotest.fail "expected number list"

(* The number rule as it read through [Printf]: the printer must give
   the same bytes by its own route. *)
let printf_number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let prop_json_number_codec =
  QCheck.Test.make ~name:"numbers print as Printf %.17g / %.0f" ~count:2000
    QCheck.(oneof [ map Int64.float_of_bits int64; float ])
    (fun x -> String.equal (Json.to_string (Json.Num x)) (printf_number x))

let test_json_number_edges () =
  List.iter
    (fun x ->
      Alcotest.(check string)
        (Printf.sprintf "%h" x) (printf_number x)
        (Json.to_string (Json.Num x)))
    [
      0.; -0.; 4.9e-324; -4.9e-324; 2.2250738585072009e-308; Float.min_float;
      1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 1e15 +. 1.; max_float;
      -.max_float; 0.1; 1e-10; 2.6139334358223329e-10; nan; infinity;
      neg_infinity;
    ];
  Alcotest.(check (list string))
    "pinned" [ "-0"; "999999999999999"; "1000000000000000"; "null" ]
    (List.map
       (fun x -> Json.to_string (Json.Num x))
       [ -0.; 1e15 -. 1.; 1e15; nan ])

let rec show_json = function
  | Json.Str s -> Printf.sprintf "Str %S" s
  | Json.Obj fs ->
    "Obj ["
    ^ String.concat "; "
        (List.map (fun (k, v) -> Printf.sprintf "(%S, %s)" k (show_json v)) fs)
    ^ "]"
  | Json.List xs -> "List [" ^ String.concat "; " (List.map show_json xs) ^ "]"
  | j -> Json.to_string j

let test_json_string_parse () =
  (* values and error offsets as the Buffer-per-string parser gave them *)
  List.iter
    (fun (text, want) ->
      let got =
        match Json.parse text with
        | Ok v -> "Ok " ^ show_json v
        | Error m -> "Error " ^ m
      in
      Alcotest.(check string) text want got)
    [
      ({|"plain ascii, no escapes"|}, {|Ok Str "plain ascii, no escapes"|});
      ( "\"caf\xc3\xa9 \xf0\x9f\x98\x80\"",
        {|Ok Str "caf\195\169 \240\159\152\128"|} );
      ({|"a\"b\\c\/d\b\f\n\r\t"|}, {|Ok Str "a\"b\\c/d\b\012\n\r\t"|});
      ({|"lone \ud800 surrogate"|}, {|Ok Str "lone \237\160\128 surrogate"|});
      ({|"\ud800A"|}, {|Ok Str "\237\160\128A"|});
      ( "\"raw \001 control\tand\nnewline\"",
        {|Ok Str "raw \001 control\tand\nnewline"|} );
      ( {|{"kAy":"v\\w","x":["\"",""]}|},
        {|Ok Obj [("kAy", Str "v\\w"); ("x", List [Str "\""; Str ""])]|} );
      ({|"unterminated|}, "Error unterminated string at offset 13");
      ({|"bad \x escape"|}, "Error unknown escape at offset 6");
      ({|"\u12"|}, {|Error bad \u escape at offset 3|});
      ({|"\u00zz"|}, {|Error bad \u escape at offset 3|});
      ({|"abc\|}, "Error unterminated escape at offset 5");
      ({|"\ud800\u12"|}, {|Error bad \u escape at offset 9|});
    ]

let prop_json_string_round_trip =
  QCheck.Test.make ~name:"any string round-trips through print and parse"
    ~count:500 QCheck.string (fun s ->
      Json.parse (Json.to_string (Json.Str s)) = Ok (Json.Str s)
      && Json.parse (Json.to_string (Json.Obj [ (s, Json.List [ Json.Str s ]) ]))
         = Ok (Json.Obj [ (s, Json.List [ Json.Str s ]) ]))

(* ---------- Texttab ---------- *)

let test_texttab () =
  let t = Texttab.create ~header:[ "name"; "v" ] in
  Texttab.add_row t [ "a"; "1" ];
  Texttab.add_row_f ~prec:2 t "b" [ 3.14159 ];
  let s = Texttab.render t in
  Alcotest.(check bool) "mentions rows" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.length = 4);
  Alcotest.check_raises "arity" (Invalid_argument "Texttab.add_row: arity mismatch with header")
    (fun () -> Texttab.add_row t [ "only-one" ])

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "util.interval",
      [
        Alcotest.test_case "basics" `Quick test_interval_basics;
        Alcotest.test_case "ops" `Quick test_interval_ops;
        Alcotest.test_case "clamp/subset" `Quick test_interval_clamp_subset;
      ] );
    qsuite "util.interval.props"
      [ prop_interval_hull_contains; prop_interval_add_sound ];
    ( "util.linalg",
      [
        Alcotest.test_case "solve" `Quick test_linalg_solve;
        Alcotest.test_case "singular" `Quick test_linalg_singular;
        Alcotest.test_case "matvec" `Quick test_linalg_matvec;
      ] );
    qsuite "util.linalg.props" [ prop_linalg_solve_random ];
    ( "util.lsq",
      [
        Alcotest.test_case "exact quadratic" `Quick test_lsq_exact_quadratic;
        Alcotest.test_case "nano scale" `Quick test_lsq_nano_scale;
        Alcotest.test_case "2d bases" `Quick test_lsq_2d_bases;
        Alcotest.test_case "cuberoot basis" `Quick test_lsq_cuberoot_basis;
        Alcotest.test_case "singular raises" `Quick test_lsq_singular_raises;
      ] );
    ( "util.func1d",
      [
        Alcotest.test_case "corner search" `Quick test_func1d_corner_search;
        Alcotest.test_case "golden" `Quick test_func1d_golden;
        Alcotest.test_case "bisect" `Quick test_func1d_bisect;
        Alcotest.test_case "shape checks" `Quick test_func1d_shape_checks;
      ] );
    qsuite "util.func1d.props" [ prop_golden_min_quadratics ];
    ( "util.pwl",
      [
        Alcotest.test_case "interp" `Quick test_pwl_interp;
        Alcotest.test_case "crossings" `Quick test_pwl_crossings;
        Alcotest.test_case "ramps" `Quick test_pwl_ramps;
        Alcotest.test_case "validation" `Quick test_pwl_validation;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "ranges" `Quick test_rng_ranges;
        Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "descriptive" `Quick test_stats;
        Alcotest.test_case "histogram" `Quick test_stats_histogram;
        Alcotest.test_case "histogram fixed range" `Quick
          test_stats_histogram_range;
        Alcotest.test_case "quantile" `Quick test_stats_quantile;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "print" `Quick test_json_print;
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "number edges" `Quick test_json_number_edges;
        Alcotest.test_case "string parse pins" `Quick test_json_string_parse;
        QCheck_alcotest.to_alcotest prop_json_number_codec;
        QCheck_alcotest.to_alcotest prop_json_string_round_trip;
      ] );
    ("util.texttab", [ Alcotest.test_case "render" `Quick test_texttab ]);
  ]
