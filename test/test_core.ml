module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Fit = Ssd_cell.Fit
module Types = Ssd_core.Types
module Vshape = Ssd_core.Vshape
module Cellfn = Ssd_core.Cellfn
module DM = Ssd_core.Delay_model
module Interval = Ssd_util.Interval

let tech = Ssd_spice.Tech.default
let lib = lazy (Charlib.default ~profile:Charlib.coarse ())
let nand2 () = Charlib.find (Lazy.force lib) Sweep.Nand 2
let nand3 () = Charlib.find (Lazy.force lib) Sweep.Nand 3

let tr pos arrival t_tr = { Types.pos; arrival; t_tr }

(* ---------- Cellfn ---------- *)

let test_cellfn_load_adjustment () =
  let cell = nand2 () in
  let d1 = Cellfn.pin_delay cell ~fanout:1 Cellfn.Ctl ~pos:0 ~t_in:0.5e-9 in
  let d4 = Cellfn.pin_delay cell ~fanout:4 Cellfn.Ctl ~pos:0 ~t_in:0.5e-9 in
  Alcotest.(check (float 1e-15)) "linear load model"
    (d1 +. (3. *. cell.Charlib.load_d_ctl)) d4;
  Alcotest.(check bool) "load slows" true (d4 >= d1)

let test_cellfn_extremes_vs_sampling () =
  (* the corner search (endpoints + fitted peak) matches dense sampling *)
  let cell = nand2 () in
  let iv = Interval.make 0.2e-9 2.8e-9 in
  let _, d_max = Cellfn.max_delay_over cell ~fanout:1 Cellfn.Ctl ~pos:0 iv in
  let _, d_min = Cellfn.min_delay_over cell ~fanout:1 Cellfn.Ctl ~pos:0 iv in
  let sampled =
    List.map
      (fun k ->
        let t = 0.2e-9 +. (2.6e-9 *. float_of_int k /. 100.) in
        Cellfn.pin_delay cell ~fanout:1 Cellfn.Ctl ~pos:0 ~t_in:t)
      (List.init 101 Fun.id)
  in
  let smax = List.fold_left Float.max neg_infinity sampled in
  let smin = List.fold_left Float.min infinity sampled in
  Alcotest.(check bool) "max >= sampled max" true (d_max >= smax -. 1e-13);
  Alcotest.(check bool) "min <= sampled min" true (d_min <= smin +. 1e-13)

let test_cellfn_bad_position () =
  let cell = nand2 () in
  Alcotest.(check bool) "raises" true
    (match Cellfn.pin_delay cell ~fanout:1 Cellfn.Ctl ~pos:5 ~t_in:1e-9 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Vshape point model ---------- *)

let test_vshape_saturation_arms () =
  let cell = nand2 () in
  let a = tr 0 0. 0.5e-9 and t = 0.5e-9 in
  let pin0 = Cellfn.pin_delay cell ~fanout:1 Cellfn.Ctl ~pos:0 ~t_in:t in
  let pin1 = Cellfn.pin_delay cell ~fanout:1 Cellfn.Ctl ~pos:1 ~t_in:t in
  (* far beyond saturation on both sides *)
  let right = Vshape.pair_delay cell ~fanout:1 ~a ~b:(tr 1 5e-9 t) in
  let left = Vshape.pair_delay cell ~fanout:1 ~a ~b:(tr 1 (-5e-9) t) in
  Alcotest.(check (float 1e-15)) "right arm = pin 0" pin0 right;
  Alcotest.(check (float 1e-15)) "left arm = pin 1" pin1 left

let test_vshape_minimum_at_zero () =
  let cell = nand2 () in
  let t = 0.5e-9 in
  let d skew = Vshape.pair_delay cell ~fanout:1 ~a:(tr 0 0. t) ~b:(tr 1 skew t) in
  let d0 = d 0. in
  List.iter
    (fun sk ->
      Alcotest.(check bool)
        (Printf.sprintf "d(%.0fps) >= d(0)" (sk *. 1e12))
        true
        (d sk >= d0 -. 1e-15))
    [ -0.8e-9; -0.3e-9; -0.1e-9; 0.1e-9; 0.3e-9; 0.8e-9 ]

let test_vshape_orientation_symmetry () =
  (* evaluating with swapped roles and mirrored skew gives the same delay *)
  let cell = nand2 () in
  let ta = 0.4e-9 and tb = 0.9e-9 in
  List.iter
    (fun sk ->
      let d1 = Vshape.pair_delay cell ~fanout:1 ~a:(tr 0 0. ta) ~b:(tr 1 sk tb) in
      let d2 = Vshape.pair_delay cell ~fanout:1 ~a:(tr 1 sk tb) ~b:(tr 0 0. ta) in
      Alcotest.(check (float 1e-15)) "swap symmetric" d1 d2)
    [ -0.5e-9; 0.; 0.2e-9 ]

let test_vshape_v_points () =
  let cell = nand2 () in
  let (sl, dl), (s0, d0), (sr, dr) =
    Vshape.v_points cell ~fanout:1 ~pos_a:0 ~pos_b:1 ~t_a:0.5e-9 ~t_b:0.5e-9
  in
  Alcotest.(check (float 0.)) "center at zero skew" 0. s0;
  Alcotest.(check bool) "left saturation negative" true (sl < 0.);
  Alcotest.(check bool) "right saturation positive" true (sr > 0.);
  Alcotest.(check bool) "valley below arms" true (d0 < dr && d0 < dl)

let test_vshape_against_simulator () =
  (* headline accuracy: the model tracks the analog oracle within the
     coarse-profile error budget across the V *)
  let cell = nand2 () in
  let t = 0.5e-9 in
  List.iter
    (fun sk ->
      let sim =
        (Sweep.pair ~sim_h:4e-12 tech Sweep.Nand ~n:2 ~fanout:1 ~pos_a:0
           ~pos_b:1 ~t_a:t ~t_b:t ~skew:sk)
          .Sweep.m_delay
      in
      let m = Vshape.pair_delay cell ~fanout:1 ~a:(tr 0 0. t) ~b:(tr 1 sk t) in
      let err = Float.abs (m -. sim) in
      Alcotest.(check bool)
        (Printf.sprintf "within 40ps at skew %.0fps (err %.0fps)" (sk *. 1e12)
           (err *. 1e12))
        true (err < 40e-12))
    [ -1e-9; 0.; 1e-9 ]

let test_vshape_events () =
  let cell = nand2 () in
  let t = 0.5e-9 in
  (* single transition event = pin-to-pin composition *)
  let e1 = Vshape.ctl_event cell ~fanout:1 [ tr 0 1e-9 t ] in
  Alcotest.(check (float 1e-15)) "single event arrival"
    (1e-9 +. Cellfn.pin_delay cell ~fanout:1 Cellfn.Ctl ~pos:0 ~t_in:t)
    e1.Types.e_arr;
  (* simultaneous pair beats both singles *)
  let e2 = Vshape.ctl_event cell ~fanout:1 [ tr 0 1e-9 t; tr 1 1e-9 t ] in
  Alcotest.(check bool) "pair speeds up" true (e2.Types.e_arr < e1.Types.e_arr);
  (* non-controlling response: latest input *)
  let en = Vshape.non_event cell ~fanout:1 [ tr 0 1e-9 t; tr 1 2e-9 t ] in
  Alcotest.(check bool) "non responds to latest" true (en.Types.e_arr > 2e-9)

let test_vshape_multi_input () =
  (* three simultaneous transitions are at least as fast as any pair *)
  let cell = nand3 () in
  let t = 0.5e-9 in
  let trs = [ tr 0 1e-9 t; tr 1 1e-9 t; tr 2 1e-9 t ] in
  let e3 = Vshape.ctl_event cell ~fanout:1 trs in
  let e2 = Vshape.ctl_event cell ~fanout:1 [ tr 0 1e-9 t; tr 1 1e-9 t ] in
  Alcotest.(check bool) "k=3 at least as fast as k=2" true
    (e3.Types.e_arr <= e2.Types.e_arr +. 1e-15);
  (* and against the simulator *)
  let sim =
    (Sweep.tied ~sim_h:4e-12 tech Sweep.Nand ~n:3 ~fanout:1 ~k:3 ~t_in:t)
      .Sweep.m_delay
  in
  let err = Float.abs (e3.Types.e_arr -. 1e-9 -. sim) in
  Alcotest.(check bool)
    (Printf.sprintf "3-simultaneous within 40ps (err %.0fps)" (err *. 1e12))
    true (err < 40e-12)

let prop_pair_swap_symmetric =
  (* pair_delay and pair_out_tt describe one joint event of two inputs:
     listing the transitions as (a, b) or (b, a) must not matter.  The
     implementation re-orients by position internally; a tiny absolute
     tolerance (1e-16 s on ~1e-10 s delays) absorbs the measure-zero
     corner where the V vertex coincides exactly with saturation. *)
  QCheck.Test.make ~name:"pair_delay/pair_out_tt symmetric in (a, b)"
    ~count:120
    QCheck.(triple (float_range (-1.5e-9) 1.5e-9)
              (pair (float_range 0.15e-9 2.5e-9) (float_range 0.15e-9 2.5e-9))
              (int_range 1 4))
    (fun (skew, (ta, tb), fanout) ->
      let cell = nand2 () in
      let a = tr 0 0. ta and b = tr 1 skew tb in
      let close x y = Float.abs (x -. y) <= 1e-16 in
      close
        (Vshape.pair_delay cell ~fanout ~a ~b)
        (Vshape.pair_delay cell ~fanout ~a:b ~b:a)
      && close
           (Vshape.pair_out_tt cell ~fanout ~a ~b)
           (Vshape.pair_out_tt cell ~fanout ~a:b ~b:a))

(* ---------- window transfer functions ---------- *)

let win a1 a2 t1 t2 =
  { Types.w_arr = Interval.make a1 a2; w_tt = Interval.make t1 t2 }

let win_in pos w = { Types.wpos = pos; window = w }

let test_window_contains_point_events =
  (* soundness: for degenerate input windows the output window contains the
     model's point event *)
  QCheck.Test.make ~name:"ctl window contains point event" ~count:60
    QCheck.(triple (float_range 0. 2e-9) (float_range 0. 2e-9)
              (pair (float_range 0.15e-9 2.5e-9) (float_range 0.15e-9 2.5e-9)))
    (fun (a0, a1, (t0, t1)) ->
      let cell = nand2 () in
      let transitions = [ tr 0 a0 t0; tr 1 a1 t1 ] in
      let e = Vshape.ctl_event cell ~fanout:1 transitions in
      let w =
        Vshape.ctl_window cell ~fanout:1
          [
            win_in 0 (win a0 a0 t0 t0);
            win_in 1 (win a1 a1 t1 t1);
          ]
      in
      Interval.contains w.Types.w_arr e.Types.e_arr
      && Interval.contains w.Types.w_tt e.Types.e_tt)

let test_window_non_contains_point_events =
  QCheck.Test.make ~name:"non window contains point event" ~count:60
    QCheck.(triple (float_range 0. 2e-9) (float_range 0. 2e-9)
              (pair (float_range 0.15e-9 2.5e-9) (float_range 0.15e-9 2.5e-9)))
    (fun (a0, a1, (t0, t1)) ->
      let cell = nand2 () in
      let transitions = [ tr 0 a0 t0; tr 1 a1 t1 ] in
      let e = Vshape.non_event cell ~fanout:1 transitions in
      let w =
        Ssd_core.Pin_to_pin.non_window cell ~fanout:1
          [ win_in 0 (win a0 a0 t0 t0); win_in 1 (win a1 a1 t1 t1) ]
      in
      Interval.contains w.Types.w_arr e.Types.e_arr
      && Interval.contains w.Types.w_tt e.Types.e_tt)

let test_window_monotone_in_inputs () =
  (* widening an input window can only widen (or keep) the output window *)
  let cell = nand2 () in
  let narrow =
    Vshape.ctl_window cell ~fanout:1
      [ win_in 0 (win 1e-9 1.2e-9 0.3e-9 0.4e-9);
        win_in 1 (win 1e-9 1.2e-9 0.3e-9 0.4e-9) ]
  in
  let wide =
    Vshape.ctl_window cell ~fanout:1
      [ win_in 0 (win 0.8e-9 1.5e-9 0.2e-9 0.6e-9);
        win_in 1 (win 0.8e-9 1.5e-9 0.2e-9 0.6e-9) ]
  in
  Alcotest.(check bool) "arrival window nested" true
    (Interval.subset narrow.Types.w_arr wide.Types.w_arr)

(* ---------- the masked kernel against the scalar windows ---------- *)

let prop_kernel_masks_match_scalar =
  (* random cells, fan-outs, point and interval windows, and non-empty
     masks: each side of a masked [Corner_batch.eval_node] call equals the
     scalar window function over the list of kept inputs (positions
     kept), bit for bit, under both to-controlling rules; both models'
     to-non-controlling window is [Pin_to_pin.non_window] *)
  let module CB = Ssd_core.Corner_batch in
  let module Corners = Ssd_cell.Corners in
  let module Rng = Ssd_util.Rng in
  let module P2p = Ssd_core.Pin_to_pin in
  let kernel =
    lazy
      (CB.create
         (Corners.build ~specs:(Corners.default_specs 1) (Lazy.force lib)))
  in
  QCheck.Test.make ~name:"masked eval_node == scalar windows of kept inputs"
    ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let cb = Lazy.force kernel in
      let cells = Array.of_list (Lazy.force lib).Charlib.cells in
      let cell = cells.(Rng.int rng (Array.length cells)) in
      let m = cell.Charlib.n in
      let slot =
        Option.get (Corners.cell_slot (CB.table cb) cell.Charlib.kind m)
      in
      let fanout = 1 + Rng.int rng 6 in
      let bound lo span =
        let a = Rng.float_range rng lo (lo +. span) in
        if Rng.int rng 3 = 0 then (a, a)
        else (a, a +. Rng.float_range rng 0. 0.8e-9)
      in
      let inputs = Array.make (m * 8) 0. in
      for k = 0 to (2 * m) - 1 do
        let a_lo, a_hi = bound 0. 2e-9 and t_lo, t_hi = bound 0.05e-9 2.8e-9 in
        Array.blit [| a_lo; a_hi; t_lo; t_hi |] 0 inputs (4 * k) 4
      done;
      let mask () =
        let x = ref 0 in
        while !x = 0 do
          x := Rng.int rng (1 lsl m)
        done;
        !x
      in
      let ctl_mask = mask () and non_mask = mask () in
      let ctl_is_fall = cell.Charlib.kind = Sweep.Nand in
      (* input pin windows of one transition, as the scalar path takes them *)
      let kept mask ~fall =
        List.filter_map
          (fun i ->
            if mask land (1 lsl i) = 0 then None
            else
              let o = (i * 8) + if fall then 4 else 0 in
              Some
                (win_in i
                   (win inputs.(o) inputs.(o + 1) inputs.(o + 2) inputs.(o + 3))))
          (List.init m Fun.id)
      in
      let ctl_ins = kept ctl_mask ~fall:ctl_is_fall in
      let non_ins = kept non_mask ~fall:(not ctl_is_fall) in
      let outputs = Array.make 8 0. and acc = Array.make 8 0. in
      let same off (w : Types.win) =
        let b = Int64.bits_of_float in
        b outputs.(off) = b (Interval.lo w.Types.w_arr)
        && b outputs.(off + 1) = b (Interval.hi w.Types.w_arr)
        && b outputs.(off + 2) = b (Interval.lo w.Types.w_tt)
        && b outputs.(off + 3) = b (Interval.hi w.Types.w_tt)
      in
      let ob_ctl = if ctl_is_fall then 0 else 4 in
      List.for_all
        (fun (rule, ctl_window) ->
          CB.eval_node cb ~rule ~slot ~fanout ~m ~ctl_mask ~non_mask ~c0:0 ~c1:1
            ~inputs ~outputs ~acc;
          same ob_ctl (ctl_window cell ~fanout ctl_ins)
          && same (4 - ob_ctl) (P2p.non_window cell ~fanout non_ins))
        [ (CB.V_shape, Vshape.ctl_window); (CB.Per_pin, P2p.ctl_window) ])

(* ---------- model relationships ---------- *)

let test_proposed_vs_pin_to_pin_windows () =
  (* same latest arrival, earlier or equal earliest arrival (Table 2) *)
  let cell = nand2 () in
  let ins =
    [ win_in 0 (win 1e-9 1.4e-9 0.2e-9 0.5e-9);
      win_in 1 (win 1.1e-9 1.5e-9 0.2e-9 0.5e-9) ]
  in
  let wp = Vshape.ctl_window cell ~fanout:1 ins in
  let w2 = Ssd_core.Pin_to_pin.ctl_window cell ~fanout:1 ins in
  Alcotest.(check (float 1e-15)) "same max"
    (Interval.hi w2.Types.w_arr) (Interval.hi wp.Types.w_arr);
  Alcotest.(check bool) "proposed min <= pin-to-pin min" true
    (Interval.lo wp.Types.w_arr <= Interval.lo w2.Types.w_arr +. 1e-15)

let test_baseline_position_blindness () =
  (* Jun and Nabavi ignore the input position; the proposed model does not *)
  let cell = nand3 () in
  let t = 0.5e-9 in
  let prop p = DM.proposed.DM.single_delay cell ~fanout:1 ~pos:p ~t_in:t in
  let jun p = DM.jun.DM.single_delay cell ~fanout:1 ~pos:p ~t_in:t in
  let nab p = DM.nabavi.DM.single_delay cell ~fanout:1 ~pos:p ~t_in:t in
  Alcotest.(check bool) "proposed sees positions" true (prop 2 > prop 0);
  Alcotest.(check (float 1e-18)) "jun blind" (jun 0) (jun 2);
  Alcotest.(check (float 1e-18)) "nabavi blind" (nab 0) (nab 2)

let test_nabavi_skew_insensitive () =
  let cell = nand2 () in
  let t = 0.5e-9 in
  let d sk =
    DM.nabavi.DM.pair_delay cell ~fanout:1 ~a:(tr 0 0. t) ~b:(tr 1 sk t)
  in
  Alcotest.(check (float 1e-15)) "flat vs skew" (d 0.) (d 0.6e-9)

let test_jun_no_saturation () =
  (* Jun's delay keeps growing past the true saturation skew *)
  let cell = nand2 () in
  let t = 0.5e-9 in
  let d sk = DM.jun.DM.pair_delay cell ~fanout:1 ~a:(tr 0 0. t) ~b:(tr 1 sk t) in
  Alcotest.(check bool) "keeps growing" true (d 3e-9 > d 1.5e-9 +. 1e-12)

let test_model_registry () =
  Alcotest.(check int) "four models" 4 (List.length DM.all);
  Alcotest.(check bool) "find proposed" true (DM.find "proposed" <> None);
  Alcotest.(check bool) "find unknown" true (DM.find "magic" = None);
  Alcotest.(check bool) "baselines lack windows" true
    (DM.jun.DM.windowing = None && DM.nabavi.DM.windowing = None);
  Alcotest.(check bool) "window-capable models" true
    (DM.proposed.DM.windowing <> None && DM.pin_to_pin.DM.windowing <> None)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "core.cellfn",
      [
        Alcotest.test_case "load adjustment" `Slow test_cellfn_load_adjustment;
        Alcotest.test_case "corner search vs sampling" `Slow
          test_cellfn_extremes_vs_sampling;
        Alcotest.test_case "bad position" `Slow test_cellfn_bad_position;
      ] );
    ( "core.vshape",
      [
        Alcotest.test_case "saturation arms" `Slow test_vshape_saturation_arms;
        Alcotest.test_case "minimum at zero skew" `Slow
          test_vshape_minimum_at_zero;
        Alcotest.test_case "orientation symmetry" `Slow
          test_vshape_orientation_symmetry;
        Alcotest.test_case "v points" `Slow test_vshape_v_points;
        Alcotest.test_case "tracks simulator" `Slow
          test_vshape_against_simulator;
        Alcotest.test_case "events" `Slow test_vshape_events;
        Alcotest.test_case "multi-input extension" `Slow
          test_vshape_multi_input;
      ] );
    qsuite "core.vshape.props" [ prop_pair_swap_symmetric ];
    qsuite "core.windows.props"
      [ test_window_contains_point_events; test_window_non_contains_point_events ];
    qsuite "core.kernel.props" [ prop_kernel_masks_match_scalar ];
    ( "core.windows",
      [
        Alcotest.test_case "monotone in inputs" `Slow
          test_window_monotone_in_inputs;
        Alcotest.test_case "proposed vs pin-to-pin" `Slow
          test_proposed_vs_pin_to_pin_windows;
      ] );
    ( "core.baselines",
      [
        Alcotest.test_case "position blindness" `Slow
          test_baseline_position_blindness;
        Alcotest.test_case "nabavi skew-insensitive" `Slow
          test_nabavi_skew_insensitive;
        Alcotest.test_case "jun no saturation" `Slow test_jun_no_saturation;
        Alcotest.test_case "registry" `Slow test_model_registry;
      ] );
  ]
