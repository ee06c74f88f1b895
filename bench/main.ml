(* Experiment harness: regenerates every figure and table of the paper's
   evaluation section (see DESIGN.md for the experiment index), then runs a
   Bechamel performance suite.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig2 table2
     SSD_FAST=1 dune exec bench/main.exe # coarse characterization

   Absolute numbers differ from the paper (our oracle is a level-1
   transistor simulator, not the authors' HSPICE setup); the comparisons
   the paper draws are what must — and do — hold.  EXPERIMENTS.md records
   paper-vs-measured per experiment. *)

module S = Ssd_spice
module C = Ssd_cell
module Charlib = C.Charlib
module Sweep = C.Sweep
module Fit = C.Fit
module Core = Ssd_core
module DM = Core.Delay_model
module Types = Core.Types
module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module RO = Ssd_sta.Run_opts
module TS = Ssd_sta.Timing_sim
module A = Ssd_atpg
module Rng = Ssd_util.Rng
module Texttab = Ssd_util.Texttab
module Stats = Ssd_util.Stats
module Json = Ssd_util.Json
module Obs = Ssd_obs.Obs

open Test_support

(* one shared sink for the whole harness: the identity-check passes of
   [parsta] / [faultsim] run instrumented against it (they are not the
   timed runs, so the <=2%% bench-overhead budget is untouched) and its
   snapshot is embedded in the --json output next to the wall times *)
let bench_obs = Obs.create ()

let tech = S.Tech.default
let ps v = v *. 1e12
let ns v = v *. 1e9

let library = lazy (Charlib.default ())

let nand2 () = Charlib.find (Lazy.force library) Sweep.Nand 2

let header title =
  Printf.printf "\n==== %s ====\n%!" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

let tr pos arrival t_tr = { Types.pos; arrival; t_tr }

(* shared simulator probes *)
let sim_pair ?(n = 2) ?(pos_a = 0) ?(pos_b = 1) ~t_a ~t_b ~skew () =
  Sweep.pair tech Sweep.Nand ~n ~fanout:1 ~pos_a ~pos_b ~t_a ~t_b ~skew

let sim_single ?(n = 2) ~pos ~t_in () =
  Sweep.single tech Sweep.Nand ~n ~fanout:1 ~pos ~to_controlling:true ~t_in

(* ------------------------------------------------------------------ *)
(* Figure 1: single vs. two simultaneous to-controlling transitions    *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header "Figure 1 — single vs. simultaneous to-controlling transitions (NAND2)";
  let t_in = 0.5e-9 in
  let single = (sim_single ~pos:0 ~t_in ()).Sweep.m_delay in
  let both = (sim_pair ~t_a:t_in ~t_b:t_in ~skew:0. ()).Sweep.m_delay in
  let t = Texttab.create ~header:[ "stimulus"; "delay (ps)" ] in
  Texttab.add_row_f ~prec:1 t "single falling input" [ ps single ];
  Texttab.add_row_f ~prec:1 t "both inputs fall together" [ ps both ];
  Texttab.print t;
  note "ratio simultaneous/single = %.2f (paper: 0.17ns/0.31ns = 0.55)"
    (both /. single)

(* ------------------------------------------------------------------ *)
(* Figure 2: delay vs. skew with the V-shape approximation             *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header "Figure 2 — rising delay of NAND2 vs. skew and its V approximation";
  let cell = nand2 () in
  let t_in = 0.5e-9 in
  let (syr, dyr), (s0, d0), (sr, dr) =
    Core.Vshape.v_points cell ~fanout:1 ~pos_a:0 ~pos_b:1 ~t_a:t_in ~t_b:t_in
  in
  note "V anchors: (SYR=%.0fps, DYR=%.1fps) (S0R=%.0fps, D0R=%.1fps) (SR=%.0fps, DR=%.1fps)"
    (ps syr) (ps dyr) (ps s0) (ps d0) (ps sr) (ps dr);
  let t = Texttab.create ~header:[ "skew (ps)"; "simulator (ps)"; "model V (ps)" ] in
  List.iter
    (fun skew ->
      let sim = (sim_pair ~t_a:t_in ~t_b:t_in ~skew ()).Sweep.m_delay in
      let m =
        Core.Vshape.pair_delay cell ~fanout:1 ~a:(tr 0 0. t_in)
          ~b:(tr 1 skew t_in)
      in
      Texttab.add_row_f ~prec:1 t (Printf.sprintf "%+.0f" (ps skew))
        [ ps sim; ps m ])
    [ -0.9e-9; -0.6e-9; -0.4e-9; -0.25e-9; -0.15e-9; -0.08e-9; 0.; 0.08e-9;
      0.15e-9; 0.25e-9; 0.4e-9; 0.6e-9; 0.9e-9 ];
  Texttab.print t;
  note "shape check: minimum at zero skew, saturation to the pin-to-pin arms"

(* ------------------------------------------------------------------ *)
(* Figure 5: trends of the timing functions vs. single variables       *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  header "Figure 5 — timing-function trends (NAND2)";
  let ts = [ 0.15e-9; 0.4e-9; 0.8e-9; 1.4e-9; 2.2e-9; 3.2e-9; 4.5e-9 ] in
  let d_rows = List.map (fun t -> (t, (sim_single ~pos:0 ~t_in:t ()).Sweep.m_delay)) ts in
  let tt_rows = List.map (fun t -> (t, (sim_single ~pos:0 ~t_in:t ()).Sweep.m_out_tt)) ts in
  let t = Texttab.create ~header:[ "T_X (ns)"; "d (ps)"; "t_out (ps)" ] in
  List.iter2
    (fun (tx, d) (_, tt) ->
      Texttab.add_row_f ~prec:1 t (Printf.sprintf "%.2f" (ns tx)) [ ps d; ps tt ])
    d_rows tt_rows;
  Texttab.print t;
  let bitonic = Ssd_util.Func1d.is_bitonic_up_down ~eps:1e-12 d_rows in
  let tt_monotone = Ssd_util.Func1d.is_monotonic_nondecreasing ~eps:1e-12 tt_rows in
  note "d(T) monotone-then-falling (case 2 of Fig. 5a/b): %b" bitonic;
  note "t_out(T) monotonically increasing (Fig. 5d/e): %b" tt_monotone;
  (* skew dependence of the output transition time: V with possibly
     non-zero vertex (Fig. 5f) *)
  let skews = [ -0.5e-9; -0.25e-9; -0.1e-9; 0.; 0.1e-9; 0.25e-9; 0.5e-9 ] in
  let tt_sk =
    List.map
      (fun sk -> (sk, (sim_pair ~t_a:0.5e-9 ~t_b:0.5e-9 ~skew:sk ()).Sweep.m_out_tt))
      skews
  in
  let best = List.fold_left (fun (bs, bv) (s, v) -> if v < bv then (s, v) else (bs, bv))
      (List.hd tt_sk) (List.tl tt_sk) in
  note "t_out(skew) minimum at %.0fps (need not be zero — Fig. 5f): %.1fps"
    (ps (fst best)) (ps (snd best))

(* ------------------------------------------------------------------ *)
(* Figure 10: input position — single transition at position 4, NAND5  *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header "Figure 10 — single transition at position 4 of NAND5";
  (* pin-only characterization of the 5-input NAND (not in the default
     library; pairs are unnecessary for single-input delays) *)
  let profile =
    if Sys.getenv_opt "SSD_FAST" <> None then Charlib.coarse else Charlib.fine
  in
  let cell5 = Charlib.characterize_cell ~with_pairs:false profile tech Sweep.Nand ~n:5 in
  let t = Texttab.create
      ~header:[ "T (ns)"; "SPICE (ps)"; "proposed (ps)"; "jun (ps)"; "nabavi (ps)" ]
  in
  List.iter
    (fun t_in ->
      let sim = (sim_single ~n:5 ~pos:4 ~t_in ()).Sweep.m_delay in
      let f m = m.DM.single_delay cell5 ~fanout:1 ~pos:4 ~t_in in
      Texttab.add_row_f ~prec:1 t (Printf.sprintf "%.2f" (ns t_in))
        [ ps sim; ps (f DM.proposed); ps (f DM.jun); ps (f DM.nabavi) ])
    [ 0.15e-9; 0.3e-9; 0.5e-9; 0.8e-9; 1.2e-9; 1.8e-9; 2.6e-9 ];
  Texttab.print t;
  let sim0 = (sim_single ~n:5 ~pos:0 ~t_in:0.5e-9 ()).Sweep.m_delay in
  let sim4 = (sim_single ~n:5 ~pos:4 ~t_in:0.5e-9 ()).Sweep.m_delay in
  note "position effect at T=0.5ns: d(p4)/d(p0) = %.2f (paper: up to 1.5)"
    (sim4 /. sim0);
  note "inverter-collapsing baselines are position-blind; the proposed model tracks SPICE"

(* ------------------------------------------------------------------ *)
(* Figure 11: simultaneous switching, vary one transition time         *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  header "Figure 11 — simultaneous switching on NAND2, T_X = 0.5 ns, vary T_Y";
  let cell = nand2 () in
  let t_x = 0.5e-9 in
  let t = Texttab.create
      ~header:[ "T_Y (ns)"; "SPICE (ps)"; "proposed (ps)"; "jun (ps)"; "nabavi (ps)" ]
  in
  List.iter
    (fun t_y ->
      let sim = (sim_pair ~t_a:t_x ~t_b:t_y ~skew:0. ()).Sweep.m_delay in
      let f m =
        m.DM.pair_delay cell ~fanout:1 ~a:(tr 0 0. t_x) ~b:(tr 1 0. t_y)
      in
      Texttab.add_row_f ~prec:1 t (Printf.sprintf "%.2f" (ns t_y))
        [ ps sim; ps (f DM.proposed); ps (f DM.jun); ps (f DM.nabavi) ])
    [ 0.15e-9; 0.3e-9; 0.5e-9; 0.8e-9; 1.2e-9; 1.7e-9; 2.3e-9 ];
  Texttab.print t;
  note "paper: proposed and Jun track HSPICE; Nabavi holds only near T_Y = T_X"

(* ------------------------------------------------------------------ *)
(* Figure 12: delay vs. skew for all four models                       *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  header "Figure 12 — vary the skew on NAND2 (T_X = T_Y = 0.5 ns)";
  let cell = nand2 () in
  let t_in = 0.5e-9 in
  let t = Texttab.create
      ~header:
        [ "skew (ps)"; "SPICE (ps)"; "proposed (ps)"; "pin-to-pin (ps)";
          "jun (ps)"; "nabavi (ps)" ]
  in
  List.iter
    (fun skew ->
      let sim = (sim_pair ~t_a:t_in ~t_b:t_in ~skew ()).Sweep.m_delay in
      let f m =
        m.DM.pair_delay cell ~fanout:1 ~a:(tr 0 0. t_in) ~b:(tr 1 skew t_in)
      in
      Texttab.add_row_f ~prec:1 t (Printf.sprintf "%+.0f" (ps skew))
        [ ps sim; ps (f DM.proposed); ps (f DM.pin_to_pin); ps (f DM.jun);
          ps (f DM.nabavi) ])
    [ -1.2e-9; -0.8e-9; -0.5e-9; -0.3e-9; -0.15e-9; 0.; 0.15e-9; 0.3e-9;
      0.5e-9; 0.8e-9; 1.2e-9 ];
  Texttab.print t;
  note "paper: proposed matches HSPICE; Jun misses the large-skew saturation;";
  note "Nabavi (aligned-start assumption) is skew-insensitive and least accurate"

(* ------------------------------------------------------------------ *)
(* Section 6.1 summary: accuracy over random (T_X, T_Y, skew) samples  *)
(* ------------------------------------------------------------------ *)

let accuracy () =
  header "Section 6.1 — model error vs. simulator over random (T_X, T_Y, skew)";
  let cell = nand2 () in
  let rng = Rng.create 2001L in
  let samples =
    List.init 48 (fun _ ->
        let t_a = Rng.float_range rng 0.15e-9 2.4e-9 in
        let t_b = Rng.float_range rng 0.15e-9 2.4e-9 in
        let skew = Rng.float_range rng (-1.2e-9) 1.2e-9 in
        (t_a, t_b, skew))
  in
  let sims =
    List.map
      (fun (t_a, t_b, skew) -> (sim_pair ~t_a ~t_b ~skew ()).Sweep.m_delay)
      samples
  in
  let t = Texttab.create
      ~header:[ "model"; "mean |err| %"; "max |err| %"; "rms err (ps)" ]
  in
  List.iter
    (fun m ->
      let preds =
        List.map
          (fun (t_a, t_b, skew) ->
            m.DM.pair_delay cell ~fanout:1 ~a:(tr 0 0. t_a) ~b:(tr 1 skew t_b))
          samples
      in
      let errs = List.map2 (fun p s -> p -. s) preds sims in
      Texttab.add_row_f ~prec:1 t m.DM.name
        [
          Stats.mean_abs_pct_error ~reference:sims preds;
          Stats.max_abs_pct_error ~reference:sims preds;
          ps (Stats.rms errs);
        ])
    DM.all;
  Texttab.print t;
  note "paper: the proposed model 'works for more general cases' than either baseline"

(* ------------------------------------------------------------------ *)
(* Table 2: STA min-delay at the POs of the benchmark suite            *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table 2 — STA min-delay at primary outputs (pin-to-pin vs proposed)";
  let lib = Lazy.force library in
  let t = Texttab.create
      ~header:
        [ "circuit"; "pin-to-pin min (ns)"; "proposed min (ns)"; "ratio";
          "max (ns, both)" ]
  in
  List.iter
    (fun nl ->
      let prim = Ck.Decompose.to_primitive nl in
      let analyze model =
        Sta.analyze_with RO.default ~library:lib ~model prim
      in
      let p2p = analyze DM.pin_to_pin in
      let prop = analyze DM.proposed in
      let ratio = Sta.min_delay p2p /. Sta.min_delay prop in
      Texttab.add_row t
        [
          Ck.Netlist.name nl;
          Printf.sprintf "%.3f" (ns (Sta.min_delay p2p));
          Printf.sprintf "%.3f" (ns (Sta.min_delay prop));
          Printf.sprintf "%.3f" ratio;
          Printf.sprintf "%.3f" (ns (Sta.max_delay prop));
        ])
    (Ck.Benchmarks.table2_suite ());
  Texttab.print t;
  note "paper: identical max-delay; pin-to-pin overestimates min-delay by 5-31%%";
  note "on six of nine circuits (the others tie).  c880s..c7552s are synthetic";
  note "stand-ins with the real circuits' PI/PO/gate counts (DESIGN.md)."

(* ------------------------------------------------------------------ *)
(* Section 5: ITR window shrinkage as values are specified             *)
(* ------------------------------------------------------------------ *)

let itrshrink () =
  header "Section 5 — ITR arrival-window shrinkage during value assignment";
  let lib = Lazy.force library in
  let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let itr = Ssd_itr.Itr.create ~library:lib ~model:DM.proposed nl in
  let rng = Rng.create 31L in
  let pis = Array.of_list (Ck.Netlist.inputs nl) in
  Rng.shuffle rng pis;
  let total = Array.length pis in
  let t = Texttab.create
      ~header:[ "PIs assigned"; "Σ window width (ns)"; "vs STA" ]
  in
  let initial = Ssd_itr.Itr.window_width_sum itr in
  Texttab.add_row t [ "0 (= STA)"; Printf.sprintf "%.2f" (ns initial); "100.0%" ];
  Array.iteri
    (fun k pi ->
      let choice =
        match Rng.int rng 4 with
        | 0 -> "01" | 1 -> "10" | 2 -> "11" | _ -> "00"
      in
      ignore
        (Ssd_itr.Itr.assign itr pi
           (Option.get (Ssd_itr.Value2f.of_string choice)));
      let q = k + 1 in
      if q * 4 mod total < 4 || q = total then begin
        let width = Ssd_itr.Itr.window_width_sum itr in
        Texttab.add_row t
          [
            Printf.sprintf "%d/%d" q total;
            Printf.sprintf "%.2f" (ns width);
            Printf.sprintf "%.1f%%" (100. *. width /. initial);
          ]
      end)
    pis;
  Texttab.print t;
  note "timing ranges shrink monotonically as the vector pair is specified,";
  note "which is what lets ITR prune choices a vector-independent STA cannot"

(* ------------------------------------------------------------------ *)
(* Section 7: crosstalk ATPG efficiency without / with ITR             *)
(* ------------------------------------------------------------------ *)

let atpg () =
  header "Section 7 — crosstalk-delay-fault ATPG efficiency";
  let lib = Lazy.force library in
  let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let sta = Sta.analyze_with RO.default ~library:lib ~model:DM.proposed nl in
  let clock = Sta.max_delay sta in
  let screened =
    A.Fault.extract_screened ~count:14 ~align_window:120e-12 ~seed:99L
      ~library:lib ~model:DM.proposed nl
  in
  let blind = A.Fault.extract ~count:10 ~align_window:120e-12 ~seed:7L nl in
  let sites = screened @ blind in
  note "circuit: %s; %d fault sites (%d co-excitability screened + %d blind)"
    (Ck.Netlist.name nl) (List.length sites) (List.length screened)
    (List.length blind);
  let t = Texttab.create
      ~header:
        [ "mode"; "detected"; "undetectable"; "aborted"; "efficiency %";
          "expansions"; "wall (s)" ]
  in
  let seeds = [ 1L; 2L; 3L ] in
  let run_mode name use_itr =
    let totals = ref (0, 0, 0, 0, 0.) in
    List.iter
      (fun seed ->
        let cfg =
          { (A.Atpg.default_config ~clock_period:clock) with
            A.Atpg.use_itr; max_expansions = 1000; seed }
        in
        let _, s =
          A.Atpg.run_with RO.default cfg ~library:lib ~model:DM.proposed nl
            sites
        in
        let d, u, a, e, w = !totals in
        totals :=
          ( d + s.A.Atpg.detected,
            u + s.A.Atpg.undetectable,
            a + s.A.Atpg.aborted,
            e + s.A.Atpg.total_expansions,
            w +. s.A.Atpg.total_wall ))
      seeds;
    let d, u, a, e, w = !totals in
    Texttab.add_row t
      [
        name;
        string_of_int d;
        string_of_int u;
        string_of_int a;
        Printf.sprintf "%.2f" (100. *. float_of_int (d + u) /. float_of_int (d + u + a));
        string_of_int e;
        Printf.sprintf "%.1f" w;
      ]
  in
  note "aggregated over %d ATPG seeds" (List.length seeds);
  run_mode "without ITR" false;
  run_mode "with ITR" true;
  Texttab.print t;
  note "paper: efficiency 39.63%% -> 82.75%% with ITR in the authors' crosstalk";
  note "ATPG.  Our framework reproduces the machinery (windows, refinement,";
  note "sound alignment pruning); see EXPERIMENTS.md for the gap analysis on";
  note "this synthetic circuit population."

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md                   *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation 1 — D0R fitting basis (paper's cube-root form vs adaptive)";
  let grid = [ 0.15e-9; 0.4e-9; 0.8e-9; 1.5e-9; 2.4e-9 ] in
  let samples =
    List.concat_map
      (fun ta ->
        List.map
          (fun tb ->
            ((ta, tb), (sim_pair ~t_a:ta ~t_b:tb ~skew:0. ()).Sweep.m_delay))
          grid)
      grid
  in
  let t = Texttab.create ~header:[ "basis"; "rms (ps)" ] in
  List.iter
    (fun (name, basis) ->
      let f = Fit.fit2_of_samples ~basis ~range:(0.15e-9, 2.4e-9) samples in
      Texttab.add_row_f ~prec:2 t name [ ps f.Fit.rms2 ])
    [ ("cube-root product (paper)", Fit.Cuberoot2); ("quadratic", Fit.Quad2);
      ("cubic", Fit.Cubic2) ];
  let best = Fit.fit2_best ~range:(0.15e-9, 2.4e-9) samples in
  Texttab.add_row_f ~prec:2 t "best-of (used)" [ ps best.Fit.rms2 ];
  Texttab.print t;
  note "our technology's D0R surface is bi-tonic in each transition time, which";
  note "the paper's cube-root product cannot express — the flow picks per surface";

  header "Ablation 2 — V-shape model vs table lookup";
  let cell = nand2 () in
  let lut =
    C.Lookup.build tech Sweep.Nand ~n:2 ~pos_a:0 ~pos_b:1
  in
  let rng = Rng.create 77L in
  let pts =
    List.init 40 (fun _ ->
        ( Rng.float_range rng 0.2e-9 2.2e-9,
          Rng.float_range rng 0.2e-9 2.2e-9,
          Rng.float_range rng (-1e-9) 1e-9 ))
  in
  let sims =
    List.map (fun (ta, tb, sk) -> (sim_pair ~t_a:ta ~t_b:tb ~skew:sk ()).Sweep.m_delay) pts
  in
  let err preds =
    Stats.mean_abs_pct_error ~reference:sims preds
  in
  let v_preds =
    List.map
      (fun (ta, tb, sk) ->
        Core.Vshape.pair_delay cell ~fanout:1 ~a:(tr 0 0. ta) ~b:(tr 1 sk tb))
      pts
  in
  let l_preds =
    List.map (fun (ta, tb, sk) -> C.Lookup.pair_delay lut ~t_a:ta ~t_b:tb ~skew:sk) pts
  in
  let t2 = Texttab.create ~header:[ "model"; "mean |err| %"; "stored values" ] in
  Texttab.add_row t2
    [ "V-shape (3 fitted surfaces)"; Printf.sprintf "%.1f" (err v_preds); "16 coefficients" ];
  Texttab.add_row t2
    [ "table lookup (trilinear)"; Printf.sprintf "%.1f" (err l_preds);
      Printf.sprintf "%d entries" (C.Lookup.entries lut) ];
  Texttab.print t2;
  note "comparable accuracy, but only the analytic V carries the shape metadata";
  note "(monotone / bi-tonic, saturation points) STA needs to pick worst-case corners";

  header "Ablation 3 — >2-simultaneous extension (tied-k refinement)";
  let cell3 = Charlib.find (Lazy.force library) Sweep.Nand 3 in
  let rng = Rng.create 91L in
  let pts3 = List.init 16 (fun _ -> Rng.float_range rng 0.2e-9 1.5e-9) in
  let sim3 t_in =
    (Sweep.tied tech Sweep.Nand ~n:3 ~fanout:1 ~k:3 ~t_in).Sweep.m_delay
  in
  let with_ref t_in =
    (Core.Vshape.ctl_event cell3 ~fanout:1
       [ tr 0 0. t_in; tr 1 0. t_in; tr 2 0. t_in ])
      .Types.e_arr
  in
  let pairs_only t_in =
    (* best pair without the tied-k candidate *)
    List.fold_left Float.min infinity
      (List.map
         (fun (a, b) ->
           Core.Vshape.pair_delay cell3 ~fanout:1 ~a:(tr a 0. t_in)
             ~b:(tr b 0. t_in))
         [ (0, 1); (0, 2); (1, 2) ])
  in
  let sims3 = List.map sim3 pts3 in
  let t3 = Texttab.create ~header:[ "variant"; "mean |err| %" ] in
  Texttab.add_row_f ~prec:1 t3 "pairs only"
    [ Stats.mean_abs_pct_error ~reference:sims3 (List.map pairs_only pts3) ];
  Texttab.add_row_f ~prec:1 t3 "with tied-k refinement (used)"
    [ Stats.mean_abs_pct_error ~reference:sims3 (List.map with_ref pts3) ];
  Texttab.print t3;
  note "three δ-simultaneous transitions are faster than any pair's V predicts;";
  note "the tied-k characterization recovers the missing speed-up"

(* ------------------------------------------------------------------ *)
(* Parallel STA engine comparison                                      *)
(* ------------------------------------------------------------------ *)

let parsta () =
  header "Parallel STA — sequential vs level-parallel";
  let lib = Lazy.force library in
  let lanes = Ssd_sta.Par.default_jobs () in
  let par_jobs = max 2 lanes in
  note "host recommends %d domain(s); parallel runs use %d lanes" lanes par_jobs;
  if lanes <= 1 then begin
    note "single-core host: extra domains bring scheduling overhead but no";
    note "extra CPUs, so the parallel column measures pool overhead here; on";
    note "a multicore host each level fans its gates across the cores."
  end;
  let time f =
    (* best of 5: wall-clock floor is the least noisy single-thread metric *)
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let t = Texttab.create
      ~header:
        [ "circuit"; "levels"; "seq (ms)"; "par (ms)"; "par speedup";
          "identical" ]
  in
  List.iter
    (fun name ->
      let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name name)) in
      let run ?(obs = Obs.disabled) ~jobs () =
        Sta.analyze_with (RO.make ~jobs ~obs ()) ~library:lib
          ~model:DM.proposed nl
      in
      let base = run ~jobs:1 () in
      (* one instrumented production pass feeds [bench_obs]; its windows
         must match too *)
      let identical =
        sta_beq base (run ~obs:bench_obs ~jobs:1 ())
        && sta_beq base (run ~jobs:par_jobs ())
      in
      let t_seq = time (run ~jobs:1) in
      let t_par = time (run ~jobs:par_jobs) in
      Texttab.add_row t
        [
          name;
          string_of_int (Ck.Netlist.depth nl);
          Printf.sprintf "%.1f" (t_seq *. 1e3);
          Printf.sprintf "%.1f" (t_par *. 1e3);
          Printf.sprintf "%.2fx" (t_seq /. t_par);
          (if identical then "yes" else "NO");
        ])
    [ "c880s"; "c3540s"; "c7552s" ];
  Texttab.print t;
  note "'identical' asserts bit-equal windows on every line across the";
  note "sequential, instrumented and parallel passes (level barriers make";
  note "the evaluation schedule irrelevant to the result)."

(* ------------------------------------------------------------------ *)
(* Incremental fault simulation: whole-circuit reference vs frontier   *)
(* ------------------------------------------------------------------ *)

let faultsim () =
  header
    "Fault simulation — whole-circuit reference vs incremental vs \
     incremental+parallel";
  let lib = Lazy.force library in
  let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let sta = Sta.analyze_with RO.default ~library:lib ~model:DM.proposed nl in
  let clock = Sta.max_delay sta in
  (* a generous alignment window and a small delta keep many sites
     excited yet rarely detected — the realistic hard case where the
     simulator spends its time on faulty evaluations of live faults *)
  let sites =
    A.Fault.extract ~count:768 ~delta:60e-12 ~align_window:2500e-12
      ~seed:2025L nl
  in
  let vectors = A.Fault_sim.random_vectors ~seed:11L ~count:96 nl in
  (* the timed parallel row uses jobs = 0 (recommended domain count):
     on a single-core host the pool degrades to the sequential walk
     instead of paying stop-the-world synchronization for cores that do
     not exist; a forced four-lane pool is still checked below *)
  let auto_lanes = Ssd_sta.Par.default_jobs () in
  note "circuit: %s; %d fault sites, %d two-pattern vectors, clock %.3f ns"
    (Ck.Netlist.name nl) (List.length sites) (List.length vectors) (ns clock);
  note "victim fanout sizes: %s (circuit has %d lines)"
    (let szs =
       List.map
         (fun (s : A.Fault.site) ->
           List.length (Ck.Netlist.transitive_fanout nl s.A.Fault.victim))
         sites
     in
     Printf.sprintf "min %d / mean %.0f / max %d"
       (List.fold_left min max_int szs)
       (float_of_int (List.fold_left ( + ) 0 szs)
       /. float_of_int (List.length szs))
       (List.fold_left max 0 szs))
    (Ck.Netlist.size nl);
  (* window_screen off throughout: this experiment isolates the
     re-simulation (whole circuit vs incremental vs parallel), and the
     per-site STA-window pre-screen would add the same ~30 us/site
     constant to every production row, diluting exactly the ratio
     asserted below.  The screen's own cost and soundness are covered by
     the [eco] bench and [bench/smoke]'s on/off identity check. *)
  let run ?(obs = Obs.disabled) ~jobs () =
    A.Fault_sim.simulate_with ~window_screen:false
      (RO.make ~jobs ~obs ())
      ~library:lib ~model:DM.proposed ~clock_period:clock nl sites vectors
  in
  let reference () =
    fault_sim_reference ~library:lib ~model:DM.proposed ~clock_period:clock
      nl sites vectors
  in
  let time f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let base = reference () in
  let configs =
    [
      ("incremental j1", fun () -> run ~jobs:1 ());
      ("incremental j4", fun () -> run ~jobs:4 ());
      ("incremental auto", fun () -> run ~obs:bench_obs ~jobs:0 ());
    ]
  in
  List.iter
    (fun (tag, f) ->
      let r = f () in
      if
        r.A.Fault_sim.detected <> base.A.Fault_sim.detected
        || r.A.Fault_sim.undetected <> base.A.Fault_sim.undetected
        || r.A.Fault_sim.coverage <> base.A.Fault_sim.coverage
      then begin
        Printf.eprintf
          "faultsim: %s differs from the whole-circuit reference\n" tag;
        exit 1
      end)
    configs;
  note "detection sets bit-identical to the reference at jobs 1, 4, auto";
  (let cv n = Option.value ~default:0 (List.assoc_opt n (Obs.counters bench_obs)) in
   note "screening economics (instrumented auto pass): %d pairs \
         resimulated, %d screened out, %d dropped, %d fault-free sims"
     (cv "faultsim.resim") (cv "faultsim.screened_out")
     (cv "faultsim.dropped") (cv "faultsim.ff_sims"));
  let t_full = time reference in
  let t_inc = time (run ~jobs:1) in
  let t_par = time (run ~jobs:0) in
  let t = Texttab.create
      ~header:[ "engine"; "wall (ms)"; "speedup vs full" ]
  in
  let row name w =
    Texttab.add_row t
      [ name; Printf.sprintf "%.1f" (w *. 1e3);
        Printf.sprintf "%.2fx" (t_full /. w) ]
  in
  row "whole-circuit reference (j1)" t_full;
  row "incremental (j1)" t_inc;
  row (Printf.sprintf "incremental + parallel (auto: %d lane%s)" auto_lanes
         (if auto_lanes = 1 then "" else "s"))
    t_par;
  Texttab.print t;
  note "detected %d / %d sites (%.1f%% coverage), %d undetected"
    (List.length base.A.Fault_sim.detected)
    (List.length sites) base.A.Fault_sim.coverage
    (List.length base.A.Fault_sim.undetected);
  note "the event frontier pays on every excited pair (it re-times only";
  note "the lines whose events the victim moves); the domain pool";
  note "additionally spreads the per-vector fault-free simulations and";
  note "the surviving faulty evaluations across lanes on multicore hosts";
  note "(jobs = 0 resolves to the recommended domain count, so a 1-core";
  note "host keeps the sequential schedule instead of paying";
  note "stop-the-world syncs).";
  if t_full /. t_par < 3. then begin
    Printf.eprintf
      "faultsim: incremental+parallel speedup %.2fx below the 3x target\n"
      (t_full /. t_par);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Incremental ECO re-timing: engine edit vs full re-analysis          *)
(* ------------------------------------------------------------------ *)

let eco () =
  header "ECO re-timing — incremental engine edit vs full Sta.analyze_with";
  let module E = Ssd_sta.Engine in
  let lib = Lazy.force library in
  let nl = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let n = Ck.Netlist.size nl in
  (* deterministic victim lines: every k-th gate output, spread across
     the whole depth range so cone sizes vary from PO-adjacent (tiny)
     to PI-adjacent (large) *)
  let gates =
    List.filter
      (fun i -> not (Ck.Netlist.is_pi nl i))
      (List.init n Fun.id)
  in
  let victims =
    let g = Array.of_list gates in
    let want = 48 in
    let stride = max 1 (Array.length g / want) in
    List.filteri (fun k _ -> k mod stride = 0) (Array.to_list g)
    |> List.filteri (fun k _ -> k < want)
  in
  let delta = 75e-12 in
  note "circuit: %s (%d lines, depth %d); %d victim lines, +%.0f ps each"
    (Ck.Netlist.name nl) n (Ck.Netlist.depth nl) (List.length victims)
    (delta *. 1e12);
  let opts = RO.make ~obs:bench_obs () in
  let eng = E.create ~opts ~library:lib ~model:DM.proposed nl in
  let base = Sta.analyze_with RO.default ~library:lib ~model:DM.proposed nl in
  let wins_equal get_a get_b =
    let ok = ref true in
    for i = 0 to n - 1 do
      if not (lt_beq (get_a i) (get_b i)) then ok := false
    done;
    !ok
  in
  (* correctness: every edit bit-identical to a fresh full analysis of
     the edited circuit, and every revert bit-identical to the base *)
  List.iter
    (fun v ->
      let cp = E.checkpoint eng in
      E.apply eng (E.Set_extra_delay { line = v; delta });
      let reference = E.reanalyze eng in
      if not (wins_equal (E.timing eng) (Sta.timing reference)) then begin
        Printf.eprintf "eco: edit on line %d differs from full re-analysis\n" v;
        exit 1
      end;
      E.revert eng cp;
      if not (wins_equal (E.timing eng) (Sta.timing base)) then begin
        Printf.eprintf "eco: revert of line %d does not restore the base\n" v;
        exit 1
      end)
    victims;
  note "all %d edits bit-identical to full re-analysis; all reverts \
        restore the base windows exactly" (List.length victims);
  let s = E.stats eng in
  note "engine work: %d nodes recomputed, %d cutoffs (%.0f%% of \
        recomputed)" s.E.nodes_recomputed s.E.cutoffs
    (100. *. E.cutoff_ratio s);
  (* timing: mean per-edit cycle (apply + revert; the revert restores
     journaled windows without recomputation, so the cycle pays one
     propagation) vs one full Sta.analyze_with.  The asserted workload is the
     engine's production one — single-line extra delays at extracted
     crosstalk fault sites, exactly what Fault_sim's window screen
     replays per fault; those victims sit deep in the circuit, where an
     edit's frontier stays smallest.  The uniform sweep over every gate
     output is reported alongside: it includes the near-PI lines whose
     changes reach most of the circuit, so its mean is pinned near the
     eval-count ceiling (total gates / mean nodes recomputed per edit)
     rather than the 10x contract. *)
  let time f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let site_delta = 60e-12 in
  let site_victims =
    List.sort_uniq compare
      (List.map
         (fun (s : A.Fault.site) -> s.A.Fault.victim)
         (A.Fault.extract ~count:768 ~delta:site_delta
            ~align_window:2500e-12 ~seed:2025L nl))
  in
  let t_full =
    time (fun () ->
        Sta.analyze_with RO.default ~library:lib ~model:DM.proposed nl)
  in
  (* the timed engine runs with telemetry disabled, like the timed
     Sta.analyze_with baseline — the instrumented session above keeps
     the work counters *)
  let quiet = E.create ~library:lib ~model:DM.proposed nl in
  let cycle_mean vs d =
    let nv = List.length vs in
    let t =
      time (fun () ->
          List.iter
            (fun v ->
              let cp = E.checkpoint quiet in
              E.apply quiet (E.Set_extra_delay { line = v; delta = d });
              E.revert quiet cp)
            vs)
    in
    t /. float_of_int nv
  in
  let t_site = cycle_mean site_victims site_delta in
  let t_uniform = cycle_mean victims delta in
  E.close quiet;
  let t = Texttab.create ~header:[ "operation"; "wall (us)"; "speedup" ] in
  Texttab.add_row t
    [ "full Sta.analyze_with"; Printf.sprintf "%.1f" (t_full *. 1e6); "1.00x" ];
  Texttab.add_row t
    [ Printf.sprintf "edit at fault site (mean of %d)"
        (List.length site_victims);
      Printf.sprintf "%.1f" (t_site *. 1e6);
      Printf.sprintf "%.2fx" (t_full /. t_site) ];
  Texttab.add_row t
    [ Printf.sprintf "edit anywhere (mean of %d)" (List.length victims);
      Printf.sprintf "%.1f" (t_uniform *. 1e6);
      Printf.sprintf "%.2fx" (t_full /. t_uniform) ];
  Texttab.print t;
  note "an edit re-times only the nodes its dirty frontier reaches, which";
  note "stops behind bit-identical windows; a revert replays the undo";
  note "journal without touching the kernel at all.";
  E.close eng;
  if t_full /. t_site < 10. then begin
    Printf.eprintf "eco: fault-site edit speedup %.2fx below the 10x target\n"
      (t_full /. t_site);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Corner-batched sweep: K planes in one pass vs K scalar analyses     *)
(* ------------------------------------------------------------------ *)

(* metrics exported into the --json report (per-K speedups, MC rate) *)
let corner_metrics : (string * float) list ref = ref []

let corners () =
  header "Corners — batched K-plane sweep vs K independent scalar analyses";
  let module CS = Ssd_sta.Corner_sta in
  let module Corners = C.Corners in
  let lib = Lazy.force library in
  let gates =
    (* SSD_CORNERS downsizes the run for smoke checks / CI, like
       SSD_SCALE_GATES does for the scale experiment *)
    match Sys.getenv_opt "SSD_CORNERS" with
    | Some s -> (try max 500 (int_of_string s) with Failure _ -> 40_000)
    | None -> 40_000
  in
  let layers = max 16 (gates / 400) in
  let nl =
    Ck.Decompose.to_primitive
      (Ck.Generator.generate
         {
           Ck.Generator.default_params with
           Ck.Generator.g_name = Printf.sprintf "corner%dk" (gates / 1000);
           n_inputs = 128;
           n_outputs = 64;
           n_gates = gates;
           locality = 512;
           seed = 2025L;
           shape = Ck.Generator.Layered { layers };
         })
  in
  note "%s" (Ck.Netlist.stats nl);
  let time f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let t = Texttab.create
      ~header:
        [ "K"; "K scalar (ms)"; "K production (ms)"; "batched (ms)";
          "speedup"; "target"; "vs production"; "identical" ]
  in
  corner_metrics := [ ("gates", float_of_int (Ck.Netlist.gate_count nl)) ];
  (* the K/2 law below assumes the corner axis spreads across cores, so
     the batched sweep runs at the recommended lane count; it is
     bit-identical at any lane count *)
  let cores = Ssd_sta.Par.default_jobs () in
  let lanes = RO.make ~jobs:cores () in
  List.iter
    (fun k ->
      let table = Corners.build ~specs:(Corners.default_specs k) lib in
      (* bit-identity first: every plane of the batched sweep must equal
         an independent single-corner analysis over that corner's
         derated library, bit for bit on every node.  The scalar side is
         the closure walk: a production [Sta.analyze_with] of the
         proposed model is the batched kernel itself at K = 1 *)
      let batched = CS.analyze ~opts:lanes ~table nl in
      let run_scalar c =
        analyze_reference RO.default ~library:(Corners.library table c) nl
      in
      let run_production c =
        Sta.analyze_with RO.default
          ~library:(Corners.library table c) ~model:DM.proposed nl
      in
      let identical = ref true in
      for c = 0 to k - 1 do
        if not (CS.plane_matches batched ~corner:c (run_scalar c)) then
          identical := false
      done;
      if not !identical then begin
        Printf.eprintf
          "corners: K=%d batched plane differs from its scalar analysis\n" k;
        exit 1
      end;
      (* wall clock: all K corners as one batched sweep on [cores] lanes
         vs K full scalar analyses on one *)
      let t_scalar =
        time (fun () -> for c = 0 to k - 1 do ignore (run_scalar c) done)
      in
      let t_batched = time (fun () -> CS.analyze ~opts:lanes ~table nl) in
      let speedup = t_scalar /. t_batched in
      (* ungated: what one K-plane sweep buys over K single-corner
         production passes *)
      let t_production =
        time (fun () -> for c = 0 to k - 1 do ignore (run_production c) done)
      in
      (* the K/2 law assumes the corner axis spreads across cores on top
         of the sequential batching gain; a single-core host caps the
         wall-clock ratio at the sequential gain alone (one slot lookup
         and one coefficient stream per node, no per-corner dispatch or
         allocation — measured 4-5x), so the floor is clamped to 3x per
         available core.  K=4 demands the full 2x law everywhere. *)
      let target =
        Float.min (float_of_int k /. 2.) (3. *. float_of_int cores)
      in
      Texttab.add_row t
        [
          string_of_int k;
          Printf.sprintf "%.1f" (t_scalar *. 1e3);
          Printf.sprintf "%.1f" (t_production *. 1e3);
          Printf.sprintf "%.1f" (t_batched *. 1e3);
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf ">= %.1fx" target;
          Printf.sprintf "%.2fx" (t_production /. t_batched);
          "yes";
        ];
      corner_metrics :=
        !corner_metrics
        @ [ (Printf.sprintf "speedup_k%d" k, speedup);
            (Printf.sprintf "production_ratio_k%d" k,
             t_production /. t_batched) ];
      if speedup < target then begin
        Texttab.print t;
        Printf.eprintf
          "corners: K=%d batched speedup %.2fx below the %.1fx target\n" k
          speedup target;
        exit 1
      end)
    [ 4; 16 ];
  Texttab.print t;
  note "the batched sweep walks the netlist once, resolves each gate's";
  note "table slot once, and evaluates all K corners of a node from one";
  note "contiguous coefficient block with no per-corner allocation.";
  note "batched = one K-plane sweep on %d lane(s), the recommended count;"
    cores;
  note "K scalar = K closure-walk analyses on one lane (the gated oracle";
  note "side); K production = K one-lane Sta.analyze_with passes, each the";
  note "same kernel at K = 1 (ungated: what batching buys over";
  note "single-corner passes).";
  (* Monte-Carlo: >= 64 sampled corners through the chunked batched
     kernel (the mc experiment benchmarks it against the scalar oracle) *)
  let samples = 64 in
  let t0 = Unix.gettimeofday () in
  let res =
    CS.monte_carlo
      ~opts:RO.default
      ~samples ~seed:4242L ~library:lib nl
  in
  let t_mc = Unix.gettimeofday () -. t0 in
  let rate = float_of_int samples /. t_mc in
  note "Monte-Carlo: %d corner samples in %.2f s (%.1f samples/s, swept \
        16 refitted corner planes per batched-kernel pass)"
    samples t_mc rate;
  let qs = [ 0.05; 0.5; 0.95 ] in
  let mt = Texttab.create
      ~header:[ "quantity"; "q5 (ns)"; "median (ns)"; "q95 (ns)" ]
  in
  let row name quants =
    Texttab.add_row_f ~prec:3 mt name
      (List.map (fun (_, v) -> ns v) quants)
  in
  row "circuit max delay" (CS.mc_max_quantiles res qs);
  let per_po = CS.mc_po_quantiles res qs in
  Array.iteri
    (fun pi po ->
      if pi < 4 then
        row
          (Printf.sprintf "PO %s" (Ck.Netlist.signal_name nl po))
          per_po.(pi))
    res.CS.mc_pos;
  Texttab.print mt;
  note "(first 4 of %d POs shown; every PO's distribution is in --json \
        runs' mc_samples_per_sec context)" (Array.length res.CS.mc_pos);
  corner_metrics :=
    !corner_metrics
    @ [
        ("mc_samples", float_of_int samples);
        ("mc_samples_per_sec", rate);
        ("mc_max_median", snd (List.nth (CS.mc_max_quantiles res qs) 1));
      ]

(* ------------------------------------------------------------------ *)
(* Monte-Carlo: chunked batched-kernel sampling vs scalar STA         *)
(* ------------------------------------------------------------------ *)

(* metrics exported into the --json report (speedup, boxed words/sample) *)
let mc_metrics : (string * float) list ref = ref []

let mc () =
  header "Monte-Carlo — chunked batched-kernel sampling vs scalar STA";
  let module CS = Ssd_sta.Corner_sta in
  let lib = Lazy.force library in
  let gates =
    (* SSD_MC downsizes the run for smoke checks / CI, like SSD_CORNERS
       does for the corners experiment *)
    match Sys.getenv_opt "SSD_MC" with
    | Some s -> (try max 300 (int_of_string s) with Failure _ -> 4_000)
    | None -> 4_000
  in
  let layers = max 12 (gates / 400) in
  let nl =
    Ck.Decompose.to_primitive
      (Ck.Generator.generate
         {
           Ck.Generator.default_params with
           Ck.Generator.g_name = Printf.sprintf "mc%dk" (gates / 1000);
           n_inputs = 96;
           n_outputs = 48;
           n_gates = gates;
           locality = 256;
           seed = 777L;
           shape = Ck.Generator.Layered { layers };
         })
  in
  note "%s" (Ck.Netlist.stats nl);
  let samples = 256 and seed = 4242L and batch = 16 in
  (* batched path first, single core, with an allocation probe: the
     sweep itself is allocation-free, so the boxed words are the chunk
     bookkeeping (spec slices, refits) plus the per-sample extraction *)
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let batched =
    CS.monte_carlo
      ~opts:(RO.make ~mc_batch:batch ())
      ~samples ~seed ~library:lib nl
  in
  let t_batched = Unix.gettimeofday () -. t0 in
  let words_per_sample =
    (Gc.minor_words () -. w0) /. float_of_int samples
  in
  (* the scalar reference, one lane: each sample is a full closure-walk
     STA pass over its derated library, bit-compared against the batched
     result as it goes (every per-sample PO delay and circuit max) *)
  let t1 = Unix.gettimeofday () in
  let scalar_max =
    Array.mapi
      (fun s spec ->
        let sta =
          analyze_reference RO.default
            ~library:(C.Corners.derate_library spec lib) nl
        in
        if not (CS.sample_matches batched ~sample:s sta) then begin
          Printf.eprintf "mc: sample %d differs from its scalar analysis\n" s;
          exit 1
        end;
        Sta.max_delay sta)
      batched.CS.mc_specs
  in
  let t_scalar = Unix.gettimeofday () -. t1 in
  (* the quantiles derived from the circuit max must match too *)
  let qs = [ 0.05; 0.5; 0.95 ] in
  List.iter2
    (fun (q, a) (_, b) ->
      if not (beq a b) then begin
        Printf.eprintf "mc: q%.0f quantile differs between paths\n" (q *. 100.);
        exit 1
      end)
    (CS.mc_max_quantiles batched qs)
    (Stats.quantiles qs (Array.to_list scalar_max));
  let speedup = t_scalar /. t_batched in
  let target = 3.0 in
  (* ungated: the same samples as single-corner production passes (the
     batched kernel at K = 1 per sample) *)
  let t2 = Unix.gettimeofday () in
  Array.iter
    (fun spec ->
      ignore
        (Sta.analyze_with RO.default
           ~library:(C.Corners.derate_library spec lib)
           ~model:DM.proposed nl))
    batched.CS.mc_specs;
  let t_production = Unix.gettimeofday () -. t2 in
  let t = Texttab.create ~header:[ "metric"; "value" ] in
  Texttab.add_row t [ "samples"; string_of_int samples ];
  Texttab.add_row t [ "batch K"; string_of_int batch ];
  Texttab.add_row t
    [ "per-sample scalar STA (s)"; Printf.sprintf "%.2f" t_scalar ];
  Texttab.add_row t
    [ "per-sample production STA (s)"; Printf.sprintf "%.2f" t_production ];
  Texttab.add_row t
    [ "batched kernel path (s)"; Printf.sprintf "%.2f" t_batched ];
  Texttab.add_row t
    [ "speedup (one core)"; Printf.sprintf "%.2fx (>= %.1fx)" speedup target ];
  Texttab.add_row t
    [ "vs production (ungated)";
      Printf.sprintf "%.2fx" (t_production /. t_batched) ];
  Texttab.add_row t
    [ "boxed words/sample (batched)"; Printf.sprintf "%.0f" words_per_sample ];
  Texttab.print t;
  let mt =
    Texttab.create ~header:[ "quantity"; "q5 (ns)"; "median (ns)"; "q95 (ns)" ]
  in
  Texttab.add_row_f ~prec:3 mt "circuit max delay"
    (List.map (fun (_, v) -> ns v) (CS.mc_max_quantiles batched qs));
  Texttab.print mt;
  note "every per-sample PO delay, circuit max and quantile is asserted";
  note "bit-identical between the chunked batched-kernel sweep and a";
  note "closure-walk STA of each sample's derated library before any";
  note "speedup is reported; the production pass of the proposed model is";
  note "the batched kernel at K = 1, so it is timed but not gated.";
  mc_metrics :=
    [
      ("gates", float_of_int (Ck.Netlist.gate_count nl));
      ("samples", float_of_int samples);
      ("batch", float_of_int batch);
      ("scalar_s", t_scalar);
      ("production_s", t_production);
      ("batched_s", t_batched);
      ("speedup", speedup);
      ("production_ratio", t_production /. t_batched);
      ("boxed_words_per_sample", words_per_sample);
    ];
  if speedup < target then begin
    Printf.eprintf "mc: batched speedup %.2fx below the %.1fx target\n" speedup
      target;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serve: request throughput of the timing daemon, in-process          *)
(* ------------------------------------------------------------------ *)

(* metrics exported into the --json report (request rate) *)
let serve_metrics : (string * float) list ref = ref []

let serve () =
  header "Serve — session-daemon request throughput (in-process dispatch)";
  let module Server = Ssd_serve.Server in
  let module P = Ssd_serve.Protocol in
  let lib = Lazy.force library in
  let total =
    (* SSD_SERVE_REQS downsizes the run for smoke checks / CI *)
    match Sys.getenv_opt "SSD_SERVE_REQS" with
    | Some s -> (try max 1_000 (int_of_string s) with Failure _ -> 20_000)
    | None -> 20_000
  in
  (* default config: one dispatch lane — the acceptance number is a
     single-core figure; --jobs only buys cross-session parallelism *)
  let sv = Server.create (Server.default_config ~library:lib) in
  Fun.protect ~finally:(fun () -> Server.close sv) @@ fun () ->
  let check tag resp =
    match Json.parse resp with
    | Ok j when P.response_ok j -> ()
    | _ ->
      Printf.eprintf "serve: %s request failed: %s\n" tag resp;
      exit 1
  in
  check "open"
    (Server.dispatch sv
       {|{"v":1,"id":0,"op":"open","session":"s","circuit":"c880s"}|});
  (* the measured workload is what the reader hands the dispatcher on
     stdio traffic: drained batches of cached po_window queries against
     a resident engine — each request costs one parse, one window read
     and one render, no re-timing *)
  let frame i =
    Printf.sprintf
      {|{"v":1,"id":%d,"op":"query","session":"s","what":"po_window"}|} i
  in
  let batch = 256 in
  let batches = (total + batch - 1) / batch in
  let reqs =
    Array.init batches (fun b ->
        List.init
          (min batch (total - (b * batch)))
          (fun k -> frame ((b * batch) + k)))
  in
  List.iter (check "warm-up query") (Server.dispatch_batch sv reqs.(0));
  let t0 = Unix.gettimeofday () in
  let served = ref 0 in
  let replies = ref [] in
  Array.iter
    (fun rs ->
      let out = Server.dispatch_batch sv rs in
      served := !served + List.length out;
      replies := out :: !replies)
    reqs;
  let wall = Unix.gettimeofday () -. t0 in
  List.iter (List.iter (check "query")) !replies;
  let rate = float_of_int !served /. wall in
  (* informational second workload: a full edit/revert re-timing cycle
     per request pair — the expensive path, for scale context *)
  let po =
    let nl =
      Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s"))
    in
    Ck.Netlist.signal_name nl (List.hd (Ck.Netlist.outputs nl))
  in
  let edit_cycles = 200 in
  check "checkpoint"
    (Server.dispatch sv
       {|{"v":1,"id":0,"op":"checkpoint","session":"s"}|});
  let t1 = Unix.gettimeofday () in
  for i = 0 to edit_cycles - 1 do
    List.iter
      (check "edit cycle")
      (Server.dispatch_batch sv
         [
           Printf.sprintf
             {|{"v":1,"id":%d,"op":"edit","session":"s","edits":[{"op":"extra","signal":"%s","delta":5e-12}]}|}
             (2 * i) po;
           Printf.sprintf
             {|{"v":1,"id":%d,"op":"revert","checkpoint":1,"session":"s"}|}
             ((2 * i) + 1);
         ])
  done;
  let edit_rate =
    float_of_int (2 * edit_cycles) /. (Unix.gettimeofday () -. t1)
  in
  let target = 10_000. in
  let t = Texttab.create ~header:[ "metric"; "value" ] in
  Texttab.add_row t [ "requests"; string_of_int !served ];
  Texttab.add_row t [ "batch size"; string_of_int batch ];
  Texttab.add_row t [ "wall (s)"; Printf.sprintf "%.3f" wall ];
  Texttab.add_row t
    [ "cached-query req/s (one core)";
      Printf.sprintf "%.0f (>= %.0f)" rate target ];
  Texttab.add_row t
    [ "edit+revert req/s (re-timing)"; Printf.sprintf "%.0f" edit_rate ];
  Texttab.print t;
  note "every reply of the timed run is checked ok after the clock stops;";
  note "the daemon transports (stdio/TCP) add only kernel I/O on top of";
  note "this dispatch path — tools/verify.sh diffs a live stdio session";
  note "against a golden transcript.";
  serve_metrics :=
    [
      ("requests", float_of_int !served);
      ("batch", float_of_int batch);
      ("req_per_sec", rate);
      ("edit_req_per_sec", edit_rate);
    ];
  if rate < target then begin
    Printf.eprintf "serve: %.0f requests/sec below the %.0f target\n" rate
      target;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel performance suite                                          *)
(* ------------------------------------------------------------------ *)

let perf () =
  header "Performance (Bechamel, monotonic clock)";
  let open Bechamel in
  let lib = Lazy.force library in
  let cell = nand2 () in
  let c880 = Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) in
  let sta model = Sta.analyze_with RO.default ~library:lib ~model c880 in
  let a = tr 0 0. 0.5e-9 and b = tr 1 0.1e-9 0.7e-9 in
  let vec =
    let rng = Rng.create 9L in
    Array.init (List.length (Ck.Netlist.inputs c880)) (fun _ ->
        (Rng.bool rng, Rng.bool rng))
  in
  let model_tests =
    List.map
      (fun m ->
        Test.make ~name:(Printf.sprintf "pair_delay/%s" m.DM.name)
          (Staged.stage (fun () ->
               ignore (m.DM.pair_delay cell ~fanout:1 ~a ~b))))
      DM.all
  in
  let tests =
    Test.make_grouped ~name:"ssd"
      (model_tests
      @ [
          Test.make ~name:"sta/c880s-proposed"
            (Staged.stage (fun () ->
                 ignore (sta DM.proposed)));
          Test.make ~name:"sta/c880s-pin-to-pin"
            (Staged.stage (fun () ->
                 ignore (sta DM.pin_to_pin)));
          Test.make ~name:"tsim/c880s"
            (Staged.stage (fun () ->
                 ignore (TS.simulate ~library:lib ~model:DM.proposed c880 vec)));
          Test.make ~name:"spice/nand2-transient"
            (Staged.stage (fun () ->
                 ignore (sim_pair ~t_a:0.5e-9 ~t_b:0.5e-9 ~skew:0. ())));
        ])
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let t = Texttab.create ~header:[ "benchmark"; "time/run" ] in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let pretty =
        if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
        else Printf.sprintf "%.0f ns" est
      in
      Texttab.add_row t [ name; pretty ])
    (List.sort compare rows);
  Texttab.print t

(* ------------------------------------------------------------------ *)
(* Scale: SoA substrate at 100k+ gates                                 *)
(* ------------------------------------------------------------------ *)

(* metrics exported into the --json report (gates/sec, bytes/gate) *)
let scale_metrics : (string * float) list ref = ref []

let scale () =
  header "Scale — structure-of-arrays netlist/STA substrate at 100k+ gates";
  let lib = Lazy.force library in
  let gates =
    (* SSD_SCALE_GATES downsizes the run for smoke checks / CI *)
    match Sys.getenv_opt "SSD_SCALE_GATES" with
    | Some s -> (try max 1_000 (int_of_string s) with Failure _ -> 100_000)
    | None -> 100_000
  in
  let layers = max 32 (gates / 400) in
  note "generating a layered %d-gate circuit (%d levels of gates)" gates layers;
  let t0 = Unix.gettimeofday () in
  let nl =
    Ck.Decompose.to_primitive
      (Ck.Generator.generate
         {
           Ck.Generator.default_params with
           Ck.Generator.g_name = Printf.sprintf "scale%dk" (gates / 1000);
           n_inputs = 256;
           n_outputs = 128;
           n_gates = gates;
           locality = 1024;
           seed = 42L;
           shape = Ck.Generator.Layered { layers };
         })
  in
  let t_gen = Unix.gettimeofday () -. t0 in
  let n = Ck.Netlist.size nl in
  note "%s built in %.2f s" (Ck.Netlist.stats nl) t_gen;
  let identity_check name circuit =
    (* the packed path must reproduce the seed record-array oracle bit
       for bit, sequentially and under every lane count *)
    let oracle = analyze_ref ~library:lib ~model:DM.proposed circuit in
    List.iter
      (fun jobs ->
        let t =
          Sta.analyze_with (RO.make ~jobs ()) ~library:lib ~model:DM.proposed
            circuit
        in
        for i = 0 to Ck.Netlist.size circuit - 1 do
          if not (lt_beq oracle.(i) (Sta.timing t i)) then
            failwith
              (Printf.sprintf
                 "scale: %s jobs=%d: node %d differs from the seed oracle"
                 name jobs i)
        done)
      [ 1; 4; 8 ];
    note "%s: packed path bit-identical to the oracle at jobs 1/4/8" name
  in
  identity_check "c880s"
    (Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")));
  identity_check (Ck.Netlist.name nl) nl;
  (* throughput: best-of-3 sequential full analysis *)
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    last :=
      Some (Sta.analyze_with RO.default ~library:lib ~model:DM.proposed nl);
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  let sta = Option.get !last in
  let gcount = Ck.Netlist.gate_count nl in
  let gates_per_sec = float_of_int gcount /. !best in
  (* steady-state footprint: packed structural arrays + packed windows *)
  let struct_bytes = Ck.Netlist.mem_bytes nl in
  let win_bytes = Ssd_sta.Windows.bytes (Sta.windows sta) in
  let bytes_per_gate =
    float_of_int (struct_bytes + win_bytes) /. float_of_int n
  in
  let t = Texttab.create ~header:[ "metric"; "value" ] in
  Texttab.add_row t [ "nodes"; string_of_int n ];
  Texttab.add_row t [ "gates"; string_of_int gcount ];
  Texttab.add_row t [ "levels"; string_of_int (Ck.Netlist.depth nl) ];
  Texttab.add_row t [ "analyze (s, best of 3)"; Printf.sprintf "%.3f" !best ];
  Texttab.add_row t [ "gates/sec"; Printf.sprintf "%.0f" gates_per_sec ];
  Texttab.add_row t
    [ "structural bytes/gate";
      Printf.sprintf "%.1f" (float_of_int struct_bytes /. float_of_int n) ];
  Texttab.add_row t
    [ "window bytes/gate";
      Printf.sprintf "%.1f" (float_of_int win_bytes /. float_of_int n) ];
  Texttab.add_row t [ "bytes/gate (total)"; Printf.sprintf "%.1f" bytes_per_gate ];
  Texttab.print t;
  scale_metrics :=
    [ ("gates", float_of_int gcount);
      ("gates_per_sec", gates_per_sec);
      ("bytes_per_gate", bytes_per_gate) ];
  note "bit-identity is asserted, not just reported: a mismatch fails";
  note "the run, and the footprint is gated against the baseline."

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig5", fig5);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("accuracy", accuracy);
    ("table2", table2);
    ("itrshrink", itrshrink);
    ("ablation", ablation);
    ("atpg", atpg);
    ("parsta", parsta);
    ("faultsim", faultsim);
    ("eco", eco);
    ("corners", corners);
    ("mc", mc);
    ("scale", scale);
    ("serve", serve);
    ("perf", perf);
  ]

(* machine-readable per-experiment timings: --json FILE writes
   { "experiments": [ {"name": ..., "wall_s": ...}, ... ], ... } so the
   perf trajectory of successive PRs can be compared mechanically
   (conventionally BENCH_results.json).  The [bench_obs] snapshot of the
   instrumented identity-check passes rides along at the top level
   ([Obs.snapshot_to_json]'s counters, gauges, timers, histograms and
   spans), and the file is written atomically (sibling temp + rename) so
   a concurrent reader never sees a truncated report. *)
let report_json timings total =
  let group metrics =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) metrics)
  in
  let telemetry =
    match Obs.snapshot_to_json (Obs.snapshot bench_obs) with
    | Json.Obj fields -> fields
    | _ -> []
  in
  Json.Obj
    ([
       ( "experiments",
         Json.List
           (List.map
              (fun (name, wall) ->
                Json.Obj
                  [ ("name", Json.Str name); ("wall_s", Json.Num wall) ])
              timings) );
       ("total_wall_s", Json.Num total);
       ("scale", group !scale_metrics);
       ("corners", group !corner_metrics);
       ("mc", group !mc_metrics);
       ("serve", group !serve_metrics);
     ]
    @ telemetry)

(* ---- bench-regression harness: --baseline FILE [--gate PCT] ----

   A report is flattened to dotted-path numeric leaves; metrics present
   in BOTH reports are compared.  Only the performance groups
   (experiments / total_wall_s / scale / corners / mc) are gated, and
   only when the leaf name classifies a direction (per_sec / speedup =
   higher is better; seconds / wall / bytes / words = lower is better);
   counters, timers and histogram shapes are informational — they shift
   legitimately whenever instrumentation is added.  Sub-10ms timings
   are never gated (pure scheduler noise at that scale). *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with suffix s =
  let ns = String.length s and nx = String.length suffix in
  ns >= nx && String.sub s (ns - nx) nx = suffix

let flatten_report json =
  let out = ref [] in
  let rec go prefix j =
    let sub k = if prefix = "" then k else prefix ^ "." ^ k in
    match j with
    | Json.Num v -> out := (prefix, v) :: !out
    | Json.Obj kvs -> List.iter (fun (k, v) -> go (sub k) v) kvs
    | Json.List xs ->
      List.iteri
        (fun i x ->
          match x with
          | Json.Obj kvs when List.mem_assoc "name" kvs -> (
            match List.assoc "name" kvs with
            | Json.Str n ->
              List.iter
                (fun (k, v) -> if k <> "name" then go (sub (n ^ "." ^ k)) v)
                kvs
            | _ -> go (sub (string_of_int i)) x)
          | _ -> go (sub (string_of_int i)) x)
        xs
    | _ -> ()
  in
  go "" json;
  List.rev !out

type direction = Higher_better | Lower_better | Info_only

let metric_direction path =
  let gated =
    List.exists
      (fun g -> starts_with g path)
      [ "experiments."; "total_wall_s"; "scale."; "corners."; "mc.";
        "serve." ]
  in
  if not gated then Info_only
  else if contains path "per_sec" || contains path "speedup" then
    Higher_better
  else if
    ends_with "_s" path || contains path "wall" || contains path "bytes"
    || contains path "words"
  then Lower_better
  else Info_only

let compare_reports ~gate ~baseline current =
  let b = flatten_report baseline and c = flatten_report current in
  let tb =
    Texttab.create
      ~header:[ "metric"; "baseline"; "current"; "delta"; "status" ]
  in
  let regressions = ref 0 in
  let compared = ref 0 in
  let fmt v = Printf.sprintf "%.6g" v in
  List.iter
    (fun (path, bv) ->
      match List.assoc_opt path c with
      | None -> ()
      | Some cv ->
        incr compared;
        let delta_pct =
          if bv = 0. then if cv = 0. then 0. else Float.infinity
          else (cv -. bv) /. Float.abs bv *. 100.
        in
        let dir = metric_direction path in
        let timing_noise =
          (* anything that measures seconds below 10 ms is noise *)
          (ends_with "_s" path || contains path "wall")
          && Float.abs bv < 1e-2 && Float.abs cv < 1e-2
        in
        let status =
          match dir with
          | Info_only -> "info"
          | _ when timing_noise -> "ok (noise)"
          | Higher_better when delta_pct < -.gate ->
            incr regressions;
            "REGRESSION"
          | Lower_better when delta_pct > gate ->
            incr regressions;
            "REGRESSION"
          | _ -> "ok"
        in
        Texttab.add_row tb
          [ path; fmt bv; fmt cv;
            (if Float.is_finite delta_pct then
               Printf.sprintf "%+.1f%%" delta_pct
             else "new");
            status ])
    b;
  Texttab.print tb;
  note "compared %d metric(s) against baseline (gate %.0f%%), %d regression(s)"
    !compared gate !regressions;
  !regressions

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let rec parse_opts json baseline gate acc = function
    | [] -> (json, baseline, gate, List.rev acc)
    | "--json" :: path :: rest -> parse_opts (Some path) baseline gate acc rest
    | "--baseline" :: path :: rest ->
      parse_opts json (Some path) gate acc rest
    | "--gate" :: pct :: rest -> (
      match float_of_string_opt pct with
      | Some g when g >= 0. -> parse_opts json baseline g acc rest
      | _ ->
        prerr_endline "bench: --gate requires a non-negative percentage";
        exit 2)
    | [ ("--json" | "--baseline" | "--gate") ] ->
      prerr_endline "bench: --json/--baseline/--gate require an argument";
      exit 2
    | a :: rest -> parse_opts json baseline gate (a :: acc) rest
  in
  let json_path, baseline_path, gate, args =
    parse_opts None None 50. [] (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match args with
    | [] -> List.map fst experiments
    | args when List.mem "all" args -> List.map fst experiments
    | args -> args
  in
  let t0 = Unix.gettimeofday () in
  Printf.printf "SSD reproduction harness — %d experiment(s): %s\n%!"
    (List.length requested)
    (String.concat ", " requested);
  let timings =
    List.filter_map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f ->
          let e0 = Unix.gettimeofday () in
          f ();
          Some (name, Unix.gettimeofday () -. e0)
        | None ->
          Printf.printf "unknown experiment %S (available: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          None)
      requested
  in
  let total = Unix.gettimeofday () -. t0 in
  let report = report_json timings total in
  Option.iter
    (fun path ->
      Obs.write_file_atomic path ~contents:(Json.to_string report ^ "\n");
      Printf.printf "wrote %s\n" path)
    json_path;
  Printf.printf "\ntotal wall time: %.1f s\n" total;
  match baseline_path with
  | None -> ()
  | Some path -> (
    match Json.parse (read_file path) with
    | Error msg ->
      Printf.eprintf "bench: cannot parse baseline %s: %s\n" path msg;
      exit 2
    | Ok baseline ->
      header (Printf.sprintf "regression check vs %s" path);
      let regressions = compare_reports ~gate ~baseline report in
      if regressions > 0 then exit 1)
