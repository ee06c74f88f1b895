module Ck = Ssd_circuit
module I = Ssd_itr
module V = I.Value2f
module Impl = I.Implication
module Itr = I.Itr
module DM = Ssd_core.Delay_model
module Types = Ssd_core.Types
module Charlib = Ssd_cell.Charlib
module Interval = Ssd_util.Interval
module Rng = Ssd_util.Rng
module TS = Ssd_sta.Timing_sim
module RO = Ssd_sta.Run_opts

let lib = lazy (Charlib.default ~profile:Charlib.coarse ())
let v s = Option.get (V.of_string s)
let c17_prim () = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ())

(* ---------- Value2f ---------- *)

let test_value_parsing () =
  List.iter
    (fun s ->
      match V.of_string s with
      | Some x -> Alcotest.(check string) "roundtrip" s (V.to_string x)
      | None -> Alcotest.fail ("parse " ^ s))
    [ "00"; "01"; "0x"; "10"; "11"; "1x"; "x0"; "x1"; "xx" ];
  Alcotest.(check bool) "reject" true (V.of_string "2x" = None);
  Alcotest.(check bool) "reject length" true (V.of_string "011" = None)

let test_value_states () =
  Alcotest.(check int) "01 rises definitely" 1 (V.state (v "01") V.Rise);
  Alcotest.(check int) "xx rises potentially" 0 (V.state (v "xx") V.Rise);
  Alcotest.(check int) "0x rises potentially" 0 (V.state (v "0x") V.Rise);
  Alcotest.(check int) "11 never rises" (-1) (V.state (v "11") V.Rise);
  Alcotest.(check int) "10 never rises" (-1) (V.state (v "10") V.Rise);
  Alcotest.(check int) "10 falls definitely" 1 (V.state (v "10") V.Fall);
  Alcotest.(check int) "x0 falls potentially" 0 (V.state (v "x0") V.Fall)

let test_value_meet () =
  Alcotest.(check bool) "xx meets all" true (V.meet (v "xx") (v "01") = Some (v "01"));
  Alcotest.(check bool) "0x ∧ x1 = 01" true (V.meet (v "0x") (v "x1") = Some (v "01"));
  Alcotest.(check bool) "conflict" true (V.meet (v "00") (v "10") = None);
  Alcotest.(check bool) "narrower" true (V.narrower_or_equal (v "01") (v "0x"));
  Alcotest.(check bool) "not narrower" false (V.narrower_or_equal (v "0x") (v "01"))

let test_value_forward () =
  let nand = Ck.Gate.Nand in
  Alcotest.(check string) "nand 01,01" "10"
    (V.to_string (V.forward nand [ v "01"; v "01" ]));
  Alcotest.(check string) "nand 0x,11" "1x"
    (V.to_string (V.forward nand [ v "0x"; v "11" ]));
  Alcotest.(check string) "nand x both" "1x"
    (V.to_string (V.forward nand [ v "0x"; v "1x" ]));
  Alcotest.(check string) "not 01" "10"
    (V.to_string (V.forward Ck.Gate.Not [ v "01" ]))

let test_value_backward () =
  (* NAND out = 0 forces all inputs to 1 in that frame *)
  (match V.backward Ck.Gate.Nand ~out:(v "0x") [ v "xx"; v "xx" ] with
  | Some [ a; b ] ->
    Alcotest.(check string) "a" "1x" (V.to_string a);
    Alcotest.(check string) "b" "1x" (V.to_string b)
  | _ -> Alcotest.fail "expected narrowing");
  (* NAND out = 1 with one input already 1 forces the other to 0 *)
  (match V.backward Ck.Gate.Nand ~out:(v "x1") [ v "x1"; v "xx" ] with
  | Some [ _; b ] -> Alcotest.(check string) "forced" "x0" (V.to_string b)
  | _ -> Alcotest.fail "expected forcing");
  (* conflict: NAND out = 1 with all inputs at 1 *)
  Alcotest.(check bool) "conflict" true
    (V.backward Ck.Gate.Nand ~out:(v "x1") [ v "x1"; v "x1" ] = None);
  (* NOT inverts through *)
  (match V.backward Ck.Gate.Not ~out:(v "01") [ v "xx" ] with
  | Some [ a ] -> Alcotest.(check string) "not backward" "10" (V.to_string a)
  | _ -> Alcotest.fail "not backward failed")

(* ---------- Implication ---------- *)

let test_implication_c17 () =
  let nl = Ck.Benchmarks.c17 () in
  let id s = Option.get (Ck.Netlist.find nl s) in
  let impl = Impl.create nl in
  (* force gate 10 = NAND(1,3) to rise: frame1 out=0 needs 1=3=1 *)
  (match Impl.assign_opt impl (id "10") (v "01") with
  | Some _ ->
    Alcotest.(check string) "input 1 narrowed" "1x"
      (V.to_string (Impl.value impl (id "1")));
    Alcotest.(check string) "input 3 narrowed" "1x"
      (V.to_string (Impl.value impl (id "3")))
  | None -> Alcotest.fail "assign failed");
  (* now fixing input 1 steady-1 forces input 3 to fall *)
  (match Impl.assign_opt impl (id "1") (v "11") with
  | Some _ ->
    Alcotest.(check string) "sibling forced" "10"
      (V.to_string (Impl.value impl (id "3")))
  | None -> Alcotest.fail "second assign failed")

let test_implication_conflict_restores_via_copy () =
  let nl = Ck.Benchmarks.c17 () in
  let id s = Option.get (Ck.Netlist.find nl s) in
  let impl = Impl.create nl in
  ignore (Impl.assign_opt impl (id "10") (v "01"));
  let snapshot = Impl.copy impl in
  Alcotest.(check bool) "conflicting assign fails" true
    (Impl.assign_opt snapshot (id "10") (v "10") = None);
  (* original untouched *)
  Alcotest.(check string) "original intact" "01"
    (V.to_string (Impl.value impl (id "10")))

let test_implication_full_specification () =
  let nl = c17_prim () in
  let impl = Impl.create nl in
  let rng = Rng.create 5L in
  List.iter
    (fun pi ->
      let choice = if Rng.bool rng then v "01" else v "10" in
      match Impl.assign_opt impl pi choice with
      | Some _ -> ()
      | None -> Alcotest.fail "PI assignment cannot conflict from scratch")
    (Ck.Netlist.inputs nl);
  Alcotest.(check int) "everything specified" (Ck.Netlist.size nl)
    (Impl.specified_count impl)

let test_implication_agrees_with_simulation () =
  let nl = c17_prim () in
  let rng = Rng.create 6L in
  for _ = 1 to 10 do
    let impl = Impl.create nl in
    let vec =
      List.map (fun pi ->
          let b1 = Rng.bool rng and b2 = Rng.bool rng in
          ignore (Impl.assign_opt impl pi (V.of_bools b1 b2));
          (b1, b2))
        (Ck.Netlist.inputs nl)
    in
    let v1 = Ck.Logic.simulate nl (Array.of_list (List.map fst vec)) in
    let v2 = Ck.Logic.simulate nl (Array.of_list (List.map snd vec)) in
    Array.iteri
      (fun i _ ->
        Alcotest.(check string) "implied value matches simulation"
          (V.to_string (V.of_bools v1.(i) v2.(i)))
          (V.to_string (Impl.value impl i)))
      v1
  done

(* ---------- ITR ---------- *)

let make_itr nl = Itr.create ~library:(Lazy.force lib) ~model:DM.proposed nl

let win_opt_beq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Test_support.win_beq a b
  | Some _, None | None, Some _ -> false

(* with every value xx, every line's windows are the STA windows, bit
   for bit, under either window-capable model *)
let test_itr_initial_equals_sta () =
  let nl = c17_prim () in
  List.iter
    (fun model ->
      let itr = Itr.create ~library:(Lazy.force lib) ~model nl in
      let sta =
        Ssd_sta.Sta.analyze_with RO.default ~library:(Lazy.force lib) ~model nl
      in
      for i = 0 to Ck.Netlist.size nl - 1 do
        let st = Ssd_sta.Sta.timing sta i in
        let same w sw = win_opt_beq w (Some sw) in
        if
          not
            (same (Itr.rise_window itr i) st.Ssd_sta.Sta.rise
            && same (Itr.fall_window itr i) st.Ssd_sta.Sta.fall)
        then Alcotest.failf "%s: line %d differs from STA" model.DM.name i
      done)
    [ DM.proposed; DM.pin_to_pin ]

let test_itr_shrinks_monotonically () =
  let nl = c17_prim () in
  let itr = make_itr nl in
  let rng = Rng.create 8L in
  let before = ref (Itr.window_width_sum itr) in
  List.iter
    (fun pi ->
      let choice = if Rng.bool rng then v "01" else v "11" in
      if Itr.assign itr pi choice then begin
        let now = Itr.window_width_sum itr in
        Alcotest.(check bool) "width never grows" true (now <= !before +. 1e-15);
        before := now
      end)
    (Ck.Netlist.inputs nl)

let test_itr_impossible_transition_drops_window () =
  let nl = c17_prim () in
  let id s = Option.get (Ck.Netlist.find nl s) in
  let itr = make_itr nl in
  Alcotest.(check bool) "assign steady" true (Itr.assign itr (id "1") (v "11"));
  Alcotest.(check bool) "assign steady 3" true (Itr.assign itr (id "3") (v "11"));
  (* 10 = NAND(1,3) = steady 0: no transitions at all *)
  Alcotest.(check bool) "no rise window" true (Itr.rise_window itr (id "10") = None);
  Alcotest.(check bool) "no fall window" true (Itr.fall_window itr (id "10") = None);
  Alcotest.(check int) "state is -1" (-1) (Itr.state itr (id "10") V.Rise)

let test_itr_definite_refines_latest () =
  (* with a definite falling input the latest to-controlling response is
     bounded by that input's own pin-to-pin worst case *)
  let nl = c17_prim () in
  let id s = Option.get (Ck.Netlist.find nl s) in
  let itr = make_itr nl in
  let before =
    match Itr.rise_window itr (id "10") with
    | Some w -> Interval.hi w.Types.w_arr
    | None -> Alcotest.fail "missing window"
  in
  Alcotest.(check bool) "assign falling input" true
    (Itr.assign itr (id "1") (v "10"));
  (match Itr.rise_window itr (id "10") with
  | Some w ->
    Alcotest.(check bool) "latest refined or kept" true
      (Interval.hi w.Types.w_arr <= before +. 1e-15)
  | None -> Alcotest.fail "window should survive");
  ()

let prop_itr_windows_sound =
  (* the windows remain sound along any prefix of a full random assignment:
     the final timing-simulation event always lies inside every prefix's
     window for its line *)
  QCheck.Test.make ~name:"ITR windows contain final timing events" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let nl = c17_prim () in
      let rng = Rng.create (Int64.of_int seed) in
      let npi = List.length (Ck.Netlist.inputs nl) in
      let vec = Array.init npi (fun _ -> (Rng.bool rng, Rng.bool rng)) in
      let pi_spec =
        { Ssd_sta.Sta.pi_arrival = Interval.point 0.;
          pi_tt = Interval.point 0.25e-9 }
      in
      let lines =
        TS.simulate ~pi_arrival:0. ~pi_tt:0.25e-9 ~library:(Lazy.force lib)
          ~model:DM.proposed nl vec
      in
      let itr =
        Itr.create ~pi_spec ~library:(Lazy.force lib) ~model:DM.proposed nl
      in
      let sound () =
        Array.for_all
          (fun i ->
            match TS.event lines i with
            | None -> true
            | Some e ->
              let w =
                if not (TS.v1 lines i) then Itr.rise_window itr i
                else Itr.fall_window itr i
              in
              (match w with
              | None -> false
              | Some w ->
                Interval.contains w.Types.w_arr e.Types.e_arr))
          (Array.init (Ck.Netlist.size nl) Fun.id)
      in
      let ok = ref (sound ()) in
      List.iteri
        (fun rank pi ->
          if !ok then begin
            let b1, b2 = vec.(rank) in
            if not (Itr.assign itr pi (V.of_bools b1 b2)) then ok := false
            else ok := sound ()
          end)
        (Ck.Netlist.inputs nl);
      !ok)

let c880s_prim =
  lazy (Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")))

let prop_itr_assign_matches_rescan =
  (* random assignment sequences on random lines (about 3 in 10 steps
     conflict), with or without a random focus, under either model:
     after every step the kernel's windows equal the closure walk's
     full-rescan oracle's bit for bit, and both agree on which steps
     conflict *)
  QCheck.Test.make ~name:"assign equals the full-rescan closure oracle"
    ~count:24
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let nl =
        match seed mod 3 with
        | 0 -> c17_prim ()
        | 1 -> Lazy.force c880s_prim
        | _ ->
          Ck.Decompose.to_primitive
            (Ck.Generator.generate
               { Ck.Generator.default_params with
                 Ck.Generator.g_name = "itr"; n_inputs = 7; n_outputs = 3;
                 n_gates = 40; max_fanin = 3; seed = Int64.of_int seed })
      in
      let model = if Rng.bool rng then DM.proposed else DM.pin_to_pin in
      let n = Ck.Netlist.size nl in
      let focus =
        if Rng.bool rng then None
        else Some [ Rng.int rng n; Rng.int rng n ]
      in
      let values =
        Array.map v [| "00"; "01"; "10"; "11"; "0x"; "1x"; "x0"; "x1" |]
      in
      let library = Lazy.force lib in
      let module R = Test_support.Itr_reference in
      let t = ref (Itr.create ?focus ~library ~model nl) in
      let r = ref (R.create ?focus ~library ~model nl) in
      let same () =
        let ok = ref true in
        for i = 0 to n - 1 do
          if
            not
              (win_opt_beq (Itr.rise_window !t i) (R.rise_window !r i)
              && win_opt_beq (Itr.fall_window !t i) (R.fall_window !r i))
          then ok := false
        done;
        !ok
      in
      let ok = ref (same ()) in
      for _ = 1 to 12 do
        let line = Rng.int rng n in
        let value = values.(Rng.int rng (Array.length values)) in
        let t' = Itr.copy !t and r' = R.copy !r in
        let a = Itr.assign t' line value in
        let b = R.assign r' line value in
        if a <> b then ok := false;
        if a then t := t';
        if b then r := r';
        if not (same ()) then ok := false
      done;
      !ok)

(* a gate with no characterized cell is the typed error Sta raises, not
   the library's bare Not_found *)
let test_itr_uncharacterized_gate () =
  let pis = List.init 5 (fun k -> (Printf.sprintf "a%d" k, Ck.Netlist.Pi)) in
  let nl =
    Ck.Netlist.build ~name:"nand5"
      ~signals:
        (pis
        @ [ ("y",
             Ck.Netlist.Gate
               { kind = Ck.Gate.Nand; fanin = [| 0; 1; 2; 3; 4 |] }) ])
      ~outputs:[ "y" ]
  in
  Alcotest.check_raises "Itr.create"
    (Ssd_sta.Sta.Unsupported_gate "no characterized cell for NAND with 5 inputs")
    (fun () ->
      ignore (Itr.create ~library:(Lazy.force lib) ~model:DM.proposed nl))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "itr.value2f",
      [
        Alcotest.test_case "parsing" `Quick test_value_parsing;
        Alcotest.test_case "states" `Quick test_value_states;
        Alcotest.test_case "meet" `Quick test_value_meet;
        Alcotest.test_case "forward" `Quick test_value_forward;
        Alcotest.test_case "backward" `Quick test_value_backward;
      ] );
    ( "itr.implication",
      [
        Alcotest.test_case "c17 deductions" `Quick test_implication_c17;
        Alcotest.test_case "conflict isolation" `Quick
          test_implication_conflict_restores_via_copy;
        Alcotest.test_case "full specification" `Quick
          test_implication_full_specification;
        Alcotest.test_case "agrees with simulation" `Quick
          test_implication_agrees_with_simulation;
      ] );
    ( "itr.refinement",
      [
        Alcotest.test_case "initial equals STA" `Slow test_itr_initial_equals_sta;
        Alcotest.test_case "shrinks monotonically" `Slow
          test_itr_shrinks_monotonically;
        Alcotest.test_case "impossible transition" `Slow
          test_itr_impossible_transition_drops_window;
        Alcotest.test_case "definite refines latest" `Slow
          test_itr_definite_refines_latest;
        Alcotest.test_case "uncharacterized gate is typed" `Quick
          test_itr_uncharacterized_gate;
      ] );
    qsuite "itr.soundness.props" [ prop_itr_windows_sound ];
    qsuite "itr.refresh.props" [ prop_itr_assign_matches_rescan ];
  ]
