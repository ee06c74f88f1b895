module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module RO = Ssd_sta.Run_opts
module TS = Ssd_sta.Timing_sim
module DM = Ssd_core.Delay_model
module Types = Ssd_core.Types
module Charlib = Ssd_cell.Charlib
module Interval = Ssd_util.Interval
module Rng = Ssd_util.Rng
module E = Ssd_sta.Engine
module Obs = Ssd_obs.Obs

open Test_support

let lib = lazy (Charlib.default ~profile:Charlib.coarse ())

let c17_prim () = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ())

let analyze ?(pi_spec = Sta.default_pi_spec) model nl =
  Sta.analyze_with (RO.make ~pi_spec ()) ~library:(Lazy.force lib) ~model nl

(* ---------- forward analysis ---------- *)

let test_sta_c17_basic () =
  let nl = c17_prim () in
  let t = analyze DM.proposed nl in
  let w = Sta.po_window t in
  Alcotest.(check bool) "positive min delay" true (Interval.lo w > 10e-12);
  Alcotest.(check bool) "max > min" true (Interval.hi w > Interval.lo w);
  Alcotest.(check bool) "below 2ns for c17" true (Interval.hi w < 2e-9);
  (* every line window well-formed and later than its fan-ins *)
  for i = 0 to Ck.Netlist.size nl - 1 do
    let lt = Sta.timing t i in
    Alcotest.(check bool) "rise lo<=hi" true
      (Interval.lo lt.Sta.rise.Types.w_arr <= Interval.hi lt.Sta.rise.Types.w_arr);
    Alcotest.(check bool) "tt positive" true
      (Interval.lo lt.Sta.rise.Types.w_tt > 0.)
  done

let test_sta_models_agree_on_max () =
  (* Table 2: identical max-delay, proposed min-delay <= pin-to-pin's *)
  List.iter
    (fun name ->
      let nl =
        Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name name))
      in
      let p = analyze DM.proposed nl in
      let b = analyze DM.pin_to_pin nl in
      Alcotest.(check (float 1e-15)) (name ^ " same max") (Sta.max_delay b)
        (Sta.max_delay p);
      Alcotest.(check bool) (name ^ " min not larger") true
        (Sta.min_delay p <= Sta.min_delay b +. 1e-15))
    [ "c17"; "c880s" ]

let test_sta_rejects_non_primitive () =
  let nl =
    Ck.Bench_io.parse_string ~name:"np" "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n"
  in
  Alcotest.(check bool) "raises Unsupported_gate" true
    (match analyze DM.proposed nl with
    | exception Sta.Unsupported_gate _ -> true
    | _ -> false)

let test_sta_rejects_windowless_model () =
  let nl = c17_prim () in
  Alcotest.(check bool) "jun cannot drive STA" true
    (match analyze DM.jun nl with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_sta_pi_spec_effect () =
  let nl = c17_prim () in
  let tight =
    {
      Sta.pi_arrival = Interval.point 0.;
      pi_tt = Interval.point 0.3e-9;
    }
  in
  let wide =
    {
      Sta.pi_arrival = Interval.make 0. 0.4e-9;
      pi_tt = Interval.make 0.15e-9 0.6e-9;
    }
  in
  let a = analyze ~pi_spec:tight DM.proposed nl in
  let b = analyze ~pi_spec:wide DM.proposed nl in
  Alcotest.(check bool) "wider PI spec widens PO window" true
    (Interval.width (Sta.po_window b) > Interval.width (Sta.po_window a))

(* ---------- parallel evaluation ---------- *)

let exact_win label a b =
  (* bit-identical, not approximately equal: the parallel engine promises
     exact replay of the sequential arithmetic *)
  Alcotest.(check bool) label true (win_beq a b)

let analyze_jobs jobs lib nl =
  Sta.analyze_with (RO.make ~jobs ()) ~library:lib ~model:DM.proposed nl

let check_deterministic name nl =
  let nl = Ck.Decompose.to_primitive nl in
  let lib = Lazy.force lib in
  let base = analyze_jobs 1 lib nl in
  let runs = [ ("par", analyze_jobs 4 lib nl) ] in
  for i = 0 to Ck.Netlist.size nl - 1 do
    let b = Sta.timing base i in
    List.iter
      (fun (tag, t) ->
        let x = Sta.timing t i in
        exact_win (Printf.sprintf "%s %s rise @%d" name tag i) b.Sta.rise x.Sta.rise;
        exact_win (Printf.sprintf "%s %s fall @%d" name tag i) b.Sta.fall x.Sta.fall)
      runs
  done

let test_sta_parallel_deterministic () =
  check_deterministic "c17" (Ck.Benchmarks.c17 ());
  check_deterministic "c880s" (Option.get (Ck.Benchmarks.by_name "c880s"))

let test_sta_jobs_auto () =
  (* jobs <= 0 selects the domain count; result must still match *)
  let nl = c17_prim () in
  let lib = Lazy.force lib in
  let a = analyze_jobs 1 lib nl in
  let b = analyze_jobs 0 lib nl in
  for i = 0 to Ck.Netlist.size nl - 1 do
    exact_win "auto rise" (Sta.timing a i).Sta.rise (Sta.timing b i).Sta.rise;
    exact_win "auto fall" (Sta.timing a i).Sta.fall (Sta.timing b i).Sta.fall
  done

let test_par_pool_basics () =
  let module Par = Ssd_sta.Par in
  Par.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "lanes" 4 (Par.jobs pool);
      (* sums every index exactly once, over several jobs on one pool *)
      for round = 1 to 3 do
        let n = 1000 * round in
        let hits = Array.make n 0 in
        Par.parallel_for pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
        Alcotest.(check bool)
          (Printf.sprintf "each index once (n=%d)" n)
          true
          (Array.for_all (fun c -> c = 1) hits)
      done;
      (* an exception in a worker chunk reaches the caller *)
      Alcotest.(check bool) "exception propagates" true
        (match
           Par.parallel_for pool ~n:100 (fun i ->
               if i = 57 then failwith "boom")
         with
        | exception Failure _ -> true
        | () -> false);
      (* the pool survives a failed job *)
      let total = Atomic.make 0 in
      Par.parallel_for pool ~n:100 (fun i ->
          ignore (Atomic.fetch_and_add total i));
      Alcotest.(check int) "pool usable after failure" 4950 (Atomic.get total))

(* ---------- required times / violations ---------- *)

let test_sta_required_and_violations () =
  let nl = c17_prim () in
  let t = analyze DM.proposed nl in
  let relaxed = Sta.compute_required t ~clock_period:(2. *. Sta.max_delay t) in
  Alcotest.(check int) "no violations at relaxed clock" 0
    (List.length (Sta.violations t relaxed));
  let tight = Sta.compute_required t ~clock_period:(0.5 *. Sta.max_delay t) in
  Alcotest.(check bool) "violations at tight clock" true
    (List.length (Sta.violations t tight) > 0)

let test_sta_required_monotone_backward () =
  let nl = c17_prim () in
  let t = analyze DM.proposed nl in
  let clock = Sta.max_delay t in
  let q = Sta.compute_required t ~clock_period:clock in
  (* a PI's latest-allowed must be no later than a PO's *)
  let po = List.hd (Ck.Netlist.outputs nl) in
  let pi = List.hd (Ck.Netlist.inputs nl) in
  Alcotest.(check bool) "requirements tighten backward" true
    (Interval.hi (Sta.required_window q pi ~rise:true)
    <= Interval.hi (Sta.required_window q po ~rise:true) +. 1e-15)

(* the packed store against the record-array oracle on one pass: every
   slot bitwise, and the same violation list *)
let required_matches t ~clock_period =
  let oracle = compute_required t ~clock_period in
  let packed = Sta.compute_required t ~clock_period in
  required_beq packed oracle
  && Sta.violations t packed = violations t oracle

let contains ~sub s =
  let n = String.length sub in
  let rec at k = k + n <= String.length s && (String.sub s k n = sub || at (k + 1)) in
  at 0

let hold_side (_, msg) = contains ~sub:"not allowed before" msg

let layered_prim ~seed ~gates =
  Ck.Decompose.to_primitive
    (Ck.Generator.generate
       {
         Ck.Generator.default_params with
         Ck.Generator.g_name = "req";
         n_inputs = 16;
         n_outputs = 8;
         n_gates = gates;
         locality = 32;
         seed = Int64.of_int seed;
         shape = Ck.Generator.Layered { layers = 12 };
       })

(* every hook of the forward pass, every model path and both lane
   counts: the backward step reads only the finished windows, so it must
   match the oracle on each *)
let prop_required_matches_oracle =
  QCheck.Test.make
    ~name:
      "packed required == record-array oracle (pi_spec, extra_delay, \
       pi_override, clock; jobs 1, 4; c17, c880s, layered)"
    ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let lib = Lazy.force lib in
      let nl =
        match seed mod 3 with
        | 0 -> c17_prim ()
        | 1 ->
          Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s"))
        | _ -> layered_prim ~seed:(seed + 5) ~gates:(200 + Rng.int rng 200)
      in
      let spec () =
        let a = Rng.float_range rng (-0.5e-9) 0.2e-9 in
        let t = Rng.float_range rng 0.05e-9 0.3e-9 in
        {
          Sta.pi_arrival = Interval.make a (a +. Rng.float_range rng 0. 0.2e-9);
          pi_tt = Interval.make t (t +. Rng.float_range rng 0. 0.3e-9);
        }
      in
      let pi_spec = spec () in
      let n = Ck.Netlist.size nl in
      let extras =
        Array.init n (fun _ ->
            match Rng.int rng 6 with
            | 0 -> Rng.float_range rng 5e-12 150e-12
            | 1 -> -.Rng.float_range rng 5e-12 50e-12
            | 2 -> -.Rng.float_range rng 0.2e-9 1e-9
            | 3 -> -0.
            | _ -> 0.)
      in
      let overrides =
        Array.init n (fun i ->
            if Ck.Netlist.is_pi nl i && Rng.bool rng then Some (spec ())
            else None)
      in
      let extra_delay i = extras.(i) and pi_override i = overrides.(i) in
      List.for_all
        (fun (jobs, model) ->
          let t =
            Sta.analyze_with ~extra_delay ~pi_override
              (RO.make ~jobs ~pi_spec ()) ~library:lib ~model nl
          in
          let top = Sta.max_delay t in
          List.for_all
            (fun f -> required_matches t ~clock_period:(Float.max 0. (f *. top)))
            [ 0.; 0.5; 1.; 1.5 ])
        [ (1, DM.proposed); (4, DM.proposed); (1, reference_model);
          (1, DM.pin_to_pin) ])

(* negative PI arrivals and extra delays push windows before t = 0, so
   the earliest-allowed side fires too; the property above draws such
   cases, this one pins that they are checked *)
let test_required_hold_side () =
  let lib = Lazy.force lib in
  List.iter
    (fun nl ->
      let pi_spec =
        { Sta.pi_arrival = Interval.make (-0.6e-9) (-0.5e-9);
          pi_tt = Interval.make 0.15e-9 0.3e-9 }
      in
      let po = List.hd (Ck.Netlist.outputs nl) in
      let t =
        Sta.analyze_with
          ~extra_delay:(fun i -> if i = po then -1e-9 else 0.)
          (RO.make ~pi_spec ()) ~library:lib ~model:DM.proposed nl
      in
      let clock = Sta.max_delay t in
      let v = Sta.violations t (Sta.compute_required t ~clock_period:clock) in
      Alcotest.(check bool) "hold-side violations reported" true
        (List.exists hold_side v);
      Alcotest.(check bool) "same as the oracle" true
        (required_matches t ~clock_period:clock))
    [ c17_prim (); layered_prim ~seed:11 ~gates:300 ]

(* every plane of a K-corner store against the oracle over that corner's
   derated library *)
let test_required_corner_planes () =
  let module CS = Ssd_sta.Corner_sta in
  let module Corners = Ssd_cell.Corners in
  let module PS = Ssd_sta.Plane_sweep in
  let lib = Lazy.force lib in
  List.iter
    (fun nl ->
      let table = Corners.build ~specs:(Corners.default_specs 4) lib in
      let ct = CS.analyze ~table nl in
      let sw =
        PS.make ~cb:(Ssd_core.Corner_batch.create table) (CS.windows ct) nl
      in
      for c = 0 to 3 do
        let sta =
          analyze_reference RO.default ~library:(Corners.library table c) nl
        in
        Alcotest.(check bool)
          (Printf.sprintf "plane %d forward" c) true
          (CS.plane_matches ct ~corner:c sta);
        List.iter
          (fun f ->
            let clock_period = f *. CS.max_delay ct ~corner:c in
            let packed = PS.required sw ~clock_period in
            Alcotest.(check bool)
              (Printf.sprintf "plane %d at %.2f × max" c f) true
              (required_beq ~plane:c packed
                 (compute_required sta ~clock_period)))
          [ 0.5; 1.; 2. ]
      done)
    [ c17_prim ();
      Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s")) ]

(* Run the built `ssd sta` on [args]: exit status and stderr. *)
let run_ssd_sta args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/ssd.exe"
  in
  let err = Filename.temp_file "ssd_sta" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let env = Array.append [| "SSD_FAST=1" |] (Unix.environment ()) in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: "sta" :: args))
      env Unix.stdin null fd
  in
  Unix.close fd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (status, text)

(* `ssd sta --clock`: the same rule at the input boundary, checked
   before any analysis, with exit status 2 *)
let test_cli_clock_boundary () =
  let run arg = run_ssd_sta [ "c17"; "--clock=" ^ arg ] in
  List.iter
    (fun arg ->
      match run arg with
      | Unix.WEXITED 2, text
        when String.starts_with ~prefix:"ssd: --clock: " text ->
        ()
      | Unix.WEXITED c, text ->
        Alcotest.failf "--clock=%s: exit %d, stderr %S" arg c text
      | _ -> Alcotest.failf "--clock=%s: killed" arg)
    [ "-1"; "nan"; "inf"; "-inf"; "-1e-320" ];
  List.iter
    (fun arg ->
      match run arg with
      | Unix.WEXITED 0, "" -> ()
      | _, text -> Alcotest.failf "--clock=%s rejected: %S" arg text)
    [ "0"; "-0" ]

(* `ssd sta FILE`: a circuit whose lines parse but which is invalid
   (a cycle, an OUTPUT never defined) is one `ssd: FILE: message` line
   and exit 2, like a malformed line, and so is a directory, which
   opens but cannot be read; a valid file whose own signal is named
   like a fresh decomposition node is analyzed *)
let test_cli_bench_boundary () =
  let with_bench text f =
    let path = Filename.temp_file "ssd_sta" ".bench" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        f path)
  in
  List.iter
    (fun (label, text, message) ->
      with_bench text (fun path ->
          let name = Filename.remove_extension (Filename.basename path) in
          match run_ssd_sta [ path ] with
          | Unix.WEXITED 2, err
            when err = Printf.sprintf "ssd: %s: %s\n" path (message name) ->
            ()
          | Unix.WEXITED c, err ->
            Alcotest.failf "%s: exit %d, stderr %S" label c err
          | _ -> Alcotest.failf "%s: killed" label))
    [ ( "cycle", "INPUT(a)\nOUTPUT(z)\nx = NAND(a, z)\nz = NOT(x)\n",
        Printf.sprintf "netlist %S contains a cycle" );
      ( "undefined output", "INPUT(a)\nOUTPUT(q)\nz = NOT(a)\n",
        fun _ -> "output \"q\" is not a declared signal" ) ];
  (let dir = Filename.temp_dir "ssd_sta" "" in
   Fun.protect
     ~finally:(fun () -> Sys.rmdir dir)
     (fun () ->
       match run_ssd_sta [ dir ] with
       | Unix.WEXITED 2, err
         when err = Printf.sprintf "ssd: %s: Is a directory\n" dir ->
         ()
       | Unix.WEXITED c, err ->
         Alcotest.failf "directory: exit %d, stderr %S" c err
       | _ -> Alcotest.fail "directory: killed"));
  with_bench
    "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(y)\nz = AND(a, b)\n\
     z$0 = NOT(z)\ny = NOT(z$0)\n"
    (fun path ->
      match run_ssd_sta [ path ] with
      | Unix.WEXITED 0, "" -> ()
      | Unix.WEXITED c, err -> Alcotest.failf "fresh-name clash: exit %d, %S" c err
      | _ -> Alcotest.fail "fresh-name clash: killed")

(* A PI that is also a PO arrives at exactly t = 0 and is required in
   [0, clock]: at clock 0 both bounds meet its window exactly, inside
   the 1e-15 s slack on either side *)
let test_violations_slack_boundary () =
  let nl =
    Ck.Bench_io.parse_string ~name:"edge"
      "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(z)\nz = NAND(a, b)\n"
  in
  let pi_spec =
    { Sta.pi_arrival = Interval.point 0.; pi_tt = Interval.point 0.2e-9 }
  in
  let t = analyze ~pi_spec DM.proposed nl in
  let a = Option.get (Ck.Netlist.find nl "a") in
  let v = Sta.violations t (Sta.compute_required t ~clock_period:0.) in
  Alcotest.(check bool) "PO a meets both bounds" false
    (List.exists (fun (i, _) -> i = a) v);
  Alcotest.(check bool) "same as the oracle" true
    (required_matches t ~clock_period:0.)

let test_violations_rejects_other_netlist () =
  let a = analyze DM.proposed (c17_prim ()) in
  (* the same circuit, parsed again: another netlist value *)
  let b = analyze DM.proposed (c17_prim ()) in
  let q = Sta.compute_required a ~clock_period:(2. *. Sta.max_delay a) in
  Alcotest.(check int) "own store accepted" 0 (List.length (Sta.violations a q));
  match Sta.violations b q with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a store of another netlist was accepted"

let test_required_rejects_bad_clock () =
  let t = analyze DM.proposed (c17_prim ()) in
  List.iter
    (fun p ->
      match Sta.compute_required t ~clock_period:p with
      | exception Invalid_argument msg ->
        let name = Printf.sprintf "%g" p in
        if not (contains ~sub:name msg) then
          Alcotest.failf "message %S does not name %s" msg name
      | _ -> Alcotest.failf "clock period %g accepted" p)
    [ Float.nan; infinity; neg_infinity; -1e-9; -.Float.min_float ];
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "%g accepted, oracle equal" p) true
        (required_matches t ~clock_period:p))
    [ 0.; -0. ]

(* ---------- timing simulation ---------- *)

let test_tsim_logic_matches_boolean () =
  let nl = c17_prim () in
  let rng = Rng.create 17L in
  for _ = 1 to 20 do
    let npi = List.length (Ck.Netlist.inputs nl) in
    let vec = Array.init npi (fun _ -> (Rng.bool rng, Rng.bool rng)) in
    let lines = TS.simulate ~library:(Lazy.force lib) ~model:DM.proposed nl vec in
    let v1 = Ck.Logic.simulate nl (Array.map fst vec) in
    let v2 = Ck.Logic.simulate nl (Array.map snd vec) in
    for i = 0 to Ck.Netlist.size nl - 1 do
      Alcotest.(check bool) "frame1 matches" (TS.v1 lines i) v1.(i);
      Alcotest.(check bool) "frame2 matches" (TS.v2 lines i) v2.(i);
      Alcotest.(check bool) "event iff changed"
        (TS.v1 lines i <> TS.v2 lines i)
        (TS.has_event lines i)
    done
  done

let prop_tsim_within_sta_windows =
  (* the central soundness property: every timing-simulation event falls
     inside the corresponding STA window *)
  QCheck.Test.make ~name:"timing simulation within STA windows" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let nl = c17_prim () in
      let pi_spec =
        { Sta.pi_arrival = Interval.point 0.; pi_tt = Interval.point 0.25e-9 }
      in
      let sta = analyze ~pi_spec DM.proposed nl in
      let rng = Rng.create (Int64.of_int seed) in
      let npi = List.length (Ck.Netlist.inputs nl) in
      let vec = Array.init npi (fun _ -> (Rng.bool rng, Rng.bool rng)) in
      let lines =
        TS.simulate ~pi_arrival:0. ~pi_tt:0.25e-9 ~library:(Lazy.force lib)
          ~model:DM.proposed nl vec
      in
      Array.for_all
        (fun i ->
          match TS.event lines i with
          | None -> true
          | Some e ->
            let lt = Sta.timing sta i in
            let w = if not (TS.v1 lines i) then lt.Sta.rise else lt.Sta.fall in
            Interval.contains w.Types.w_arr e.Types.e_arr
            && Interval.contains w.Types.w_tt e.Types.e_tt)
        (Array.init (Ck.Netlist.size nl) Fun.id))

let test_tsim_extra_delay_propagates () =
  let nl = c17_prim () in
  (* input 1 falls with 3 and 6 steady-1 and 2 steady-1: 11 = NAND(3,6) = 0
     makes 16 = 1, so 22 = NAND(10, 16) responds to 10's rise *)
  let vec = [| (true, false); (true, true); (true, true); (true, true); (false, false) |] in
  let id s = Option.get (Ck.Netlist.find nl s) in
  let base = TS.simulate ~library:(Lazy.force lib) ~model:DM.proposed nl vec in
  let shifted =
    TS.simulate
      ~extra_delay:(fun i -> if i = id "10" then 100e-12 else 0.)
      ~library:(Lazy.force lib) ~model:DM.proposed nl vec
  in
  match (TS.event base (id "22"), TS.event shifted (id "22")) with
  | Some b, Some s ->
    Alcotest.(check bool) "delay propagates downstream" true
      (s.Types.e_arr -. b.Types.e_arr > 50e-12)
  | _ -> Alcotest.fail "expected events at output 22"

let test_tsim_po_latest () =
  let nl = c17_prim () in
  let vec = [| (true, false); (true, true); (true, true); (true, true); (false, false) |] in
  let lines = TS.simulate ~library:(Lazy.force lib) ~model:DM.proposed nl vec in
  (match TS.po_latest nl lines with
  | Some t -> Alcotest.(check bool) "positive" true (t > 0.)
  | None -> Alcotest.fail "expected a switching PO");
  (* all-steady vector: no PO event *)
  let steady = Array.map (fun (a, _) -> (a, a)) vec in
  let lines2 = TS.simulate ~library:(Lazy.force lib) ~model:DM.proposed nl steady in
  Alcotest.(check bool) "no events" true (TS.po_latest nl lines2 = None)

(* bitwise equality of one line of two stores: frames, event presence,
   arrival and transition time *)
let line_beq a b i =
  TS.v1 a i = TS.v1 b i
  && TS.v2 a i = TS.v2 b i
  &&
  match (TS.event a i, TS.event b i) with
  | None, None -> true
  | Some ea, Some eb ->
    beq ea.Types.e_arr eb.Types.e_arr && beq ea.Types.e_tt eb.Types.e_tt
  | _, _ -> false

let lines_beq nl a b =
  let ok = ref true in
  for i = 0 to Ck.Netlist.size nl - 1 do
    if not (line_beq a b i) then ok := false
  done;
  !ok

let prop_resim_bit_identical =
  (* the incremental re-simulation's whole contract: re-timing the
     victim's moved events on top of the fault-free baseline reproduces
     the full simulation bit for bit.  Every case draws a vector pair on
     c17 or a random primitive netlist and checks, at a negative, a zero
     and a positive delta, a PI, a PO, a line with no event and a random
     line as the victim; a fresh store is returned, the baseline is not
     mutated, and every line outside the victim's transitive fanout keeps
     its fault-free record *)
  QCheck.Test.make ~name:"resimulate bit-identical to full simulate"
    ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let nl =
        if seed mod 4 = 0 then c17_prim ()
        else
          Ck.Decompose.to_primitive
            (Ck.Generator.generate
               {
                 Ck.Generator.default_params with
                 Ck.Generator.g_name = "resim";
                 n_inputs = 6;
                 n_outputs = 3;
                 n_gates = 20 + Rng.int rng 30;
                 seed = Int64.of_int (seed + 1);
               })
      in
      let lib = Lazy.force lib in
      let n = Ck.Netlist.size nl in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let npi = List.length (Ck.Netlist.inputs nl) in
      let vec = Array.init npi (fun _ -> (Rng.bool rng, Rng.bool rng)) in
      let base = TS.simulate ~library:lib ~model:DM.proposed nl vec in
      let static =
        List.filter (fun i -> not (TS.has_event base i)) (List.init n Fun.id)
      in
      let victims =
        [ pick (Ck.Netlist.inputs nl); pick (Ck.Netlist.outputs nl);
          Rng.int rng n ]
        @ (if static = [] then [] else [ pick static ])
      in
      let deltas =
        [ -.Rng.float_range rng 10e-12 200e-12; 0.;
          Rng.float_range rng 10e-12 200e-12 ]
      in
      let case victim delta =
        let full =
          TS.simulate
            ~extra_delay:(fun i -> if i = victim then delta else 0.)
            ~library:lib ~model:DM.proposed nl vec
        in
        let inc =
          TS.resimulate ~library:lib ~model:DM.proposed nl ~base ~line:victim
            ~delta
        in
        let reach = Array.make n false in
        reach.(victim) <- true;
        List.iter (fun j -> reach.(j) <- true)
          (Ck.Netlist.transitive_fanout nl victim);
        let outside_kept = ref true in
        for i = 0 to n - 1 do
          if (not reach.(i)) && not (line_beq inc base i) then
            outside_kept := false
        done;
        inc != base && lines_beq nl full inc && !outside_kept
      in
      List.for_all
        (fun victim -> List.for_all (case victim) deltas)
        victims
      && (* and the fault-free baseline was never mutated *)
      lines_beq nl base (TS.simulate ~library:lib ~model:DM.proposed nl vec))

let test_resim_out_of_cone_preserved () =
  (* lines outside the victim's transitive fanout must keep the
     fault-free values verbatim, and the scratch store must be fresh (the
     baseline stays unmutated) *)
  let nl = c17_prim () in
  let lib = Lazy.force lib in
  let vec = [| (true, false); (true, true); (true, true); (true, true); (false, false) |] in
  let base = TS.simulate ~library:lib ~model:DM.proposed nl vec in
  let victim = Option.get (Ck.Netlist.find nl "10") in
  let reach = victim :: Ck.Netlist.transitive_fanout nl victim in
  let inc =
    TS.resimulate ~library:lib ~model:DM.proposed nl ~base ~line:victim
      ~delta:100e-12
  in
  Alcotest.(check bool) "fresh store" true (inc != base);
  Alcotest.(check bool) "the victim's event moved" false
    (line_beq inc base victim);
  for i = 0 to Ck.Netlist.size nl - 1 do
    if not (List.mem i reach) then
      Alcotest.(check bool)
        (Printf.sprintf "line %d keeps the fault-free record" i)
        true (line_beq inc base i)
  done

let test_resim_rejects_bad_arguments () =
  let nl = c17_prim () in
  let lib = Lazy.force lib in
  let vec = Array.make 5 (false, true) in
  let base = TS.simulate ~library:lib ~model:DM.proposed nl vec in
  let n = Ck.Netlist.size nl in
  let other =
    let g =
      Ck.Generator.generate
        { Ck.Generator.default_params with
          Ck.Generator.n_inputs = 5; n_gates = 30 }
    in
    TS.simulate ~library:lib ~model:DM.proposed (Ck.Decompose.to_primitive g)
      vec
  in
  List.iter
    (fun (what, base, line, delta) ->
      match
        TS.resimulate ~library:lib ~model:DM.proposed nl ~base ~line ~delta
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: accepted" what)
    [ ("line -1", base, -1, 50e-12);
      ("line = size", base, n, 50e-12);
      ("nan delta", base, 0, Float.nan);
      ("infinite delta", base, 0, Float.infinity);
      ("negative infinite delta", base, 0, Float.neg_infinity);
      ("empty base", TS.empty, 0, 50e-12);
      ("base of another netlist", other, 0, 50e-12) ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---------- the production kernel vs the closure reference ---------- *)

(* [analyze_with] evaluates both registry models through the flat
   batched kernel at K = 1; every hook it offers must leave that pass
   bit-identical to the closure walk, whatever the lane count and with
   telemetry on *)
let prop_production_matches_reference =
  QCheck.Test.make
    ~name:
      "production pass == closure reference (pi_spec, extra_delay, \
       pi_override; jobs 1, 4; traced; both models)"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let lib = Lazy.force lib in
      let nl =
        Ck.Decompose.to_primitive
          (Ck.Generator.generate
             {
               Ck.Generator.default_params with
               Ck.Generator.g_name = "prod";
               n_inputs = 12;
               n_outputs = 6;
               n_gates = 150 + Rng.int rng 150;
               seed = Int64.of_int (seed + 3);
             })
      in
      let spec () =
        let a = Rng.float_range rng (-0.1e-9) 0.2e-9 in
        let t = Rng.float_range rng 0.05e-9 0.3e-9 in
        {
          Sta.pi_arrival = Interval.make a (a +. Rng.float_range rng 0. 0.2e-9);
          pi_tt = Interval.make t (t +. Rng.float_range rng 0. 0.3e-9);
        }
      in
      let pi_spec = spec () in
      let n = Ck.Netlist.size nl in
      let extras =
        Array.init n (fun _ ->
            match Rng.int rng 5 with
            | 0 -> Rng.float_range rng 5e-12 150e-12
            | 1 -> -.Rng.float_range rng 5e-12 50e-12
            | 2 -> -0.
            | _ -> 0.)
      in
      let overrides =
        Array.init n (fun i ->
            if Ck.Netlist.is_pi nl i && Rng.bool rng then Some (spec ())
            else None)
      in
      let extra_delay i = extras.(i) and pi_override i = overrides.(i) in
      List.for_all
        (fun model ->
          let reference =
            analyze_reference ~extra_delay ~pi_override ~model
              (RO.make ~pi_spec ()) ~library:lib nl
          in
          List.for_all
            (fun (jobs, traced) ->
              let obs = if traced then Obs.create () else Obs.disabled in
              sta_beq reference
                (Sta.analyze_with ~extra_delay ~pi_override
                   (RO.make ~jobs ~obs ~pi_spec ())
                   ~library:lib ~model nl))
            [ (1, false); (1, true); (4, false); (4, true) ])
        [ DM.proposed; DM.pin_to_pin ])

(* Minor words per node of one call, after a warm-up call.  The flat
   kernel allocates nothing per gate and the closure walk allocates
   closures, lists and records for every corner candidate, so these
   bounds tell the two apart on any host. *)
let words_per_node nl f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. w0) /. float_of_int (Ck.Netlist.size nl)

(* Minor plus direct-major words per node of one call, after a warm-up
   call: blocks over 256 words skip the minor heap, so
   [major_words - promoted_words] counts them.  OCaml 5 aggregates the
   major-heap counters lazily, so each reading follows a
   [Gc.full_major]. *)
let all_words_per_node nl f =
  ignore (Sys.opaque_identity (f ()));
  let words () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  (words () -. w0) /. float_of_int (Ck.Netlist.size nl)

let test_allocation_guard () =
  let lib = Lazy.force lib in
  List.iter
    (fun name ->
      let nl =
        Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name name))
      in
      let check what ok v =
        if not ok then Alcotest.failf "%s %s: %.1f minor words per node" name what v
      in
      let production =
        words_per_node nl (fun () ->
            Sta.analyze_with RO.default ~library:lib ~model:DM.proposed nl)
      in
      check "production pass (want <= 64)" (production <= 64.) production;
      let engine =
        words_per_node nl (fun () ->
            E.create ~library:lib ~model:DM.proposed nl)
      in
      check "Engine.create (want <= 128)" (engine <= 128.) engine;
      let reference =
        words_per_node nl (fun () -> analyze_reference RO.default ~library:lib nl)
      in
      check "closure reference (want >= 500)" (reference >= 500.) reference;
      (* the pin-to-pin pass and ITR's opening pass run the same kernel;
         these rows count direct-major words too *)
      let check_all what f =
        let v = all_words_per_node nl f in
        if v > 64. then
          Alcotest.failf "%s %s: %.1f minor + direct-major words per node \
                          (want <= 64)" name what v
      in
      check_all "pin-to-pin pass" (fun () ->
          Sta.analyze_with RO.default ~library:lib ~model:DM.pin_to_pin nl);
      List.iter
        (fun model ->
          check_all (model.DM.name ^ " Itr.create") (fun () ->
              Ssd_itr.Itr.create ~library:lib ~model nl))
        [ DM.proposed; DM.pin_to_pin ];
      (* the sign-off read at a clock with no violations *)
      let t = Sta.analyze_with RO.default ~library:lib ~model:DM.proposed nl in
      let clock_period = 2. *. Sta.max_delay t in
      let signoff =
        words_per_node nl (fun () ->
            Sta.violations t (Sta.compute_required t ~clock_period))
      in
      check "required + violations (want <= 16)" (signoff <= 16.) signoff;
      let oracle =
        words_per_node nl (fun () ->
            violations t (compute_required t ~clock_period))
      in
      check "record-array oracle (want >= 400)" (oracle >= 400.) oracle)
    [ "c880s"; "c7552s" ]

let test_rejects_invalid_specs () =
  let nl = c17_prim () in
  let lib = Lazy.force lib in
  let pi0 = List.hd (Ck.Netlist.inputs nl) in
  let unbounded =
    { Sta.pi_arrival = Interval.make neg_infinity infinity;
      pi_tt = Sta.default_pi_spec.Sta.pi_tt }
  in
  let negative_tt =
    { Sta.pi_arrival = Interval.point 0.; pi_tt = Interval.make (-1e-12) 1e-10 }
  in
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  List.iter
    (fun model ->
      let run ?extra_delay ?pi_override opts () =
        Sta.analyze_with ?extra_delay ?pi_override opts ~library:lib ~model nl
      in
      let name = model.DM.name in
      List.iter
        (fun (tag, spec) ->
          (* a hand-built record bypasses [Run_opts.make]'s validation *)
          rejects (name ^ " opts.pi_spec " ^ tag)
            (run { RO.default with RO.pi_spec = spec });
          rejects (name ^ " pi_override " ^ tag)
            (run ~pi_override:(fun i -> if i = pi0 then Some spec else None)
               RO.default))
        [ ("unbounded", unbounded); ("negative tt", negative_tt) ];
      List.iter
        (fun x ->
          rejects (Printf.sprintf "%s extra delay %g" name x)
            (run ~extra_delay:(fun i -> if i = pi0 then x else 0.) RO.default))
        [ Float.nan; infinity ])
    [ DM.proposed; DM.pin_to_pin ];
  (* the corner sweeps run the same kernel and check the same rule *)
  let module CS = Ssd_sta.Corner_sta in
  let opts = { RO.default with RO.pi_spec = unbounded } in
  rejects "Corner_sta.analyze opts.pi_spec" (fun () ->
      CS.analyze ~opts ~table:(Ssd_cell.Corners.build lib) nl);
  rejects "Corner_sta.monte_carlo opts.pi_spec" (fun () ->
      CS.monte_carlo ~opts ~samples:2 ~seed:1L ~library:lib nl)

let suites =
  [
    ( "sta.forward",
      [
        Alcotest.test_case "c17 windows" `Slow test_sta_c17_basic;
        Alcotest.test_case "models agree on max" `Slow
          test_sta_models_agree_on_max;
        Alcotest.test_case "rejects non-primitive" `Slow
          test_sta_rejects_non_primitive;
        Alcotest.test_case "rejects windowless model" `Slow
          test_sta_rejects_windowless_model;
        Alcotest.test_case "pi spec effect" `Slow test_sta_pi_spec_effect;
      ] );
    ( "sta.parallel",
      [
        Alcotest.test_case "bit-identical" `Slow test_sta_parallel_deterministic;
        Alcotest.test_case "jobs auto" `Slow test_sta_jobs_auto;
        Alcotest.test_case "pool basics" `Quick test_par_pool_basics;
      ] );
    ( "sta.required",
      [
        Alcotest.test_case "violations" `Slow test_sta_required_and_violations;
        Alcotest.test_case "backward monotone" `Slow
          test_sta_required_monotone_backward;
        Alcotest.test_case "hold side matches oracle" `Slow
          test_required_hold_side;
        Alcotest.test_case "K=4 planes match oracle" `Slow
          test_required_corner_planes;
        Alcotest.test_case "rejects bad clock periods" `Quick
          test_required_rejects_bad_clock;
        Alcotest.test_case "ssd sta --clock boundary" `Slow
          test_cli_clock_boundary;
        Alcotest.test_case "ssd sta .bench boundary" `Slow
          test_cli_bench_boundary;
        Alcotest.test_case "violations rejects another netlist" `Quick
          test_violations_rejects_other_netlist;
        Alcotest.test_case "violations at the slack boundary" `Quick
          test_violations_slack_boundary;
      ] );
    qsuite "sta.required.props" [ prop_required_matches_oracle ];
    ( "sta.tsim",
      [
        Alcotest.test_case "logic matches" `Slow test_tsim_logic_matches_boolean;
        Alcotest.test_case "extra delay propagates" `Slow
          test_tsim_extra_delay_propagates;
        Alcotest.test_case "po latest" `Slow test_tsim_po_latest;
      ] );
    ( "sta.tsim.cone",
      [
        Alcotest.test_case "out-of-cone lines keep baseline" `Slow
          test_resim_out_of_cone_preserved;
        Alcotest.test_case "resimulate rejects bad arguments" `Quick
          test_resim_rejects_bad_arguments;
      ] );
    qsuite "sta.tsim.props"
      [ prop_tsim_within_sta_windows; prop_resim_bit_identical ];
    ( "sta.kernel",
      [
        Alcotest.test_case "allocation guard" `Slow test_allocation_guard;
        Alcotest.test_case "rejects invalid specs" `Quick
          test_rejects_invalid_specs;
      ] );
    qsuite "sta.kernel.props" [ prop_production_matches_reference ];
  ]
