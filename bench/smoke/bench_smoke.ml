(* Smoke test for the bench harness's engine-comparison loops: runs the
   same sequential / parallel STA configurations parsta times, and the
   whole-circuit reference / incremental / parallel fault simulations
   faultsim times, on a circuit small enough for `dune runtest`, and
   checks the bit-identical contracts.  Catches wiring regressions (pool
   lifecycle, re-simulation frontier) without the cost of the full
   experiment run. *)

module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module RO = Ssd_sta.Run_opts
module A = Ssd_atpg
module DM = Ssd_core.Delay_model
module Charlib = Ssd_cell.Charlib
module Interval = Ssd_util.Interval
module Json = Ssd_util.Json
module Obs = Ssd_obs.Obs

open Test_support

let () =
  let lib = Charlib.default ~profile:Charlib.coarse () in
  let nl = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ()) in
  let run ?(obs = Obs.disabled) jobs =
    Sta.analyze_with (RO.make ~jobs ~obs ()) ~library:lib ~model:DM.proposed nl
  in
  let base = run 1 in
  if not (sta_beq base (analyze_reference RO.default ~library:lib nl)) then begin
    Printf.eprintf "bench smoke: production pass differs from the closure reference\n";
    exit 1
  end;
  if not (sta_beq base (run 4)) then begin
    Printf.eprintf "bench smoke: par differs from sequential baseline\n";
    exit 1
  end;
  if not (Sta.max_delay base > 0.) then begin
    Printf.eprintf "bench smoke: non-positive max delay\n";
    exit 1
  end;
  (* faultsim loop: the incremental simulator, sequential and parallel,
     must give the whole-circuit reference's detection sets on c17 *)
  let sites =
    A.Fault.extract ~count:16 ~delta:60e-12 ~align_window:2500e-12
      ~seed:7L nl
  in
  let vectors = A.Fault_sim.random_vectors ~seed:3L ~count:32 nl in
  let fs ~jobs =
    A.Fault_sim.simulate_with (RO.make ~jobs ()) ~library:lib
      ~model:DM.proposed ~clock_period:(Sta.max_delay base) nl sites vectors
  in
  let fbase =
    fault_sim_reference ~library:lib ~model:DM.proposed
      ~clock_period:(Sta.max_delay base) nl sites vectors
  in
  List.iter
    (fun (tag, r) ->
      if
        r.A.Fault_sim.detected <> fbase.A.Fault_sim.detected
        || r.A.Fault_sim.undetected <> fbase.A.Fault_sim.undetected
        || r.A.Fault_sim.coverage <> fbase.A.Fault_sim.coverage
      then begin
        Printf.eprintf
          "bench smoke: faultsim %s differs from the reference\n" tag;
        exit 1
      end)
    [ ("j1", fs ~jobs:1); ("j4", fs ~jobs:4) ];
  if sites <> [] && fbase.A.Fault_sim.detected = [] then
    (* not fatal — random vectors may miss every site — but the identity
       check above would then be vacuous, so surface it *)
    Printf.eprintf "bench smoke: note: no site detected on c17\n";
  (* window screen: the STA-window pre-screen discards sites on windows
     alone; by its soundness argument it must never change the result *)
  let fscreen ~window_screen =
    A.Fault_sim.simulate_with ~window_screen RO.default
      ~library:lib ~model:DM.proposed ~clock_period:(Sta.max_delay base) nl
      sites vectors
  in
  let f_on = fscreen ~window_screen:true
  and f_off = fscreen ~window_screen:false in
  if
    f_on.A.Fault_sim.detected <> fbase.A.Fault_sim.detected
    || f_off.A.Fault_sim.detected <> fbase.A.Fault_sim.detected
    || f_on.A.Fault_sim.undetected <> fbase.A.Fault_sim.undetected
  then begin
    Printf.eprintf
      "bench smoke: window screen on/off changes the detection result\n";
    exit 1
  end;
  (* eco engine loop: every edit kind on c17, each checked bit-identical
     to a fresh closure-walk analysis of the edited circuit (and to the
     engine's own [reanalyze]), then a checkpointed revert back to the
     bit-exact base *)
  let module E = Ssd_sta.Engine in
  E.with_engine ~library:lib ~model:DM.proposed nl (fun eng ->
      let engine_equals_reference tag =
        let reference = engine_reference ~library:lib eng in
        let ok = ref (sta_beq reference (E.reanalyze eng)) in
        for i = 0 to Ck.Netlist.size nl - 1 do
          if not (lt_beq (E.timing eng i) (Sta.timing reference i)) then
            ok := false
        done;
        if not !ok then begin
          Printf.eprintf
            "bench smoke: engine differs from re-analysis after %s\n" tag;
          exit 1
        end
      in
      let some_pi = List.hd (Ck.Netlist.inputs nl) in
      let some_gate =
        List.find
          (fun i ->
            (not (Ck.Netlist.is_pi nl i)) && Ck.Netlist.fanin_count nl i = 2)
          (List.init (Ck.Netlist.size nl) Fun.id)
      in
      let cp = E.checkpoint eng in
      List.iter
        (fun (tag, edit) ->
          E.apply eng edit;
          engine_equals_reference tag)
        [
          ("set_extra_delay",
           E.Set_extra_delay { line = some_gate; delta = 40e-12 });
          ("swap_gate", E.Swap_gate { node = some_gate; kind = Ck.Gate.Nor });
          ("set_pi_spec",
           E.Set_pi_spec
             {
               pi = some_pi;
               spec =
                 {
                   RO.pi_arrival = Interval.make 0. 0.1e-9;
                   pi_tt = Interval.make 0.2e-9 0.4e-9;
                 };
             });
          ("set_model", E.Set_model DM.pin_to_pin);
        ];
      E.revert eng cp;
      engine_equals_reference "revert";
      if not (sta_beq base (E.reanalyze eng)) then begin
        Printf.eprintf "bench smoke: reverted engine is not the base\n";
        exit 1
      end);
  (* scale loop, downsized: the packed structure-of-arrays STA path must
     reproduce the seed record-array oracle bit for bit — sequentially
     and in parallel — on a layered generated circuit *)
  let scale_nl =
    Ck.Decompose.to_primitive
      (Ck.Generator.generate
         {
           Ck.Generator.default_params with
           Ck.Generator.g_name = "smoke-scale";
           n_inputs = 32;
           n_outputs = 16;
           n_gates = 3_000;
           locality = 256;
           seed = 11L;
           shape = Ck.Generator.Layered { layers = 30 };
         })
  in
  let oracle = analyze_ref ~library:lib ~model:DM.proposed scale_nl in
  List.iter
    (fun jobs ->
      let t =
        Sta.analyze_with (RO.make ~jobs ()) ~library:lib ~model:DM.proposed
          scale_nl
      in
      let w = Sta.windows t in
      for i = 0 to Ck.Netlist.size scale_nl - 1 do
        if
          not
            (Ssd_sta.Windows.eq w i ~rise:oracle.(i).Sta.rise
               ~fall:oracle.(i).Sta.fall)
        then begin
          Printf.eprintf
            "bench smoke: scale jobs=%d node %d differs from the oracle\n"
            jobs i;
          exit 1
        end
      done)
    [ 1; 4 ];
  (* corners loop, downsized: every plane of one batched K-corner sweep
     must equal an independent closure-walk analysis over that corner's
     derated library, bit for bit, sequentially and in parallel (K=3
     exercises a partial chunk of the corner-chunked parallel path) *)
  let module CS = Ssd_sta.Corner_sta in
  let module Corners = Ssd_cell.Corners in
  let ck = 3 in
  let table = Corners.build ~specs:(Corners.default_specs ck) lib in
  List.iter
    (fun jobs ->
      let batched =
        CS.analyze ~opts:(RO.make ~jobs ()) ~table scale_nl
      in
      for c = 0 to ck - 1 do
        let scalar =
          analyze_reference RO.default ~library:(Corners.library table c)
            scale_nl
        in
        if not (CS.plane_matches batched ~corner:c scalar) then begin
          Printf.eprintf
            "bench smoke: corners jobs=%d plane %d differs from its scalar \
             analysis\n"
            jobs c;
          exit 1
        end
      done)
    [ 1; 4 ];
  (* monte-carlo loop, downsized: the chunked batched-kernel sampler must
     reproduce a closure-walk analysis of every sample bit for bit, sequentially
     and in parallel (samples=7 with batch=3 exercises a tail chunk) *)
  let mc_samples = 7 and mc_seed = 4242L in
  let mc_refs =
    Array.map
      (fun spec ->
        analyze_reference RO.default
          ~library:(Corners.derate_library spec lib) scale_nl)
      (Array.of_list (Corners.sample_specs ~seed:mc_seed mc_samples))
  in
  List.iter
    (fun jobs ->
      let mc =
        CS.monte_carlo
          ~opts:(RO.make ~jobs ~mc_batch:3 ())
          ~samples:mc_samples ~seed:mc_seed ~library:lib scale_nl
      in
      Array.iteri
        (fun s sta ->
          if not (CS.sample_matches mc ~sample:s sta) then begin
            Printf.eprintf
              "bench smoke: monte-carlo jobs=%d sample %d differs from its \
               scalar analysis\n"
              jobs s;
            exit 1
          end)
        mc_refs)
    [ 1; 4 ];
  (* telemetry loop: run one instrumented --stats/--trace style pass,
     write the Chrome trace, parse it back, and check the span tree
     covers every STA level exactly once (one "sta.level.<l>" complete
     event per level) — the contract `ssd sta --trace` exposes *)
  let obs = Obs.create ~trace:true () in
  let traced = run ~obs 4 in
  if not (sta_beq base traced) then begin
    Printf.eprintf "bench smoke: instrumented run differs from baseline\n";
    exit 1
  end;
  if Obs.report obs = "" then begin
    Printf.eprintf "bench smoke: empty telemetry report\n";
    exit 1
  end;
  let path = Filename.temp_file "ssd_smoke_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.write_trace obs path;
      let contents =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Json.parse contents with
      | Error msg ->
        Printf.eprintf "bench smoke: trace is not valid JSON: %s\n" msg;
        exit 1
      | Ok json ->
        let events =
          match Json.member "traceEvents" json with
          | Some evs -> Json.to_list evs
          | None ->
            Printf.eprintf "bench smoke: trace lacks traceEvents\n";
            exit 1
        in
        let name_of e =
          match Json.member "name" e with
          | Some n -> Json.string_value n
          | None -> None
        in
        let complete_named n =
          List.length
            (List.filter
               (fun e ->
                 (match Json.member "ph" e with
                 | Some p -> Json.string_value p = Some "X"
                 | None -> false)
                 && name_of e = Some n)
               events)
        in
        let levels = Array.length (Ck.Netlist.levels nl) in
        for l = 0 to levels - 1 do
          let n = complete_named (Printf.sprintf "sta.level.%d" l) in
          if n <> 1 then begin
            Printf.eprintf
              "bench smoke: level %d has %d trace span(s), want exactly 1\n"
              l n;
            exit 1
          end
        done);
  (* snapshot surface: the same instrumented run exports a typed
     snapshot with a span forest, whose JSON serialisation parses back
     and whose Prometheus exposition names the gate counter *)
  let sn = Obs.snapshot obs in
  if sn.Obs.sn_spans = [] then begin
    Printf.eprintf "bench smoke: snapshot has no span forest\n";
    exit 1
  end;
  (match Json.parse (Json.to_string (Obs.snapshot_to_json sn)) with
  | Error msg ->
    Printf.eprintf "bench smoke: snapshot JSON does not parse: %s\n" msg;
    exit 1
  | Ok _ -> ());
  let prom = Obs.to_prometheus sn in
  let contains r s =
    let nr = String.length r and ns = String.length s in
    let rec go i = i + ns <= nr && (String.sub r i ns = s || go (i + 1)) in
    go 0
  in
  if not (contains prom "ssd_sta_gates_total") then begin
    Printf.eprintf "bench smoke: exposition lacks ssd_sta_gates_total\n";
    exit 1
  end;
  (* serve loop: the daemon dispatcher must produce byte-identical
     response streams whether cross-session batches run on one lane or
     four — the wiring contract behind `ssd serve --jobs` (the protocol
     and session semantics themselves are covered by test_serve) *)
  let module Server = Ssd_serve.Server in
  let module P = Ssd_serve.Protocol in
  let script =
    [
      {|{"v":1,"id":1,"op":"open","session":"a","circuit":"c17"}|};
      {|{"v":1,"id":2,"op":"open","session":"b","circuit":"c17"}|};
      {|{"v":1,"id":3,"op":"checkpoint","session":"a"}|};
      {|{"v":1,"id":4,"op":"edit","session":"a","edits":[{"op":"extra","signal":"11","delta":3e-11}]}|};
      {|{"v":1,"id":5,"op":"query","session":"b","what":"po_window"}|};
      {|{"v":1,"id":6,"op":"query","session":"a","what":"po_window"}|};
      {|{"v":1,"id":7,"op":"query","session":"a","what":"timing","signal":"22"}|};
      {|{"v":1,"id":8,"op":"revert","checkpoint":1,"session":"a"}|};
      {|{"v":1,"id":9,"op":"query","session":"a","what":"po_window"}|};
      {|{"v":1,"id":10,"op":"ping"}|};
    ]
  in
  let run_script jobs =
    let sv =
      Server.create
        { (Server.default_config ~library:lib) with Server.sv_jobs = jobs }
    in
    Fun.protect
      ~finally:(fun () -> Server.close sv)
      (fun () -> Server.dispatch_batch sv script)
  in
  let serve_seq = run_script 1 and serve_par = run_script 4 in
  if serve_seq <> serve_par then begin
    Printf.eprintf
      "bench smoke: serve responses differ between jobs 1 and jobs 4\n";
    exit 1
  end;
  List.iter2
    (fun req resp ->
      match Json.parse resp with
      | Ok j when P.response_ok j -> ()
      | _ ->
        Printf.eprintf "bench smoke: serve request failed: %s -> %s\n" req
          resp;
        exit 1)
    script serve_seq;
  (* the two sessions hold independent engines: a's edit must move a's
     PO windows away from b's shared baseline, and a's revert must put
     them back (ids differ, so compare the parsed ok bodies) *)
  let ok_body i =
    match Json.parse (List.nth serve_seq i) with
    | Ok j -> Json.member "ok" j
    | Error _ ->
      Printf.eprintf "bench smoke: serve response %d does not parse\n" i;
      exit 1
  in
  let b_base = ok_body 4 and a_edited = ok_body 5 and a_reverted = ok_body 8 in
  if b_base = a_edited then begin
    Printf.eprintf "bench smoke: serve edit did not move session a\n";
    exit 1
  end;
  if a_reverted <> b_base then begin
    Printf.eprintf
      "bench smoke: serve revert did not restore the baseline windows\n";
    exit 1
  end;
  print_endline "bench smoke: ok"
