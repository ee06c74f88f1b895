(* Crosstalk-delay-fault test generation (the paper's Section 7 flow):
   extract coupled line pairs, generate two-pattern tests with the
   implication + ITR search, and independently verify every generated test
   by timing simulation.

     dune exec examples/atpg_crosstalk.exe *)

module Ck = Ssd_circuit
module A = Ssd_atpg
module Sta = Ssd_sta.Sta
module RO = Ssd_sta.Run_opts
module DM = Ssd_core.Delay_model
module Charlib = Ssd_cell.Charlib

let () =
  let library = Charlib.default () in
  let nl =
    Ck.Decompose.to_primitive (Option.get (Ck.Benchmarks.by_name "c880s"))
  in
  let sta = Sta.analyze_with RO.default ~library ~model:DM.proposed nl in
  let clock = Sta.max_delay sta in
  Printf.printf "%s, clock period %.3f ns\n%!" (Ck.Netlist.stats nl)
    (clock *. 1e9);

  let sites =
    A.Fault.extract_screened ~count:10 ~seed:99L ~library ~model:DM.proposed nl
  in
  Printf.printf "extracted %d crosstalk fault sites\n%!" (List.length sites);

  let cfg = A.Atpg.default_config ~clock_period:clock in
  let results, stats =
    A.Atpg.run_with RO.default cfg ~library ~model:DM.proposed nl sites
  in
  List.iter
    (fun r ->
      Printf.printf "%-55s " (A.Fault.describe nl r.A.Atpg.site);
      match r.A.Atpg.outcome with
      | A.Atpg.Detected vector ->
        let ok =
          A.Atpg.verify_detection cfg ~library ~model:DM.proposed nl
            r.A.Atpg.site vector
        in
        Printf.printf "DETECTED (re-verified: %b)\n" ok
      | A.Atpg.Undetectable -> print_endline "undetectable (proven)"
      | A.Atpg.Aborted -> print_endline "aborted (budget)")
    results;
  Printf.printf "\nefficiency: %.2f%% (detected %d + undetectable %d of %d)\n"
    (A.Atpg.efficiency stats) stats.A.Atpg.detected stats.A.Atpg.undetectable
    stats.A.Atpg.total
