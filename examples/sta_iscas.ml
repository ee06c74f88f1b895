(* Static timing analysis over the ISCAS85-style benchmark suite with both
   window-capable models — the paper's Table 2 workload — plus a
   required-time / violation check on c17.

     dune exec examples/sta_iscas.exe *)

module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module RO = Ssd_sta.Run_opts
module DM = Ssd_core.Delay_model
module Charlib = Ssd_cell.Charlib
module Texttab = Ssd_util.Texttab

let () =
  let library = Charlib.default () in
  let t = Texttab.create
      ~header:[ "circuit"; "model"; "min (ns)"; "max (ns)"; "gates" ]
  in
  List.iter
    (fun nl ->
      let prim = Ck.Decompose.to_primitive nl in
      List.iter
        (fun model ->
          let sta = Sta.analyze_with RO.default ~library ~model prim in
          Texttab.add_row t
            [
              Ck.Netlist.name nl;
              model.DM.name;
              Printf.sprintf "%.3f" (Sta.min_delay sta *. 1e9);
              Printf.sprintf "%.3f" (Sta.max_delay sta *. 1e9);
              string_of_int (Ck.Netlist.gate_count prim);
            ])
        [ DM.pin_to_pin; DM.proposed ];
      Texttab.add_separator t)
    (Ck.Benchmarks.table2_suite ());
  Texttab.print t;

  (* required times and hold/setup violations on c17 *)
  let c17 = Ck.Decompose.to_primitive (Ck.Benchmarks.c17 ()) in
  let sta = Sta.analyze_with RO.default ~library ~model:DM.proposed c17 in
  let clock = 0.9 *. Sta.max_delay sta in
  let required = Sta.compute_required sta ~clock_period:clock in
  let violations = Sta.violations sta required in
  Printf.printf "\nc17 at clock %.3f ns: %d violation(s)\n" (clock *. 1e9)
    (List.length violations);
  List.iter (fun (_, msg) -> Printf.printf "  %s\n" msg) violations
