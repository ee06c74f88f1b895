module Types = Ssd_core.Types
module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module Interval = Ssd_util.Interval
module Texttab = Ssd_util.Texttab

open Cmdliner
open Cli_common

let clock_t =
  Arg.(value & opt (some float) None
       & info [ "clock" ] ~docv:"NS"
           ~doc:"Clock period in ns for the required-time check: a finite \
                 number >= 0 (anything else exits with status 2).")

let run common fine model file clock =
  (* an input boundary: a bad period is rejected before any work *)
  Option.iter
    (fun ns ->
      match Sta.validate_clock_period ns with
      | Ok _ -> ()
      | Error m ->
        Printf.eprintf "ssd: --clock: %s\n" m;
        exit 2)
    clock;
  let obs = setup_common common in
  let lib = library_of fine in
  let nl = Ck.Decompose.to_primitive (load_netlist file) in
  let t = Sta.analyze_with (run_opts_of common obs) ~library:lib ~model nl in
  print_endline (Sta.summary t);
  let table = Texttab.create ~header:[ "PO"; "rise A (ns)"; "fall A (ns)" ] in
  List.iter
    (fun po ->
      let lt = Sta.timing t po in
      Texttab.add_row table
        [
          Ck.Netlist.signal_name nl po;
          Interval.to_string
            (Interval.make
               (Interval.lo lt.Sta.rise.Types.w_arr *. 1e9)
               (Interval.hi lt.Sta.rise.Types.w_arr *. 1e9));
          Interval.to_string
            (Interval.make
               (Interval.lo lt.Sta.fall.Types.w_arr *. 1e9)
               (Interval.hi lt.Sta.fall.Types.w_arr *. 1e9));
        ])
    (Ck.Netlist.outputs nl);
  Texttab.print table;
  (match clock with
  | None -> ()
  | Some ns ->
    let q = Sta.compute_required t ~clock_period:(ns *. 1e-9) in
    let v = Sta.violations t q in
    Printf.printf "%d timing violation(s) at clock %.3f ns\n"
      (List.length v) ns;
    List.iter (fun (_, msg) -> Printf.printf "  %s\n" msg) v);
  finish_common common obs;
  0

let cmd =
  Cmd.v (Cmd.info "sta" ~doc:"Static timing analysis of a netlist")
    Term.(const run $ common_t $ fine_t $ model_t $ bench_file_t $ clock_t)
