module Corners = Ssd_cell.Corners
module Ck = Ssd_circuit
module Sta = Ssd_sta.Sta
module Corner_sta = Ssd_sta.Corner_sta
module Run_opts = Ssd_sta.Run_opts

open Cmdliner
open Cli_common

let k_t =
  Arg.(value & opt int 4 & info [ "corners" ] ~docv:"K"
         ~doc:"Number of process corners to spread across the derating \
               range (delay ±25%, transition ∓10%).")

let check_t =
  Arg.(value & flag & info [ "check" ]
       ~doc:"Re-run every corner as an independent single-corner analysis \
             over its derated library, through the scalar closure walk \
             rather than the batched kernel, and verify the batched plane \
             is bit-identical (exit 1 on the first mismatch).")

let run common fine file k check =
  let obs = setup_common common in
  if k < 2 then begin
    Printf.eprintf "ssd: --corners must be at least 2\n";
    exit 2
  end;
  let lib = library_of fine in
  let nl = Ck.Decompose.to_primitive (load_netlist file) in
  let table = Corners.build ~specs:(Corners.default_specs k) lib in
  let opts = Run_opts.make ~jobs:common.co_jobs ~obs ~corners:k () in
  let t = Corner_sta.analyze ~opts ~table nl in
  print_endline (Corner_sta.summary t);
  if check then begin
    for c = 0 to k - 1 do
      let scalar =
        Sta.analyze_with (Run_opts.make ())
          ~library:(Corners.library table c) ~model:check_model nl
      in
      if not (Corner_sta.plane_matches t ~corner:c scalar) then begin
        Printf.eprintf
          "ssd: corner %d plane differs from its scalar analysis\n" c;
        exit 1
      end
    done;
    Printf.printf
      "check: %d corner plane(s) bit-identical to independent scalar \
       analyses\n" k
  end;
  finish_common common obs;
  0

let cmd =
  Cmd.v
    (Cmd.info "corners"
       ~doc:"Batched multi-corner timing analysis (one sweep, K planes)")
    Term.(const run $ common_t $ fine_t $ bench_file_t $ k_t $ check_t)
