module Ck = Ssd_circuit
module Corner_sta = Ssd_sta.Corner_sta
module Corners = Ssd_cell.Corners
module Sta = Ssd_sta.Sta
module Run_opts = Ssd_sta.Run_opts
module Texttab = Ssd_util.Texttab

open Cmdliner
open Cli_common

let samples_t =
  Arg.(value & opt int 64 & info [ "samples" ] ~docv:"N"
         ~doc:"Number of Monte-Carlo corner samples.")

let seed_t =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Sampling seed.")

let batch_t =
  Arg.(value & opt int 16 & info [ "batch" ] ~docv:"K"
         ~doc:"Samples fitted and swept together per batched-kernel pass \
               (clamped to the sample count; never changes results).")

let check_t =
  Arg.(value & flag & info [ "check" ]
       ~doc:"Re-analyze every sample with the scalar STA over its derated \
             library, through the closure walk rather than the batched \
             kernel, and verify its PO delays and circuit max are \
             bit-identical (exit 1 on the first mismatch).")

let run common fine file samples seed batch check =
  let obs = setup_common common in
  if samples < 1 then begin
    Printf.eprintf "ssd: --samples must be at least 1\n";
    exit 2
  end;
  if batch < 1 then begin
    Printf.eprintf "ssd: --batch must be at least 1\n";
    exit 2
  end;
  let lib = library_of fine in
  let nl = Ck.Decompose.to_primitive (load_netlist file) in
  let opts = Run_opts.make ~jobs:common.co_jobs ~obs ~mc_batch:batch () in
  let res =
    Corner_sta.monte_carlo ~opts ~samples ~seed:(Int64.of_int seed)
      ~library:lib nl
  in
  if check then begin
    let ref_opts = run_opts_of common obs in
    Array.iteri
      (fun s spec ->
        let sta =
          Sta.analyze_with ref_opts
            ~library:(Corners.derate_library spec lib)
            ~model:check_model nl
        in
        if not (Corner_sta.sample_matches res ~sample:s sta) then begin
          Printf.eprintf "ssd: sample %d differs from its scalar analysis\n" s;
          exit 1
        end)
      res.Corner_sta.mc_specs;
    Printf.printf "check: %d sample(s) bit-identical to the scalar STA\n"
      samples
  end;
  let qs = [ 0.; 0.05; 0.5; 0.95; 1. ] in
  Printf.printf "%s: %d Monte-Carlo corner samples (seed %d)\n"
    (Ck.Netlist.stats nl) samples seed;
  let table =
    Texttab.create
      ~header:[ "PO"; "min (ns)"; "q5"; "median"; "q95"; "max (ns)" ]
  in
  let per_po = Corner_sta.mc_po_quantiles res qs in
  Array.iteri
    (fun pi po ->
      Texttab.add_row table
        (Ck.Netlist.signal_name nl po
        :: List.map
             (fun (_, v) -> Printf.sprintf "%.3f" (v *. 1e9))
             per_po.(pi)))
    res.Corner_sta.mc_pos;
  Texttab.print table;
  print_string "circuit max delay: ";
  List.iter
    (fun (q, v) -> Printf.printf " q%02.0f %.3f ns" (q *. 100.) (v *. 1e9))
    (Corner_sta.mc_max_quantiles res qs);
  print_newline ();
  finish_common common obs;
  0

let cmd =
  Cmd.v
    (Cmd.info "mc"
       ~doc:"Monte-Carlo corner sampling through the batched corner kernel")
    Term.(const run $ common_t $ fine_t $ bench_file_t $ samples_t $ seed_t
          $ batch_t $ check_t)
