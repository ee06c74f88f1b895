let simulate nl pi_values =
  let pis = Netlist.inputs nl in
  if Array.length pi_values <> List.length pis then
    invalid_arg "Logic.simulate: PI vector arity mismatch";
  let values = Array.make (Netlist.size nl) false in
  List.iteri (fun rank i -> values.(i) <- pi_values.(rank)) pis;
  Array.iter
    (fun i ->
      if not (Netlist.is_pi nl i) then
        values.(i) <-
          Gate.eval_fanin (Netlist.gate_kind nl i)
            (fun p -> values.(Netlist.fanin_nth nl i p))
            (Netlist.fanin_count nl i))
    (Netlist.topo_order nl);
  values

let outputs_of nl pi_values =
  let values = simulate nl pi_values in
  List.map (fun i -> values.(i)) (Netlist.outputs nl)

let random_vector rng nl =
  Array.init (List.length (Netlist.inputs nl)) (fun _ -> Ssd_util.Rng.bool rng)

let equivalent ?(vectors = 256) rng a b =
  let names nl =
    List.map (Netlist.signal_name nl) (Netlist.inputs nl)
    |> List.sort String.compare
  in
  let out_names nl = List.map (Netlist.signal_name nl) (Netlist.outputs nl) in
  if names a <> names b || out_names a <> out_names b then false
  else begin
    let pi_names_a = List.map (Netlist.signal_name a) (Netlist.inputs a) in
    (* map a's PI rank to b's PI rank via names; a name absent from b
       means the netlists cannot be matched, never a raised Not_found *)
    let b_rank =
      let tbl = Hashtbl.create 16 in
      List.iteri
        (fun rank i -> Hashtbl.replace tbl (Netlist.signal_name b i) rank)
        (Netlist.inputs b);
      List.fold_right
        (fun nm acc ->
          match (Hashtbl.find_opt tbl nm, acc) with
          | Some r, Some rest -> Some (r :: rest)
          | None, _ | _, None -> None)
        pi_names_a (Some [])
    in
    match b_rank with
    | None -> false
    | Some b_rank ->
      let rec loop k =
        if k >= vectors then true
        else begin
          let va = random_vector rng a in
          let vb = Array.make (Array.length va) false in
          List.iteri (fun ra rb -> vb.(rb) <- va.(ra)) b_rank;
          if outputs_of a va <> outputs_of b vb then false else loop (k + 1)
        end
      in
      loop 0
  end
