type t = {
  mutable nl : Netlist.t;
  (* node [i] is pushed in the running pass iff [mark.(i) = epoch] *)
  mutable mark : int array;
  mutable epoch : int;
  (* level [l]'s bucket is [nodes.(Netlist.level_start nl l ..)] with
     [fill.(l)] entries *)
  mutable nodes : int array;
  mutable fill : int array;
  (* the lowest and highest levels holding pushed nodes ([max_int] and
     [-1] when none does) *)
  mutable lo : int;
  mutable hi : int;
  mutable draining : int;  (* the level being drained, [-1] outside *)
}

(* one frontier per domain, made at its first [get] *)
let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Empty the buckets a pass filled and start the next pass. *)
let reset fr =
  for l = max 0 fr.lo to fr.hi do
    fr.fill.(l) <- 0
  done;
  fr.lo <- max_int;
  fr.hi <- -1;
  fr.draining <- -1;
  fr.epoch <- fr.epoch + 1

let get nl =
  let fr =
    match Domain.DLS.get key with
    | Some fr -> fr
    | None ->
      let fr =
        { nl; mark = [||]; epoch = 1; nodes = [||]; fill = [||];
          lo = max_int; hi = -1; draining = -1 }
      in
      Domain.DLS.set key (Some fr);
      fr
  in
  if fr.draining >= 0 then
    invalid_arg "Frontier.get: a drain is running on this domain";
  if fr.hi >= 0 then reset fr;
  let n = Netlist.size nl and levels = Netlist.level_count nl in
  if Array.length fr.mark < n then begin
    (* epochs start at 1, so fresh zero marks are unpushed *)
    fr.mark <- Array.make n 0;
    fr.nodes <- Array.make n 0
  end;
  if Array.length fr.fill < levels then fr.fill <- Array.make levels 0;
  fr.nl <- nl;
  fr

let push fr i =
  let nl = fr.nl in
  let l = Netlist.level nl i in
  if l <= fr.draining then
    invalid_arg "Frontier.push: node is not above the draining level";
  if fr.mark.(i) <> fr.epoch then begin
    fr.mark.(i) <- fr.epoch;
    let k = fr.fill.(l) in
    fr.nodes.(Netlist.level_start nl l + k) <- i;
    fr.fill.(l) <- k + 1;
    if l < fr.lo then fr.lo <- l;
    if l > fr.hi then fr.hi <- l
  end

let drain fr f =
  if fr.draining >= 0 then
    invalid_arg "Frontier.drain: a drain is running on this domain";
  let nl = fr.nl in
  match
    (* [hi] grows while the levels drain, so the bound is re-read *)
    while fr.lo <= fr.hi do
      let l = fr.lo in
      fr.draining <- l;
      (* pushes go to higher levels, so this bucket's fill is fixed *)
      let base = Netlist.level_start nl l in
      for k = base to base + fr.fill.(l) - 1 do
        f fr fr.nodes.(k)
      done;
      fr.fill.(l) <- 0;
      fr.lo <- l + 1
    done
  with
  | () -> reset fr
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    reset fr;
    Printexc.raise_with_backtrace e bt
