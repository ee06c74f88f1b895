let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let rms = function
  | [] -> 0.
  | xs ->
    sqrt
      (List.fold_left (fun a x -> a +. (x *. x)) 0. xs
      /. float_of_int (List.length xs))

let max_abs xs = List.fold_left (fun a x -> Float.max a (Float.abs x)) 0. xs

let min_max = function
  | [] -> None
  | x :: xs ->
    Some
      (List.fold_left
         (fun (lo, hi) v -> (Float.min lo v, Float.max hi v))
         (x, x) xs)

(* Sorted-array quantile with linear interpolation between order
   statistics (the "type 7" estimator): q = 0 is the minimum, q = 1 the
   maximum, q = 0.5 the median. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor h) in
    let i = if i < 0 then 0 else if i > n - 2 then n - 2 else i in
    let f = h -. float_of_int i in
    a.(i) +. (f *. (a.(i + 1) -. a.(i)))
  end

let check_q q =
  if Float.is_nan q || q < 0. || q > 1. then
    invalid_arg (Printf.sprintf "Stats.quantile: q = %g outside [0, 1]" q)

let quantile q xs =
  check_q q;
  match xs with
  | [] -> invalid_arg "Stats.quantile: empty sample list"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    quantile_sorted a q

let quantiles qs xs =
  match xs with
  | [] -> invalid_arg "Stats.quantiles: empty sample list"
  | xs ->
    List.iter check_q qs;
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    List.map (fun q -> (q, quantile_sorted a q)) qs

let pct_errors ~reference values =
  if List.length reference <> List.length values then
    invalid_arg "Stats: length mismatch";
  List.filter_map
    (fun (r, v) ->
      if r = 0. then None
      else Some (100. *. Float.abs (v -. r) /. Float.abs r))
    (List.combine reference values)

let mean_abs_pct_error ~reference values = mean (pct_errors ~reference values)
let max_abs_pct_error ~reference values = max_abs (pct_errors ~reference values)

let bin_index ~lo ~span ~bins x =
  let i = int_of_float (float_of_int bins *. (x -. lo) /. span) in
  if i >= bins then bins - 1 else if i < 0 then 0 else i

let bin_rows ~lo ~span counts =
  let bins = Array.length counts in
  List.init bins (fun i ->
      let w = span /. float_of_int bins in
      (lo +. (w *. float_of_int i), lo +. (w *. float_of_int (i + 1)),
       counts.(i)))

let histogram ?lo ?hi ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins <= 0";
  (match (lo, hi) with
  | Some l, Some h when h <= l -> invalid_arg "Stats.histogram: hi <= lo"
  | _ -> ());
  (* a fully fixed range makes the bin edges data-independent, so
     histograms built by different producers (e.g. per-lane telemetry
     shards) add bin-by-bin; out-of-range samples clamp to the edge
     bins.  Missing endpoints fall back to the data extremes. *)
  let range =
    match (min_max xs, lo, hi) with
    | None, Some l, Some h -> Some (l, h)
    | None, _, _ -> None
    | Some (dlo, dhi), l, h ->
      let l = Option.value l ~default:dlo and h = Option.value h ~default:dhi in
      Some (Float.min l h, Float.max l h)
  in
  match range with
  | None -> []
  | Some (lo, hi) ->
    let span = if hi > lo then hi -. lo else 1. in
    let counts = Array.make bins 0 in
    List.iter
      (fun x ->
        let i = bin_index ~lo ~span ~bins x in
        counts.(i) <- counts.(i) + 1)
      xs;
    bin_rows ~lo ~span counts
