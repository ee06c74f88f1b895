module Interval = Ssd_util.Interval
module Types = Ssd_core.Types
module Netlist = Ssd_circuit.Netlist
module Sta = Ssd_sta.Sta
module Engine = Ssd_sta.Engine
module Run_opts = Ssd_sta.Run_opts
module Windows = Ssd_sta.Windows
module Delay_model = Ssd_core.Delay_model
module Obs = Ssd_obs.Obs
module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Cellfn = Ssd_core.Cellfn
module Timing_sim = Ssd_sta.Timing_sim
module Value2f = Ssd_itr.Value2f
module Implication = Ssd_itr.Implication
module Itr = Ssd_itr.Itr
module Fault = Ssd_atpg.Fault
module Fault_sim = Ssd_atpg.Fault_sim

let beq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let iv_beq a b =
  beq (Interval.lo a) (Interval.lo b) && beq (Interval.hi a) (Interval.hi b)

let win_beq (a : Types.win) (b : Types.win) =
  iv_beq a.Types.w_arr b.Types.w_arr && iv_beq a.Types.w_tt b.Types.w_tt

let lt_beq (a : Sta.line_timing) (b : Sta.line_timing) =
  win_beq a.Sta.rise b.Sta.rise && win_beq a.Sta.fall b.Sta.fall

let sta_beq a b =
  Windows.plane_eq (Sta.windows a) ~plane:0 (Sta.windows b) ~plane:0

let analyze_ref ~library ~model nl =
  let windowing = Sta.windowing_of model in
  let pi_win = Sta.pi_window Sta.default_pi_spec in
  let timing =
    Array.make (Netlist.size nl) { Sta.rise = pi_win; fall = pi_win }
  in
  Array.iter
    (fun i ->
      timing.(i) <-
        Sta.eval_node ~windowing ~library nl
          (fun j -> timing.(j))
          ~pi_win ~extra:0. i)
    (Netlist.topo_order nl);
  timing

(* [remap_cells Fun.id] keeps every transfer function but yields a new
   model value, and only a registry value has a kernel rule *)
let reference_model = Delay_model.remap_cells Fun.id Delay_model.proposed

let pin_to_pin_reference = Delay_model.remap_cells Fun.id Delay_model.pin_to_pin

let closure_twin model =
  if model == Delay_model.proposed then reference_model
  else if model == Delay_model.pin_to_pin then pin_to_pin_reference
  else model

let analyze_reference ?extra_delay ?pi_override ?(model = Delay_model.proposed)
    opts ~library nl =
  Sta.analyze_with ?extra_delay ?pi_override opts ~library
    ~model:(closure_twin model) nl

let engine_reference ~library eng =
  let model = closure_twin (Engine.model eng) in
  let nl = Engine.edited_netlist eng in
  Sta.analyze_with
    ~extra_delay:(Engine.extra_delay_of eng)
    ~pi_override:(fun i ->
      if Netlist.is_pi nl i then Some (Engine.pi_spec_of eng i) else None)
    Run_opts.(Engine.opts eng |> with_jobs 1 |> with_obs Obs.disabled)
    ~library ~model nl

(* ---- the record-array required-time walk ---------------------------- *)

type required = {
  q_rise : Interval.t;
  q_fall : Interval.t;
}

(* Backward required-time propagation.  For each gate, a required window on
   an output transition imposes windows on the input transitions that can
   cause it, offset by the pin delay bounds over the input's transition-time
   window. *)
let compute_required t ~clock_period =
  let nl = Sta.netlist t in
  let n = Netlist.size nl in
  let top = Interval.make 0. clock_period in
  let none = Interval.make neg_infinity infinity in
  let q = Array.make n { q_rise = none; q_fall = none } in
  let is_po =
    let arr = Array.make n false in
    List.iter (fun i -> arr.(i) <- true) (Netlist.outputs nl);
    arr
  in
  for i = 0 to n - 1 do
    if is_po.(i) then q.(i) <- { q_rise = top; q_fall = top }
  done;
  let tighten idx ~rise iv =
    let cur = q.(idx) in
    let merge a b =
      (* the line must satisfy every sink: latest-allowed shrinks to the
         min, earliest-allowed grows to the max *)
      let lo = Float.max (Interval.lo a) (Interval.lo b) in
      let hi = Float.min (Interval.hi a) (Interval.hi b) in
      (* a crossed requirement stays representable as an empty-ish window:
         collapse to [lo, lo] so violation checks still fire via A_L > Q_L *)
      if lo <= hi then Interval.make lo hi else Interval.make lo lo
    in
    if rise then q.(idx) <- { cur with q_rise = merge cur.q_rise iv }
    else q.(idx) <- { cur with q_fall = merge cur.q_fall iv }
  in
  (* walk gates in reverse topological order *)
  let order = Netlist.topo_order nl in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    if not (Netlist.is_pi nl i) then begin
      let kind = Netlist.gate_kind nl i in
      let n_in = Netlist.fanin_count nl i in
      let cell = Sta.cell_of_gate (Sta.library t) kind n_in in
      let load = Netlist.load_of nl i in
      let ctl_in_is_fall =
        match cell.Charlib.kind with Sweep.Nand -> true | Sweep.Nor -> false
      in
      let qi = q.(i) in
      for pos = 0 to n_in - 1 do
        let j = Netlist.fanin_nth nl i pos in
        let in_lt = Sta.timing t j in
        let propagate resp ~out_iv ~in_rise =
          let tt_win =
            if in_rise then in_lt.Sta.rise.Types.w_tt
            else in_lt.Sta.fall.Types.w_tt
          in
          let _, d_min = Cellfn.min_delay_over cell ~fanout:load resp ~pos tt_win in
          let _, d_max = Cellfn.max_delay_over cell ~fanout:load resp ~pos tt_win in
          let lo = Interval.lo out_iv -. d_min in
          let hi = Interval.hi out_iv -. d_max in
          let iv = if lo <= hi then Interval.make lo hi else Interval.make lo lo in
          tighten j ~rise:in_rise iv
        in
        (* to-controlling response *)
        let ctl_out = if ctl_in_is_fall then qi.q_rise else qi.q_fall in
        propagate Cellfn.Ctl ~out_iv:ctl_out ~in_rise:(not ctl_in_is_fall);
        (* to-non-controlling response *)
        let non_out = if ctl_in_is_fall then qi.q_fall else qi.q_rise in
        propagate Cellfn.Non ~out_iv:non_out ~in_rise:ctl_in_is_fall
      done
    end
  done;
  q

let violations t required =
  let nl = Sta.netlist t in
  let issues = ref [] in
  for i = Netlist.size nl - 1 downto 0 do
    let lt = Sta.timing t i in
    let r = required.(i) in
    let check label (w : Types.win) q =
      if Interval.hi w.Types.w_arr > Interval.hi q +. 1e-15 then
        issues :=
          ( i,
            Printf.sprintf "%s %s: arrives by %.3f ns but required by %.3f ns"
              (Netlist.signal_name nl i) label
              (Interval.hi w.Types.w_arr *. 1e9)
              (Interval.hi q *. 1e9) )
          :: !issues
      else if Interval.lo w.Types.w_arr < Interval.lo q -. 1e-15 then
        issues :=
          ( i,
            Printf.sprintf
              "%s %s: can arrive at %.3f ns but not allowed before %.3f ns"
              (Netlist.signal_name nl i) label
              (Interval.lo w.Types.w_arr *. 1e9)
              (Interval.lo q *. 1e9) )
          :: !issues
    in
    if Float.is_finite (Interval.hi r.q_rise) then check "rise" lt.Sta.rise r.q_rise;
    if Float.is_finite (Interval.hi r.q_fall) then check "fall" lt.Sta.fall r.q_fall
  done;
  !issues

let required_beq ?(plane = 0) packed oracle =
  let ok = ref true in
  Array.iteri
    (fun i r ->
      ok :=
        !ok
        && iv_beq (Sta.required_window ~plane packed i ~rise:true) r.q_rise
        && iv_beq (Sta.required_window ~plane packed i ~rise:false) r.q_fall)
    oracle;
  !ok

(* ---- the line-based .bench reader and the Printf writer ---- *)

module Bench_ref = struct
  module Gate = Ssd_circuit.Gate

  exception Parse_error = Ssd_circuit.Bench_io.Parse_error

  let fail line fmt =
    Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

  let strip s = String.trim s

  let kind_of_string s =
    match String.uppercase_ascii s with
    | "AND" -> Some Gate.And
    | "NAND" -> Some Gate.Nand
    | "OR" -> Some Gate.Or
    | "NOR" -> Some Gate.Nor
    | "XOR" -> Some Gate.Xor
    | "XNOR" -> Some Gate.Xnor
    | "NOT" | "INV" -> Some Gate.Not
    | "BUF" | "BUFF" -> Some Gate.Buf
    | _ -> None

  let strip_comment s =
    match String.index_opt s '#' with
    | Some i -> String.sub s 0 i
    | None -> s

  (* "NAME ( a , b )" -> (NAME, [a; b]) *)
  let parse_call lineno s =
    match String.index_opt s '(' with
    | None -> fail lineno "expected '(' in %S" s
    | Some lp ->
      let rp =
        match String.rindex_opt s ')' with
        | None -> fail lineno "missing ')' in %S" s
        | Some i -> i
      in
      if rp < lp then fail lineno "mismatched parentheses in %S" s;
      let fn = strip (String.sub s 0 lp) in
      let args = String.sub s (lp + 1) (rp - lp - 1) in
      let args =
        String.split_on_char ',' args |> List.map strip
        |> List.filter (fun a -> a <> "")
      in
      (fn, args)

  type 'a vec = { mutable data : 'a array; mutable len : int; fill : 'a }

  let vec fill = { data = Array.make 64 fill; len = 0; fill }

  let push v x =
    if v.len = Array.length v.data then begin
      let grown = Array.make (2 * v.len) v.fill in
      Array.blit v.data 0 grown 0 v.len;
      v.data <- grown
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  type acc = {
    ids : (string, int) Hashtbl.t;
    names : string vec;
    pi_line : int vec;
    pi_name : int vec;
    gate_line : int vec;
    gate_name : int vec;
    gate_kind : int vec;
    gate_end : int vec;
    fanins : int vec;
    mutable outputs : string list;  (* newest first *)
  }

  let new_acc () =
    { ids = Hashtbl.create 1024; names = vec ""; pi_line = vec 0;
      pi_name = vec 0; gate_line = vec 0; gate_name = vec 0;
      gate_kind = vec 0; gate_end = vec 0; fanins = vec 0; outputs = [] }

  let intern acc s =
    match Hashtbl.find_opt acc.ids s with
    | Some k -> k
    | None ->
      let k = acc.names.len in
      Hashtbl.add acc.ids s k;
      push acc.names s;
      k

  let parse_line acc lineno raw =
    let line = strip (strip_comment raw) in
    if line <> "" then begin
      match String.index_opt line '=' with
      | Some eq ->
        let lhs = strip (String.sub line 0 eq) in
        let rhs =
          strip (String.sub line (eq + 1) (String.length line - eq - 1))
        in
        if lhs = "" then fail lineno "empty signal name";
        let fn, args = parse_call lineno rhs in
        (match kind_of_string fn with
        | None -> fail lineno "unknown gate type %S" fn
        | Some kind ->
          if args = [] then fail lineno "gate %S has no inputs" lhs;
          push acc.gate_line lineno;
          push acc.gate_name (intern acc lhs);
          push acc.gate_kind (Gate.to_int kind);
          List.iter (fun a -> push acc.fanins (intern acc a)) args;
          push acc.gate_end acc.fanins.len)
      | None ->
        let fn, args = parse_call lineno line in
        (match (String.uppercase_ascii fn, args) with
        | "INPUT", [ a ] ->
          push acc.pi_line lineno;
          push acc.pi_name (intern acc a)
        | "OUTPUT", [ a ] -> acc.outputs <- a :: acc.outputs
        | "INPUT", _ | "OUTPUT", _ ->
          fail lineno "%s takes exactly one signal" fn
        | _ -> fail lineno "unknown directive %S" fn)
    end

  (* ids: PIs in order, then gates in order; duplicates in id order,
     then undefined fan-ins in gate then pin order *)
  let finish ~name acc =
    let npi = acc.pi_line.len and ngates = acc.gate_line.len in
    let n = npi + ngates in
    let interned = acc.names.data in
    let id_of = Array.make acc.names.len (-1) in
    let names = Array.make n "" in
    let define id lineno k =
      if id_of.(k) >= 0 then
        fail lineno "signal %S is defined more than once" interned.(k);
      id_of.(k) <- id;
      names.(id) <- interned.(k)
    in
    for p = 0 to npi - 1 do
      define p acc.pi_line.data.(p) acc.pi_name.data.(p)
    done;
    for g = 0 to ngates - 1 do
      define (npi + g) acc.gate_line.data.(g) acc.gate_name.data.(g)
    done;
    let fanins = acc.fanins.data in
    let kinds = Array.make n (-1) and fanin_off = Array.make (n + 1) 0 in
    for g = 0 to ngates - 1 do
      let first = if g = 0 then 0 else acc.gate_end.data.(g - 1) in
      for p = first to acc.gate_end.data.(g) - 1 do
        let k = fanins.(p) in
        if id_of.(k) < 0 then
          fail acc.gate_line.data.(g) "undefined signal %S" interned.(k);
        fanins.(p) <- id_of.(k)
      done;
      kinds.(npi + g) <- acc.gate_kind.data.(g);
      fanin_off.(npi + g + 1) <- acc.gate_end.data.(g)
    done;
    Netlist.of_flat ~name
      { Netlist.f_names = names; f_kinds = kinds; f_fanin_off = fanin_off;
        f_fanin_dat = Array.sub fanins 0 acc.fanins.len;
        f_outputs = List.rev acc.outputs }

  let parse_string ~name text =
    let acc = new_acc () in
    List.iteri
      (fun idx raw -> parse_line acc (idx + 1) raw)
      (String.split_on_char '\n' text);
    finish ~name acc

  let to_string nl =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Printf.sprintf "# %s\n" (Netlist.stats nl));
    List.iter
      (fun i ->
        Buffer.add_string buf
          (Printf.sprintf "INPUT(%s)\n" (Netlist.signal_name nl i)))
      (Netlist.inputs nl);
    List.iter
      (fun i ->
        Buffer.add_string buf
          (Printf.sprintf "OUTPUT(%s)\n" (Netlist.signal_name nl i)))
      (Netlist.outputs nl);
    Array.iter
      (fun i ->
        if not (Netlist.is_pi nl i) then begin
          let args =
            List.init (Netlist.fanin_count nl i) (Netlist.fanin_nth nl i)
            |> List.map (Netlist.signal_name nl)
            |> String.concat ", "
          in
          Buffer.add_string buf
            (Printf.sprintf "%s = %s(%s)\n"
               (Netlist.signal_name nl i)
               (Gate.to_string (Netlist.gate_kind nl i))
               args)
        end)
      (Netlist.topo_order nl);
    Buffer.contents buf
end

let bench_reference = Bench_ref.parse_string
let bench_writer_reference = Bench_ref.to_string

(* ---- the list-based technology mapping ---- *)

module Decompose_ref = struct
  module Gate = Ssd_circuit.Gate

  (* Accumulating builder with fresh intermediate names.  Indices are
     assigned in emission order. *)
  type builder = {
    mutable acc : (string * Netlist.node) list;  (* reversed *)
    mutable count : int;
    used : (string, unit) Hashtbl.t;
    mutable counter : int;
  }

  let add b name node =
    Hashtbl.replace b.used name ();
    b.acc <- (name, node) :: b.acc;
    b.count <- b.count + 1

  let fresh b base =
    let rec try_name k =
      let cand = Printf.sprintf "%s$%d" base k in
      if Hashtbl.mem b.used cand then try_name (k + 1)
      else begin
        b.counter <- k + 1;
        cand
      end
    in
    try_name b.counter

  let emit_fresh b base kind fanin =
    let idx = b.count in
    add b (fresh b base)
      (Netlist.Gate { kind; fanin = Array.of_list fanin });
    idx

  (* The specification of a gate yet to be emitted (so the caller can attach
     the original signal name to the network's final node). *)
  type spec = Gate.kind * int list

  let emit_spec b base (kind, fanin) = emit_fresh b base kind fanin

  (* NAND(xs) = NAND(AND(g1), AND(g2), …) for any grouping of xs, and dually
     for NOR, so a wide inverting gate reduces to a tree whose internal
     groups use the non-inverting composition (inverting gate + NOT). *)
  let rec reduce_wide b base ~max_fanin ~kind inputs : spec =
    if List.length inputs <= max_fanin then (kind, inputs)
    else begin
      let rec split groups current count = function
        | [] ->
          let groups =
            if current = [] then groups else List.rev current :: groups
          in
          List.rev groups
        | x :: rest ->
          if count = max_fanin then
            split (List.rev current :: groups) [ x ] 1 rest
          else split groups (x :: current) (count + 1) rest
      in
      let groups = split [] [] 0 inputs in
      let reduced =
        List.map
          (function
            | [ single ] -> single
            | g ->
              let inv = emit_fresh b base kind g in
              emit_fresh b base Gate.Not [ inv ])
          groups
      in
      reduce_wide b base ~max_fanin ~kind reduced
    end

  (* Classic 4-NAND XOR; returns the spec of the final NAND. *)
  let xor2 b base a c : spec =
    let n1 = emit_fresh b base Gate.Nand [ a; c ] in
    let n2 = emit_fresh b base Gate.Nand [ a; n1 ] in
    let n3 = emit_fresh b base Gate.Nand [ c; n1 ] in
    (Gate.Nand, [ n2; n3 ])

  let to_primitive ?(max_fanin = 4) nl =
    if max_fanin < 2 then invalid_arg "decompose_reference: max_fanin < 2";
    let b = { acc = []; count = 0; used = Hashtbl.create 64; counter = 0 } in
    let mapping = Array.make (Netlist.size nl) (-1) in
    Array.iter
      (fun i ->
        let name = Netlist.signal_name nl i in
        if Netlist.is_pi nl i then begin
          mapping.(i) <- b.count;
          add b name Netlist.Pi
        end
        else begin
          let kind = Netlist.gate_kind nl i in
          let ins =
            List.init (Netlist.fanin_count nl i) (fun p ->
                mapping.(Netlist.fanin_nth nl i p))
          in
          if ins = [] then invalid_arg "Decompose: gate with no inputs";
          let final : spec =
            match (kind, ins) with
            | (Gate.Not | Gate.Buf), [ a ] -> (
              match kind with
              | Gate.Not -> (Gate.Not, [ a ])
              | _ ->
                let inv = emit_fresh b name Gate.Not [ a ] in
                (Gate.Not, [ inv ]))
            | (Gate.Not | Gate.Buf), _ -> invalid_arg "Decompose: NOT/BUF arity"
            | (Gate.Nand | Gate.Nor), [ a ] -> (Gate.Not, [ a ])
            | Gate.Nand, _ -> reduce_wide b name ~max_fanin ~kind:Gate.Nand ins
            | Gate.Nor, _ -> reduce_wide b name ~max_fanin ~kind:Gate.Nor ins
            | (Gate.And | Gate.Or), [ a ] ->
              let inv = emit_fresh b name Gate.Not [ a ] in
              (Gate.Not, [ inv ])
            | Gate.And, _ ->
              let g =
                emit_spec b name (reduce_wide b name ~max_fanin ~kind:Gate.Nand ins)
              in
              (Gate.Not, [ g ])
            | Gate.Or, _ ->
              let g =
                emit_spec b name (reduce_wide b name ~max_fanin ~kind:Gate.Nor ins)
              in
              (Gate.Not, [ g ])
            | (Gate.Xor | Gate.Xnor), [ a ] -> (
              (* degenerate: single-input XOR is a buffer, XNOR an inverter *)
              match kind with
              | Gate.Xnor -> (Gate.Not, [ a ])
              | _ ->
                let inv = emit_fresh b name Gate.Not [ a ] in
                (Gate.Not, [ inv ]))
            | Gate.Xor, first :: rest ->
              let rec fold acc = function
                | [] -> assert false (* rest is non-empty *)
                | [ last ] -> xor2 b name acc last
                | x :: more -> fold (emit_spec b name (xor2 b name acc x)) more
              in
              fold first rest
            | Gate.Xnor, first :: rest ->
              let rec fold acc = function
                | [] -> acc
                | x :: more -> fold (emit_spec b name (xor2 b name acc x)) more
              in
              let x = fold first rest in
              (Gate.Not, [ x ])
            | (Gate.Xor | Gate.Xnor), [] -> assert false (* guarded above *)
          in
          let kind, fanin = final in
          mapping.(i) <- b.count;
          add b name (Netlist.Gate { kind; fanin = Array.of_list fanin })
        end)
      (Netlist.topo_order nl);
    let signals = List.rev b.acc in
    let outputs = List.map (Netlist.signal_name nl) (Netlist.outputs nl) in
    Netlist.build ~name:(Netlist.name nl ^ ".prim") ~signals ~outputs
end

let decompose_reference = Decompose_ref.to_primitive

(* ---- the whole-circuit fault simulation ----------------------------- *)

(* The strict sequential walk with fault dropping: per vector, one
   fault-free simulation, then for every live site whose aggressor and
   victim switch in the site's directions within its alignment window a
   whole-circuit simulation with the victim slowed by delta.  The site is
   detected when a PO that meets the clock fault-free switches at least
   0.45 delta later. *)
let fault_sim_reference ~library ~model ~clock_period nl sites vectors =
  let sites = Array.of_list sites in
  let nsites = Array.length sites in
  let live = ref nsites in
  let detected = ref [] in
  let alive = Array.make nsites true in
  let wants tr lines i =
    match tr with
    | Value2f.Rise -> Timing_sim.rising_at lines i
    | Value2f.Fall -> Timing_sim.falling_at lines i
  in
  List.iteri
    (fun k vector ->
      if !live > 0 then begin
        let ff = Timing_sim.simulate ~library ~model nl vector in
        Array.iteri
          (fun fi (site : Fault.site) ->
            let a = site.Fault.aggressor and v = site.Fault.victim in
            if
              alive.(fi)
              && wants site.Fault.agg_tr ff a
              && wants site.Fault.vic_tr ff v
              && Timing_sim.has_event ff a
              && Timing_sim.has_event ff v
              && Float.abs
                   (Timing_sim.event_arr ff a -. Timing_sim.event_arr ff v)
                 <= site.Fault.align_window
            then begin
              let faulty =
                Timing_sim.simulate
                  ~extra_delay:(fun i -> if i = v then site.Fault.delta else 0.)
                  ~library ~model nl vector
              in
              let shifted po =
                Timing_sim.has_event ff po
                && Timing_sim.has_event faulty po
                &&
                let t = Timing_sim.event_arr ff po in
                t <= clock_period
                && Timing_sim.event_arr faulty po -. t
                   >= 0.45 *. site.Fault.delta
              in
              if List.exists shifted (Netlist.outputs nl) then begin
                alive.(fi) <- false;
                decr live;
                detected := (fi, k) :: !detected
              end
            end)
          sites
      end)
    vectors;
  let detected = List.rev !detected in
  let undetected =
    List.filter (fun fi -> alive.(fi)) (List.init nsites Fun.id)
  in
  {
    Fault_sim.coverage =
      (if nsites = 0 then 0.
       else
         100. *. float_of_int (List.length detected) /. float_of_int nsites);
    detected;
    undetected;
  }

(* ---- the closure-walk ITR -------------------------------------------- *)

(* [Itr] as it was written before it ran the kernel: per line an option
   record of two windows, and per gate the model's window closures over
   the list of inputs that may switch, clamped by Table 1's definite
   switchers; after every assignment a walk over the whole topological
   order re-times each in-focus line that changed or reads a line
   re-timed or changed before it, with no early cutoff. *)
module Itr_reference = struct
  type line_windows = {
    rise : Types.win option;
    fall : Types.win option;
  }

  type t = {
    library : Charlib.t;
    windowing : Delay_model.windowing;
    pi_win : Types.win;
    impl : Implication.t;
    windows : line_windows array;
    in_focus : bool array;
  }

  let state t i tr = Value2f.state (Implication.value t.impl i) tr

  (* The inputs of [ins] (per input position, the state and optional
     window of the causal input transition) that may switch and carry a
     window, and the same as the window functions take them. *)
  let switching ins =
    let present =
      List.filter_map
        (fun (pos, st, w) ->
          match (st, w) with
          | -1, _ | _, None -> None
          | _, Some window -> Some (pos, st, window))
        ins
    in
    ( present,
      List.map (fun (pos, _, w) -> { Types.wpos = pos; window = w }) present )

  let ctl_window_refined ~windowing ~cell ~load ins =
    match switching ins with
    | [], _ -> None
    | present, win_ins ->
      let base = windowing.Delay_model.ctl_window cell ~fanout:load win_ins in
      let a_l_refined =
        List.fold_left
          (fun acc (pos, st, w) ->
            if st <> 1 then acc
            else
              let _, d_max =
                Cellfn.max_delay_over cell ~fanout:load Cellfn.Ctl ~pos
                  w.Types.w_tt
              in
              Float.min acc (Interval.hi w.Types.w_arr +. d_max))
          infinity present
      in
      let a_s = Interval.lo base.Types.w_arr in
      let a_l =
        Float.max a_s (Float.min (Interval.hi base.Types.w_arr) a_l_refined)
      in
      Some { Types.w_arr = Interval.make a_s a_l; w_tt = base.Types.w_tt }

  let non_window_refined ~windowing ~cell ~load ins =
    match switching ins with
    | [], _ -> None
    | present, win_ins ->
      let base = windowing.Delay_model.non_window cell ~fanout:load win_ins in
      let a_s_refined =
        List.fold_left
          (fun acc (pos, st, w) ->
            if st <> 1 then acc
            else
              let _, d_min =
                Cellfn.min_delay_over cell ~fanout:load Cellfn.Non ~pos
                  w.Types.w_tt
              in
              Float.max acc (Interval.lo w.Types.w_arr +. d_min))
          neg_infinity present
      in
      let a_l = Interval.hi base.Types.w_arr in
      let a_s =
        Float.min a_l (Float.max (Interval.lo base.Types.w_arr) a_s_refined)
      in
      Some { Types.w_arr = Interval.make a_s a_l; w_tt = base.Types.w_tt }

  let gate_windows t i =
    let nl = Implication.netlist t.impl in
    let n_in = Netlist.fanin_count nl i in
    let cell = Sta.cell_of_gate t.library (Netlist.gate_kind nl i) n_in in
    let load = Netlist.load_of nl i in
    let ctl_in_is_fall =
      match cell.Charlib.kind with Sweep.Nand -> true | Sweep.Nor -> false
    in
    let input_info tr =
      List.init n_in (fun pos ->
          let j = Netlist.fanin_nth nl i pos in
          let w = t.windows.(j) in
          (pos, state t j tr, if tr = Value2f.Rise then w.rise else w.fall))
    in
    let ctl_tr = if ctl_in_is_fall then Value2f.Fall else Value2f.Rise in
    let non_tr = if ctl_in_is_fall then Value2f.Rise else Value2f.Fall in
    let windowing = t.windowing in
    let out_ctl =
      if state t i non_tr = -1 then None
      else ctl_window_refined ~windowing ~cell ~load (input_info ctl_tr)
    in
    let out_non =
      if state t i ctl_tr = -1 then None
      else non_window_refined ~windowing ~cell ~load (input_info non_tr)
    in
    if ctl_in_is_fall then { rise = out_ctl; fall = out_non }
    else { rise = out_non; fall = out_ctl }

  let refresh_line t i =
    let nl = Implication.netlist t.impl in
    t.windows.(i) <-
      (if Netlist.is_pi nl i then
         let w tr = if state t i tr = -1 then None else Some t.pi_win in
         { rise = w Value2f.Rise; fall = w Value2f.Fall }
       else gate_windows t i)

  (* re-time every in-focus line [mark]ed or reading a re-timed or
     marked line, in topological order *)
  let rescan t mark =
    let nl = Implication.netlist t.impl in
    let dirty = Array.make (Netlist.size nl) false in
    Array.iter
      (fun i ->
        let upstream = ref false in
        for p = 0 to Netlist.fanin_count nl i - 1 do
          let j = Netlist.fanin_nth nl i p in
          if dirty.(j) || mark.(j) then upstream := true
        done;
        if (mark.(i) || !upstream) && t.in_focus.(i) then begin
          dirty.(i) <- true;
          refresh_line t i
        end)
      (Netlist.topo_order nl)

  let create ?(pi_spec = Sta.default_pi_spec) ?focus ~library ~model nl =
    let n = Netlist.size nl in
    let in_focus =
      match focus with
      | None -> Array.make n true
      | Some lines ->
        let mask = Array.make n false in
        List.iter
          (fun i ->
            mask.(i) <- true;
            List.iter
              (fun j -> mask.(j) <- true)
              (Netlist.transitive_fanin nl i))
          lines;
        mask
    in
    let t =
      {
        library;
        windowing = Sta.windowing_of model;
        pi_win = Sta.pi_window pi_spec;
        impl = Implication.create nl;
        windows = Array.make n { rise = None; fall = None };
        in_focus;
      }
    in
    rescan t (Array.make n true);
    t

  let copy t =
    { t with impl = Implication.copy t.impl; windows = Array.copy t.windows }

  let assign t i v =
    match Implication.assign_opt t.impl i v with
    | None -> false
    | Some changed ->
      let mark = Array.make (Array.length t.windows) false in
      List.iter (fun i -> mark.(i) <- true) changed;
      rescan t mark;
      true

  let rise_window t i = t.windows.(i).rise
  let fall_window t i = t.windows.(i).fall
end
