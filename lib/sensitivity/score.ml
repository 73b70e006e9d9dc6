(* Fusing the mirror analysis into a search-steering score.

   [create] runs {!Absint} once on the original program and distils, per
   demotable atom:
   - [rel_bound]: the sound relative-error bound a singleton demotion can
     inflict on the model's checked output series, combined across samples
     with the same l2 rule {!Metrics.Error.series_rel_error_l2} applies to
     dynamic measurements — infinite when the atom is poisoned;
   - [amp]: the same accumulation kept finite through poisoning, usable
     only for ranking;
   - [weight]: a static execution-frequency proxy for the speedup a
     demotion buys (def-use occurrences weighted by mean-trip-count ^
     loop-depth, trip counts folded by {!Analysis.Static_cost.trip_count}).

   Whole-assignment bounds are first-order: the bound of a variant is the
   sum of its singleton bounds (DESIGN.md §13 gives the argument and its
   limits). *)

open Fortran
module A = Transform.Assignment

type t = {
  rel_bound : float array;
  amp : float array;
  weight : float array;
  total_weight : float;
  threshold : float;
  index_of : (Symtab.scope * string, int) Hashtbl.t;
}

let bits = Int64.bits_of_float

(* integer parameters folded through the symtab, so trip counts like
   [do i = 1, n] with [integer, parameter :: n = 100] resolve *)
let param_env st name =
  match Symtab.lookup_var st ~in_proc:None name with
  | Some { Symtab.v_parameter = true; v_base = Ast.Tinteger; v_init = Some e; _ } ->
    Analysis.Static_cost.const_int e
  | Some _ | None -> None

(* mean static trip count over the program's counted loops; loops whose
   bounds do not fold are left out, and a program with no foldable loop
   falls back to the Static_cost loop_weight proxy scaled down (10) *)
let mean_trip st =
  let env = param_env st in
  let counts = ref [] in
  let rec walk_stmt (s : Ast.stmt) =
    (match Analysis.Static_cost.trip_count ~env s.Ast.node with
    | Some n -> counts := float_of_int n :: !counts
    | None -> ());
    match s.Ast.node with
    | Ast.Do { body; _ } -> List.iter walk_stmt body
    | Ast.Do_while { body; _ } -> List.iter walk_stmt body
    | Ast.If (arms, els) ->
      List.iter (fun (_, b) -> List.iter walk_stmt b) arms;
      List.iter walk_stmt els
    | Ast.Select { arms; default; _ } ->
      List.iter (fun (_, b) -> List.iter walk_stmt b) arms;
      List.iter walk_stmt default
    | Ast.Assign _ | Ast.Call _ | Ast.Print_stmt _ | Ast.Exit_stmt | Ast.Cycle_stmt
    | Ast.Return_stmt | Ast.Stop_stmt _ -> ()
  in
  List.iter
    (fun u ->
      (match u with
      | Ast.Main { main_body; _ } -> List.iter walk_stmt main_body
      | Ast.Module _ -> ());
      List.iter (fun p -> List.iter walk_stmt p.Ast.proc_body) (Ast.procs_of_unit u))
    (Symtab.program st);
  match !counts with
  | [] -> 10.0
  | cs -> Float.max 1.0 (List.fold_left ( +. ) 0.0 cs /. float_of_int (List.length cs))

let create ~st ~atoms ~metric_key ~baseline_metric ~threshold ~margin:_ =
  let r = Absint.analyze ~atoms st in
  if r.Absint.r_status <> Absint.Finished then None
  else begin
    let series =
      List.filter (fun s -> s.Absint.s_key = metric_key) r.Absint.r_samples
    in
    let concrete = List.map (fun s -> s.Absint.s_value) series in
    (* fidelity gate: the mirror must reproduce the interpreter's
       baseline series bit-for-bit, or every bound is untrustworthy *)
    let faithful =
      List.length concrete = List.length baseline_metric
      && List.for_all2 (fun a b -> bits a = bits b) concrete baseline_metric
    in
    if not faithful then None
    else begin
      let n = Array.length r.Absint.r_poisoned in
      (* per-atom l2 relative error over the series, mirroring
         Metrics.Error.series_rel_error_l2's per-sample rule *)
      let amp = Array.make n 0.0 in
      List.iter
        (fun (s : Absint.sample) ->
          Errvec.iter
            (fun a e ->
              if a >= 0 && a < n then begin
                let b = Float.abs s.Absint.s_value in
                let rel = if b = 0.0 then e else e /. b in
                (* overflow-proof l2 combine: saturated entries sit near
                   max_float, and squaring them would collapse every
                   poisoned atom's amp to the same [infinity] — clamp and
                   hypot keep the pre-saturation magnitudes ordered, which
                   is all the ranking needs *)
                let rel = Float.min rel 1e300 in
                amp.(a) <- Float.hypot amp.(a) rel
              end)
            s.Absint.s_err)
        series;
      let rel_bound =
        Array.init n (fun a -> if r.Absint.r_poisoned.(a) then infinity else amp.(a))
      in
      let index_of = Absint.atom_indices atoms in
      let trip = mean_trip st in
      let defuse = Analysis.Defuse.analyze st in
      let weight = Array.make n 1.0 in
      Hashtbl.iter
        (fun (scope, name) a ->
          match Analysis.Defuse.for_var defuse ~scope name with
          | Some s ->
            let occ acc (o : Analysis.Defuse.occurrence) =
              acc +. (trip ** float_of_int o.Analysis.Defuse.o_loop_depth)
            in
            weight.(a) <-
              List.fold_left occ (List.fold_left occ 1.0 s.Analysis.Defuse.defs)
                s.Analysis.Defuse.uses
          | None -> ())
        index_of;
      let total_weight = Float.max 1.0 (Array.fold_left ( +. ) 0.0 weight) in
      Some { rel_bound; amp; weight; total_weight; threshold; index_of }
    end
  end

let indices t asg =
  List.filter_map
    (fun (a : A.atom) -> Hashtbl.find_opt t.index_of (a.A.a_scope, a.A.a_name))
    (A.lowered asg)

(* first-order whole-assignment bound: sum of singleton bounds *)
let static_bound t asg =
  List.fold_left (fun acc i -> acc +. t.rel_bound.(i)) 0.0 (indices t asg)

let pass_probability t asg =
  let b =
    List.fold_left
      (fun acc i ->
        acc +. if Float.is_finite t.rel_bound.(i) then t.rel_bound.(i) else t.amp.(i))
      0.0 (indices t asg)
  in
  if Float.is_finite t.threshold then t.threshold /. (t.threshold +. b) else 1.0 /. (1.0 +. b)

(* static speedup payoff: 1 + the lowered share of the def-use execution
   weight, so an empty assignment scores 1 and lowering everything 2 *)
let payoff t asg =
  let lowered_weight =
    List.fold_left (fun acc i -> acc +. t.weight.(i)) 0.0 (indices t asg)
  in
  1.0 +. (lowered_weight /. t.total_weight)

let score t asg = pass_probability t asg *. payoff t asg

let atom_bound t (a : A.atom) =
  Option.map (fun i -> t.rel_bound.(i)) (Hashtbl.find_opt t.index_of (a.A.a_scope, a.A.a_name))

let atom_amp t (a : A.atom) =
  Option.map (fun i -> t.amp.(i)) (Hashtbl.find_opt t.index_of (a.A.a_scope, a.A.a_name))
