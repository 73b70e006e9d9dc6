type config = {
  error_threshold : float;
  perf_floor : float;
}

type result = {
  minimal : Transform.Assignment.t;
  high_set : Transform.Assignment.atom list;
  finished : bool;
  evaluations : int;
}

type ranker = {
  note : Transform.Assignment.t -> Variant.measurement -> unit;
  round : unit -> unit;
  demote : Transform.Assignment.t -> bool;
}

let accepted cfg (m : Variant.measurement) =
  m.Variant.status = Variant.Pass
  && m.Variant.rel_error <= cfg.error_threshold
  && m.Variant.speedup >= cfg.perf_floor

(* Stable keep/demote split of a ddmin round's merged candidate list:
   [demote] is consulted once per candidate after [round] refreshes any
   per-round state; survivors keep the canonical chunks-then-complements
   order, demoted candidates follow in their canonical order. Evidence
   accrues in committed-record order ({!Speculate} consumption), so the
   resulting trajectory is deterministic at any worker/shard count. *)
let candidate_order ~variant_of ranker =
  Option.map
    (fun rk cands ->
      rk.round ();
      let keep, demoted =
        List.partition (fun c -> not (rk.demote (variant_of (Ddmin.subset c)))) cands
      in
      keep @ demoted)
    ranker

let search ?shard ?cost ?ranker ?groups ~atoms ~trace ~evaluate cfg =
  let module A = Transform.Assignment in
  (* groups must partition the atom list *)
  (match groups with
  | Some gs
    when List.compare_lengths (List.concat gs) atoms <> 0
         || not (List.for_all (fun a -> List.exists (List.memq a) gs) atoms) ->
    invalid_arg "Delta_debug.search: groups must partition the atoms"
  | Some _ | None -> ());
  let diff big small = List.filter (fun a -> not (List.memq a small)) big in
  let variant_of high = A.of_lowered atoms ~lowered:(diff atoms high) in
  let order = candidate_order ~variant_of ranker in
  let spec = Speculate.create ?shard ?cost ~trace ~evaluate () in
  (* best accepted assignment seen so far, for budget-exhausted returns *)
  let best_high = ref atoms in
  let test high =
    let asg = variant_of high in
    let m = Speculate.evaluate spec asg in
    Option.iter (fun rk -> rk.note asg m) ranker;
    let ok = accepted cfg m in
    if ok && List.length high < List.length !best_high then best_high := high;
    ok
  in
  let prefetch highs = Speculate.prefetch spec (List.map variant_of highs) in
  (* group phase: a 1-minimal set of GROUPS kept at 64 bits; the ranker
     sees the same per-assignment evidence stream in both phases *)
  let group_phase groups =
    List.concat
      (Ddmin.minimize
         ?order:(candidate_order ~variant_of:(fun gs -> variant_of (List.concat gs)) ranker)
         ~prefetch:(fun gss -> prefetch (List.map List.concat gss))
         ~test:(fun gs -> test (List.concat gs))
         groups)
  in
  let finished = ref true in
  let final_high =
    try
      if not (test atoms) then
        (* the baseline itself fails the oracle (can happen when the perf
           floor exceeds 1): fall back to reporting it *)
        atoms
      else
        (* atom phase: over every atom, or over the surviving groups' *)
        Ddmin.minimize ?order ~prefetch ~test
          (match groups with None -> atoms | Some gs -> group_phase gs)
    with Trace.Budget_exhausted ->
      finished := false;
      !best_high
  in
  {
    minimal = variant_of final_high;
    high_set = final_high;
    finished = !finished;
    evaluations = Trace.count trace;
  }
