let search ?shard ?cost ?affinity ?ranker ~atoms ~groups ~trace ~evaluate
    (cfg : Delta_debug.config) : Delta_debug.result =
  let module A = Transform.Assignment in
  (* groups must partition the atom list *)
  let grouped = List.concat groups in
  if
    List.length grouped <> List.length atoms
    || not (List.for_all (fun a -> List.memq a grouped) atoms)
  then invalid_arg "Hierarchical.search: groups must partition the atoms";
  let diff big small = List.filter (fun a -> not (List.memq a small)) big in
  let variant_of high = A.of_lowered atoms ~lowered:(diff atoms high) in
  let order = Delta_debug.candidate_order ~variant_of ranker in
  let spec = Speculate.create ?shard ?cost ?affinity ~trace ~evaluate () in
  let best_high = ref atoms in
  let test high =
    let asg = variant_of high in
    let m = Speculate.evaluate spec asg in
    Option.iter (fun (rk : Delta_debug.ranker) -> rk.Delta_debug.note asg m) ranker;
    let ok = Delta_debug.accepted cfg m in
    if ok && List.length high < List.length !best_high then best_high := high;
    ok
  in
  let prefetch highs = Speculate.prefetch spec (List.map variant_of highs) in
  let finished = ref true in
  let final_high =
    try
      if not (test atoms) then atoms
      else begin
        (* phase 1: 1-minimal set of GROUPS kept at 64 bits; the ranker
           sees the same per-assignment evidence stream in both phases *)
        let high_groups =
          Ddmin.minimize
            ?order:
              (Delta_debug.candidate_order
                 ~variant_of:(fun gs -> variant_of (List.concat gs))
                 ranker)
            ~prefetch:(fun gss -> prefetch (List.map List.concat gss))
            ~test:(fun gs -> test (List.concat gs))
            groups
        in
        (* phase 2: refine the surviving groups atom by atom *)
        Ddmin.minimize ?order ~prefetch ~test (List.concat high_groups)
      end
    with Trace.Budget_exhausted ->
      finished := false;
      !best_high
  in
  {
    Delta_debug.minimal = variant_of final_high;
    high_set = final_high;
    finished = !finished;
    evaluations = Trace.count trace;
  }
