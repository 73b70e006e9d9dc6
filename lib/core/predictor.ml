type t = Metrics.Linreg.model

(* the feature extraction lives in [Sensitivity.Rank]: the search-time
   demotion engine refits the same OLS on the same features each round,
   and the two models must never drift apart *)
let feature_names = Sensitivity.Rank.feature_names
let features (p : Tuner.prepared) asg = Sensitivity.Rank.features ~st:p.Tuner.st asg

let measurable (r : Search.Variant.record) =
  r.Search.Variant.meas.Search.Variant.speedup > 0.0

let samples p records =
  let usable = List.filter measurable records in
  ( List.map (fun (r : Search.Variant.record) -> features p r.Search.Variant.asg) usable,
    List.map (fun (r : Search.Variant.record) -> r.Search.Variant.meas.Search.Variant.speedup)
      usable )

let train p records =
  let features, targets = samples p records in
  Metrics.Linreg.fit ~features ~targets

let predict m p asg = Metrics.Linreg.predict m (features p asg)

let r_squared m p records =
  let features, targets = samples p records in
  Metrics.Linreg.r_squared m ~features ~targets

let holdout_report p records =
  (* split on committed record order (the variant index), not arrival
     order: sharded and multi-worker runs commit the same records but may
     list them in a different order, and the ablation must not depend on
     scheduling *)
  let usable =
    List.sort
      (fun (a : Search.Variant.record) (b : Search.Variant.record) ->
        compare a.Search.Variant.index b.Search.Variant.index)
      (List.filter measurable records)
  in
  let n = List.length usable in
  let cut = n * 3 / 5 in
  let train_set = List.filteri (fun i _ -> i < cut) usable in
  let test_set = List.filteri (fun i _ -> i >= cut) usable in
  match train p train_set with
  | None -> None
  | Some m ->
    Some (r_squared m p train_set, r_squared m p test_set, List.length test_set)
