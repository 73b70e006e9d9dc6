(* Speculative batch evaluation shared by the batched searches.

   A ddmin round announces its candidates via [prefetch]; with a
   scheduler of more than one slot they are evaluated in parallel into
   [results] (raw [evaluate] calls, no trace, no budget). The search
   then consumes candidates in the sequential order through [evaluate],
   which commits to the trace with the speculative result when one
   exists — so records, budget accounting and the trajectory are
   identical to a sequential run. Results are kept across rounds:
   speculation wasted in one round can still pay off later. Only the
   batch's tasks run concurrently (the submitting domain among them);
   this table and the trace commits stay on the submitting domain.

   Each affinity group becomes one shard task whose simulated cost is
   the sum of its members' costs, and on-demand evaluations that
   bypassed a batch are accounted serially — the cluster clock advances
   exactly as if the batch had run on the simulated shards×workers grid.
   A scheduler with a single slot disables speculation entirely: the
   classic sequential trajectory, with every fresh evaluation accounted
   serially. *)

type t = {
  shard : Shard.t option;
  cost : (Variant.measurement -> float) option;
  trace : Trace.t;
  evaluate : Transform.Assignment.t -> Variant.measurement;
  affinity : (Transform.Assignment.t -> string) option;
  results : (string, Variant.measurement) Hashtbl.t;
}

let create ?shard ?cost ?affinity ~trace ~evaluate () =
  { shard; cost; trace; evaluate; affinity; results = Hashtbl.create 64 }

let cost_of t m = match t.cost with Some c -> c m | None -> 0.0

(* Partition a batch into same-affinity runs, preserving first-seen order
   of groups and batch order within each. Candidates that share an
   affinity key evaluate to the same raw outcome downstream, so running
   them on one worker back to back lets the later ones reuse the first's
   work instead of racing to recompute it on other workers. *)
let affinity_groups aff todo =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun ((_, asg) as item) ->
      let a = aff asg in
      match Hashtbl.find_opt tbl a with
      | Some r -> r := item :: !r
      | None ->
        let r = ref [ item ] in
        Hashtbl.add tbl a r;
        order := r :: !order)
    todo;
  List.rev_map (fun r -> List.rev !r) !order

let fresh_batch t asgs =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun asg ->
      let key = Transform.Assignment.signature asg in
      if
        Hashtbl.mem t.results key || Hashtbl.mem seen key
        || Trace.find_cached t.trace asg <> None
      then None
      else begin
        Hashtbl.add seen key ();
        Some (key, asg)
      end)
    asgs

let groups_of t todo =
  match t.affinity with
  | None -> List.map (fun item -> [ item ]) todo
  | Some aff -> affinity_groups aff todo

let prefetch t asgs =
  match t.shard with
  | Some sh when Shard.slots sh > 1 -> (
    match fresh_batch t asgs with
    | [] -> ()
    | todo ->
      let groups = groups_of t todo in
      let evaluated =
        Shard.map sh
          ~cost:(fun ms -> List.fold_left (fun acc m -> acc +. cost_of t m) 0.0 ms)
          (fun group -> List.map (fun (_, asg) -> t.evaluate asg) group)
          groups
      in
      List.iter2
        (List.iter2 (fun (key, _) m -> Hashtbl.replace t.results key m))
        groups evaluated)
  | Some _ | None -> ()  (* no scheduler, or a single slot: no speculation *)

let evaluate t asg =
  Trace.evaluate t.trace
    ~f:(fun asg ->
      match Hashtbl.find_opt t.results (Transform.Assignment.signature asg) with
      | Some m -> m
      | None ->
        let m = t.evaluate asg in
        (* a fresh evaluation outside any batch runs alone on the
           simulated cluster *)
        Option.iter (fun sh -> Shard.serial sh (cost_of t m)) t.shard;
        m)
    asg
