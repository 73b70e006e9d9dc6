type t = {
  nodes : int;
  per_variant_overhead_s : float;
  baseline_wall_s : float;
}

let for_model (m : Models.Registry.t) =
  match m.name with
  | "funarc" -> { nodes = 1; per_variant_overhead_s = 5.0; baseline_wall_s = 2.0 }
  | "mpas" -> { nodes = 20; per_variant_overhead_s = 600.0; baseline_wall_s = 90.0 }
  | "adcirc" -> { nodes = 20; per_variant_overhead_s = 600.0; baseline_wall_s = 200.0 }
  | "mom6" ->
    (* MOM6's larger search space keeps every node busy; heavier build *)
    { nodes = 20; per_variant_overhead_s = 900.0; baseline_wall_s = 60.0 }
  | _ -> { nodes = 20; per_variant_overhead_s = 600.0; baseline_wall_s = 60.0 }

let variant_seconds t ~baseline_cost ~variant_cost =
  let scale = if baseline_cost > 0.0 then t.baseline_wall_s /. baseline_cost else 0.0 in
  t.per_variant_overhead_s +. (variant_cost *. scale)

(* ------------------------------------------------------------------ *)

module Faults = struct
  type spec = {
    fault_seed : int;
    transient_prob : float;
    node_failure_prob : float;
    max_retries : int;
    preempt_at_hours : float option;
  }

  let none =
    {
      fault_seed = 0;
      transient_prob = 0.0;
      node_failure_prob = 0.0;
      max_retries = 2;
      preempt_at_hours = None;
    }

  type stats = {
    retried_attempts : int;
    transient_losses : int;
    node_losses : int;
    node_failures : int;
    lost_node_seconds : float;
    preemptions : int;
  }

  let zero_stats =
    {
      retried_attempts = 0;
      transient_losses = 0;
      node_losses = 0;
      node_failures = 0;
      lost_node_seconds = 0.0;
      preemptions = 0;
    }

  let add a b =
    {
      retried_attempts = a.retried_attempts + b.retried_attempts;
      transient_losses = a.transient_losses + b.transient_losses;
      node_losses = a.node_losses + b.node_losses;
      node_failures = a.node_failures + b.node_failures;
      lost_node_seconds = a.lost_node_seconds +. b.lost_node_seconds;
      preemptions = a.preemptions + b.preemptions;
    }

  (* Deterministic coin: a pure function of (seed, fault kind, variant
     signature, attempt). Independent of evaluation order, worker count
     and process — replays of the same campaign roll the same faults. *)
  let roll spec ~kind ~signature ~attempt p =
    p > 0.0
    &&
    let h = Hashtbl.hash (spec.fault_seed, kind, signature, attempt) land 0xFFFFFF in
    float_of_int h < p *. 16777216.0

  (* Consecutive failed attempts of one fault kind, capped one past the
     retry budget ([max_retries + 1] means: every allowed attempt failed). *)
  let failed_attempts spec ~kind ~signature p =
    let rec go k =
      if k > spec.max_retries then k
      else if roll spec ~kind ~signature ~attempt:k p then go (k + 1)
      else k
    in
    go 0

  let transient_attempts spec ~signature =
    failed_attempts spec ~kind:0 ~signature spec.transient_prob

  let node_failure_attempts spec ~signature =
    failed_attempts spec ~kind:1 ~signature spec.node_failure_prob

  (* The measurement a search observes once the injected faults have had
     their say. A node that keeps dying or a transient error that survives
     the retry budget turns the variant into an [Error] record — the
     campaign accounts it gracefully instead of aborting. Pure: the
     domains of a speculative batch may call this concurrently. *)
  let perturb spec ~signature (m : Search.Variant.measurement) =
    let lost detail =
      {
        m with
        Search.Variant.status = Search.Variant.Error;
        speedup = 0.0;
        rel_error = infinity;
        hotspot_time = 0.0;
        proc_stats = [];
        casting_share = 0.0;
        detail;
      }
    in
    let nn = node_failure_attempts spec ~signature in
    let nt = transient_attempts spec ~signature in
    if nn > spec.max_retries then
      lost (Printf.sprintf "fault: node lost after %d attempts" nn)
    else if nt > spec.max_retries then
      lost (Printf.sprintf "fault: transient error persisted after %d attempts" nt)
    else m

  (* What one variant's failed attempts cost, each a whole attempt of
     [attempt_s] node-seconds. A variant is lost at most once; when both
     kinds exhaust the retry budget the node failure wins, mirroring
     [perturb]'s precedence. *)
  let losses spec ~signature ~attempt_s =
    let nt = transient_attempts spec ~signature in
    let nn = node_failure_attempts spec ~signature in
    let failed = nt + nn in
    if failed = 0 then zero_stats
    else
      let node_lost = nn > spec.max_retries in
      {
        retried_attempts = failed;
        transient_losses = (if (not node_lost) && nt > spec.max_retries then 1 else 0);
        node_losses = (if node_lost then 1 else 0);
        node_failures = nn;
        lost_node_seconds = float_of_int failed *. attempt_s;
        preemptions = 0;
      }

  let active spec =
    spec.transient_prob > 0.0 || spec.node_failure_prob > 0.0 || spec.preempt_at_hours <> None
end

(* ------------------------------------------------------------------ *)
(* The books: one price per committed record, folded in commit order.  *)

let off_cluster (m : Search.Variant.measurement) = m.Search.Variant.detail = "static-filter"

let price t ~baseline_cost (m : Search.Variant.measurement) =
  if off_cluster m then 0.0
  else variant_seconds t ~baseline_cost ~variant_cost:m.Search.Variant.model_time

type charge = { c_run_seconds : float; c_faults : Faults.stats }

let charge t ~baseline_cost ?faults (r : Search.Variant.record) =
  let run = price t ~baseline_cost r.Search.Variant.meas in
  let losses =
    match faults with
    | Some spec when not (off_cluster r.Search.Variant.meas) ->
      Faults.losses spec ~signature:(Transform.Assignment.signature r.Search.Variant.asg)
        ~attempt_s:run
    | Some _ | None -> Faults.zero_stats
  in
  { c_run_seconds = run; c_faults = losses }

type books = {
  b_records : int;
  b_run_seconds : float;
  b_hours : float;
  b_best_speedup : float;
  b_faults : Faults.stats;
}

let empty =
  { b_records = 0; b_run_seconds = 0.0; b_hours = 0.0; b_best_speedup = 0.0;
    b_faults = Faults.zero_stats }

(* Two sums with their own float orders, both kept from the historical
   books: run seconds in commit order, divided once for
   [simulated_hours]; and each record's hours, losses included, for the
   progress a checkpoint, the snapshot and a quota read. *)
let post t ~baseline_cost ?faults b (r : Search.Variant.record) =
  let c = charge t ~baseline_cost ?faults r in
  let lost = c.c_faults.Faults.lost_node_seconds in
  let m = r.Search.Variant.meas in
  {
    b_records = b.b_records + 1;
    b_run_seconds = b.b_run_seconds +. c.c_run_seconds;
    b_hours = b.b_hours +. ((c.c_run_seconds +. lost) /. float_of_int t.nodes /. 3600.0);
    b_best_speedup =
      (if m.Search.Variant.status = Search.Variant.Pass && m.Search.Variant.speedup > b.b_best_speedup
       then m.Search.Variant.speedup
       else b.b_best_speedup);
    b_faults = Faults.add b.b_faults c.c_faults;
  }

let books t ~baseline_cost ?faults records =
  List.fold_left (post t ~baseline_cost ?faults) empty records

let simulated_hours t b = b.b_run_seconds /. float_of_int t.nodes /. 3600.0
