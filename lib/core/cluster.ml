type t = {
  nodes : int;
  job_hours : float;
  per_variant_overhead_s : float;
  baseline_wall_s : float;
}

let for_model (m : Models.Registry.t) =
  match m.name with
  | "funarc" -> { nodes = 1; job_hours = 12.0; per_variant_overhead_s = 5.0; baseline_wall_s = 2.0 }
  | "mpas" -> { nodes = 20; job_hours = 12.0; per_variant_overhead_s = 600.0; baseline_wall_s = 90.0 }
  | "adcirc" ->
    { nodes = 20; job_hours = 12.0; per_variant_overhead_s = 600.0; baseline_wall_s = 200.0 }
  | "mom6" ->
    (* MOM6's larger search space keeps every node busy; heavier build *)
    { nodes = 20; job_hours = 12.0; per_variant_overhead_s = 900.0; baseline_wall_s = 60.0 }
  | _ -> { nodes = 20; job_hours = 12.0; per_variant_overhead_s = 600.0; baseline_wall_s = 60.0 }

let variant_seconds t ~baseline_cost ~variant_cost =
  let scale = if baseline_cost > 0.0 then t.baseline_wall_s /. baseline_cost else 0.0 in
  t.per_variant_overhead_s +. (variant_cost *. scale)

let campaign_hours t ~baseline_cost ~variant_costs =
  let total =
    List.fold_left
      (fun acc c -> acc +. variant_seconds t ~baseline_cost ~variant_cost:c)
      0.0 variant_costs
  in
  total /. float_of_int t.nodes /. 3600.0

let over_budget t hours = hours > t.job_hours

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

  type state = { spec : spec; lock : Mutex.t; mutable st : stats }

  exception Preempted of { at_hours : float; boundary : float }

  let create spec = { spec; lock = Mutex.create (); st = zero_stats }
  let spec t = t.spec

  let stats t =
    Mutex.lock t.lock;
    let s = t.st in
    Mutex.unlock t.lock;
    s

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

  (* Node-seconds burned by this variant's failed attempts — pure, so the
     resume path can re-derive the hours a journaled prefix consumed. *)
  let lost_seconds spec cluster ~baseline_cost ~signature ~model_time =
    let failed = transient_attempts spec ~signature + node_failure_attempts spec ~signature in
    if failed = 0 then 0.0
    else
      float_of_int failed
      *. variant_seconds cluster ~baseline_cost ~variant_cost:model_time

  (* Loss accounting at commit time, re-rolled deterministically from the
     signature so the books never depend on speculative evaluations: the
     seconds are [lost_seconds]'s, which the caller charges to the job. *)
  let note_commit t cluster ~baseline_cost ~signature ~model_time =
    let s = t.spec in
    let nt = transient_attempts s ~signature in
    let nn = node_failure_attempts s ~signature in
    let lost_s = lost_seconds s cluster ~baseline_cost ~signature ~model_time in
    if nt + nn > 0 then begin
      (* a variant is lost at most once; when both kinds exhaust the retry
         budget the node failure wins, mirroring [perturb]'s precedence *)
      let node_lost = nn > s.max_retries in
      let transient_lost = (not node_lost) && nt > s.max_retries in
      Mutex.lock t.lock;
      t.st <-
        {
          t.st with
          retried_attempts = t.st.retried_attempts + nt + nn;
          transient_losses = t.st.transient_losses + (if transient_lost then 1 else 0);
          node_losses = t.st.node_losses + (if node_lost then 1 else 0);
          node_failures = t.st.node_failures + nn;
          lost_node_seconds = t.st.lost_node_seconds +. lost_s;
        };
      Mutex.unlock t.lock
    end;
    lost_s

  (* The 12-hour wall: once the campaign's simulated hours cross the
     boundary the batch scheduler kills the job. Raised from the journal
     sink, after the current record is durable — exactly the crash the
     resume path is built for. *)
  let check_preempt t ~hours =
    match t.spec.preempt_at_hours with
    | Some boundary when hours >= boundary ->
      Mutex.lock t.lock;
      t.st <- { t.st with preemptions = t.st.preemptions + 1 };
      Mutex.unlock t.lock;
      raise (Preempted { at_hours = hours; boundary })
    | Some _ | None -> ()

  let active spec =
    spec.transient_prob > 0.0 || spec.node_failure_prob > 0.0 || spec.preempt_at_hours <> None
end
