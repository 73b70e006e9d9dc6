(** Simulated batch execution on the paper's cluster setup.

    The paper parallelizes transformation, compilation and execution of
    variants over 20 dedicated Derecho nodes under a 12-hour job limit
    (Sec. IV-A). The cost model's abstract time units are mapped to wall
    seconds through the paper's own baseline wall times (MPAS-A ≈ 90 s,
    ADCIRC ≈ 200 s, MOM6 ≈ 60 s), plus a fixed per-variant transform +
    compile overhead. A campaign's books are {!charge} folded over its
    committed records ({!books}); the 12-hour cut-off itself is the
    model's variant budget ([Models.Registry.max_variants]). *)

type t = {
  nodes : int;  (** 20 in the paper *)
  per_variant_overhead_s : float;  (** transform + compile + queue, per variant *)
  baseline_wall_s : float;  (** wall seconds of one baseline model run *)
}

val for_model : Models.Registry.t -> t
(** Paper-faithful constants for each model (funarc gets a 1-node,
    laptop-scale setup). *)

val variant_seconds : t -> baseline_cost:float -> variant_cost:float -> float
(** Wall seconds to transform, compile and run one variant whose modeled
    cost is [variant_cost]. *)

(** Deterministic fault injection for campaign runs (Sec. III-D brought to
    production reality): seeded node failures, spurious per-variant
    transient errors with a capped retry budget, and job preemption at a
    simulated wall-clock boundary. Every decision is a pure function of
    [(fault_seed, fault kind, variant signature, attempt)], so a campaign
    replayed at the same seed — at any worker count, interrupted or not —
    meets exactly the same faults, and its losses are re-derived from the
    committed records ({!charge}). The layer exists to exercise the
    journal's crash path on purpose and to account losses gracefully
    instead of aborting the search. *)
module Faults : sig
  type spec = {
    fault_seed : int;
    transient_prob : float;  (** per-attempt chance of a spurious run failure *)
    node_failure_prob : float;  (** per-attempt chance the node dies mid-variant *)
    max_retries : int;  (** extra attempts before a variant is declared lost *)
    preempt_at_hours : float option;
        (** simulated job boundary: the campaign stops at the first
            durable record whose books reach it ([>=]); [None] = never *)
  }

  val none : spec
  (** All probabilities zero, no preemption, 2 retries. *)

  val active : spec -> bool
  (** Whether the spec can ever inject anything. *)

  type stats = {
    retried_attempts : int;  (** failed attempts that triggered a retry *)
    transient_losses : int;  (** variants lost to persistent transient errors *)
    node_losses : int;  (** variants lost to nodes that kept dying *)
    node_failures : int;  (** individual node deaths *)
    lost_node_seconds : float;  (** node-seconds burned by failed attempts *)
    preemptions : int;
        (** preemptions of this run; the books never count one, the
            campaign that was cut adds it *)
  }

  val zero_stats : stats

  val perturb :
    spec -> signature:string -> Search.Variant.measurement -> Search.Variant.measurement
  (** What the search observes for this variant once faults are applied:
      unchanged when the retry budget absorbs every injected failure,
      otherwise an [Error] measurement with a ["fault: ..."] detail. Pure
      and deterministic — safe for speculative batch evaluation. *)
end

val off_cluster : Search.Variant.measurement -> bool
(** A static-filter rejection (detail ["static-filter"]): it never left
    the login node, so no fault touches it and it costs nothing. *)

val price : t -> baseline_cost:float -> Search.Variant.measurement -> float
(** Node-seconds of one attempt of this variant: {!variant_seconds} of
    its modeled cost, 0 {!off_cluster}. The shard simulation's task
    price. *)

type charge = {
  c_run_seconds : float;  (** {!price} *)
  c_faults : Faults.stats;
      (** the attempts its fault coins failed, each a whole {!price}
          burned, with their counts; zero without faults or off the
          cluster *)
}

val charge : t -> baseline_cost:float -> ?faults:Faults.spec -> Search.Variant.record -> charge
(** What one committed record costs the cluster. Pure: a resumed
    campaign re-derives its journaled prefix's charges exactly. *)

type books = {
  b_records : int;  (** committed records *)
  b_run_seconds : float;  (** {!charge}s' run seconds, summed in commit order *)
  b_hours : float;
      (** each record's run and lost seconds in cluster hours (over the
          nodes), summed in commit order: the progress a checkpoint, the
          snapshot and a service quota read *)
  b_best_speedup : float;  (** best passing speedup; 0 if none *)
  b_faults : Faults.stats;  (** summed losses; [preemptions] is 0 *)
}

val empty : books

val post :
  t -> baseline_cost:float -> ?faults:Faults.spec -> books -> Search.Variant.record -> books
(** Charge one more committed record to the books. *)

val books : t -> baseline_cost:float -> ?faults:Faults.spec -> Search.Variant.record list -> books
(** {!post} folded over a campaign's committed records from {!empty},
    journaled prefix first: the campaign's books. *)

val simulated_hours : t -> books -> float
(** Sec.-IV-A wall-clock hours with the variants spread across the
    nodes: run seconds over nodes, fault losses excluded. *)
