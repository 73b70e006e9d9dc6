(** Simulated batch execution on the paper's cluster setup.

    The paper parallelizes transformation, compilation and execution of
    variants over 20 dedicated Derecho nodes under a 12-hour job limit
    (Sec. IV-A). The cost model's abstract time units are mapped to wall
    seconds through the paper's own baseline wall times (MPAS-A ≈ 90 s,
    ADCIRC ≈ 200 s, MOM6 ≈ 60 s), plus a fixed per-variant transform +
    compile overhead; this bookkeeping reproduces the resource accounting
    (and MOM6's failure to finish inside the job limit). *)

type t = {
  nodes : int;  (** 20 in the paper *)
  job_hours : float;  (** 12 in the paper *)
  per_variant_overhead_s : float;  (** transform + compile + queue, per variant *)
  baseline_wall_s : float;  (** wall seconds of one baseline model run *)
}

val for_model : Models.Registry.t -> t
(** Paper-faithful constants for each model (funarc gets a 1-node,
    laptop-scale setup). *)

val variant_seconds : t -> baseline_cost:float -> variant_cost:float -> float
(** Wall seconds to transform, compile and run one variant whose modeled
    cost is [variant_cost]. *)

val campaign_hours : t -> baseline_cost:float -> variant_costs:float list -> float
(** Simulated wall-clock hours for a whole search, with variants spread
    across the nodes. *)

val over_budget : t -> float -> bool
(** Strictly above the job limit; exactly at the boundary is within
    budget. *)

(** Deterministic fault injection for campaign runs (Sec. III-D brought to
    production reality): seeded node failures, spurious per-variant
    transient errors with a capped retry budget, and job preemption at a
    simulated wall-clock boundary. Every decision is a pure function of
    [(fault_seed, fault kind, variant signature, attempt)], so a campaign
    replayed at the same seed — at any worker count, interrupted or not —
    meets exactly the same faults. The layer exists to exercise the
    journal's crash path on purpose and to account losses gracefully
    instead of aborting the search. *)
module Faults : sig
  type spec = {
    fault_seed : int;
    transient_prob : float;  (** per-attempt chance of a spurious run failure *)
    node_failure_prob : float;  (** per-attempt chance the node dies mid-variant *)
    max_retries : int;  (** extra attempts before a variant is declared lost *)
    preempt_at_hours : float option;
        (** simulated job boundary (the paper's 12 h); [None] = never *)
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
  }

  val zero_stats : stats

  type state

  exception Preempted of { at_hours : float; boundary : float }

  val create : spec -> state
  val spec : state -> spec
  val stats : state -> stats

  val perturb :
    spec -> signature:string -> Search.Variant.measurement -> Search.Variant.measurement
  (** What the search observes for this variant once faults are applied:
      unchanged when the retry budget absorbs every injected failure,
      otherwise an [Error] measurement with a ["fault: ..."] detail. Pure
      and deterministic — safe for speculative batch evaluation. *)

  val lost_seconds :
    spec ->
    t ->
    baseline_cost:float ->
    signature:string ->
    model_time:float ->
    float
  (** The node-seconds this variant's failed attempts burn (each one a
      {!variant_seconds} worth of wall clock). Pure: resume uses it to
      re-derive the hours a journaled prefix already consumed. *)

  val note_commit :
    state ->
    t ->
    baseline_cost:float ->
    signature:string ->
    model_time:float ->
    float
  (** Commit-time loss accounting for one recorded variant: re-derives the
      variant's failed attempts deterministically, updates {!stats}, and
      returns {!lost_seconds}, which the caller charges to the campaign.
      Called from the journal sink so speculative evaluations never skew
      the books. *)

  val check_preempt : state -> hours:float -> unit
  (** Raises {!Preempted} (after counting it) once the campaign's
      simulated hours reach the configured boundary. *)
end
