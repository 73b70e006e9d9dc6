(** One tuning request in the service's queue.

    A job bundles what a tenant asked the service to tune — model, search
    algorithm and the result-affecting settings `prose tune` exposes —
    with a quota in simulated cluster-hours and the durable progress the
    scheduler has made on it. Serialized via {!Persist.Json} (floats as
    bit-exact hex strings). *)

type spec = {
  sp_model : string;  (** registry name, e.g. ["funarc"] *)
  sp_algo : string;  (** ["brute_force"], ["delta_debug"] or ["hierarchical"] *)
  sp_seed : int;
  sp_workers : int;
      (** requested evaluation parallelism; lands in the journal header
          exactly as a solo [prose tune --workers] run's would (results
          never depend on it) *)
  sp_max_variants : int option;
  sp_whole_model : bool;
  sp_quota_hours : float option;
      (** per-job budget in simulated cluster hours; the scheduler stops
          the job (terminal [Failed "quota-exhausted"]) at the first
          durable record whose accumulated hours reach it — the same
          stopping record an injected preemption at that boundary
          produces. [None] = unlimited *)
  sp_faults : Core.Cluster.Faults.spec option;
      (** deterministic fault injection for this job's campaign; specs
          with a preemption boundary are admission-rejected (stopping jobs
          is the scheduler's prerogative) *)
  sp_tenant : string;  (** accounting label, free-form *)
  sp_priority : int;
      (** scheduling weight (>= 1, default 1): consecutive slices the
          weighted-deficit round-robin grants per turn. Absent on
          pre-PR-10 state files, which parse as weight 1. Never
          result-affecting — only {e when} a job's slices run. *)
}

type state =
  | Queued  (** admitted, no slice run yet *)
  | Running  (** has a journal; runnable *)
  | Paused  (** drained by server shutdown; runnable, resumes bit-identically *)
  | Done  (** campaign finished; summary and minimal set published *)
  | Failed of string  (** terminal: admission/config error, cancel, or quota *)

type t = {
  id : string;  (** ["j001"], ["j002"], ... *)
  spec : spec;
  state : state;
  records : int;  (** committed journal records at the last checkpoint *)
  hours : float;  (** simulated cluster hours consumed, incl. fault losses *)
  best_speedup : float;
  shared : int;
      (** cumulative records served by the fleet-wide evaluation memo
          (provenance-annotated in the journal); 0 with the memo off *)
}

val make : id:string -> spec -> t
(** A fresh [Queued] job with zeroed progress. *)

val state_name : state -> string
(** ["queued"], ["running"], ["paused"], ["done"], ["failed"]. *)

val terminal : state -> bool
val runnable : state -> bool
(** Runnable = [Queued], [Running] or [Paused]. *)

val config_of_spec : spec -> Core.Config.t
(** The exact {!Core.Config.t} [prose tune] builds from the same
    settings, so a job's journal carries the same config digest as the
    solo run it must be byte-identical to. *)

val validate : find_model:(string -> Models.Registry.t) -> spec -> (unit, string) result
(** Admission control: known model ([find_model] raising [Not_found]
    rejects) and algorithm, non-negative workers, positive quota,
    variant budget and priority, and no job-supplied preemption
    boundary. *)

val spec_json : spec -> Persist.Json.t
val to_json : t -> Persist.Json.t

val spec_result : Persist.Json.t -> (spec, string) result
val of_json : Persist.Json.t -> (t, string) result
