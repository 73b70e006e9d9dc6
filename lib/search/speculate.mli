(** Speculative batch evaluation for the batched searches.

    Bridges {!Ddmin.minimize}'s [prefetch] hook and a {!Shard} scheduler:
    candidates announced by a round are evaluated in parallel into a
    side table (raw evaluations — no trace records, no budget); the
    search then consumes them sequentially through {!evaluate}, which
    commits through the {!Trace} using the speculative result when one
    exists. Records, budget accounting and the search trajectory are
    therefore identical to a sequential run. Without a scheduler, or
    with a single-slot one, both operations degrade to the plain
    sequential path. Must be driven from a single domain. *)

type t

val create :
  ?shard:Shard.t ->
  ?cost:(Variant.measurement -> float) ->
  ?affinity:(Transform.Assignment.t -> string) ->
  trace:Trace.t ->
  evaluate:(Transform.Assignment.t -> Variant.measurement) ->
  unit ->
  t
(** [affinity] labels assignments that evaluate to the same underlying
    outcome (e.g. {!Core}'s batch-reuse signature); [prefetch] schedules
    same-label candidates back to back on one slot so the later ones
    hit the evaluator's reuse table instead of racing to recompute it.
    Purely a scheduling hint: results and records are unchanged.

    [shard] is the execution engine: each affinity group becomes one
    work-stealing shard task and the scheduler's simulated cluster clock
    advances per batch, with [cost] (simulated seconds per measurement,
    default 0) pricing the tasks. A scheduler with a single simulated
    slot ([Shard.slots = 1]) disables speculation — the classic
    sequential trajectory — while still accounting every fresh
    evaluation serially. *)

val prefetch : t -> Transform.Assignment.t list -> unit
(** Evaluate the not-yet-known assignments of a batch on the scheduler
    (deduplicated against the trace cache, earlier speculation, and
    within the batch), grouped by [affinity] when given. No-op without a
    scheduler of more than one slot. *)

val evaluate : t -> Transform.Assignment.t -> Variant.measurement
(** [Trace.evaluate] that serves speculative results before falling back
    to a direct evaluation. *)
