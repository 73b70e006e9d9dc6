(** Speculative batch evaluation for the batched searches.

    Bridges {!Ddmin.minimize}'s [prefetch] hook and a {!Shard} scheduler:
    a round announces its candidates, and the search consumes them
    sequentially through {!evaluate}, which runs speculation one wave at
    a time — the candidate asked for plus the next [Shard.slots - 1]
    announced ones, evaluated in parallel into a side table (raw
    evaluations: no trace records, no budget) — and commits through the
    {!Trace}. Records, budget accounting and the search trajectory are
    therefore identical to a sequential run, and a round that stops at
    its first acceptance discards at most the rest of one wave. Without a
    scheduler, or with a single-slot one, both operations degrade to the
    plain sequential path. Must be driven from a single domain. *)

type t

val create :
  ?shard:Shard.t ->
  ?cost:(Variant.measurement -> float) ->
  trace:Trace.t ->
  evaluate:(Transform.Assignment.t -> Variant.measurement) ->
  unit ->
  t
(** [shard] is the execution engine: each wave is one {!Shard.map} batch
    whose candidates are its work-stealing tasks, and the scheduler's
    simulated cluster clock advances per wave, with [cost] (simulated
    seconds per measurement, default 0) pricing the tasks. A scheduler
    with a single simulated slot ([Shard.slots = 1]) disables
    speculation — the classic sequential trajectory — while still
    accounting every fresh evaluation serially. *)

val prefetch : t -> Transform.Assignment.t list -> unit
(** Announce a round's candidates, in the order the search will ask for
    them: records the not-yet-known ones (deduplicated against the trace
    cache, parked results, and within the round) and evaluates nothing.
    Replaces the previous round's announcement. No-op without a
    scheduler of more than one slot. *)

val evaluate : t -> Transform.Assignment.t -> Variant.measurement
(** [Trace.evaluate] that serves parked results. On a trace miss with no
    parked result, an announced candidate starts a wave: itself plus the
    next [Shard.slots - 1] announced candidates neither parked nor
    committed, run as one {!Shard.map} batch whose results are parked.
    A candidate that was not announced, or has nothing left to
    speculate beside it, is evaluated directly and accounted with
    {!Shard.serial}. *)
