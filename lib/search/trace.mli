(** Evaluation trace: memoization plus the exploration log.

    The search algorithms call {!evaluate}; identical assignments (same
    signature) are served from cache without recording a new variant, so
    the trace's record list is exactly the set of {e distinct} variants
    dynamically evaluated — the "Total" column of Table II.

    All operations are thread-safe (one lock around the cache and the
    record list). Cache hits never burn budget — in particular a cached
    assignment is still served after {!Budget_exhausted} has been raised
    — and [f] runs outside the lock, so concurrent evaluations proceed in
    parallel (the first commit for a signature wins; later ones are
    discarded).

    {b Durability hooks.} An optional [sink] passed to {!create} fires
    once per committed record, under the trace lock, in commit-index
    order — the campaign journal's write-ahead append point; worker count
    never changes the sequence the sink observes. {!preload} seeds the
    cache and record list from a replayed journal so a resumed campaign
    re-evaluates nothing it already measured, and {!stats} exposes the
    counters that prove it (a journaled prefix contributes hits, never
    misses).

    {b Cross-campaign sharing.} An optional [shared_lookup] is consulted
    on every own-cache miss, before [f] runs: a hit answers a measurement
    and the id of the donor campaign that computed it, and commits as a
    normal record (cache, record list, budget, sink — everything a fresh
    evaluation would touch) but is counted under [shared] instead of
    [misses], and the sink receives its donor, so the journaling layer
    annotates the record's provenance atomically with its append. The
    service's fleet-wide evaluation memo plugs in here; a solo campaign
    passes no lookup and its sink always sees [~donor:None]. *)

type t

type stats = {
  hits : int;  (** {!evaluate} calls served from the memo cache *)
  misses : int;  (** fresh evaluations committed as records *)
  shared : int;
      (** records committed from [shared_lookup] answers — journaled and
          budgeted like misses, but no live evaluation ran *)
  live : int;  (** distinct signatures currently cached *)
  appends : int;  (** sink invocations (journaled appends); 0 without a sink *)
}

val create :
  ?max_variants:int ->
  ?shared_lookup:(Transform.Assignment.t -> (Variant.measurement * string) option) ->
  ?sink:(donor:string option -> Variant.record -> unit) ->
  unit -> t
(** [sink] is called synchronously under the trace lock as each record
    commits (after the cache and record list are updated), with the
    donor of a shared commit and [None] otherwise. An exception raised
    by the sink propagates out of {!evaluate} with the commit already in
    place — the simulated job-preemption path.

    [shared_lookup] runs {e outside} the trace lock (it may take its own)
    and must be a pure function of the assignment for the campaign's
    configuration — its measurement is committed verbatim as this
    campaign's, its donor id handed to the sink. *)

exception Budget_exhausted
(** Raised by {!evaluate} when [max_variants] distinct evaluations have
    been spent (the searches catch it and report an unfinished search, as
    with MOM6's 12-hour cut-off). Records preloaded from a journal count
    toward the budget exactly as they did in the original run. *)

val evaluate :
  t -> f:(Transform.Assignment.t -> Variant.measurement) -> Transform.Assignment.t ->
  Variant.measurement

val find_cached : t -> Transform.Assignment.t -> Variant.measurement option
(** Peek at the cache without evaluating, recording, or touching the
    budget or the hit/miss counters — used to skip already-known variants
    when building a speculative batch. *)

val preload : t -> Variant.record list -> unit
(** Seed the trace with already-measured records (journal replay), in
    order: each distinct signature is cached, appended to the record list
    with the next commit index, and counted against the budget. The sink
    is {e not} fired — preloaded records are already journaled — and the
    hit/miss counters are untouched. Duplicate signatures are ignored. *)

val records : t -> Variant.record list
(** In evaluation order. *)

val count : t -> int
val stats : t -> stats
