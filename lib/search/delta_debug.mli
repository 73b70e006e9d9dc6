(** The delta-debugging search for precision tuning (Sec. III-B).

    This is the Precimonious adaptation of Zeller-Hildebrandt ddmin
    [2, 33], the most canonical FPPT search strategy, used as a baseline
    or core component throughout the literature. It searches for a
    {e 1-minimal} variant: one possessing the smallest set of 64-bit
    variables for which lowering any one of them violates the correctness
    criteria or produces a variant less performant than required.

    The algorithm minimizes the {e high-precision} set [H] (initially all
    atoms, i.e. the baseline). A candidate [H] "passes" when the variant
    lowering everything outside [H] finishes, meets the error threshold
    and clears the performance floor. ddmin partitions [H] into [n]
    chunks, tries each chunk and each complement, doubles granularity
    when stuck, and stops when [H] is 1-minimal: every single-atom
    removal has been tried and fails. Average-case O(n log n) evaluations,
    worst-case O(n²). *)

type config = {
  error_threshold : float;  (** correctness criterion (model-specific, Sec. IV-A) *)
  perf_floor : float;
      (** acceptance floor for Eq.-1 speedup; [1.0] = "not less performant
          than the baseline". A value slightly below 1 tolerates noise. *)
}

type result = {
  minimal : Transform.Assignment.t;  (** the 1-minimal variant found *)
  high_set : Transform.Assignment.atom list;  (** atoms left at 64 bits *)
  finished : bool;  (** [false] when the variant budget ran out first *)
  evaluations : int;  (** distinct variants dynamically evaluated *)
}

(** The predictive-search hook (DESIGN.md §13). [note] is called after
    every [test] — once per consumed evaluation, in committed-record
    order, memo hits and journal replays included (the implementation
    deduplicates by signature, so resumed runs rebuild identical
    evidence). [round] runs once per ddmin round before any [demote]
    query (the place to refit per-round models); [demote asg = true]
    sends the candidate behind every kept one, in a stable split. All
    three must depend only on the evidence sequence and the assignment,
    never on wall clock or scheduling, to keep the trajectory
    deterministic across workers, shards and resume. *)
type ranker = {
  note : Transform.Assignment.t -> Variant.measurement -> unit;
  round : unit -> unit;
  demote : Transform.Assignment.t -> bool;
}

val search :
  ?shard:Shard.t ->
  ?cost:(Variant.measurement -> float) ->
  ?affinity:(Transform.Assignment.t -> string) ->
  ?ranker:ranker ->
  atoms:Transform.Assignment.atom list ->
  trace:Trace.t ->
  evaluate:(Transform.Assignment.t -> Variant.measurement) ->
  config ->
  result
(** All evaluations go through [trace] (memoized); pass a
    [?max_variants]-bounded trace to emulate the paper's 12-hour job
    limit. On {!Trace.Budget_exhausted} the best accepted assignment seen
    so far is returned with [finished = false].

    With a [shard] scheduler of more than one slot, each ddmin round's
    chunk and complement candidates are evaluated speculatively in
    parallel and consumed in sequential order ({!Speculate}), and the
    scheduler's simulated cluster clock advances using [cost]:
    [records], [minimal] and the budget cut-off are bit-identical to the
    sequential run at any shards × workers grid — only wall clock
    changes. [evaluate] must then be re-entrant.

    [ranker] steers each merged ddmin round: candidates its [demote]
    predicts will fail are moved (stably) behind the rest, so passing
    candidates are found with fewer evaluations. A round still contains
    exactly the classic candidates — only the order within the round
    changes — but a different first passer redirects the recursion, so
    1-minimality is preserved while the particular minimal set found may
    in principle differ ([bench --predict] checks it does not on the
    registered campaigns). Unlike [shard], [ranker] changes the
    exploration order; see {!type:ranker} for the determinism
    contract. *)

val accepted : config -> Variant.measurement -> bool
(** The oracle: passes, error within threshold, speedup above the floor. *)

val candidate_order :
  variant_of:('s list -> Transform.Assignment.t) ->
  ranker option ->
  ('s Ddmin.candidate list -> 's Ddmin.candidate list) option
(** The stable keep/demote reorder a [ranker] induces on a merged ddmin
    round ([None] = classic order). Shared with {!Hierarchical.search}. *)
