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
    worst-case O(n²).

    {b Community structure.} The paper points at clustering as the way to
    scale FPPT: HiFPTuner "exploits community structure" of variables
    [6], Yao & Xue cluster search atoms manually [32], and Sec. V
    recommends using the interprocedural FP flow graph to group variables
    that must move together. With [groups], the search runs in two
    phases:

    {ol
    {- {b group phase}: atoms are partitioned into caller-provided groups
       (typically connected components of the flow graph — variables
       linked by parameter passing, which a mixed assignment would split
       with costly wrappers). Each group is lowered or kept atomically
       and ddmin finds a 1-minimal set of {e groups} that must stay at
       64 bits.}
    {- {b atom phase}: the surviving groups' atoms are refined
       individually with a second ddmin, everything else staying
       lowered.}}

    Compared to flat delta debugging over [n] atoms, the group phase
    explores [g ≪ n] units, and grouped atoms never straddle a precision
    boundary mid-search — exactly the wrapper-overhead pathology the flow
    graph predicts. The result is 1-minimal at atom granularity within
    the reachable set (lowering any single remaining 64-bit atom violates
    the criteria). *)

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
  ?ranker:ranker ->
  ?groups:Transform.Assignment.atom list list ->
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
    contract.

    [groups] adds the group phase before the atom phase (see the
    community-structure note above). They must partition [atoms]
    (checked before anything is evaluated; raises [Invalid_argument]
    otherwise). Speculation, the ranker — one evidence stream across
    both phases — and the budget cut-off apply to both phases alike. *)

val accepted : config -> Variant.measurement -> bool
(** The oracle: passes, error within threshold, speedup above the floor. *)
