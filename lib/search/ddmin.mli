(** Generic ddmin (Zeller & Hildebrandt [33]).

    [minimize ~test xs] returns a 1-minimal subset [m] of [xs] with
    [test m = true]: removing any single element of [m] makes [test]
    fail. Requires [test xs = true]; [test []] is tried first (the empty
    set is trivially 1-minimal when it passes).

    The classic algorithm: partition the current set into [n] chunks, try
    each chunk and each complement, recurse on success with adjusted
    granularity, double [n] when stuck, and stop at singleton granularity.
    Average O(k log k) tests, worst case O(k²).

    Exceptions raised by [test] (e.g. {!Trace.Budget_exhausted})
    propagate to the caller. *)

(** One round candidate. A passing [Chunk] restarts at granularity 2; a
    passing [Complement] recurses at [max (n-1) 2], as in the classic
    algorithm. *)
type 'a candidate = Chunk of 'a list | Complement of 'a list

val subset : 'a candidate -> 'a list
(** The underlying element subset of a candidate. *)

val minimize :
  ?order:('a candidate list -> 'a candidate list) ->
  ?prefetch:('a list list -> unit) ->
  test:('a list -> bool) ->
  'a list ->
  'a list
(** [prefetch] (default: no-op) receives each round's candidate subsets —
    in exactly the order [test] will try them, after [order] — before the
    first [test] call of the round. A parallel caller speculates on them
    ({!Speculate}: one {!Shard.map} wave at a time, from the candidate
    [test] asks for) and serves the subsequent [test] calls from those
    results; because consumption stays sequential, the search trajectory
    is bit-identical to a run without [prefetch] — only wall clock
    changes.

    [order] (default: identity) reorders each round's merged candidate
    list (all chunks followed by all eligible complements) — the
    predictive-rank hook: a caller moves candidates it predicts will fail
    behind the rest, so [find_opt] reaches a passer with fewer
    evaluations. The default order replays the classic
    chunks-then-complements sequence exactly. Unlike [prefetch], [order]
    DOES change the search trajectory; determinism across schedulers is
    preserved as long as [order] is a pure function of the candidate sets
    and of evidence accumulated in committed-record order. *)

val partition : int -> 'a list -> 'a list list
(** [partition n xs] splits [xs] into at most [n] non-empty chunks of
    near-equal size, preserving order. Exposed for tests. *)
