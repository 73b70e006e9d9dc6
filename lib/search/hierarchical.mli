(** Community-structure precision search.

    The paper points at clustering as the way to scale FPPT: HiFPTuner
    "exploits community structure" of variables [6], Yao & Xue cluster
    search atoms manually [32], and Sec. V recommends using the
    interprocedural FP flow graph to group variables that must move
    together. This search implements that idea on top of ddmin:

    {ol
    {- {b group phase}: atoms are partitioned into caller-provided groups
       (typically connected components of the flow graph — variables
       linked by parameter passing, which a mixed assignment would split
       with costly wrappers). Each group is lowered or kept atomically
       and ddmin finds a 1-minimal set of {e groups} that must stay at
       64 bits.}
    {- {b refinement phase}: the surviving groups' atoms are refined
       individually with a second ddmin, everything else staying
       lowered.}}

    Compared to flat delta debugging over [n] atoms, the group phase
    explores [g ≪ n] units, and grouped atoms never straddle a precision
    boundary mid-search — exactly the wrapper-overhead pathology the flow
    graph predicts. The result is 1-minimal at atom granularity within
    the reachable set (lowering any single remaining 64-bit atom violates
    the criteria). *)

val search :
  ?shard:Shard.t ->
  ?cost:(Variant.measurement -> float) ->
  ?affinity:(Transform.Assignment.t -> string) ->
  ?ranker:Delta_debug.ranker ->
  atoms:Transform.Assignment.atom list ->
  groups:Transform.Assignment.atom list list ->
  trace:Trace.t ->
  evaluate:(Transform.Assignment.t -> Variant.measurement) ->
  Delta_debug.config ->
  Delta_debug.result
(** [groups] must partition [atoms] (checked; raises [Invalid_argument]
    otherwise). Budget exhaustion returns the best accepted variant seen,
    with [finished = false], as in {!Delta_debug.search}. A {!Shard}
    scheduler ([shard], priced by [cost]) enables speculative batch
    evaluation in both phases with a bit-identical trajectory, as in
    {!Delta_debug.search}. [ranker] demotes predicted-fail candidates in
    both the group-phase and the refinement-phase rounds, accruing one
    evidence stream across the two phases, as in
    {!Delta_debug.search}. *)
