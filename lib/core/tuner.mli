(** The Fig.-1 tuning cycle, assembled.

    [prepare] performs the one-time preprocessing ([T₀]: parse, search
    space construction, baseline profiling, threshold resolution);
    [evaluate] is one trip around the cycle for one precision assignment
    ([T₂]–[T₄]: source-to-source transformation with wrapper insertion,
    strict typecheck of the transformed AST, lowering to the
    slot-resolved IR with per-procedure caching, execution under the
    cost model with the 3× timeout budget, correctness and Eq.-1 speedup
    scoring); the campaign runners drive the search algorithms over it.
    The historical unparse → reparse pipeline survives as the
    [verify_roundtrip] cross-check. *)

type eval_stats
(** Mutable per-campaign evaluation wall-clock accounting (count, total,
    max); safe to update from every domain that evaluates a batch. *)

type share
(** The batch-reuse table: raw outcomes shared between variants of the
    search space whose signatures agree once a per-atom mask, fixed by
    the baseline program, blanks the atoms whose kind cannot influence
    the run — those of procedures unreachable from the main program, and
    inert reals (no def, no use, no initializer, neither a dummy nor a
    function result). Mutex-guarded, first write wins, so the records a
    campaign commits never depend on the worker count. *)

type prepared = {
  model : Models.Registry.t;
  config : Config.t;
  st : Fortran.Symtab.t;  (** baseline program's symbol table *)
  atoms : Transform.Assignment.atom list;  (** the search space (Sec. III-A) *)
  baseline_cost : float;  (** modeled whole-run CPU time of the baseline *)
  baseline_hotspot : float;  (** exclusive time of the targeted procedures *)
  baseline_metric : float list;  (** per-step correctness series *)
  baseline_timers : Runtime.Timers.entry list;
  baseline_times : float list;  (** the 10-member noisy ensemble (Sec. IV-A) *)
  threshold : float;  (** resolved error threshold *)
  eq1_n : int;  (** Eq. 1's n, chosen from the ensemble's relative std *)
  perf_floor : float;
      (** noise-adjusted acceptance floor: the configured floor, capped at
          3σ below parity for the model's Eq.-1 noise *)
  budget : float;  (** variant timeout: timeout_factor × baseline cost *)
  baseline_static : Analysis.Static_cost.verdict;
  scorer : Sensitivity.Score.t option;
      (** the error-amplification scorer steering {!Config.Predict_rank};
          [None] when predict is off, or when the mirror analysis
          declined to vouch for itself ({!Sensitivity.Score.create}
          returned [None]) and the campaign fell back to the unpredicted
          search *)
  cache : Runtime.Lower.Cache.t;
      (** the campaign's per-procedure lowering cache; domain-safe,
          shared by every evaluating domain. This field, [ccache],
          [share] and [eval_stats] are the per-campaign state
          {!run_prepared} allocates afresh for every campaign it runs. *)
  ccache : Runtime.Compile.Cache.t;
      (** the campaign's compiled-procedure cache, keyed by the same
          precision-signature scheme as [cache]; the baseline run in
          {!prepare} fills it first *)
  share : share option;
      (** the batch-reuse table ([None] under [verify_roundtrip], whose
          point is to really run every variant) *)
  eval_stats : eval_stats;
}

val prepare : ?config:Config.t -> Models.Registry.t -> prepared
(** Raises on a malformed model program (parse/typecheck failures are
    bugs in the model, not variant outcomes). *)

val hotspot_time : prepared -> Runtime.Timers.entry list -> float
(** Sum of exclusive times of the targeted procedures — GPTL-style
    hotspot CPU time (Sec. III-E). *)

val evaluate : prepared -> Transform.Assignment.t -> Search.Variant.measurement
(** One dynamic evaluation via the fast path: rewrite → wrapper insertion
    → symtab + typecheck on the transformed AST directly → {!Runtime.Lower}
    slot-resolved IR (cached per procedure) → IR execution. Never raises
    on variant failures: transformation or execution failures become
    [Error]-status measurements. When the static filter is enabled,
    statically-rejected variants return a zero-cost [Fail] measurement
    with detail ["static-filter"].

    When {!Config.t.verify_roundtrip} is set, every evaluation
    additionally runs the historical unparse → reparse → tree-walk
    pipeline and raises [Failure] if any outcome bit differs — the fast
    path's correctness oracle.

    Apart from the static filter, every variant runs, or is served from
    the batch-reuse table an effectively identical variant filled. None
    is judged by its static error bound: a first-order upper bound
    cannot prove a failure.

    Re-entrant: each call allocates its own transformation and execution
    state and only reads the shared [prepared] value (the lowering cache
    is mutex-guarded), so concurrent calls from several domains are safe. *)

type algo = Brute_force_algo | Delta_debug_algo | Hierarchical_algo
(** The resumable search algorithms. Journals name them so [resume] can
    continue the right search. *)

val algo_name : algo -> string
(** ["brute_force"], ["delta_debug"], ["hierarchical"]. *)

val algo_of_name : string -> algo option

type backend_stats = {
  compiled_procs : int;
      (** distinct procedure bodies translated to closures over the whole
          campaign *)
  compile_hits : int;  (** compiled procedures served from the cache *)
  reuse_hits : int;
      (** committed variants the batch-reuse table answers without
          running anything *)
  reuse_misses : int;  (** committed variants that run and publish their outcome *)
}
(** Evaluation-backend traffic; the reuse counters are zero under
    {!Config.t.verify_roundtrip}, which runs without the table. Derived
    by replaying the committed
    record stream in commit order (batch-reuse classes first, then the
    per-procedure cache keys of each fresh class), so the numbers are
    identical at every worker and shard count — speculative evaluations
    a parallel round later discards never show up — and a resumed
    campaign reports the same counters as an uninterrupted one. The
    caches' own live counters (atomics aggregated across domains) keep
    counting real work and are deliberately not reported. *)

type sched_stats = {
  sched_shards : int;  (** simulated node-shards *)
  sched_workers : int;  (** evaluation slots per shard ([0] = sequential) *)
  sched_slots : int;  (** total simulated slots (1 when workers = 0) *)
  sched_sim_hours : float;
      (** simulated cluster wall clock: per-round work-stealing makespans
          plus serially accounted on-demand evaluations *)
  sched_steals : int;  (** tasks a non-home shard slot executed *)
  sched_rounds : int;  (** speculative batches scheduled *)
  sched_batched : int;  (** tasks that went through the sharded deques *)
  sched_serial : int;  (** on-demand evaluations accounted serially *)
}
(** Shard-scheduler accounting for campaigns run with [?shards]. The
    simulated clock is a deterministic function of the committed
    trajectory and the partition — not of real thread interleaving — so
    scaling curves reproduce on any machine. Kept out of the summary:
    summaries stay bit-identical across every shards × workers point. *)

type campaign = {
  prepared : prepared;
  records : Search.Variant.record list;  (** every distinct variant, in order *)
  summary : Search.Variant.summary;  (** the Table-II row *)
  minimal : Search.Delta_debug.result option;  (** [None] for brute force *)
  simulated_hours : float;  (** Sec.-IV-A cluster accounting *)
  eval_ms_mean : float;  (** mean wall-clock milliseconds per dynamic evaluation *)
  eval_ms_max : float;  (** slowest single evaluation, milliseconds *)
  trace_stats : Search.Trace.stats;
      (** memo-cache traffic; [misses] counts fresh dynamic evaluations,
          so a resumed campaign proves it re-evaluated nothing journaled
          by [misses = length records - preloaded] *)
  backend : backend_stats;  (** compile and batch-reuse traffic *)
  sched : sched_stats option;  (** [Some] iff the campaign ran with [?shards] *)
  preloaded : int;  (** records replayed from a journal (0 for fresh runs) *)
  interrupted : bool;
      (** the campaign was cut short by an injected preemption; the
          journal holds everything measured so far and [resume] continues
          it *)
  fault_stats : Cluster.Faults.stats option;
      (** loss accounting when fault injection was active *)
}

val default_workers : unit -> int
(** The default evaluation parallelism, {!Search.Shard.default_workers}:
    one helper domain per spare core beside the submitting domain
    ([Domain.recommended_domain_count () - 1], never negative). *)

type progress = {
  pg_records : int;  (** records committed so far, incl. a resumed prefix *)
  pg_hours : float;  (** simulated cluster hours consumed, incl. fault losses *)
  pg_best : float;  (** best passing speedup committed so far *)
}
(** What a [?checkpoint] hook sees: the campaign's durable progress at a
    moment when everything committed is already fsynced to the journal. *)

exception Paused
(** Raised by a caller's [?checkpoint] hook to suspend the campaign at
    the current durable record. The runner returns a campaign with
    [interrupted = true]; {!resume} later continues it bit-identically
    (exactly like an injected preemption, but caller-controlled). *)

type memo_hooks = {
  memo_find : signature:string -> (Search.Variant.measurement * string) option;
      (** pre-fault measurement for this signature, plus the donor
          campaign id, if some fleet campaign already evaluated it *)
  memo_publish : signature:string -> Search.Variant.measurement -> unit;
      (** called once per fresh evaluation with its pre-fault measurement *)
}
(** Fleet-wide evaluation memo hooks ([?memo] on the runners; the
    service's cross-campaign memo plugs in here, solo campaigns pass
    none). The contract: the memo is keyed by evaluation space — same
    model source and same {!Config.digest} — within which a pre-fault
    measurement is a pure function of the signature, identical whichever
    campaign computes it. A [memo_find] hit is committed as a normal
    record (journaled, budgeted, charged full simulated cluster-hours)
    with this campaign's own fault perturbation applied and a
    provenance annotation line in the journal, but costs no live
    evaluation — it shows up in {!Search.Trace.stats} as [shared]
    instead of [misses]. Preloaded (journal-replayed) records are never
    republished: their stored values are post-fault. *)

val run_delta_debug :
  ?config:Config.t ->
  ?workers:int ->
  ?shards:int ->
  ?journal:string ->
  ?faults:Cluster.Faults.spec ->
  ?checkpoint:(progress -> unit) ->
  ?memo:memo_hooks ->
  Models.Registry.t ->
  campaign
(** The paper's search (Sec. III-B) on the model's search space, bounded
    by the model's variant budget (the simulated 12-hour limit).

    [workers] (default {!default_workers}; [0] = sequential) spreads each
    ddmin round's candidate evaluations over a one-shard
    {!Search.Shard} scheduler of [workers + 1] slots: [workers] helper
    domains plus the submitting domain, which evaluates too — the laptop
    analogue of the paper's one-node-per-variant cluster fan-out. It has
    no yield hook and reports no [sched] stats. The search trajectory,
    [records] and the Table-II summary are bit-identical across worker
    counts; only wall clock changes ([simulated_hours] stays
    variant-count-based).

    [shards] switches the campaign to the {!Search.Shard} work-stealing
    scheduler: each round's candidates are block-partitioned over
    [shards] simulated node-shards of [workers] slots each (so
    [~shards:s ~workers:0] is the sequential trajectory), shards that
    drain early steal from their neighbours, and the deterministic
    simulated makespan lands in [sched]. Records, minimal sets, the
    summary and the cluster-hours books are bit-identical at every
    shards × workers point — sharding is an execution strategy, not part
    of the experiment, which is also why it never enters
    {!Config.digest} or the journal header.

    [journal] makes the campaign durable: every committed record is
    appended (write-ahead, fsynced) to [DIR/journal.jsonl] before the
    search proceeds, with periodic snapshots of the frontier state. The
    journal's record lines are byte-identical for every worker count. A
    killed campaign continues with {!resume}.

    [faults] injects deterministic seeded cluster faults
    ({!Cluster.Faults}): lost variants are accounted as [Error] records,
    a preemption boundary interrupts the campaign gracefully
    ([interrupted = true]) after the current record is durable. Fault
    bookkeeping and the preemption clock live in the journal's commit
    sink, so [faults] should be combined with [journal]; without it only
    the measurement perturbation applies.

    [checkpoint] is called with the campaign's {!progress} after every
    fresh durable record (from the journal's commit sink, so it only
    fires on journaled campaigns), once before any fresh work is
    scheduled, and — under [shards] — between speculative batches. The
    hook may raise {!Paused} to suspend the campaign gracefully at that
    durable point. *)

val run_brute_force :
  ?config:Config.t ->
  ?journal:string ->
  ?faults:Cluster.Faults.spec ->
  ?checkpoint:(progress -> unit) ->
  ?memo:memo_hooks ->
  Models.Registry.t ->
  campaign
(** Exhaustive 2ⁿ exploration — the funarc walkthrough of Sec. II-B.
    [journal] and [faults] as in {!run_delta_debug}. *)

val run_random : ?config:Config.t -> samples:int -> Models.Registry.t -> campaign
(** Random-subset baseline for the ablation benchmark. *)

val flow_groups : prepared -> Transform.Assignment.atom list list
(** The search space partitioned by connected components of the
    interprocedural FP flow graph: atoms linked by parameter passing land
    in one group. Singleton groups for unconnected atoms. *)

val run_hierarchical :
  ?config:Config.t ->
  ?workers:int ->
  ?shards:int ->
  ?journal:string ->
  ?faults:Cluster.Faults.spec ->
  ?checkpoint:(progress -> unit) ->
  ?memo:memo_hooks ->
  Models.Registry.t ->
  campaign
(** The community-structure search ({!Search.Hierarchical}) over the
    flow-graph groups — the clustering approach the paper's Sec. V points
    to for scaling FPPT. [workers], [shards], [journal], [faults],
    [checkpoint] as in {!run_delta_debug}. *)

exception Resume_mismatch of string
(** The offered model/configuration disagrees with the journal header. *)

val run_prepared :
  ?workers:int ->
  ?shard:Search.Shard.t ->
  ?faults:Cluster.Faults.spec ->
  ?checkpoint:(progress -> unit) ->
  ?memo:memo_hooks ->
  algo:algo ->
  journal:string ->
  prepared ->
  campaign
(** Start the journaled [algo] campaign in directory [journal] over an
    already prepared evaluation space, or continue it when the directory
    already holds a journal — the one entry a multiplexing caller needs
    for every slice of every job. A fresh journal gets the header a solo
    run would write ({!run_brute_force} records 0 workers). An existing
    one is checked first: its model name, {!Config.digest}, atom count
    and algorithm must match [prepared] and [algo], or {!Resume_mismatch}
    is raised before anything is written, a torn tail included. It is
    then continued as {!resume} would, with zero re-evaluation of the
    journaled prefix; its seed is not adopted (it is part of the digest,
    so [prepared] must have been built with it). [workers], [faults],
    [checkpoint] and [memo] as in {!run_delta_debug}.

    [shard] lends an externally owned {!Search.Shard} scheduler instead
    of creating a one-shard one per campaign — the substrate a
    multiplexing service shares between jobs. It is used whenever the
    effective worker count is positive and is never shut down here, and
    its stats are not reported; the journal header still records
    [workers], so journals stay byte-identical to solo runs.

    {b Sharing a [prepared].} Each call runs on fresh per-campaign state
    — empty lowering and compile caches, an empty batch-reuse table,
    zeroed eval timing — and only reads the rest of [prepared] (program,
    search space, baseline books, threshold, scorer). One [prepared] may
    therefore serve any number of campaigns, in turn or concurrently,
    with records identical to solo runs (outcomes never depend on cache
    contents) and no cache outliving its call. Hand it only campaigns of
    the space it was built for: the same model source, the same
    {!Config.digest}, and the same {!Config.t.verify_roundtrip} switch,
    which the digest leaves out but {!prepare} reads. The header check
    catches a mismatched model, digest or search-space size. *)

val resume :
  ?config:Config.t ->
  ?workers:int ->
  ?shards:int ->
  ?faults:Cluster.Faults.spec ->
  ?checkpoint:(progress -> unit) ->
  ?memo:memo_hooks ->
  ?model:Models.Registry.t ->
  journal:string ->
  unit ->
  campaign
(** Continue a journaled campaign from [journal:DIR]: load the journal
    (tolerating a torn final line from a crash mid-append), validate the
    header against the offered configuration (the journal's seed is
    adopted; the config digest and the model's atom count must agree),
    pre-seed the search trace's memo cache with every journaled record,
    and re-run the deterministic search. The journaled prefix is served
    from the cache — [trace_stats.misses] counts only post-resume fresh
    evaluations — and the finished campaign is record-for-record and
    summary-bit-identical to one that was never interrupted. The cluster
    accounting (and the fault layer's preemption clock) continues from
    the hours the journaled prefix consumed. The journal is left
    untouched when the header check fails.

    [model] overrides the registry lookup of the header's model name —
    for campaigns over custom-built model instances (tests, scaled-down
    sources); the name must still match the header.

    Raises {!Resume_mismatch} on header disagreement,
    {!Persist.Journal.Corrupt} on a damaged journal. *)

val uniform32_measurement : prepared -> Search.Variant.measurement
(** The uniform 32-bit variant (the "supported single-precision build"
    MPAS-A is compared against). *)
