(** The Fig.-1 tuning cycle, assembled.

    [prepare] performs the one-time preprocessing ([T₀]: parse, search
    space construction, baseline profiling, threshold resolution) and
    returns an immutable evaluation space; [evaluate] is one trip around
    the cycle for one precision assignment ([T₂]–[T₄]: source-to-source
    transformation with wrapper insertion, strict typecheck of the
    transformed AST, lowering to the slot-resolved IR with per-procedure
    caching, execution under the cost model with the 3× timeout budget,
    correctness and Eq.-1 speedup scoring); {!run} drives a search over
    it. Each campaign [run] starts owns its evaluation state: lowering
    and compile caches, the batch-reuse table and an evaluation timer;
    [prepared] holds none of it. The historical unparse → reparse
    pipeline survives as {!verify}, the check of a finished campaign. *)

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
  reuse_mask : int list;
      (** signature positions the batch-reuse key blanks, fixed by the
          baseline program: the atoms whose kind cannot influence the run
          — those of procedures unreachable from the main program, and
          inert reals (no def, no use, no initializer, neither a dummy
          nor a function result). Variants whose signatures agree outside
          the mask share one raw outcome in a campaign's table. *)
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
    slot-resolved IR → closure compilation → execution. Never raises
    on variant failures: transformation or execution failures become
    [Error]-status measurements. When the static filter is enabled,
    statically-rejected variants return a zero-cost [Fail] measurement
    with detail ["static-filter"]. No variant is judged by its static
    error bound: a first-order upper bound cannot prove a failure.

    Each call runs on fresh state: empty lowering and compile caches and
    an empty batch-reuse table, so it lowers and compiles every
    procedure. A campaign's evaluations instead share the state {!run}
    makes for it, where a variant may be served from the table an
    effectively identical variant filled; the measurement is the same.
    Re-entrant: [prepared] is only read, so concurrent calls from
    several domains are safe. *)

type algo = Brute_force_algo | Delta_debug_algo | Hierarchical_algo
(** The resumable search algorithms. Journals name them so [resume] can
    continue the right search. *)

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
(** Evaluation-backend traffic. Derived by replaying the committed
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
      (** simulated cluster wall clock: per-wave work-stealing makespans
          plus serially accounted on-demand evaluations *)
  sched_steals : int;  (** tasks a non-home shard slot executed *)
  sched_rounds : int;  (** speculative batches scheduled: one per wave *)
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
  simulated_hours : float;
      (** Sec.-IV-A cluster accounting: {!Cluster.simulated_hours} of the
          campaign's books ({!Cluster.books} over [records]), so a
          static-filter rejection adds nothing *)
  eval_ms_mean : float;  (** mean wall-clock milliseconds per dynamic evaluation *)
  eval_ms_max : float;  (** slowest single evaluation, milliseconds *)
  trace_stats : Search.Trace.stats;
      (** memo-cache traffic; [misses] counts fresh dynamic evaluations,
          so a resumed campaign proves it re-evaluated nothing journaled
          by [misses = length records - preloaded] *)
  sched : sched_stats option;  (** [Some] iff a ddmin campaign ran with [?shards] *)
  preloaded : int;  (** records replayed from a journal (0 for fresh runs) *)
  interrupted : bool;
      (** the campaign was cut short by an injected preemption; the
          journal holds everything measured so far and [resume] continues
          it *)
  fault_stats : Cluster.Faults.stats option;
      (** loss accounting when fault injection was active: the books'
          losses over every committed record, a resumed journal's prefix
          included, so a resumed campaign reports the uninterrupted
          one's; [preemptions] is 1 iff this run was preempted *)
}

val backend_stats : campaign -> backend_stats
(** The campaign's evaluation-backend traffic, replayed from its
    committed records on every call: each record is rewritten, wrapped
    and keyed again (a fraction of a millisecond), so callers that
    report it call this once, after the campaign. *)

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
    moment when everything committed is already fsynced to the journal —
    its books so far ({!Cluster.books}: [b_records], [b_hours],
    [b_best_speedup]), which [snapshot.json] also records. *)

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
      (** called once per live evaluation, speculative ones included,
          with its pre-fault measurement *)
}
(** Fleet-wide evaluation memo hooks ([?memo] on {!run}; the
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

exception Resume_mismatch of string
(** The offered model/configuration disagrees with the journal header. *)

val run :
  ?shard:Search.Shard.t ->
  ?workers:int ->
  ?shards:int ->
  ?journal:string ->
  ?faults:Cluster.Faults.spec ->
  ?checkpoint:(progress -> unit) ->
  ?memo:memo_hooks ->
  algo:algo ->
  prepared ->
  campaign
(** The campaign: [algo]'s search over the prepared space, bounded by the
    variant budget (the configured [max_variants], else the model's: the
    simulated 12-hour limit). [Delta_debug_algo] is the paper's search
    (Sec. III-B), [Hierarchical_algo] the same search over {!flow_groups}
    first (the clustering the paper's Sec. V points to),
    [Brute_force_algo] the exhaustive 2ⁿ exploration of the funarc
    walkthrough (Sec. II-B), which runs sequentially, ignores [shard],
    [workers] and [shards], and journals 0 workers. Every runner below is
    a constructor over this one body.

    Parallelism is an execution strategy, not part of the experiment:
    records, minimal sets, the summary and the cluster-hours books are
    bit-identical at every setting, and only the requested [workers]
    enters the journal header (never {!Config.digest}). [workers]
    (default {!default_workers}; [0] = sequential) helper domains
    evaluate each ddmin wave beside the submitting domain — the laptop
    analogue of the paper's one-node-per-variant fan-out. The scheduler
    is, in order of precedence: with [shards], a work-stealing grid of
    [shards] simulated node-shards of [workers] slots each, whose
    deterministic simulated makespan lands in [sched] (the only
    scheduler that reports one); with no worker, none; the borrowed
    [shard], which a multiplexing caller shares between campaigns and
    which is never shut down here; otherwise a one-shard scheduler of
    [workers + 1] slots.

    [journal] makes the campaign durable: every committed record is
    appended (write-ahead, fsynced) to [journal.jsonl] in directory
    [journal] before the search proceeds, with periodic snapshots of the frontier state. The
    journal's record lines are byte-identical for every worker count. A
    directory without a journal starts one. A directory that holds one
    is continued: its model name, {!Config.digest}, atom count and
    algorithm must match [prepared] and [algo], or {!Resume_mismatch} is
    raised before anything is written, a torn tail included; its
    records are replayed into the trace's memo cache — zero
    re-evaluation, [trace_stats.misses] counts only fresh evaluations —
    and the search continues exactly as the uninterrupted campaign
    would have, cluster accounting and preemption clock included. Its
    seed is not adopted (it is part of the digest, so [prepared] must
    have been built with it; {!resume} reads it from the header).

    [faults] injects deterministic seeded cluster faults
    ({!Cluster.Faults}): lost variants are accounted as [Error] records,
    a preemption boundary interrupts the campaign gracefully
    ([interrupted = true]) after the first durable record whose books,
    the journaled prefix's included, reach it.
    [checkpoint] is called with the campaign's {!progress} once before
    any fresh work is scheduled and after every durable record; it may
    raise {!Paused} to suspend the campaign gracefully at that durable
    point. Both live in the journal's commit sink: either one without
    [journal] raises [Invalid_argument].

    [memo] plugs in a fleet-wide evaluation memo ({!memo_hooks}).

    The campaign's evaluation state — lowering and compile caches, the
    batch-reuse table, the timer behind [eval_ms_mean] — is made here
    and dies with the call; [prepared] is only read. One [prepared]
    therefore serves any number of campaigns of its space, in turn or
    concurrently, each with records identical to a solo run's. A
    campaign's space is its model source and {!Config.digest}, which
    covers every configuration field {!prepare} reads; the header
    check catches a journal of another model, digest or search-space
    size. *)

val verify : campaign -> (int, string) result
(** The [--verify-roundtrip] check of a finished campaign, against the
    historical pipeline: unparse the transformed program, reparse it,
    rebuild the symbol table, typecheck and run the tree-walking
    interpreter. Every committed record a dynamic run produced —
    table-served, memo-served and journal-replayed ones included — must
    equal the reference's measurement bit for bit, and a compiled
    evaluation on [verify]'s own caches (never the batch-reuse table)
    must reproduce the reference's whole outcome: status, cost, timers,
    series and printed lines. Static-filter rejections and records lost
    to injected faults (detail ["fault: ..."]) ran nothing and are
    skipped. [Ok n] counts the records checked; [Error msg] names the
    model, the first differing record's index and signature, and both
    outcomes. Sequential: one reference and one compiled evaluation per
    checked record. *)

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
(** [prepare ?config model], then {!run} [~algo:Delta_debug_algo]. *)

val run_hierarchical :
  ?config:Config.t -> ?workers:int -> ?journal:string -> Models.Registry.t -> campaign
(** [prepare ?config model], then {!run} [~algo:Hierarchical_algo]. *)

val run_brute_force :
  ?config:Config.t ->
  ?journal:string ->
  ?faults:Cluster.Faults.spec ->
  Models.Registry.t ->
  campaign
(** [prepare ?config model], then {!run} [~algo:Brute_force_algo]. *)

val resume :
  ?config:Config.t ->
  ?algo:algo ->
  ?seed:int ->
  ?workers:int ->
  ?shards:int ->
  ?faults:Cluster.Faults.spec ->
  ?model:Models.Registry.t ->
  journal:string ->
  unit ->
  campaign
(** Continue the journaled campaign in [journal:DIR]: read the header's
    model, algorithm and seed (adopted over [config]'s), [prepare], and
    {!run} — so the finished campaign is record-for-record and
    summary-bit-identical to one that was never interrupted. A torn
    final line from a crash mid-append is tolerated; the journal is left
    untouched when the header check fails. Only the header is read
    before [run], which loads the records once.

    [algo] and [seed] name the search and seed the caller expects; one
    that differs from the header's raises {!Resume_mismatch} before
    anything is prepared or written. Left out, the header's are taken.

    [model] overrides the registry lookup of the header's model name —
    for campaigns over custom-built model instances (tests, scaled-down
    sources); the name must still match the header.

    Raises {!Resume_mismatch} on header disagreement,
    {!Persist.Journal.Corrupt} on a damaged journal. *)

val run_random : ?config:Config.t -> samples:int -> Models.Registry.t -> campaign
(** Random-subset baseline for the ablation benchmark. *)

val flow_groups : prepared -> Transform.Assignment.atom list list
(** The search space partitioned by connected components of the
    interprocedural FP flow graph: atoms linked by parameter passing land
    in one group. Singleton groups for unconnected atoms. *)

val uniform32_measurement : prepared -> Search.Variant.measurement
(** The uniform 32-bit variant (the "supported single-precision build"
    MPAS-A is compared against). *)
