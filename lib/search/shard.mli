(** Work-stealing batch scheduler: the one execution substrate for every
    speculative batch.

    The paper's campaigns evaluate every variant as an independent cluster
    job and fan each search round out over 20 dedicated nodes (Sec.
    IV-A). This module is the laptop analogue: each batch — one wave of
    a round's candidates, under {!Speculate} — is block-partitioned over
    [shards] simulated node-shards, each shard owning a deque of tasks
    consumed by its [workers] slots, and a shard whose partition drains
    early steals from its neighbours in cyclic order ("lock-free-ish":
    deques are plain arrays with an atomic take cursor, so a steal is one
    [Atomic.fetch_and_add] — no locks on the task path). One shard is a plain domain pool: a campaign at
    [workers w >= 1] without a shard grid runs on
    [create ~shards:1 ~workers:(w + 1)], the submitting domain being one
    of the [w + 1] slots.

    Two clocks run per batch:

    - {b real execution}: the submitting domain takes tasks alongside
      [min (slots t - 1) (default_workers ())] helper domains, all of
      them through the same deques, so a batch runs on at most
      [slots t] domains;
    - {b simulated schedule}: a deterministic event-driven list-scheduling
      simulation replays the batch over the full [shards × workers] slot
      grid using the caller-supplied per-task costs, yielding the
      simulated makespan and steal count. The simulation depends only on
      the partition and the costs — never on real thread interleaving —
      so the scaling curve is reproducible on any machine, including a
      single-core one.

    {!map} preserves submission order in its result list and re-raises
    the first (by submission order) exception a task threw, after the
    whole batch has drained: consumers commit results sequentially, so
    steal order can never reorder the commit stream. Only driven from the
    domain that created it; the mapped function must be re-entrant. *)

type t

val create : shards:int -> workers:int -> unit -> t
(** [shards >= 1] simulated node-shards of [workers >= 0] evaluation
    slots each. [workers = 0] means a single sequential slot overall
    (the classic no-speculation trajectory); raises [Invalid_argument]
    on a negative argument or [shards < 1]. Spawns
    [min (slots t - 1) (default_workers ())] helper domains: the
    submitting domain is a slot too. *)

val shutdown : t -> unit
(** Terminates and joins the helper domains. Idempotent; mapping on a
    shut-down scheduler raises [Invalid_argument]. *)

val with_shards : shards:int -> workers:int -> (t -> 'a) -> 'a
(** Fresh scheduler for the call's duration, shut down on exit. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count () - 1] (never negative): one helper
    domain per spare core beside the submitting one. *)

val shards : t -> int
val workers : t -> int

val slots : t -> int
(** Simulated evaluation slots: [1] when [workers = 0], else
    [shards * workers]. Callers gate speculation on [slots t > 1]. *)

val partition : shards:int -> 'a list -> 'a list array
(** Order-preserving block partition into exactly [shards] lists (later
    ones may be empty): concatenating the result restores the input, so
    every element is assigned to exactly one shard. Raises
    [Invalid_argument] when [shards < 1]. *)

(** The steal target: an immutable task array consumed through one
    atomic cursor. [take] is total-ordered across domains, so each
    element is handed out exactly once no matter how many thieves
    race. *)
module Deque : sig
  type 'a t

  val of_list : 'a list -> 'a t
  val take : 'a t -> 'a option
  (** Next unconsumed element in submission order, or [None] when
      drained. Safe from any domain. *)

  val remaining : 'a t -> int
  (** Elements not yet taken (a racing snapshot; exact once quiescent). *)
end

(** Pure deterministic schedule simulation, exposed for property
    tests. *)
module Sim : sig
  type outcome = {
    makespan : float;  (** simulated seconds until the last slot finishes *)
    steals : int;  (** tasks executed by a slot outside their home shard *)
  }

  val schedule : shards:int -> workers:int -> queues:float array array -> outcome
  (** List-schedule the per-shard cost queues over the slot grid: the
      earliest-idle slot (ties to the lowest slot index) takes the next
      task from its home shard's queue, stealing from the next shards in
      cyclic order when home is dry. [workers = 0] collapses to one slot
      draining every queue in order ([makespan] = total cost, no
      steals). [queues] must have exactly [shards] rows. *)
end

val map : t -> cost:('b -> float) -> ('a -> 'b) -> 'a list -> 'b list
(** Evaluate one batch: block-partition the tasks over the shards, run
    them work-stealingly, then advance the simulated clock by the
    batch's simulated makespan under [cost] (per-result simulated
    seconds). Results come back in submission order; if any task raised,
    the first such exception (in submission order) is re-raised after
    the batch drains and the batch is not accounted. *)

val serial : t -> float -> unit
(** Account one non-batched (on-demand) evaluation of the given
    simulated cost: it runs alone, so the clock advances by the full
    cost. *)

type stats = {
  rounds : int;  (** batches scheduled (waves, under {!Speculate}) *)
  batched : int;  (** tasks that went through the sharded deques *)
  stolen : int;  (** batched tasks a non-home slot executed (simulated) *)
  serial_tasks : int;  (** on-demand evaluations accounted by {!serial} *)
  sim_seconds : float;  (** simulated cluster wall clock, both kinds *)
}

val stats : t -> stats
