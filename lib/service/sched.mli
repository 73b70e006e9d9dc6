(** The multiplexing campaign scheduler: fair round-robin time slices of
    runnable jobs over one shared evaluation substrate.

    A time slice is a journaled run/resume segment of one job's campaign:
    the scheduler starts (fresh directory) or resumes the job with a
    checkpoint hook that raises {!Core.Tuner.Paused} after
    [slice_records] fresh durable records — or earlier, when the job's
    quota is reached or a drain was requested. Slice boundaries therefore
    always sit on durable records, and PR 4's resume invariant (resumed ≡
    uninterrupted, zero re-evaluation of the journaled prefix) lifts
    directly to the headline multiplexing invariant: for any interleaving
    of N jobs, each job's journal, minimal set and summary are
    byte-identical to the same campaign run solo via [prose tune]. The
    scheduler multiplexes on a single thread and only decides {e when}
    work happens, never {e what} gets recorded.

    The one-time preprocessing ({!Core.Tuner.prepare}) runs once per
    evaluation space, not once per slice. The scheduler keeps one
    prepared value per space — keyed by {!Memo.space_key}, which fixes
    everything [prepare] reads — and runs every slice of every job in
    that space on it through {!Core.Tuner.run}, which gives each slice
    its own caches and leaves the prepared value untouched. An entry is
    dropped at the first {!step} that finds no runnable job mapping to
    it.

    Quota enforcement reuses the preemption arithmetic: a job whose
    accumulated simulated hours (the journal context's books, fault
    losses included) reach [sp_quota_hours] stops at exactly the durable
    record an injected {!Core.Cluster.Faults} preemption at the same
    boundary would stop at, and goes terminal ([Failed
    "quota-exhausted"]). *)

type event = {
  ev_job : string;
  ev_state : Job.state;
  ev_records : int;
  ev_hours : float;
  ev_best : float;
  ev_shared : int;  (** cumulative fleet-memo-served records *)
  ev_detail : string;  (** [""] for progress ticks; else ["slice"],
                           ["drained"], ["finished"], ["quota-exhausted"],
                           ["cancelled"], ["error"] *)
}

type slice_result =
  | Idle  (** no runnable job (or draining) *)
  | Sliced of {
      si_job : string;
      si_state : Job.state;  (** the job's state after the slice *)
      si_fresh : int;  (** fresh dynamic evaluations this slice (trace misses) *)
      si_new_records : int;  (** records committed beyond the resumed prefix *)
      si_shared : int;  (** records served by the fleet memo this slice *)
      si_prepared : bool;
          (** this slice ran {!Core.Tuner.prepare}: the scheduler held
              no prepared value for the job's evaluation space *)
    }

(** Pure weighted-deficit round-robin cursor arithmetic, shared by the
    live scheduler and the fairness property tests. *)
module Fair : sig
  type cursor = {
    c_id : string option;  (** last served id *)
    c_credit : int;  (** consecutive slices the last id may still claim *)
  }

  val start : cursor

  val next :
    weight:(string -> int) -> cursor:cursor -> string list -> (string * cursor) option
  (** Serve the cursor's id again while it has credit and is still
      runnable; otherwise advance to the first id strictly after it in
      the sorted runnable list (wrapping to the head) with fresh credit
      [weight id - 1]. Weights below 1 are clamped to 1, and weight 1
      everywhere is the plain round robin. [None] iff the list is
      empty. *)

  val simulate_weighted : slices:(string * int * int) list -> string list
  (** Pure replay of the scheduling loop: each [(id, slices, weight)] job
      needs the given number of slices, every round serves {!next} over
      the still-runnable ids. Returns the service order — the subject of
      the QCheck fairness bounds (burst length <= weight while others are
      runnable; between consecutive services of any job, each other job
      appears at most its weight times). *)
end

val event_of_job : Job.t -> detail:string -> event
(** An event mirroring the job's persisted state — what a fresh [watch]
    subscriber is greeted with. *)

type t

val create :
  ?slice_records:int ->
  ?shard:Search.Shard.t ->
  ?memo:Memo.t ->
  ?find_model:(string -> Models.Registry.t) ->
  ?on_event:(event -> unit) ->
  Store.t ->
  t
(** [slice_records] (default 8, >= 1) is the fresh-record budget of one
    slice (memo-served records count too: a fully-shared slice still
    yields the thread). [shard] is the shared evaluation scheduler lent
    to every slice (jobs with positive [sp_workers]); [None] runs jobs
    sequentially or on per-slice one-shard schedulers. [memo] is the
    fleet-wide cross-campaign evaluation memo every slice consults and
    feeds ({!Memo}); [None] turns dedup off. [find_model] (default
    {!Models.Registry.find}, raising [Not_found]) resolves model names —
    tests override it to substitute scaled-down sources. [on_event]
    observes every progress tick and state transition. *)

val store : t -> Store.t
val find_model : t -> string -> Models.Registry.t

val step : t -> slice_result
(** Run one slice of the next runnable job after the cursor
    (weighted-deficit round-robin in id order; a job's [sp_priority] is
    its weight). [Idle] when nothing is runnable or the
    scheduler is draining. Admission errors, resume mismatches and other
    per-job failures land in the job's [Failed] state — [step] never
    raises on job-level problems. *)

val drain : t -> unit
(** Request shutdown: the in-flight slice (if [drain] was called from a
    signal handler mid-slice) pauses at its next durable record, and
    subsequent [step]s return [Idle]. Safe to call from a signal
    handler. *)

val draining : t -> bool

val pause_all : t -> unit
(** Mark every [Running] job [Paused] (emitting a ["drained"] event) —
    the drain finalizer, after the last slice returned. *)

val cancel : t -> string -> (Job.t, string) result
(** {!Store.cancel}, then a ["cancelled"] event. *)

val minimal_text : Core.Tuner.campaign -> Search.Delta_debug.result -> string
(** The deterministic [minimal.txt] rendering (signature, 64-bit atom
    list, declaration diff) — exposed so tests can byte-compare a service
    job's published minimal set against a solo campaign's. *)
