(** The [prose serve] event loop.

    Single-threaded: the loop alternates between handling client
    requests (one request line per connection; see {!Proto}) and running
    {!Sched.step} slices, so campaign state is never touched
    concurrently. [watch] connections stay registered and stream status
    events as the scheduler progresses.

    SIGTERM/SIGINT drain the server: the in-flight slice pauses at its
    next durable record, every [Running] job is marked [Paused], the
    socket is unlinked and {!run} returns. A later server (or a solo
    [prose tune --resume]) continues every journal bit-identically with
    zero re-evaluation of the journaled prefix. *)

val run :
  ?slice_records:int ->
  ?shared_memo:bool ->
  ?find_model:(string -> Models.Registry.t) ->
  ?log:(string -> unit) ->
  root:string ->
  slots:int ->
  unit ->
  (unit, string) result
(** Serve the given store root on [ROOT/prose.sock] until drained.
    [slots] sizes the one-shard {!Search.Shard} scheduler lent to every
    job slice whose worker count is positive: [slots] helper domains
    (capped by the machine's spare cores) beside the server's own
    domain, which evaluates too ([0] = strictly sequential evaluation);
    job results never depend on it. [slice_records] (default 8) is the per-slice fresh-record
    budget. [shared_memo] (default [true]) enables the process-wide
    cross-campaign evaluation memo ({!Memo}): concurrent jobs in the
    same evaluation space evaluate each variant once fleet-wide, with
    memo-served records journaled normally plus a provenance line; job
    results never depend on it. [log] gets one line per slice,
    [slice ID: +N records (F fresh, S memo-shared) -> STATE], with
    [", prepared"] appended when the slice ran {!Core.Tuner.prepare}
    (the first slice of an evaluation space; {!Sched}). A stale socket
    (no listener behind it) is replaced; [Error _] is returned when
    another server is actually listening. *)
