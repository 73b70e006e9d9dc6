(** The campaign store: durable job state under one service root.

    Layout: [ROOT/jobs/<id>/] holds [job.json] (the {!Job.t}), the job's
    [campaign/] journal directory, and — once the campaign completes —
    [summary.json] and [minimal.txt]. Every [job.json] write goes through
    {!Persist.Durable.atomic_write} ([.tmp], fsync, rename, directory
    fsync), so state transitions are atomic and durable: a crash leaves
    the old or the new state, never a torn file.
    Foreign files and directories anywhere under the root are ignored. *)

type t

val open_ : root:string -> t
(** Creates [ROOT/jobs/] if needed. *)

val root : t -> string

val submit :
  t -> find_model:(string -> Models.Registry.t) -> Job.spec -> (Job.t, string) result
(** Admission ({!Job.validate}), then assign the next sequential id
    ([j001], [j002], ... — 1 + the highest existing, tolerating foreign
    entries) and persist the [Queued] job. *)

val load : t -> string -> Job.t option
(** [None] for unknown ids and unreadable or malformed state files. *)

val list : t -> Job.t list
(** All loadable jobs in id order. *)

val update : t -> Job.t -> unit
(** Atomically rewrite the job's state file. *)

val job_dir : t -> string -> string
val campaign_dir : t -> string -> string
val summary_file : t -> string -> string
val minimal_file : t -> string -> string
