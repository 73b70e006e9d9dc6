(** Atomic checkpoint of search-frontier state, written beside the
    journal.

    The journal is the source of truth for resume; the snapshot is a
    cheap-to-read digest of where the campaign stands (record count,
    consumed cluster hours, best accepted speedup so far, fault losses,
    whether the search finished) for [prose campaign ls|show] and for
    monitoring a live run. It is refreshed every few commits and at
    campaign exit via write-to-temp + [rename], so readers never observe
    a half-written file and a crash never corrupts the previous one. *)

type t = {
  s_records : int;  (** committed (journaled) variant records *)
  s_hours : float;  (** simulated cluster hours consumed, incl. fault losses *)
  s_best_speedup : float;  (** best passing Eq.-1 speedup so far; 0 if none *)
  s_lost_seconds : float;  (** node-seconds lost to injected faults *)
  s_preemptions : int;  (** simulated job-boundary preemptions so far *)
  s_finished : bool;  (** the search ran to completion *)
}

val file : dir:string -> string
(** [dir ^ "/snapshot.json"]. *)

val write : dir:string -> t -> unit
(** Atomic and durable ({!Durable.atomic_write}): writes
    [snapshot.json.tmp], fsyncs, renames over [snapshot.json], fsyncs
    [dir]. Creates [dir] if needed. *)

val read : dir:string -> t option
(** [None] when absent or unreadable (a snapshot is advisory; the journal
    decides). *)
