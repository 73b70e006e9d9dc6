(** Process-wide cross-campaign evaluation memo.

    One table per server process, shared by every job the scheduler
    multiplexes: pre-fault measurements keyed by {e evaluation space} ×
    signature, where a space ({!space_key}) is the equivalence class of
    campaigns whose measurements are interchangeable — same model source
    (name + content digest) and same result-affecting configuration
    ({!Core.Config.digest}: includes the seed, excludes fault specs and
    worker counts). N concurrent jobs in one space
    evaluate each variant once fleet-wide; jobs in different spaces never
    share. First write wins under the mutex. The memo is in-memory only —
    a restarted server starts empty and jobs resume from their own
    journals, re-sharing fresh work as it happens. *)

type t

type stats = {
  entries : int;  (** distinct (space, signature) measurements stored *)
  finds : int;  (** lookup calls *)
  hits : int;  (** lookups answered *)
  publishes : int;  (** publish calls (first write per key wins) *)
}

val create : unit -> t

val space_key : model:Models.Registry.t -> config:Core.Config.t -> string

val find :
  t -> space:string -> signature:string -> (Search.Variant.measurement * string) option
(** The stored pre-fault measurement and its donor job id, if any. *)

val publish :
  t -> space:string -> donor:string -> signature:string -> Search.Variant.measurement -> unit

val hooks : t -> space:string -> job:string -> Core.Tuner.memo_hooks
(** The {!Core.Tuner.memo_hooks} pair a slice of [job] plugs into its
    campaign runner: finds answered from this memo (never citing [job]
    itself as donor), publishes attributed to [job]. *)

val stats : t -> stats
