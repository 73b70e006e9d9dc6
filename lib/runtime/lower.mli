(** Lowering of a typechecked program to the slot-resolved IR ({!Ir}).

    [lower] resolves every name once: locals and dummies become integer
    slots of their procedure's frame, module globals and parameters
    become indices into program-wide stores, callees become indices into
    a per-body link table, and per-site cost tables are precomputed for
    each (vector mode, real kind) pair. {!Compile} turns the result into
    closures over its own frame layout; [run] is compile-then-run, with
    observable behavior bit-identical to [Interp.run] on the
    unparse→reparse round-trip of the same program: same status, same
    cost (float accumulation order preserved), same timers, records,
    printed lines, and breakdown.

    The optional [Cache.t] memoizes lowered procedures across variants
    keyed by name + the precision signature of every declaration the
    procedure can observe (its own scope, all module scopes, and all
    transitively reachable callees). It is domain-safe. *)

(** {1 The IR}

    The IR types live in {!Ir}; they are re-exported here unchanged. *)

include module type of struct
  include Ir
end

module Cache : sig
  type t

  val create : unit -> t

  val stats : t -> int * int
  (** [(hits, misses)] since creation. The counters are atomics
      aggregated across every domain that used the cache, so the read is
      never torn — but speculative evaluation can still make live
      traffic schedule-dependent; deterministic per-campaign diagnostics
      are derived by replaying committed records over {!cache_keys}. *)
end

val cache_keys : Fortran.Symtab.t -> string list
(** The cache keys one [lower ?cache] pass over this (already
    transformed) program requests, in request order: one per procedure,
    plus the ["<main>"] pseudo-procedure when a main program exists.
    [Compile.compile ?cache] requests exactly the same keys. Computed
    statically — nothing is lowered — so callers can account compile
    traffic for a variant without running it. *)

val lower :
  ?cache:Cache.t ->
  ?wrapper_owner:(string -> string option) ->
  machine:Machine.t ->
  Fortran.Symtab.t ->
  program
(** [wrapper_owner name] returns [Some orig] when [name] is a generated
    precision wrapper for [orig]; wrappers are exempt from timers and
    inlining, and pay [wrapper_overhead] (mirrors [Interp.run]'s
    [~wrapper_owner]). *)

val run : ?budget:float -> program -> Interp.outcome
(** [Compile.run ?budget (Compile.compile p)]: execute the lowered
    program on the one evaluator, uncached. *)
