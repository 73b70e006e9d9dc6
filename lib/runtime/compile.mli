(** The evaluator: closure compilation of the slot-resolved IR.

    [compile] translates a lowered program once into a tree of OCaml
    closures — expressions become [ctx -> float/int/bool/value]
    functions with storage offsets, cost tables and static typing
    decisions pre-bound, statements become [ctx -> unit] — so the
    per-evaluation inner loop runs no opcode dispatch at all. [run]
    executes the compiled tree with observable behavior bit-identical to
    [Interp.run]: same status, cost, timers, records, printed lines and
    breakdown, with every charge in the same order.

    The value rules are {!Walk}'s, the ones [Interp] applies: a shape
    without a typed lane runs on the generic [Value.v] lane, which
    calls [Walk]'s coercions, rounding traps, operators and intrinsics
    and charges from the compiled cost tables. In the registered models
    that lane carries the reductions, [mpi_allreduce] stores and
    by-value parameter actuals. The typed float, integer and logical
    lanes keep their arithmetic inline and call [Walk] only to trap.
    The control-flow signals and the run status are [Walk]'s too.

    Compiled procedures own their frame layout, fixed at compile time
    from their declarations: real scalars live unboxed in a per-run
    float stack, integers and logicals in an int stack, arrays by
    reference in a cell stack. A scalar dummy holds the absolute address
    of its storage — the caller's slot when bound by reference, exactly
    where [Interp] shares the caller's cell; its own slot when bound by
    value. No scalar store, argument binding, copy-out or function
    result allocates. Every IR shape is compiled; there is no fallback
    to another evaluator. Programs are assumed to pass [Typecheck]; the
    one consequence is that a non-integer [do] variable traps on the
    loop's first iteration. *)

type t
(** A compiled program, ready to [run] any number of times. *)

(** Memoizes compiled procedures across variants under the
    precision-signature keys of [Lower.Cache] ([Ir.proc_ir.p_key]).
    Compiled closures never bake procedure indices — callees and their
    frame layouts resolve through the frame's link table at runtime — so
    entries are shared across variants and domains. *)
module Cache : sig
  type t

  val create : unit -> t

  val stats : t -> int * int
  (** [(hits, misses)] since creation. Each miss is one procedure
      compiled; each hit is one compilation avoided. Atomics aggregated
      across worker domains, as in [Lower.Cache.stats]. *)
end

val compile : ?cache:Cache.t -> Ir.program -> t
(** Procedures lowered through a [Lower.Cache] (non-empty
    [Ir.proc_ir.p_key]) are compiled at most once per [cache]. *)

val run : ?budget:float -> t -> Interp.outcome
(** Execute the compiled program. [budget] bounds the abstract cost; the
    run stops with [Interp.Timed_out] exactly where [Interp.run] does. *)
