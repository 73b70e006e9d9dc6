(** Tree-walking interpreter with precision-faithful arithmetic and
    cost-model accounting — the "compile and execute on a dedicated node"
    stage ([T_3]) of the paper's workflow.  It is an instance of the
    shared traversal ({!Walk.Make}) over plain values; this module keeps
    only the cost model, the budget, the timers, the wrapper and inlining
    rules, and the outcome.

    Semantics:
    - [real(kind=4)] operations round through IEEE binary32 after every
      operation ({!Fp32}); [real(kind=8)] is native binary64.
    - Argument association is by reference for whole variables and
      copy-in/copy-out for expressions and array elements. Real arguments
      must match the dummy's kind exactly; a mismatch is a runtime error
      (strict Fortran — the transformation pipeline must have inserted
      wrappers).
    - A non-finite arithmetic result (overflow, division by zero, NaN)
      aborts the run with [Error] status — the "runtime error" column of
      Table II.
    - Execution stops with [Timed_out] when modeled cost exceeds [budget]
      (the paper kills variants at 3 × the baseline's time).

    Cost accounting follows {!Machine}: SIMD rates apply inside loops that
    {!Analysis.Vectorize} approves and whose static conversion-site ratio
    is below the machine threshold ({!Ir.vec_modes}); calls to inlinable
    procedures are free; other calls pay overhead; generated wrappers pay
    extra and are attributed to the procedure they wrap ({!Timers}). *)

type status = Walk.status =
  | Finished
  | Stopped of string  (** a [stop 'msg'] was executed *)
  | Runtime_error of string  (** FP trap, bounds error, kind mismatch, ... *)
  | Timed_out

type outcome = {
  status : status;
  cost : float;  (** total modeled CPU time (abstract units) *)
  timers : Timers.entry list;
  records : (string * float) list;
      (** the observation channel: every [print *, 'key', v1, v2, ...]
          appends [(key, v)] pairs in execution order; correctness metrics
          are computed from these series *)
  printed : string list;  (** every printed line, in order *)
  breakdown : (Machine.category * float) list;
      (** modeled cost by category; [Cat_convert] is the run's total
          casting overhead (the quantity behind the paper's "40 % of CPU
          time spent on casting" analysis) *)
}

val pp_status : Format.formatter -> status -> unit

val run :
  ?machine:Machine.t ->
  ?budget:float ->
  ?wrapper_owner:(string -> string option) ->
  Fortran.Symtab.t ->
  outcome
(** Execute the program's main unit. [wrapper_owner] maps a
    generated wrapper procedure to the procedure it wraps, for timer
    attribution and the wrapper call penalty. *)

val series : outcome -> string -> float list
(** All recorded values for the given key, in execution order. *)

val casting_share : outcome -> float
(** Fraction of the run's modeled cost spent on kind conversions. *)

val diff : outcome -> outcome -> string option
(** The first difference between two outcomes, or [None] when [compare]
    finds them equal: the status, the cost, the first differing record
    (its index, then each side's key and value), printed line, timer or
    breakdown entry, floats in [%h]. *)
