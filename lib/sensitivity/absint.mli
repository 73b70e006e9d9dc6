(** Forward error-amplification analysis — an instance of the shared
    traversal ({!Runtime.Walk.Make}) whose other instance is
    {!Runtime.Interp}.

    One abstract execution of the ORIGINAL (all-64-bit) program follows the
    interpreter's concrete semantics bit-exactly (same values, same traps,
    same control flow: the traversal and the concrete value rules are the
    interpreter's) while every real value additionally carries a
    per-atom error vector of absolute-error bounds ({!Errvec.t}): entry
    [a] bounds the deviation this expression can show in the program
    variant that demotes precisely atom [a] to 32-bit.  All
    singleton-demotion bounds for every demotable atom are computed
    simultaneously in a single pass.

    Where a demoted run could diverge in a way intervals cannot bound —
    a comparison the error interval can flip, an integer conversion that
    can land on a different integer, a divisor interval reaching zero, an
    overflow past the 32-bit range — the atom is {e poisoned}: its sound
    bound is infinite (the variant may trap, loop differently, or produce
    anything), while its finite error accumulation keeps going and remains
    usable as a ranking heuristic.  See DESIGN.md §13. *)

type status = Finished | Stopped of string | Runtime_error of string

type sample = {
  s_key : string;  (** the [print 'key', ...] series key *)
  s_value : float;  (** the concrete (baseline) sample, bit-exact vs Interp *)
  s_err : Errvec.t;
      (** per-atom absolute-error bound on this sample: sorted atom indices
          with their bounds in an unboxed array.  An atom without an entry
          never touched the sample (bound 0); an entry may be an explicit
          [0.0], which is not the same support. *)
}

type result = {
  r_status : status;
  r_samples : sample list;  (** the print records, in program order *)
  r_poisoned : bool array;  (** per atom index: sound bound is infinite *)
  r_steps : int;
}

val analyze :
  ?max_steps:int -> atoms:Transform.Assignment.atom list -> Fortran.Symtab.t -> result
(** Run the analysis on the original program. [atoms] fixes the atom
    indexing: the demotable (declared 64-bit) atoms are numbered 0.. in
    list order; already-32-bit atoms are skipped (demoting them is the
    identity).  The status says how the run ended, as the interpreter's
    would: [Stopped] at a [stop], [Runtime_error] with the trap, bounds
    error or stray [exit]/[cycle] message, or — with its own message —
    when the analysis exceeds [max_steps] steps (one per expression,
    statement and loop iteration; default 20M).  Only a [Finished]
    result is a usable analysis; the samples and poisoned flags of any
    other are those reached before it ended. *)

val atom_indices :
  Transform.Assignment.atom list -> (Fortran.Symtab.scope * string, int) Hashtbl.t
(** The exact atom numbering [analyze] uses, keyed by (scope, name). *)
