(** Pipeline invariants checked on every generated case.

    Six oracles, each a whole-pipeline differential check:

    - {b roundtrip}: the canonical source is a fixpoint of
      unparse ∘ parse — pretty-printing what the parser read reproduces
      the text byte for byte.
    - {b typecheck}: {!Fortran.Typecheck.check_program} accepts the
      program (it is well-typed by construction), and still accepts it
      after an unparse→reparse round trip.
    - {b rewrite}: after {!Transform.Rewrite.apply} of the case's
      precision assignment, every search atom's declaration carries
      exactly its assigned kind, and {!Transform.Wrappers.insert} leaves
      a program with no kind mismatches that typechecks.
    - {b equiv}: {!Runtime.Interp.run} on the unparse→reparse round trip
      of the wrapped variant and {!Runtime.Lower.run} (compile then
      run) on its direct lowering produce bit-identical outcomes — status, cost, timers,
      records, printed lines and breakdown — under a fixed cost budget.
    - {b compiled}: two-way bit-identity — {!Runtime.Interp.run} (the
      reference) and {!Runtime.Compile.run} (the one fast evaluator)
      agree on the same wrapped variant, outcome for outcome.
    - {b sensitivity}: {!Sensitivity.Absint} soundness — the mirror
      analysis finishes with a bit-identical output series whenever the
      interpreter finishes, and for every atom it did not poison, the
      static per-atom error bound covers the observed deviation of that
      atom's singleton-demotion variant on every output sample (run
      through the same rewrite→wrapper→run pipeline the tuner uses).

    Unexpected exceptions anywhere in a check are themselves violations:
    a generated program may legally trap at runtime (both paths must
    agree on the trap), but the frontend and transformer must never
    raise on a well-typed input. *)

type id = Roundtrip | Typecheck | Rewrite | Equiv | Compiled | Sensitivity

type violation = {
  oracle : id;
  detail : string;  (** human-readable account of the disagreement *)
}

val all : id list
(** In pipeline order: roundtrip, typecheck, rewrite, equiv, compiled,
    sensitivity. *)

val name : id -> string
val of_name : string -> id option

val budget : float
(** Cost budget for the execution oracle — bounds every run, so even a
    diverging (minimizer-mangled) program terminates with [Timed_out]
    identically on both paths. *)

val check : ids:id list -> Gen.case -> violation list
(** Run the selected oracles on a case, in pipeline order. *)
