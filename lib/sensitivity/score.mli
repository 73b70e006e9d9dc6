(** Search-steering scores fused from the {!Absint} mirror analysis.

    A scorer is built once per campaign (from the prepared original
    program, its baseline metric series, and its resolved error threshold)
    and then queried as a pure function of the assignment — rank order
    depends only on the program and configuration, never on scheduling,
    so any worker/shard/slice count agrees on it. *)

type t

val create :
  st:Fortran.Symtab.t ->
  atoms:Transform.Assignment.atom list ->
  metric_key:string ->
  baseline_metric:float list ->
  threshold:float ->
  margin:float ->
  t option
(** [None] when the analysis cannot vouch for itself: the mirror fails to
    finish, or its concrete output series is not bit-identical to the
    interpreter's [baseline_metric] (fidelity gate). Callers fall back to
    the unpredicted search. [margin] is accepted and ignored: no query
    reads it ([Core.Config.t.predict_margin] only enters rank's
    digest). *)

val static_bound : t -> Transform.Assignment.t -> float
(** Sound first-order bound on the variant's l2 relative output error:
    the sum of per-atom singleton bounds over the lowered atoms.
    [infinity] when any lowered atom is poisoned (comparison flip,
    integer-conversion drift, overflow, divisor interval reaching zero —
    anything an interval cannot bound). *)

val pass_probability : t -> Transform.Assignment.t -> float
(** Predicted probability the variant's output error stays under the
    campaign threshold, from the (ranking-grade) amplification model:
    threshold / (threshold + bound), monotone decreasing in the bound. *)

val payoff : t -> Transform.Assignment.t -> float
(** Static speedup proxy: 1 + the lowered share of the def-use execution
    weight (1 for the empty assignment, 2 for everything lowered). *)

val score : t -> Transform.Assignment.t -> float
(** Ranking score: predicted pass-probability × predicted speedup payoff.
    Uses the finite amplification heuristic where the sound bound is
    infinite, so it totally orders all variants. Higher is better. *)

val atom_bound : t -> Transform.Assignment.atom -> float option
(** The singleton bound for one atom ([None] for atoms outside the
    demotable index, i.e. already 32-bit). *)

val atom_amp : t -> Transform.Assignment.atom -> float option
(** The finite ranking-grade amplification of one atom's singleton
    demotion ([None] outside the demotable index). *)
