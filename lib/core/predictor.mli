(** Static variant-performance prediction.

    The paper closes its scalability discussion with: "Innovations in
    search algorithm design which avoid evaluating bad variants is
    needed, such as recent work [Wang & Rubio-González, ICSE'24] that
    uses ML to predict the performance and accuracy of mixed-precision
    programs" (Sec. V). This module implements a lightweight instance:
    an ordinary-least-squares model over {e statically computable}
    features of a variant —

    - fraction of atoms at 32 bits,
    - mismatching flow-graph edges (scalar and array-weighted),
    - loops predicted to vectorize, and static conversion-site count —

    trained on the dynamically evaluated variants of a campaign and used
    to predict Eq.-1 speedups of unseen variants before running them. *)

type t

val feature_names : string list

val features : Tuner.prepared -> Transform.Assignment.t -> float array
(** Static features of a variant: no dynamic evaluation involved (the
    assignment is rewritten and re-analyzed, mirroring what a compiler
    front end sees before execution). *)

val train : Tuner.prepared -> Search.Variant.record list -> t option
(** Fit on the records that produced a measurable speedup (pass or fail);
    [None] when there are too few or the system is degenerate. *)

val predict : t -> Tuner.prepared -> Transform.Assignment.t -> float
(** Predicted Eq.-1 speedup. *)

val r_squared : t -> Tuner.prepared -> Search.Variant.record list -> float
(** Fit quality on a (possibly held-out) record set. *)

val holdout_report : Tuner.prepared -> Search.Variant.record list -> (float * float * int) option
(** Split the records 60/40 in committed (variant-index) order, train on
    the first part: [(train_r2, test_r2, test_count)]. [None] when
    training fails. The benchmark prints this as the E8 prediction
    ablation. The split key is the variant index, not arrival order, so
    sharded and multi-worker runs report identical numbers. *)
