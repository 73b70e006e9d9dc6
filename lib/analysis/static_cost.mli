(** Static evaluation of mixed-precision variants — the paper's Sec. IV-B
    and Sec. V recommendations, implemented.

    The paper proposes three static strategies to avoid paying for dynamic
    evaluation of predictably-bad variants:

    {ol
    {- (MPAS-A analysis) "a cost model which assigns a penalty for
       mixed-precision interprocedural data flow as a function of the
       number of calls";}
    {- (MOM6 analysis) the same penalty additionally scaled by "the number
       of array elements";}
    {- (Sec. V) "filter out variants that have less vectorization than the
       baseline prior to execution by inspecting compiler vectorization
       reports".}}

    Call volume is not known statically; the standard proxy used here
    weights each call site by [100 ^ loop_depth] (100 iterations per loop
    nesting level). The penalty of a program is the weighted sum over the
    mismatching edges of its {!Flowgraph}. The ablation benchmark
    measures how much search time these filters save and what they cost
    in missed variants. *)

type verdict = {
  penalty : float;  (** casting-overhead penalty of the variant *)
  vector_loops : int;  (** loops predicted to vectorize *)
  mismatched_edges : int;
}

val evaluate : Fortran.Symtab.t -> verdict
(** Score a (transformed but not yet wrapped) program. Each mismatching
    flow-graph edge costs its call volume × (one scalar cast + one per
    array element; an array of unknown static size counts 1000). A loop
    counts as vectorized when {!Vectorize} finds it vectorizable and at
    most 0.34 of its FP operations are conversions. That is a stricter
    rule than the cost model's: {!Runtime.Machine.default} compiles a
    vectorizable loop scalar only above a ratio of 0.8
    ([conv_ratio_threshold]), so the filter can count fewer vector loops
    than the evaluator runs. *)

val predicts_worse :
  baseline:verdict -> candidate:verdict -> penalty_budget:float -> bool
(** The static filter: [true] when the candidate should be skipped without
    dynamic evaluation — it vectorizes fewer loops than the baseline, or
    its casting penalty exceeds [penalty_budget]. *)

val const_int : ?env:(string -> int option) -> Fortran.Ast.expr -> int option
(** Fold an integer expression to a compile-time constant. [env] resolves
    named integer parameters (default: nothing resolves). Division by zero,
    negative exponents, and any non-integer construct yield [None]. *)

val trip_count : ?env:(string -> int option) -> Fortran.Ast.stmt_node -> int option
(** Static iteration count of a counted [do] loop with the Fortran
    semantics [max 0 ((to - from + step) / step)]: zero-trip loops fold to
    [Some 0], negative strides count downward, and a non-constant bound, a
    constant zero step (a runtime trap), or any non-[Do] statement
    (including [do while]) is [None]. *)
