(** Loop vectorization analysis — the stand-in for a compiler's
    vectorization report.

    Criterion (1) of the paper's "three key criteria for a tunable hotspot"
    is {e source code that supports compiler auto-vectorization}
    (Sec. V). This module decides, per [do] loop, whether the loop would be
    auto-vectorized, and why not when it would not. The cost model charges
    SIMD rates only inside loops this analysis approves, and the paper's
    recommended static variant filter ("filter out variants that have less
    vectorization than the baseline", Sec. V) is implemented on top of it.

    A loop vectorizes when:
    - it is a counted [do] (not [do while]) with no [exit]/[cycle]/[return];
    - it contains no nested loop (the innermost loop is the candidate);
    - every array it both reads and writes is accessed at syntactically
      identical subscripts (no loop-carried array dependence);
    - every scalar it assigns is either written before it is read in each
      iteration (privatizable) or is a recognized reduction ([s = s + e],
      [s = s * e], [s = min/max(s, e)]);
    - every call in the body is an intrinsic, or a user procedure that is
      inlinable ({!inlinable}) with exactly matching real kinds at the call
      boundary — a mixed-precision boundary forces a wrapper, defeats
      inlining, and kills vectorization (the paper's MPAS-A [flux]
      observation, Sec. IV-B).

    Mixed-precision operations inside a vectorizable loop do not block
    vectorization outright, but each one costs packed conversion
    instructions; [conv_sites]/[fp_ops] quantifies that ratio and the cost
    model disables vectorization above a threshold. *)

type blocker =
  | Do_while_loop
  | Irregular_control_flow  (** [exit], [cycle] or [return] in the body *)
  | Nested_loop
  | Carried_array_dependence of string  (** offending array *)
  | Carried_scalar_dependence of string  (** scalar read before assigned *)
  | Non_inlinable_call of string

type report = {
  loop_id : int;  (** {!Fortran.Ast.stmt_node.Do} id *)
  proc : string option;  (** enclosing procedure, [None] for the main body *)
  loc : Fortran.Loc.t;
  blockers : blocker list;  (** empty = vectorizable *)
  fp_ops : int;  (** static FP-arithmetic sites in the body (inlined callees included) *)
  conv_sites : int;  (** static mixed-kind sites (kind conversions), literals excluded *)
  reductions : string list;  (** recognized reduction scalars *)
  inlined_calls : string list;  (** calls treated as inlined *)
}

val vectorizable : report -> bool

val pp_report : Format.formatter -> report -> unit

val inlinable :
  Fortran.Symtab.t -> inline_stmt_limit:int -> Fortran.Ast.proc -> bool
(** Whether the procedure body is small and simple enough to inline: no
    loops, at most [inline_stmt_limit] statements, only intrinsic or
    (recursively) inlinable calls, and not recursive. *)

val analyze : ?inline_stmt_limit:int -> Fortran.Symtab.t -> report list
(** Reports for every loop in the program, in source order. Inner loops of
    a nest are analyzed in their own right; outer loops report
    {!Nested_loop}. Default [inline_stmt_limit] is [16]. *)

val report_for : report list -> int -> report option
(** Lookup by loop id. *)
