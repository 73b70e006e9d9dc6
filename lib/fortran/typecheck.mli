(** Static typing for the Fortran subset.

    Two services:

    {ol
    {- Expression kind inference, used by the vectorization analysis (to
       find mixed-precision operations inside loops) and by the wrapper
       generator.}
    {- Call-site compatibility checking. Fortran performs implicit kind
       conversion {e only through assignment} — argument association
       requires exactly matching real kinds. A mixed-precision assignment
       therefore makes call sites illegal until Fig.-4-style wrappers are
       inserted; [mismatches] finds every such site.}} *)

exception Error of { loc : Loc.t; message : string }

type ty =
  | Real of Ast.real_kind
  | Integer
  | Logical
  | Str

val ty_equal : ty -> ty -> bool
val pp_ty : Format.formatter -> ty -> unit

val infer : Symtab.t -> in_proc:string option -> Ast.expr -> ty
(** Type of an expression as seen from inside [in_proc] (or the main
    program body). Numeric operators promote [Integer -> Real K4 -> Real K8].
    Raises {!Error} on unresolvable names, arity errors, or type clashes
    (e.g. arithmetic on logicals). *)

type mismatch = {
  mm_caller : string option;  (** procedure containing the call site, [None] = main body *)
  mm_callee : string;
  mm_arg_index : int;  (** 0-based *)
  mm_dummy : string;  (** dummy argument name *)
  mm_actual : Ast.expr;
  mm_actual_kind : Ast.real_kind;
  mm_dummy_kind : Ast.real_kind;
  mm_is_array : bool;
  mm_loc : Loc.t;
}

val mismatches : Symtab.t -> mismatch list
(** Every call site in the program where a real actual argument's kind
    differs from the dummy's. An empty list means the program obeys
    Fortran's argument-association rule and is "compilable". *)

val check_program : Symtab.t -> unit
(** Full program check: infers every expression, validates call arity and
    argument base types, rejects an [exit] or [cycle] with no enclosing
    [do]/[do while] in its own procedure or main body, and raises
    {!Error} on the first kind mismatch (strict Fortran semantics).
    Programs emitted by the transformation pipeline must pass this. *)

val static_int : Symtab.t -> in_proc:string option -> Ast.expr -> int option
(** Constant-folds an integer expression using visible [parameter]
    declarations; [None] when the value is not compile-time constant. *)

val static_elements : Symtab.t -> in_proc:string option -> Symtab.var_info -> int option
(** Number of elements of an array variable when all extents are
    compile-time constants; [Some 1] for scalars. *)
