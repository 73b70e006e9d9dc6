(** Unparser: renders an AST back to compilable free-form Fortran source.

    The tuning pipeline is source-to-source, as in the paper (Sec. III-C):
    a precision assignment is applied to the AST, the AST is unparsed, and
    the resulting text is what a downstream Fortran compiler — here, the
    {!Runtime} interpreter via a re-parse — consumes. Round-tripping
    [parse ∘ unparse] is the identity up to locations and fresh ids; the
    property is checked by the test suite. *)

val program : Ast.program -> string

val program_unit : Ast.program_unit -> string
val proc : Ast.proc -> string
val stmt : Ast.stmt -> string
val expr : Ast.expr -> string
val decl : Ast.decl -> string
