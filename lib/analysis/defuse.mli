(** Per-procedure def-use summaries.

    The paper notes (Sec. V) that supporting its criteria (2) and (3)
    "requires tools for IR manipulation/analysis to construct a DAG based
    on def-use and use-def chains". This module provides the variable-level
    summary those recommendations need: for each variable of a scope, the
    statements that define it and the statements that use it, plus the
    maximum loop depth at which each occurs (a static proxy for execution
    frequency). *)

type occurrence = {
  o_loc : Fortran.Loc.t;
  o_loop_depth : int;
  o_proc : string option;
}

type summary = {
  var : string;
  scope : Fortran.Symtab.scope;
  defs : occurrence list;
  uses : occurrence list;
}

val analyze : Fortran.Symtab.t -> summary list
(** Summaries for every non-parameter variable in the program. *)

val for_var : summary list -> scope:Fortran.Symtab.scope -> string -> summary option
