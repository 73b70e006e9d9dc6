(** Interprocedural floating-point data-flow graph (Sec. III-C).

    Nodes are floating-point variables annotated with their current
    precision; edges represent instances of parameter passing (an actual
    variable associated with a dummy at some call site). The
    transformation maintains the invariant that {e adjacent nodes have
    matching annotations}: after a precision assignment is applied, every
    mismatching edge must be repaired by a wrapper, which introduces a
    temporary node and replaces the mismatching edge with matching ones
    (Fig. 4). {!violations} reports the edges that still break the
    invariant — an empty list is the transformation's postcondition.

    The same graph drives the static cost model of Sec. V
    ({!Static_cost}): each mismatching edge is a casting site whose
    penalty scales with estimated call volume and array element count. *)

type node = {
  n_var : string;  (** variable name *)
  n_scope : Fortran.Symtab.scope;
  n_kind : Fortran.Ast.real_kind;
  n_is_array : bool;
  n_elements : int option;  (** static element count when known *)
}

type edge = {
  e_caller : string option;  (** procedure containing the call site *)
  e_callee : string;
  e_actual : node option;  (** [None] when the actual is a non-variable expression *)
  e_actual_expr : Fortran.Ast.expr;
  e_dummy : node;
  e_loop_depth : int;  (** loop nesting depth of the call site *)
  e_loc : Fortran.Loc.t;
}

type t

val build : Fortran.Symtab.t -> t

val nodes : t -> node list
val edges : t -> edge list

val node_of_var : t -> scope:Fortran.Symtab.scope -> string -> node option

val violations : t -> edge list
(** Edges whose endpoint kinds differ (non-variable actual arguments are
    compared by their inferred expression kind). *)

val pp_edge : Format.formatter -> edge -> unit
