(** Symbol table: name resolution for a parsed program.

    Builds per-scope variable environments (procedure locals and dummies,
    host module/program variables, and variables imported through [use])
    and a global procedure index. Procedure names must be globally unique
    across the program — the models in this repository satisfy this, and
    it matches how the tuning tool treats procedure names as keys.

    The table also answers the question at the heart of the search-space
    construction (Sec. III-A): {e which floating-point variable
    declarations exist within a target module}. *)

exception Error of { loc : Loc.t; message : string }

type var_info = {
  v_name : string;
  v_base : Ast.base_type;
  v_dims : Ast.expr list;  (** [[]] for scalars *)
  v_parameter : bool;
  v_intent : Ast.intent option;
  v_init : Ast.expr option;
  v_scope : scope;
  v_loc : Loc.t;
}

and scope =
  | Proc_scope of string  (** local to / dummy of the named procedure *)
  | Unit_scope of string  (** module- or program-level variable *)

type t

val build : Ast.program -> t
(** Raises {!Error} on duplicate procedure names, duplicate declarations in
    one scope, a [use] of an unknown module, or a procedure parameter with
    no matching declaration. *)

val program : t -> Ast.program

val lookup_var : t -> in_proc:string option -> string -> var_info option
(** [lookup_var t ~in_proc name] resolves [name] as seen from inside
    procedure [in_proc] (or from the main program body when [None]),
    searching locals, then the enclosing unit, then used modules. *)

val proc_owner : t -> string -> string
(** Name of the module/program unit containing the given procedure. *)

val find_proc : t -> string -> Ast.proc option
val all_proc_names : t -> string list

val unit_of_proc : t -> string -> Ast.program_unit option

(** What [name(args)] or [call name(...)] denotes. *)
type callee =
  | Variable of var_info  (** [name(args)] is an array element *)
  | Intrinsic  (** an intrinsic function of {!Builtins} *)
  | Builtin_subroutine  (** [call] of an intrinsic subroutine of {!Builtins} *)
  | Procedure of Ast.proc  (** a user function or subroutine *)
  | Unknown

val classify_ref : t -> in_proc:string option -> string -> callee
(** What [name(args)] denotes inside [in_proc] (the main program body
    when [None]): a visible variable, else an intrinsic function, else a
    user procedure, else [Unknown]. Never [Builtin_subroutine]. *)

val classify_call : t -> string -> callee
(** What [call name(...)] denotes: an intrinsic subroutine, else a user
    procedure, else [Unknown]. Never [Variable] or [Intrinsic]. *)

val iter_sites :
  ?body:string option * Ast.block ->
  t ->
  (caller:string option -> depth:int -> loc:Loc.t -> string -> Ast.expr list -> callee -> unit) ->
  unit
(** [iter_sites t f] runs [f ~caller ~depth ~loc name args callee] on
    every [name(args)] and every [call name(args)] of the program, body
    by body as {!Ast.iter_bodies} gives them, in the statement order of
    {!Ast.iter_block} and with a site's arguments before the site.
    [caller] owns the body, [depth] counts the loops around the
    statement, [loc] is the statement's and [callee] is what the site
    denotes ({!classify_ref}, {!classify_call}). With [~body:(caller, b)]
    only the sites of [b] are visited, as seen from [caller]. *)

val vars_of_scope : t -> scope -> var_info list
(** All variables declared directly in the given scope, in source order. *)

val fp_vars_of_module : t -> string -> var_info list
(** All non-parameter floating-point variable declarations contained in a
    module — module-level variables plus every contained procedure's locals
    and dummies. These are the search atoms of Sec. III-A. *)

val module_of_var : var_info -> t -> string
(** The module/program name whose source text declares this variable. *)
