(** Abstract syntax for the supported Fortran 90 subset.

    Design notes:
    - Real kinds are restricted to {!Token.K4} / {!Token.K8}: the paper's
      search space uses exactly 32- and 64-bit precision (Sec. III-A).
    - [Do] statements and procedures carry unique integer ids assigned by
      the parser; the vectorization and cost analyses key their per-loop /
      per-procedure facts on these ids.
    - Identifiers are lowercase (Fortran is case-insensitive). *)

type real_kind = Token.real_kind = K4 | K8

type base_type =
  | Treal of real_kind
  | Tinteger
  | Tlogical

type intent = In | Out | Inout

type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type expr =
  | Int_lit of int
  | Real_lit of { text : string; value : float; kind : real_kind }
  | Logical_lit of bool
  | Str_lit of string
  | Var of string
  | Index of string * expr list
      (** array element reference, or a function call — disambiguated by the
          symbol table (Fortran's grammar cannot tell them apart either). *)
  | Unop of unop * expr
  | Binop of binop * expr * expr

type lvalue =
  | Lvar of string
  | Lindex of string * expr list

type stmt = { node : stmt_node; loc : Loc.t }

and stmt_node =
  | Assign of lvalue * expr
  | Call of string * expr list
  | If of (expr * block) list * block
      (** arms are the [if]/[else if] branches in source order; the final
          block is the [else] branch (possibly empty). *)
  | Do of { id : int; var : string; from_ : expr; to_ : expr; step : expr option; body : block }
  | Do_while of { id : int; cond : expr; body : block }
  | Select of { selector : expr; arms : (case_item list * block) list; default : block }
      (** [select case (selector)] with [case (items)] arms and an optional
          [case default] block. *)
  | Exit_stmt
  | Cycle_stmt
  | Return_stmt
  | Stop_stmt of string option
  | Print_stmt of expr list

and case_item =
  | Case_value of expr  (** [case (v)] *)
  | Case_range of expr option * expr option
      (** [case (lo:hi)]; an open bound is [None] ([case (:hi)], [case (lo:)]) *)

and block = stmt list

type decl = {
  base : base_type;
  dims : expr list;  (** [[]] for scalars; extents for [dimension(...)] *)
  parameter : bool;
  intent : intent option;
  names : (string * expr option) list;  (** declared names with optional initializers *)
  decl_loc : Loc.t;
}

type proc_kind =
  | Subroutine
  | Function of { result : string }
      (** [result] is the result-variable name ([result(...)] clause, or the
          function name itself when the clause is absent). *)

type proc = {
  proc_id : int;
  proc_kind : proc_kind;
  proc_name : string;
  params : string list;  (** dummy argument names in order *)
  proc_decls : decl list;
  proc_body : block;
  proc_loc : Loc.t;
}

type module_unit = {
  mod_name : string;
  mod_uses : string list;
  mod_decls : decl list;
  mod_procs : proc list;
}

type main_unit = {
  main_name : string;
  main_uses : string list;
  main_decls : decl list;
  main_body : block;
  main_procs : proc list;
}

type program_unit =
  | Module of module_unit
  | Main of main_unit

type program = program_unit list

(* ------------------------------------------------------------------ *)
(* Small helpers used across analyses and transforms.                  *)

let kind_equal (a : real_kind) (b : real_kind) = a = b

let base_type_equal a b =
  match a, b with
  | Treal ka, Treal kb -> kind_equal ka kb
  | Tinteger, Tinteger | Tlogical, Tlogical -> true
  | (Treal _ | Tinteger | Tlogical), _ -> false

let string_of_base_type = function
  | Treal K4 -> "real(kind=4)"
  | Treal K8 -> "real(kind=8)"
  | Tinteger -> "integer"
  | Tlogical -> "logical"

let is_real = function Treal _ -> true | Tinteger | Tlogical -> false

let procs_of_unit = function
  | Module m -> m.mod_procs
  | Main m -> m.main_procs

let unit_name = function Module m -> m.mod_name | Main m -> m.main_name

let all_procs (p : program) = List.concat_map procs_of_unit p

let find_proc (p : program) name =
  List.find_opt (fun pr -> pr.proc_name = name) (all_procs p)

let find_module (p : program) name =
  List.find_map
    (function Module m when m.mod_name = name -> Some m | Module _ | Main _ -> None)
    p

let main_of (p : program) =
  List.find_map (function Main m -> Some m | Module _ -> None) p

let is_real_literal = function Real_lit _ -> true | _ -> false

(** The expressions of [case] items, in source order. *)
let case_item_exprs items =
  List.concat_map
    (function Case_value v -> [ v ] | Case_range (lo, hi) -> Option.to_list lo @ Option.to_list hi)
    items

(** Apply [f] to every node of an expression, the arguments and operands
    of a node before the node itself. *)
let rec iter_expr f e =
  (match e with
  | Int_lit _ | Real_lit _ | Logical_lit _ | Str_lit _ | Var _ -> ()
  | Index (_, args) -> iter_args f args
  | Unop (_, a) -> iter_expr f a
  | Binop (_, a, b) ->
    iter_expr f a;
    iter_expr f b);
  f e

(** {!iter_expr} on each expression of a list, in order. *)
and iter_args f = function
  | [] -> ()
  | a :: rest ->
    iter_expr f a;
    iter_args f rest

(* The one statement walk: [stmt depth s] on each statement, then its own
   expressions to [expr depth s] in source order (an assignment's
   subscripts before its right-hand side, a call's or print's arguments,
   an [if]'s conditions, a [select]'s selector and then each arm's items,
   a loop's bounds and step or its condition). With [nested], each nested
   block is walked at its source place: an [if] arm's block right after
   its condition, a [case] arm's block right after its items, a loop's
   body one loop deeper after its bounds or condition. The visitor
   closures are built once per walk. *)
let walk ~nested ~stmt ~expr b =
  let rec block depth = function
    | [] -> ()
    | s :: rest ->
      one depth s;
      block depth rest
  and one depth s =
    stmt depth s;
    match s.node with
    | Assign (lhs, rhs) ->
      (match lhs with Lvar _ -> () | Lindex (_, idx) -> exprs depth s idx);
      expr depth s rhs
    | Call (_, args) | Print_stmt args -> exprs depth s args
    | If (arms, els) ->
      if_arms depth s arms;
      if nested then block depth els
    | Select { selector; arms; default } ->
      expr depth s selector;
      case_arms depth s arms;
      if nested then block depth default
    | Do { from_; to_; step; body; _ } ->
      expr depth s from_;
      expr depth s to_;
      (match step with Some e -> expr depth s e | None -> ());
      if nested then block (depth + 1) body
    | Do_while { cond; body; _ } ->
      expr depth s cond;
      if nested then block (depth + 1) body
    | Exit_stmt | Cycle_stmt | Return_stmt | Stop_stmt _ -> ()
  and exprs depth s = function
    | [] -> ()
    | e :: rest ->
      expr depth s e;
      exprs depth s rest
  and if_arms depth s = function
    | [] -> ()
    | (c, b) :: rest ->
      expr depth s c;
      if nested then block depth b;
      if_arms depth s rest
  and case_arms depth s = function
    | [] -> ()
    | (items, b) :: rest ->
      exprs depth s (case_item_exprs items);
      if nested then block depth b;
      case_arms depth s rest
  in
  block 0 b

(** Walk a block and every block nested in it, in source order: for each
    statement [s], first [stmt depth s], then [expr depth s e] on each of
    its own expressions, with each nested block at its source place — an
    [if] arm's block right after its condition, a [case] arm's right
    after its items, a loop's body after its bounds or condition.
    [depth] counts the loops around [s]. *)
let iter_block ~stmt ~expr b = walk ~nested:true ~stmt ~expr b

(** A statement's own expressions, in the order {!iter_block} gives
    them, without those of its nested blocks (an [if]'s conditions, but
    not its arms' statements). *)
let iter_stmt_exprs f s = walk ~nested:false ~stmt:(fun _ _ -> ()) ~expr:(fun _ _ e -> f e) [ s ]

(** Every statement of a block, each before the statements nested in it. *)
let rec iter_stmts f (b : block) =
  List.iter
    (fun s ->
      f s;
      match s.node with
      | If (arms, els) ->
        List.iter (fun (_, blk) -> iter_stmts f blk) arms;
        iter_stmts f els
      | Select { arms; default; _ } ->
        List.iter (fun (_, blk) -> iter_stmts f blk) arms;
        iter_stmts f default
      | Do { body; _ } | Do_while { body; _ } -> iter_stmts f body
      | Assign _ | Call _ | Exit_stmt | Cycle_stmt | Return_stmt | Stop_stmt _ | Print_stmt _ ->
        ())
    b

(** The number of statements of a block, nested ones included. *)
let count_stmts b =
  let n = ref 0 in
  iter_stmts (fun _ -> incr n) b;
  !n

(** [iter_bodies f p] runs [f owner body] on each body of the program,
    unit by unit: a main program's body ([owner = None]) and then each
    procedure's ([Some proc]). *)
let iter_bodies f (p : program) =
  List.iter
    (fun u ->
      (match u with Main m -> f None m.main_body | Module _ -> ());
      List.iter (fun pr -> f (Some pr) pr.proc_body) (procs_of_unit u))
    p

(** [map_bodies f p] replaces each body [b] of the program with
    [f owner b], [owner] as in {!iter_bodies}. Units and procedures are
    mapped in source order, but a main program's procedures before its
    body: statement numbering in the test-case minimizer and the ids
    that wrapper synthesis hands out follow this order. *)
let map_bodies f (p : program) =
  let map_proc pr = { pr with proc_body = f (Some pr) pr.proc_body } in
  List.map
    (function
      | Module m -> Module { m with mod_procs = List.map map_proc m.mod_procs }
      | Main m ->
        let main_procs = List.map map_proc m.main_procs in
        Main { m with main_body = f None m.main_body; main_procs })
    p

(** All variable names read anywhere in an expression. *)
let rec expr_vars acc = function
  | Int_lit _ | Real_lit _ | Logical_lit _ | Str_lit _ -> acc
  | Var v -> v :: acc
  | Index (v, args) -> List.fold_left expr_vars (v :: acc) args
  | Unop (_, e) -> expr_vars acc e
  | Binop (_, a, b) -> expr_vars (expr_vars acc a) b

let decl_names (d : decl) = List.map fst d.names

(** The declaration block of a procedure, looked up by declared name. *)
let find_decl_for (decls : decl list) name =
  List.find_opt (fun d -> List.mem name (decl_names d)) decls
