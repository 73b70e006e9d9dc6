exception Error of { loc : Loc.t; message : string }

let error loc fmt = Format.kasprintf (fun message -> raise (Error { loc; message })) fmt

type ty =
  | Real of Ast.real_kind
  | Integer
  | Logical
  | Str

let ty_equal a b =
  match a, b with
  | Real ka, Real kb -> ka = kb
  | Integer, Integer | Logical, Logical | Str, Str -> true
  | (Real _ | Integer | Logical | Str), _ -> false

let pp_ty ppf = function
  | Real Ast.K4 -> Format.pp_print_string ppf "real(4)"
  | Real Ast.K8 -> Format.pp_print_string ppf "real(8)"
  | Integer -> Format.pp_print_string ppf "integer"
  | Logical -> Format.pp_print_string ppf "logical"
  | Str -> Format.pp_print_string ppf "character"

let ty_of_base = function
  | Ast.Treal k -> Real k
  | Ast.Tinteger -> Integer
  | Ast.Tlogical -> Logical

(* Numeric promotion for arithmetic operators. *)
let promote loc a b =
  match a, b with
  | Integer, Integer -> Integer
  | Real k, Integer | Integer, Real k -> Real k
  | Real Ast.K8, Real _ | Real _, Real Ast.K8 -> Real Ast.K8
  | Real Ast.K4, Real Ast.K4 -> Real Ast.K4
  | (Logical | Str), _ | _, (Logical | Str) ->
    error loc "arithmetic on non-numeric operand"

let rec infer (st : Symtab.t) ~in_proc (e : Ast.expr) : ty =
  let loc = Loc.dummy in
  match e with
  | Ast.Int_lit _ -> Integer
  | Ast.Real_lit { kind; _ } -> Real kind
  | Ast.Logical_lit _ -> Logical
  | Ast.Str_lit _ -> Str
  | Ast.Var v -> (
    match Symtab.lookup_var st ~in_proc v with
    | Some info -> ty_of_base info.v_base
    | None -> error loc "undeclared variable %S%s" v (ctx in_proc))
  | Ast.Index (name, args) -> infer_index st ~in_proc name args
  | Ast.Unop (Ast.Neg, e1) -> (
    match infer st ~in_proc e1 with
    | (Integer | Real _) as t -> t
    | Logical | Str -> error loc "negation of non-numeric value")
  | Ast.Unop (Ast.Not, e1) -> (
    match infer st ~in_proc e1 with
    | Logical -> Logical
    | Integer | Real _ | Str -> error loc ".not. of non-logical value")
  | Ast.Binop (op, a, b) -> (
    let ta = infer st ~in_proc a in
    let tb = infer st ~in_proc b in
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow -> promote loc ta tb
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      let _ = promote loc ta tb in
      Logical
    | Ast.And | Ast.Or ->
      if ty_equal ta Logical && ty_equal tb Logical then Logical
      else error loc "logical operator on non-logical operands")

and ctx = function
  | Some p -> Printf.sprintf " in procedure %S" p
  | None -> " in main program"

and infer_index st ~in_proc name args =
  let loc = Loc.dummy in
  match Symtab.classify_ref st ~in_proc name with
  | Symtab.Variable info when info.v_dims <> [] ->
    if List.length args <> List.length info.v_dims then
      error loc "array %S has rank %d but %d subscripts given" name
        (List.length info.v_dims) (List.length args);
    List.iter
      (fun a ->
        match infer st ~in_proc a with
        | Integer -> ()
        | Real _ | Logical | Str -> error loc "non-integer subscript of %S" name)
      args;
    ty_of_base info.v_base
  | Symtab.Variable _ -> error loc "subscripting scalar variable %S" name
  | callee -> (
    let arg_tys = List.map (infer st ~in_proc) args in
    match callee, Builtins.classify name with
    | Symtab.Intrinsic, Some cat -> infer_intrinsic st ~in_proc name cat args arg_tys
    | Symtab.Procedure ({ proc_kind = Ast.Function { result }; _ } as p), _ ->
      if List.length args <> List.length p.params then
        error loc "function %S expects %d arguments, got %d" name (List.length p.params)
          (List.length args);
      (match Symtab.lookup_var st ~in_proc:(Some name) result with
      | Some info -> ty_of_base info.v_base
      | None -> error loc "function %S has no result declaration" name)
    | Symtab.Procedure { proc_kind = Ast.Subroutine; _ }, _ ->
      error loc "subroutine %S used as a function" name
    | _ -> error loc "unknown function or array %S%s" name (ctx in_proc))

and infer_intrinsic st ~in_proc name cat args arg_tys =
  let loc = Loc.dummy in
  let arity_exn n =
    if List.length args <> n then
      error loc "intrinsic %S expects %d argument(s), got %d" name n (List.length args)
  in
  match cat with
  | Builtins.Elemental_math -> (
    arity_exn 1;
    match arg_tys with
    | [ Real k ] -> Real k
    | [ Integer ] -> if name = "abs" then Integer else error loc "%S of integer" name
    | _ -> error loc "%S of non-numeric value" name)
  | Builtins.Minmax ->
    if List.length args < 2 then error loc "%S needs at least 2 arguments" name;
    List.fold_left (fun acc t -> promote loc acc t) Integer arg_tys
  | Builtins.Mod_like -> (
    arity_exn 2;
    match arg_tys with
    | [ a; b ] -> promote loc a b
    | _ -> assert false)
  | Builtins.Conversion -> (
    match name with
    | "dble" ->
      arity_exn 1;
      Real Ast.K8
    | "real" -> (
      match args, arg_tys with
      | [ _ ], [ (Integer | Real _) ] -> Real Ast.K4
      | [ _; Ast.Int_lit k ], [ (Integer | Real _); Integer ] -> (
        match Token.kind_of_int k with
        | Some k -> Real k
        | None -> error loc "real(): unsupported kind %d" k)
      | _ -> error loc "real() expects (x) or (x, kind)")
    | "int" | "nint" | "floor" ->
      arity_exn 1;
      Integer
    | _ -> assert false)
  | Builtins.Array_reduction -> (
    let array_ty arr =
      match Symtab.lookup_var st ~in_proc arr with
      | Some info when info.v_dims <> [] -> ty_of_base info.v_base
      | Some _ -> error loc "%S of a scalar" name
      | None -> error loc "%S of unknown array %S" name arr
    in
    match name, args with
    | "dot_product", [ Ast.Var a; Ast.Var b ] -> (
      match array_ty a, array_ty b with
      | Real ka, Real kb -> Real (if ka = Ast.K8 || kb = Ast.K8 then Ast.K8 else Ast.K4)
      | Integer, Integer -> Integer
      | _ -> error loc "dot_product of mixed base types")
    | "dot_product", _ -> error loc "dot_product expects two whole-array arguments"
    | _, [ Ast.Var arr ] ->
      arity_exn 1;
      array_ty arr
    | _, _ -> error loc "%S expects a whole-array argument" name)
  | Builtins.Inquiry -> (
    match name with
    | "size" -> Integer
    | "epsilon" | "huge" | "tiny" -> (
      arity_exn 1;
      match arg_tys with
      | [ Real k ] -> Real k
      | _ -> error loc "%S of non-real value" name)
    | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Constant folding of integer expressions (array extents).            *)

let rec static_int st ~in_proc (e : Ast.expr) : int option =
  match e with
  | Ast.Int_lit i -> Some i
  | Ast.Var v -> (
    match Symtab.lookup_var st ~in_proc v with
    | Some { v_parameter = true; v_init = Some init; _ } -> static_int st ~in_proc init
    | Some _ | None -> None)
  | Ast.Unop (Ast.Neg, e1) -> Option.map (fun i -> -i) (static_int st ~in_proc e1)
  | Ast.Binop (op, a, b) -> (
    match static_int st ~in_proc a, static_int st ~in_proc b with
    | Some x, Some y -> (
      match op with
      | Ast.Add -> Some (x + y)
      | Ast.Sub -> Some (x - y)
      | Ast.Mul -> Some (x * y)
      | Ast.Div -> if y = 0 then None else Some (x / y)
      | Ast.Pow ->
        if y < 0 then None
        else
          let rec pow acc n = if n = 0 then acc else pow (acc * x) (n - 1) in
          Some (pow 1 y)
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or -> None)
    | _ -> None)
  | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Str_lit _ | Ast.Index _ | Ast.Unop (Ast.Not, _) ->
    None

let static_elements st ~in_proc (v : Symtab.var_info) =
  if v.v_dims = [] then Some 1
  else
    List.fold_left
      (fun acc d ->
        match acc, static_int st ~in_proc d with
        | Some n, Some e when e >= 0 -> Some (n * e)
        | _ -> None)
      (Some 1) v.v_dims

(* ------------------------------------------------------------------ *)
(* Call-site kind compatibility (the wrapper obligation).               *)

type mismatch = {
  mm_caller : string option;
  mm_callee : string;
  mm_arg_index : int;
  mm_dummy : string;
  mm_actual : Ast.expr;
  mm_actual_kind : Ast.real_kind;
  mm_dummy_kind : Ast.real_kind;
  mm_is_array : bool;
  mm_loc : Loc.t;
}

let mismatches st : mismatch list =
  let acc = ref [] in
  Symtab.iter_sites st (fun ~caller ~depth:_ ~loc _ args callee ->
      match callee with
      | Symtab.Procedure callee ->
        List.iteri
          (fun i actual ->
            match List.nth_opt callee.Ast.params i with
            | None -> ()
            | Some dummy -> (
              match Symtab.lookup_var st ~in_proc:(Some callee.Ast.proc_name) dummy with
              | Some dinfo -> (
                match dinfo.v_base, infer st ~in_proc:caller actual with
                | Ast.Treal dk, Real ak when dk <> ak ->
                  acc :=
                    { mm_caller = caller; mm_callee = callee.Ast.proc_name; mm_arg_index = i;
                      mm_dummy = dummy; mm_actual = actual; mm_actual_kind = ak;
                      mm_dummy_kind = dk; mm_is_array = dinfo.v_dims <> []; mm_loc = loc }
                    :: !acc
                | _ -> ())
              | None -> ()))
          args
      | Symtab.Variable _ | Symtab.Intrinsic | Symtab.Builtin_subroutine | Symtab.Unknown -> ());
  List.rev !acc

let check_block st ~in_proc blk =
  let infer_e e = ignore (infer st ~in_proc e) in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.node with
      | Ast.Assign (lhs, rhs) ->
        let lname = match lhs with Ast.Lvar v | Ast.Lindex (v, _) -> v in
        (match Symtab.lookup_var st ~in_proc lname with
        | Some { Symtab.v_intent = Some Ast.In; _ } ->
          error s.Ast.loc "assignment to intent(in) dummy %S%s" lname (ctx in_proc)
        | Some _ | None -> ());
        let lt =
          match lhs with
          | Ast.Lvar v -> infer st ~in_proc (Ast.Var v)
          | Ast.Lindex (v, idx) -> infer st ~in_proc (Ast.Index (v, idx))
        in
        let rt = infer st ~in_proc rhs in
        (match lt, rt with
        | (Real _ | Integer), (Real _ | Integer) -> ()  (* implicit conversion via [=] *)
        | Logical, Logical | Str, Str -> ()
        | _ -> error s.Ast.loc "type clash in assignment")
      | Ast.Call (name, args) -> (
        List.iter infer_e args;
        match Symtab.classify_call st name with
        | Symtab.Procedure p ->
          if List.length args <> List.length p.Ast.params then
            error s.Ast.loc "subroutine %S expects %d arguments, got %d" name
              (List.length p.Ast.params) (List.length args)
        | Symtab.Builtin_subroutine -> ()
        | Symtab.Variable _ | Symtab.Intrinsic | Symtab.Unknown ->
          error s.Ast.loc "call to unknown subroutine %S" name)
      | Ast.If (arms, _) ->
        List.iter
          (fun (c, _) ->
            match infer st ~in_proc c with
            | Logical -> ()
            | Real _ | Integer | Str -> error s.Ast.loc "if condition is not logical")
          arms
      | Ast.Do { from_; to_; step; var; _ } ->
        (match infer st ~in_proc (Ast.Var var) with
        | Integer -> ()
        | Real _ | Logical | Str -> error s.Ast.loc "do variable %S is not integer" var);
        List.iter
          (fun e ->
            match infer st ~in_proc e with
            | Integer -> ()
            | Real _ | Logical | Str -> error s.Ast.loc "do bound is not integer")
          (from_ :: to_ :: Option.to_list step)
      | Ast.Do_while { cond; _ } -> (
        match infer st ~in_proc cond with
        | Logical -> ()
        | Real _ | Integer | Str -> error s.Ast.loc "do while condition is not logical")
      | Ast.Select { selector; arms; _ } ->
        let sel_ty = infer st ~in_proc selector in
        (match sel_ty with
        | Integer | Logical -> ()
        | Real _ | Str -> error s.Ast.loc "select case selector must be integer or logical");
        List.iter
          (fun (items, _) ->
            List.iter
              (fun e ->
                if not (ty_equal (infer st ~in_proc e) sel_ty) then
                  error s.Ast.loc "case value type differs from the selector")
              (Ast.case_item_exprs items))
          arms
      | Ast.Print_stmt args -> List.iter infer_e args
      | Ast.Exit_stmt | Ast.Cycle_stmt | Ast.Return_stmt | Ast.Stop_stmt _ -> ())
    blk

(* [exit] and [cycle] must sit inside a [do] or [do while] of the same
   body: the evaluators would otherwise let one escape a called
   procedure into the caller's loop. *)
let check_loop_escapes ~in_proc blk =
  Ast.iter_block blk
    ~expr:(fun _ _ _ -> ())
    ~stmt:(fun loops (s : Ast.stmt) ->
      match s.node with
      | Ast.Exit_stmt when loops = 0 -> error s.loc "exit outside a do loop%s" (ctx in_proc)
      | Ast.Cycle_stmt when loops = 0 -> error s.loc "cycle outside a do loop%s" (ctx in_proc)
      | _ -> ())

let check_program st =
  Ast.iter_bodies
    (fun owner body ->
      let in_proc = Option.map (fun (p : Ast.proc) -> p.proc_name) owner in
      check_block st ~in_proc body;
      check_loop_escapes ~in_proc body)
    (Symtab.program st);
  match mismatches st with
  | [] -> ()
  | m :: _ ->
    error m.mm_loc
      "argument %d of call to %S: actual is real(%d) but dummy %S is real(%d) — a \
       conversion wrapper is required"
      (m.mm_arg_index + 1) m.mm_callee
      (Token.int_of_kind m.mm_actual_kind)
      m.mm_dummy
      (Token.int_of_kind m.mm_dummy_kind)
