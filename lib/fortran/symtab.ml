exception Error of { loc : Loc.t; message : string }

let error loc fmt = Format.kasprintf (fun message -> raise (Error { loc; message })) fmt

type var_info = {
  v_name : string;
  v_base : Ast.base_type;
  v_dims : Ast.expr list;
  v_parameter : bool;
  v_intent : Ast.intent option;
  v_init : Ast.expr option;
  v_scope : scope;
  v_loc : Loc.t;
}

and scope =
  | Proc_scope of string
  | Unit_scope of string

type callee =
  | Variable of var_info
  | Intrinsic
  | Builtin_subroutine
  | Procedure of Ast.proc
  | Unknown

type t = {
  prog : Ast.program;
  procs : (string, Ast.proc * string) Hashtbl.t;  (* proc name -> (proc, owner unit) *)
  callees : (string, callee) Hashtbl.t;  (* proc name -> [Procedure proc] *)
  scope_vars : (scope, (string, var_info) Hashtbl.t * var_info list ref) Hashtbl.t;
  visible : (string option, (string, var_info) Hashtbl.t list) Hashtbl.t;
      (* per procedure ([None]: the main body), the scopes a name is looked
         up in: its own, its unit's, then its unit's used modules' *)
  uses : (string, string list) Hashtbl.t;  (* unit name -> transitively used modules *)
  units : (string, Ast.program_unit) Hashtbl.t;
}

let program t = t.prog

let vars_of_decls scope (decls : Ast.decl list) =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (d : Ast.decl) ->
      List.iter
        (fun (name, init) ->
          if Hashtbl.mem tbl name then
            error d.decl_loc "duplicate declaration of %S" name;
          let info =
            { v_name = name; v_base = d.base; v_dims = d.dims; v_parameter = d.parameter;
              v_intent = d.intent; v_init = init; v_scope = scope; v_loc = d.decl_loc }
          in
          Hashtbl.add tbl name info;
          order := info :: !order)
        d.names)
    decls;
  (tbl, ref (List.rev !order))

let build (prog : Ast.program) : t =
  let procs = Hashtbl.create 32 in
  let scope_vars = Hashtbl.create 32 in
  let uses = Hashtbl.create 8 in
  let units = Hashtbl.create 8 in
  (* first pass: record units so [use] can be validated transitively *)
  List.iter
    (fun u ->
      let name = Ast.unit_name u in
      if Hashtbl.mem units name then
        error Loc.dummy "duplicate program unit %S" name;
      Hashtbl.add units name u)
    prog;
  let direct_uses u =
    match u with Ast.Module m -> m.mod_uses | Ast.Main m -> m.main_uses
  in
  let rec transitive seen name =
    match Hashtbl.find_opt units name with
    | None -> error Loc.dummy "use of unknown module %S" name
    | Some u ->
      List.fold_left
        (fun seen used ->
          if List.mem used seen then seen else transitive (used :: seen) used)
        seen (direct_uses u)
  in
  List.iter
    (fun u ->
      let name = Ast.unit_name u in
      Hashtbl.add uses name (transitive [] name))
    prog;
  let add_proc owner (p : Ast.proc) =
    if Hashtbl.mem procs p.proc_name then
      error p.proc_loc "duplicate procedure name %S" p.proc_name;
    Hashtbl.add procs p.proc_name (p, owner);
    let scope = Proc_scope p.proc_name in
    let tbl, order = vars_of_decls scope p.proc_decls in
    (* every dummy argument must be declared *)
    List.iter
      (fun dummy ->
        if not (Hashtbl.mem tbl dummy) then
          error p.proc_loc "dummy argument %S of %S has no declaration" dummy p.proc_name)
      p.params;
    (match p.proc_kind with
    | Ast.Function { result } ->
      if not (Hashtbl.mem tbl result) then
        error p.proc_loc "result variable %S of function %S has no declaration" result p.proc_name
    | Ast.Subroutine -> ());
    Hashtbl.add scope_vars scope (tbl, order)
  in
  List.iter
    (fun u ->
      let name = Ast.unit_name u in
      let scope = Unit_scope name in
      let decls = match u with Ast.Module m -> m.mod_decls | Ast.Main m -> m.main_decls in
      Hashtbl.add scope_vars scope (vars_of_decls scope decls);
      List.iter (add_proc name) (Ast.procs_of_unit u))
    prog;
  let callees = Hashtbl.create 32 in
  Hashtbl.iter (fun name (p, _) -> Hashtbl.add callees name (Procedure p)) procs;
  let visible = Hashtbl.create 32 in
  let tables scopes = List.map (fun s -> fst (Hashtbl.find scope_vars s)) scopes in
  let unit_scopes u = Unit_scope u :: List.map (fun m -> Unit_scope m) (Hashtbl.find uses u) in
  List.iter
    (fun u ->
      let name = Ast.unit_name u in
      (match u with
      | Ast.Main _ -> Hashtbl.add visible None (tables (unit_scopes name))
      | Ast.Module _ -> ());
      List.iter
        (fun (p : Ast.proc) ->
          Hashtbl.add visible (Some p.proc_name)
            (tables (Proc_scope p.proc_name :: unit_scopes name)))
        (Ast.procs_of_unit u))
    prog;
  { prog; procs; callees; scope_vars; visible; uses; units }

let proc_owner t name =
  match Hashtbl.find_opt t.procs name with
  | Some (_, owner) -> owner
  | None -> invalid_arg (Printf.sprintf "Symtab.proc_owner: unknown procedure %S" name)

let find_proc t name =
  Option.map fst (Hashtbl.find_opt t.procs name)

let all_proc_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.procs [] |> List.sort compare

let unit_of_proc t name =
  match Hashtbl.find_opt t.procs name with
  | None -> None
  | Some (_, owner) -> Hashtbl.find_opt t.units owner

(* [lookup_var] without the option: raises [Not_found] *)
let find_var t ~in_proc name =
  let rec search = function
    | [] -> raise Not_found
    | tbl :: rest -> (
      match Hashtbl.find tbl name with v -> v | exception Not_found -> search rest)
  in
  search (Hashtbl.find t.visible in_proc)

let lookup_var t ~in_proc name =
  match find_var t ~in_proc name with v -> Some v | exception Not_found -> None

let find_callee t name =
  match Hashtbl.find t.callees name with c -> c | exception Not_found -> Unknown

let classify_ref t ~in_proc name =
  match find_var t ~in_proc name with
  | v -> Variable v
  | exception Not_found ->
    if Builtins.is_intrinsic_function name then Intrinsic else find_callee t name

let classify_call t name =
  if Builtins.is_intrinsic_subroutine name then Builtin_subroutine else find_callee t name

let iter_sites ?body t f =
  let walk caller b =
    (* where the expression being walked sits; the visitors below are
       built once per body *)
    let depth = ref 0 and loc = ref Loc.dummy in
    let node = function
      | Ast.Index (name, args) ->
        f ~caller ~depth:!depth ~loc:!loc name args (classify_ref t ~in_proc:caller name)
      | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Str_lit _ | Ast.Var _
      | Ast.Unop _ | Ast.Binop _ ->
        ()
    in
    let at d (s : Ast.stmt) =
      depth := d;
      loc := s.loc
    in
    Ast.iter_block b
      ~stmt:(fun d s ->
        match s.node with
        | Ast.Call (name, args) ->
          (* a call's arguments before the call, as for a function *)
          at d s;
          Ast.iter_args node args;
          f ~caller ~depth:d ~loc:s.loc name args (classify_call t name)
        | _ -> ())
      ~expr:(fun d s e ->
        match s.node with
        | Ast.Call _ -> ()
        | _ ->
          at d s;
          Ast.iter_expr node e)
  in
  match body with
  | Some (caller, b) -> walk caller b
  | None ->
    Ast.iter_bodies
      (fun owner b -> walk (Option.map (fun (p : Ast.proc) -> p.proc_name) owner) b)
      t.prog

let vars_of_scope t scope =
  match Hashtbl.find_opt t.scope_vars scope with
  | None -> []
  | Some (_, order) -> !order

let fp_vars_of_module t mod_name =
  match Hashtbl.find_opt t.units mod_name with
  | None -> []
  | Some u ->
    let unit_level = vars_of_scope t (Unit_scope mod_name) in
    let proc_level =
      List.concat_map (fun (p : Ast.proc) -> vars_of_scope t (Proc_scope p.proc_name))
        (Ast.procs_of_unit u)
    in
    List.filter
      (fun v -> Ast.is_real v.v_base && not v.v_parameter)
      (unit_level @ proc_level)

let module_of_var (v : var_info) t =
  match v.v_scope with
  | Unit_scope u -> u
  | Proc_scope p -> proc_owner t p
