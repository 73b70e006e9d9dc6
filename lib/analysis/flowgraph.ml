open Fortran

type node = {
  n_var : string;
  n_scope : Symtab.scope;
  n_kind : Ast.real_kind;
  n_is_array : bool;
  n_elements : int option;
}

type edge = {
  e_caller : string option;
  e_callee : string;
  e_actual : node option;
  e_actual_expr : Ast.expr;
  e_dummy : node;
  e_loop_depth : int;
  e_loc : Loc.t;
}

type t = {
  st : Symtab.t;
  node_tbl : (Symtab.scope * string, node) Hashtbl.t;
  all_edges : edge list;
}

let node_key (s : Symtab.scope) v = (s, v)

let mk_node st (info : Symtab.var_info) ~in_proc =
  match info.v_base with
  | Ast.Treal k ->
    Some
      {
        n_var = info.v_name;
        n_scope = info.v_scope;
        n_kind = k;
        n_is_array = info.v_dims <> [];
        n_elements = Typecheck.static_elements st ~in_proc info;
      }
  | Ast.Tinteger | Ast.Tlogical -> None

let build st : t =
  let node_tbl = Hashtbl.create 64 in
  (* nodes: every FP variable declaration in the program *)
  let add_scope scope ~in_proc =
    List.iter
      (fun (info : Symtab.var_info) ->
        if not info.v_parameter then
          match mk_node st info ~in_proc with
          | Some n -> Hashtbl.replace node_tbl (node_key scope info.v_name) n
          | None -> ())
      (Symtab.vars_of_scope st scope)
  in
  List.iter
    (fun u ->
      add_scope (Symtab.Unit_scope (Ast.unit_name u)) ~in_proc:None;
      List.iter
        (fun (p : Ast.proc) ->
          add_scope (Symtab.Proc_scope p.proc_name) ~in_proc:(Some p.proc_name))
        (Ast.procs_of_unit u))
    (Symtab.program st);
  (* edges: every parameter-passing instance with a real dummy *)
  let edges = ref [] in
  Symtab.iter_sites st (fun ~caller ~depth ~loc name args callee ->
      match callee with
      | Symtab.Procedure p ->
        List.iteri
          (fun i actual ->
            match List.nth_opt p.Ast.params i with
            | None -> ()
            | Some dummy -> (
              match Hashtbl.find_opt node_tbl (node_key (Symtab.Proc_scope name) dummy) with
              | None -> ()  (* non-real dummy *)
              | Some dnode ->
                let anode =
                  match actual with
                  | Ast.Var v -> (
                    match Symtab.lookup_var st ~in_proc:caller v with
                    | Some info -> Hashtbl.find_opt node_tbl (node_key info.v_scope v)
                    | None -> None)
                  | _ -> None
                in
                edges :=
                  { e_caller = caller; e_callee = name; e_actual = anode; e_actual_expr = actual;
                    e_dummy = dnode; e_loop_depth = depth; e_loc = loc }
                  :: !edges))
          args
      | Symtab.Variable _ | Symtab.Intrinsic | Symtab.Builtin_subroutine | Symtab.Unknown -> ());
  { st; node_tbl; all_edges = List.rev !edges }

let nodes t = Hashtbl.fold (fun _ n acc -> n :: acc) t.node_tbl []
let edges t = t.all_edges
let node_of_var t ~scope v = Hashtbl.find_opt t.node_tbl (node_key scope v)

let edge_kinds t (e : edge) =
  let actual_kind =
    match e.e_actual with
    | Some n -> Some n.n_kind
    | None -> (
      match Typecheck.infer t.st ~in_proc:e.e_caller e.e_actual_expr with
      | Typecheck.Real k -> Some k
      | Typecheck.Integer | Typecheck.Logical | Typecheck.Str -> None
      | exception Typecheck.Error _ -> None)
  in
  (actual_kind, e.e_dummy.n_kind)

let violations t =
  List.filter
    (fun e ->
      match edge_kinds t e with
      | Some ak, dk -> ak <> dk
      | None, _ -> false)
    t.all_edges

let pp_edge ppf e =
  Format.fprintf ppf "%s -> %s.%s (depth %d)%s"
    (match e.e_actual with
    | Some n -> n.n_var
    | None -> "<" ^ Unparse.expr e.e_actual_expr ^ ">")
    e.e_callee e.e_dummy.n_var e.e_loop_depth
    (match e.e_caller with Some c -> " in " ^ c | None -> " in main")
