open Fortran

type occurrence = { o_loc : Loc.t; o_loop_depth : int; o_proc : string option }

type summary = {
  var : string;
  scope : Symtab.scope;
  defs : occurrence list;
  uses : occurrence list;
}

type acc = { mutable adefs : occurrence list; mutable auses : occurrence list }

let analyze st : summary list =
  let table : (Symtab.scope * string, acc) Hashtbl.t = Hashtbl.create 64 in
  let get key =
    match Hashtbl.find_opt table key with
    | Some a -> a
    | None ->
      let a = { adefs = []; auses = [] } in
      Hashtbl.add table key a;
      a
  in
  let note ~in_proc ~depth ~loc ~def name =
    match Symtab.lookup_var st ~in_proc name with
    | Some info when not info.v_parameter ->
      let a = get (info.v_scope, name) in
      let o = { o_loc = loc; o_loop_depth = depth; o_proc = in_proc } in
      if def then a.adefs <- o :: a.adefs else a.auses <- o :: a.auses
    | Some _ | None -> ()
  in
  Ast.iter_bodies
    (fun owner body ->
      let in_proc = Option.map (fun (p : Ast.proc) -> p.proc_name) owner in
      let note ~def depth (s : Ast.stmt) name = note ~in_proc ~depth ~loc:s.loc ~def name in
      let use depth s = function
        | Ast.Var v | Ast.Index (v, _) -> note ~def:false depth s v
        | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Str_lit _ | Ast.Unop _
        | Ast.Binop _ ->
          ()
      in
      Ast.iter_block body
        ~expr:(fun depth s e -> Ast.iter_expr (use depth s) e)
        ~stmt:(fun depth s ->
          match s.node with
          | Ast.Assign ((Ast.Lvar v | Ast.Lindex (v, _)), _) | Ast.Do { var = v; _ } ->
            note ~def:true depth s v
          | Ast.Call (_, args) ->
            (* a variable actual may be defined by the callee: count as both *)
            List.iter (function Ast.Var v -> note ~def:true depth s v | _ -> ()) args
          | _ -> ()))
    (Symtab.program st);
  Hashtbl.fold
    (fun (scope, var) a l ->
      { var; scope; defs = List.rev a.adefs; uses = List.rev a.auses } :: l)
    table []
  |> List.sort compare

let for_var summaries ~scope v = List.find_opt (fun s -> s.scope = scope && s.var = v) summaries
