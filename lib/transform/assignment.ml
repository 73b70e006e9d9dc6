open Fortran

type atom = {
  a_scope : Symtab.scope;
  a_name : string;
  a_declared : Ast.real_kind;
  a_is_array : bool;
}

let atom_id a =
  match a.a_scope with
  | Symtab.Proc_scope p -> p ^ "/" ^ a.a_name
  | Symtab.Unit_scope u -> u ^ "::" ^ a.a_name

let pp_atom ppf a = Format.pp_print_string ppf (atom_id a)

let atoms_of_module ?(exclude = []) st mod_name =
  List.filter_map
    (fun (v : Symtab.var_info) ->
      match v.v_base with
      | Ast.Treal k when not (List.mem v.v_name exclude) ->
        Some { a_scope = v.v_scope; a_name = v.v_name; a_declared = k; a_is_array = v.v_dims <> [] }
      | Ast.Treal _ | Ast.Tinteger | Ast.Tlogical -> None)
    (Symtab.fp_vars_of_module st mod_name)

let atoms_of_target ?(exclude = []) st ~module_ ~procs =
  let all = atoms_of_module ~exclude st module_ in
  match procs with
  | None -> all
  | Some keep ->
    List.filter
      (fun a ->
        match a.a_scope with
        | Symtab.Unit_scope _ -> true
        | Symtab.Proc_scope p -> List.mem p keep)
      all

let inert st atoms =
  let cg = Analysis.Callgraph.build st in
  let reachable =
    Analysis.Callgraph.reachable cg ~roots:(List.map fst (Analysis.Callgraph.callees cg None))
  in
  let defuse = Analysis.Defuse.analyze st in
  let touched scope name =
    List.exists
      (fun (s : Analysis.Defuse.summary) ->
        s.Analysis.Defuse.scope = scope && s.Analysis.Defuse.var = name
        && (s.Analysis.Defuse.defs <> [] || s.Analysis.Defuse.uses <> []))
      defuse
  in
  let initialized scope name =
    List.exists
      (fun (v : Symtab.var_info) -> v.v_name = name && v.v_init <> None)
      (Symtab.vars_of_scope st scope)
  in
  let dummy_or_result proc name =
    match Symtab.find_proc st proc with
    | None -> false
    | Some p -> (
      List.mem name p.Ast.params
      ||
      match p.Ast.proc_kind with
      | Ast.Function { result } -> result = name
      | Ast.Subroutine -> false)
  in
  Array.of_list
    (List.map
       (fun a ->
         match a.a_scope with
         | Symtab.Proc_scope p when not (List.mem p reachable) -> true
         | Symtab.Proc_scope p when dummy_or_result p a.a_name -> false
         | scope -> not (touched scope a.a_name || initialized scope a.a_name))
       atoms)

module M = Map.Make (struct
  type t = Symtab.scope * string

  let compare = compare
end)

type t = { kinds : Ast.real_kind M.t; atom_list : atom list }

let key a = (a.a_scope, a.a_name)

let uniform atom_list k =
  { kinds = List.fold_left (fun m a -> M.add (key a) k m) M.empty atom_list; atom_list }

let original atom_list =
  { kinds = List.fold_left (fun m a -> M.add (key a) a.a_declared m) M.empty atom_list; atom_list }

let of_lowered atom_list ~lowered =
  let low = List.map key lowered in
  {
    kinds =
      List.fold_left
        (fun m a -> M.add (key a) (if List.mem (key a) low then Ast.K4 else a.a_declared) m)
        M.empty atom_list;
    atom_list;
  }

let kind_of t a = match M.find_opt (key a) t.kinds with Some k -> k | None -> a.a_declared
let atoms t = t.atom_list
let lowered t = List.filter (fun a -> a.a_declared = Ast.K8 && kind_of t a = Ast.K4) t.atom_list
let set t a k = { t with kinds = M.add (key a) k t.kinds }
let lookup t ~scope name = M.find_opt (scope, name) t.kinds

let fraction_lowered t =
  let n = List.length t.atom_list in
  if n = 0 then 0.0
  else float_of_int (List.length (List.filter (fun a -> kind_of t a = Ast.K4) t.atom_list)) /. float_of_int n

let count_at t k = List.length (List.filter (fun a -> kind_of t a = k) t.atom_list)

let signature t =
  String.concat ""
    (List.map (fun a -> match kind_of t a with Ast.K4 -> "4" | Ast.K8 -> "8") t.atom_list)

let of_signature atom_list s =
  if String.length s <> List.length atom_list then
    invalid_arg
      (Printf.sprintf "Assignment.of_signature: %d-char signature over %d atoms"
         (String.length s) (List.length atom_list));
  let kinds, _ =
    List.fold_left
      (fun (m, i) a ->
        let k =
          match s.[i] with
          | '4' -> Ast.K4
          | '8' -> Ast.K8
          | c -> invalid_arg (Printf.sprintf "Assignment.of_signature: bad kind char %C" c)
        in
        (M.add (key a) k m, i + 1))
      (M.empty, 0) atom_list
  in
  { kinds; atom_list }

let equal a b =
  List.length a.atom_list = List.length b.atom_list && signature a = signature b

let restrict_signature t ~proc =
  String.concat ""
    (List.filter_map
       (fun a ->
         match a.a_scope with
         | Symtab.Proc_scope p when p = proc ->
           Some (match kind_of t a with Ast.K4 -> "4" | Ast.K8 -> "8")
         | Symtab.Proc_scope _ | Symtab.Unit_scope _ -> None)
       t.atom_list)
