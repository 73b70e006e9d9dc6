open Fortran

type stats = {
  kept_stmts : int;
  total_stmts : int;
  kept_procs : int;
  total_procs : int;
  tainted_vars : int;
}

let pp_stats ppf s =
  Format.fprintf ppf "statements %d/%d, procedures %d/%d, tainted vars %d" s.kept_stmts
    s.total_stmts s.kept_procs s.total_procs s.tainted_vars

module Key = struct
  type t = Symtab.scope * string

  let compare = compare
end

module KS = Set.Make (Key)

(* scope-qualified resolution of a name as seen from [in_proc] *)
let qualify st ~in_proc name : Key.t option =
  match Symtab.lookup_var st ~in_proc name with
  | Some info -> Some (info.v_scope, name)
  | None -> None

let stmt_refs st ~in_proc (s : Ast.stmt) =
  let vars = ref [] in
  let procs = ref [] in
  (match s.node with
  | Ast.Assign ((Ast.Lvar v | Ast.Lindex (v, _)), _) | Ast.Do { var = v; _ } -> vars := v :: !vars
  | Ast.Call (name, _) -> (
    match Symtab.classify_call st name with
    | Symtab.Builtin_subroutine -> ()
    | Symtab.Variable _ | Symtab.Intrinsic | Symtab.Procedure _ | Symtab.Unknown ->
      procs := name :: !procs)
  | _ -> ());
  Ast.iter_stmt_exprs
    (Ast.iter_expr (function
      | Ast.Var v -> vars := v :: !vars
      | Ast.Index (name, _) -> (
        match Symtab.classify_ref st ~in_proc name with
        | Symtab.Variable _ -> vars := name :: !vars
        | Symtab.Intrinsic | Symtab.Builtin_subroutine -> ()
        | Symtab.Procedure _ | Symtab.Unknown -> procs := name :: !procs)
      | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Str_lit _ | Ast.Unop _
      | Ast.Binop _ ->
        ()))
    s;
  (List.filter_map (qualify st ~in_proc) !vars, !procs)

(* Does this statement (not descending) reference a tainted symbol or call
   a tainted procedure? *)
let stmt_tainted st ~in_proc ~tvars ~tprocs s =
  let vars, procs = stmt_refs st ~in_proc s in
  List.exists (fun k -> KS.mem k tvars) vars
  || List.exists (fun p -> List.mem p tprocs) procs

let reduce st ~targets =
  let prog = Symtab.program st in
  let tvars = ref (KS.of_list targets) in
  let tprocs = ref [] in
  (* procedures owning a target variable are tainted from the start *)
  List.iter
    (fun (scope, _) ->
      match scope with
      | Symtab.Proc_scope p -> if not (List.mem p !tprocs) then tprocs := p :: !tprocs
      | Symtab.Unit_scope _ -> ())
    targets;
  let changed = ref true in
  (* fixed point: a statement touching taint adds all its referenced
     symbols and called procedures to the taint *)
  while !changed do
    changed := false;
    let add_var k =
      if not (KS.mem k !tvars) then begin
        tvars := KS.add k !tvars;
        changed := true
      end
    in
    let add_proc p =
      if not (List.mem p !tprocs) then begin
        tprocs := p :: !tprocs;
        changed := true
      end
    in
    let scan ~in_proc blk =
      Ast.iter_stmts
        (fun s ->
          if stmt_tainted st ~in_proc ~tvars:!tvars ~tprocs:!tprocs s then begin
            let vars, procs = stmt_refs st ~in_proc s in
            List.iter add_var vars;
            List.iter add_proc procs;
            (* rule (5): the structure containing a tainted statement is
               itself kept — a procedure whose body touches the taint must
               survive even if nothing tainted calls it *)
            match in_proc with
            | Some p -> add_proc p
            | None -> ()
          end)
        blk
    in
    Ast.iter_bodies
      (fun owner body ->
        match owner with
        | None -> scan ~in_proc:None body
        | Some (p : Ast.proc) ->
          (* a tainted procedure taints its dummies and result *)
          if List.mem p.proc_name !tprocs then begin
            List.iter (fun d -> add_var (Symtab.Proc_scope p.proc_name, d)) p.params;
            match p.proc_kind with
            | Ast.Function { result } -> add_var (Symtab.Proc_scope p.proc_name, result)
            | Ast.Subroutine -> ()
          end;
          scan ~in_proc:(Some p.proc_name) body)
      prog
  done;
  let tvars = !tvars and tprocs = !tprocs in
  (* filter blocks: keep statements that are tainted or contain a tainted
     descendant (preserving control structure shells) *)
  let kept = ref 0 in
  let rec filter_block ~in_proc blk =
    List.filter_map
      (fun (s : Ast.stmt) ->
        let self = stmt_tainted st ~in_proc ~tvars ~tprocs s in
        match s.node with
        | Ast.If (arms, els) ->
          let arms' = List.map (fun (c, b) -> (c, filter_block ~in_proc b)) arms in
          let els' = filter_block ~in_proc els in
          if self || List.exists (fun (_, b) -> b <> []) arms' || els' <> [] then begin
            incr kept;
            Some { s with node = Ast.If (arms', els') }
          end
          else None
        | Ast.Do d ->
          let body' = filter_block ~in_proc d.body in
          if self || body' <> [] then begin
            incr kept;
            Some { s with node = Ast.Do { d with body = body' } }
          end
          else None
        | Ast.Do_while d ->
          let body' = filter_block ~in_proc d.body in
          if self || body' <> [] then begin
            incr kept;
            Some { s with node = Ast.Do_while { d with body = body' } }
          end
          else None
        | Ast.Select sel ->
          let arms' = List.map (fun (items, b) -> (items, filter_block ~in_proc b)) sel.arms in
          let default' = filter_block ~in_proc sel.default in
          if self || List.exists (fun (_, b) -> b <> []) arms' || default' <> [] then begin
            incr kept;
            Some { s with node = Ast.Select { sel with arms = arms'; default = default' } }
          end
          else None
        | Ast.Assign _ | Ast.Call _ | Ast.Exit_stmt | Ast.Cycle_stmt | Ast.Return_stmt
        | Ast.Stop_stmt _ | Ast.Print_stmt _ ->
          if self then begin
            incr kept;
            Some s
          end
          else None)
      blk
  in
  let filter_decls scope decls =
    List.filter_map
      (fun (d : Ast.decl) ->
        let names =
          List.filter
            (fun (n, _) -> d.parameter || KS.mem (scope, n) tvars)
            d.names
        in
        if names = [] then None else Some { d with names })
      decls
  in
  let kept_procs = ref 0 in
  let total_procs = ref 0 in
  let total = ref 0 in
  let reduce_proc (p : Ast.proc) =
    incr total_procs;
    total := !total + Ast.count_stmts p.proc_body;
    if List.mem p.proc_name tprocs then begin
      incr kept_procs;
      Some
        {
          p with
          proc_decls = filter_decls (Symtab.Proc_scope p.proc_name) p.proc_decls;
          proc_body = filter_block ~in_proc:(Some p.proc_name) p.proc_body;
        }
    end
    else None
  in
  let units =
    List.filter_map
      (fun u ->
        match u with
        | Ast.Module m ->
          let procs = List.filter_map reduce_proc m.mod_procs in
          let decls = filter_decls (Symtab.Unit_scope m.mod_name) m.mod_decls in
          if procs = [] && decls = [] then None
          else Some (Ast.Module { m with mod_procs = procs; mod_decls = decls })
        | Ast.Main m ->
          total := !total + Ast.count_stmts m.main_body;
          let procs = List.filter_map reduce_proc m.main_procs in
          let body = filter_block ~in_proc:None m.main_body in
          let decls = filter_decls (Symtab.Unit_scope m.main_name) m.main_decls in
          Some (Ast.Main { m with main_procs = procs; main_body = body; main_decls = decls }))
      prog
  in
  (* rule (4): retain only imports of modules that survived *)
  let surviving =
    List.map Ast.unit_name units
  in
  let units =
    List.map
      (function
        | Ast.Module m ->
          Ast.Module { m with mod_uses = List.filter (fun u -> List.mem u surviving) m.mod_uses }
        | Ast.Main m ->
          Ast.Main { m with main_uses = List.filter (fun u -> List.mem u surviving) m.main_uses })
      units
  in
  ( units,
    {
      kept_stmts = !kept;
      total_stmts = !total;
      kept_procs = !kept_procs;
      total_procs = !total_procs;
      tainted_vars = KS.cardinal tvars;
    } )
