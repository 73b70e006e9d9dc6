open Fortran

(* Pre-order statement traversal. [filter_stmts] and [count_stmts] walk
   children unconditionally so their counters assign identical indices,
   whether or not an enclosing statement survives. *)

let rec filter_block ctr keep b = List.filter_map (filter_stmt ctr keep) b

and filter_stmt ctr keep (s : Ast.stmt) =
  let i = !ctr in
  incr ctr;
  let node =
    match s.Ast.node with
    | Ast.If (arms, els) ->
      Ast.If
        ( List.map (fun (c, b) -> (c, filter_block ctr keep b)) arms,
          filter_block ctr keep els )
    | Ast.Do d -> Ast.Do { d with body = filter_block ctr keep d.body }
    | Ast.Do_while d -> Ast.Do_while { d with body = filter_block ctr keep d.body }
    | Ast.Select sel ->
      Ast.Select
        {
          sel with
          arms = List.map (fun (it, b) -> (it, filter_block ctr keep b)) sel.arms;
          default = filter_block ctr keep sel.default;
        }
    | other -> other
  in
  if keep i then Some { s with Ast.node = node } else None

let count_stmts prog =
  let ctr = ref 0 in
  ignore (Ast.map_bodies (fun _ b -> filter_block ctr (fun _ -> true) b) prog);
  !ctr

let keep_stmts prog keep =
  let ctr = ref 0 in
  Ast.map_bodies (fun _ b -> filter_block ctr keep b) prog

(* ------------------------------------------------------------------ *)
(* Static reference scan, to rule out reductions that would only "fail"
   by breaking name resolution.                                        *)

let used_names prog =
  let used = Hashtbl.create 64 in
  let add n = Hashtbl.replace used n () in
  let note = function Ast.Var n | Ast.Index (n, _) -> add n | _ -> () in
  let decls =
    List.iter (fun (d : Ast.decl) ->
        List.iter (Ast.iter_expr note) d.Ast.dims;
        List.iter (fun (_, init) -> Option.iter (Ast.iter_expr note) init) d.Ast.names)
  in
  List.iter
    (fun u ->
      decls (match u with Ast.Module m -> m.Ast.mod_decls | Ast.Main m -> m.Ast.main_decls);
      List.iter (fun (p : Ast.proc) -> decls p.Ast.proc_decls) (Ast.procs_of_unit u))
    prog;
  Ast.iter_bodies
    (fun _ b ->
      Ast.iter_block b
        ~expr:(fun _ _ e -> Ast.iter_expr note e)
        ~stmt:(fun _ s ->
          match s.Ast.node with
          | Ast.Assign ((Ast.Lvar n | Ast.Lindex (n, _)), _)
          | Ast.Call (n, _)
          | Ast.Do { var = n; _ } ->
            add n
          | _ -> ()))
    prog;
  used

let drop_proc prog name =
  List.map
    (function
      | Ast.Module m ->
        Ast.Module
          {
            m with
            Ast.mod_procs =
              List.filter (fun p -> not (String.equal p.Ast.proc_name name)) m.Ast.mod_procs;
          }
      | u -> u)
    prog

let drop_entity prog ~scope_proc name =
  let prune decls =
    List.filter_map
      (fun (d : Ast.decl) ->
        let names = List.filter (fun (n, _) -> not (String.equal n name)) d.Ast.names in
        if names = [] then None else Some { d with Ast.names })
      decls
  in
  List.map
    (function
      | Ast.Module m when scope_proc = None ->
        Ast.Module { m with Ast.mod_decls = prune m.Ast.mod_decls }
      | Ast.Module m ->
        Ast.Module
          {
            m with
            Ast.mod_procs =
              List.map
                (fun p ->
                  if Some p.Ast.proc_name = scope_proc then
                    { p with Ast.proc_decls = prune p.Ast.proc_decls }
                  else p)
                m.Ast.mod_procs;
          }
      | Ast.Main m when scope_proc = None ->
        Ast.Main { m with Ast.main_decls = prune m.Ast.main_decls }
      | u -> u)
    prog

(* ------------------------------------------------------------------ *)

let canonical prog =
  Unparse.program (Parser.parse ~file:"min.f90" (Unparse.program prog))

let minimize ~ids (c : Gen.case) : Gen.case =
  let fails (c : Gen.case) =
    match Oracle.check ~ids c with [] -> false | _ :: _ -> true
  in
  (* 1. fewest lowered atoms that still trigger the failure *)
  let c =
    let test lowered = fails { c with Gen.lowered } in
    if test c.Gen.lowered then { c with Gen.lowered = Search.Ddmin.minimize ~test c.Gen.lowered }
    else c
  in
  let parse (c : Gen.case) = Parser.parse ~file:"min.f90" c.Gen.source in
  (* 2. fewest statements *)
  let c =
    let prog = parse c in
    let n = count_stmts prog in
    let rebuild ks =
      let set = Hashtbl.create (List.length ks) in
      List.iter (fun k -> Hashtbl.replace set k ()) ks;
      { c with Gen.source = canonical (keep_stmts prog (Hashtbl.mem set)) }
    in
    let test ks = try fails (rebuild ks) with _ -> false in
    let full = List.init n Fun.id in
    if test full then rebuild (Search.Ddmin.minimize ~test full) else c
  in
  (* 3. + 4. prune unreferenced procedures, then unused declaration
     entities, to a fixpoint; each removal must preserve the failure *)
  let try_case c' = if fails c' then Some c' else None in
  let step (c : Gen.case) =
    let prog = parse c in
    let used = used_names prog in
    let dead_procs =
      List.filter
        (fun p -> not (Hashtbl.mem used p.Ast.proc_name))
        (Ast.all_procs prog)
    in
    let by_proc =
      List.find_map
        (fun (p : Ast.proc) ->
          try try_case { c with Gen.source = canonical (drop_proc prog p.Ast.proc_name) }
          with _ -> None)
        dead_procs
    in
    match by_proc with
    | Some c' -> Some c'
    | None ->
      let keep_always (p : Ast.proc) =
        p.Ast.params
        @ (match p.Ast.proc_kind with Ast.Function { result } -> [ result ] | Ast.Subroutine -> [])
      in
      let candidates =
        List.concat_map
          (function
            | Ast.Module m ->
              List.map (fun (n, _) -> (None, n)) (List.concat_map (fun d -> d.Ast.names) m.Ast.mod_decls)
              @ List.concat_map
                  (fun (p : Ast.proc) ->
                    let pinned = keep_always p in
                    List.filter_map
                      (fun (n, _) ->
                        if List.mem n pinned then None else Some (Some p.Ast.proc_name, n))
                      (List.concat_map (fun d -> d.Ast.names) p.Ast.proc_decls))
                  m.Ast.mod_procs
            | Ast.Main m ->
              List.map (fun (n, _) -> (None, n)) (List.concat_map (fun d -> d.Ast.names) m.Ast.main_decls))
          prog
      in
      List.find_map
        (fun (scope_proc, n) ->
          if Hashtbl.mem used n then None
          else
            try try_case { c with Gen.source = canonical (drop_entity prog ~scope_proc n) }
            with _ -> None)
        candidates
  in
  let rec fixpoint c rounds =
    if rounds = 0 then c
    else match step c with Some c' -> fixpoint c' (rounds - 1) | None -> c
  in
  fixpoint c 64
