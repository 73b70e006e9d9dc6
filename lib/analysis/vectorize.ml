open Fortran

type blocker =
  | Do_while_loop
  | Irregular_control_flow
  | Nested_loop
  | Carried_array_dependence of string
  | Carried_scalar_dependence of string
  | Non_inlinable_call of string

type report = {
  loop_id : int;
  proc : string option;
  loc : Loc.t;
  blockers : blocker list;
  fp_ops : int;
  conv_sites : int;
  reductions : string list;
  inlined_calls : string list;
}

let vectorizable r = r.blockers = []

let pp_blocker ppf = function
  | Do_while_loop -> Format.pp_print_string ppf "do-while loop (unknown trip count)"
  | Irregular_control_flow -> Format.pp_print_string ppf "irregular control flow (exit/cycle/return)"
  | Nested_loop -> Format.pp_print_string ppf "contains a nested loop"
  | Carried_array_dependence a -> Format.fprintf ppf "loop-carried dependence on array %s" a
  | Carried_scalar_dependence s -> Format.fprintf ppf "loop-carried dependence on scalar %s" s
  | Non_inlinable_call p -> Format.fprintf ppf "non-inlinable call to %s" p

let pp_report ppf r =
  Format.fprintf ppf "loop %d%s: %s (fp_ops=%d conv_sites=%d)" r.loop_id
    (match r.proc with Some p -> " in " ^ p | None -> "")
    (if vectorizable r then "VECTORIZED"
     else
       Format.asprintf "not vectorized: %a"
         (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp_blocker)
         r.blockers)
    r.fp_ops r.conv_sites

(* ------------------------------------------------------------------ *)

let has_loop blk =
  let found = ref false in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.node with
      | Ast.Do _ | Ast.Do_while _ -> found := true
      | _ -> ())
    blk;
  !found

let rec inlinable_rec st ~inline_stmt_limit ~depth (p : Ast.proc) =
  depth < 3
  && (not (has_loop p.proc_body))
  && Ast.count_stmts p.proc_body <= inline_stmt_limit
  &&
  let ok = ref true in
  Symtab.iter_sites st ~body:(Some p.proc_name, p.proc_body)
    (fun ~caller:_ ~depth:_ ~loc:_ name _ callee ->
      if !ok then
        match callee with
        | Symtab.Procedure callee ->
          ok := name <> p.proc_name && inlinable_rec st ~inline_stmt_limit ~depth:(depth + 1) callee
        | Symtab.Unknown -> ok := false
        | Symtab.Variable _ | Symtab.Intrinsic _ | Symtab.Builtin_subroutine -> ());
  !ok

let inlinable st ~inline_stmt_limit p = inlinable_rec st ~inline_stmt_limit ~depth:0 p

(* Kind of an expression, or None for non-real / untypeable. *)
let real_kind_of st ~in_proc e =
  match Typecheck.infer st ~in_proc e with
  | Typecheck.Real k -> Some k
  | Typecheck.Integer | Typecheck.Logical | Typecheck.Str -> None
  | exception Typecheck.Error _ -> None

(* Call boundary is kind-uniform: every real actual matches its dummy. *)
let kind_uniform_boundary st ~in_proc (p : Ast.proc) args =
  List.length args = List.length p.params
  && List.for_all2
       (fun actual dummy ->
         match Symtab.lookup_var st ~in_proc:(Some p.proc_name) dummy with
         | Some { v_base = Ast.Treal dk; _ } -> (
           match real_kind_of st ~in_proc actual with
           | Some ak -> ak = dk
           | None -> false)
         | Some _ -> true
         | None -> false)
       args p.params

(* Count FP-arithmetic sites and mixed-kind (conversion) sites in a block.
   A conversion site is a binary operation whose real operands have
   different kinds, or a real assignment whose sides differ in kind —
   except when the narrower/differing side is a literal (folded at compile
   time). Integer/real promotions are not counted: they are precision-
   assignment-invariant and cancel out of speedups. *)
let count_sites st ~in_proc blk =
  let fp_ops = ref 0 in
  let conv = ref 0 in
  let node = function
    | Ast.Binop (op, a, b) ->
      let ka = real_kind_of st ~in_proc a in
      let kb = real_kind_of st ~in_proc b in
      (match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow ->
        if ka <> None || kb <> None then incr fp_ops
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or -> ());
      (match ka, kb with
      | Some k1, Some k2 when k1 <> k2 ->
        if not (Ast.is_real_literal a || Ast.is_real_literal b) then incr conv
      | _ -> ())
    | Ast.Index (name, _) -> (
      match Symtab.classify_ref st ~in_proc name with
      | Symtab.Intrinsic _ -> incr fp_ops
      | Symtab.Variable _ | Symtab.Builtin_subroutine | Symtab.Procedure _ | Symtab.Unknown -> ())
    | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Str_lit _ | Ast.Var _ | Ast.Unop _ ->
      ()
  in
  Ast.iter_block blk
    ~expr:(fun _ _ e -> Ast.iter_expr node e)
    ~stmt:(fun _ s ->
      match s.Ast.node with
      | Ast.Assign ((Ast.Lvar v | Ast.Lindex (v, _)), rhs) -> (
        match real_kind_of st ~in_proc (Ast.Var v), real_kind_of st ~in_proc rhs with
        | Some k1, Some k2 when k1 <> k2 -> if not (Ast.is_real_literal rhs) then incr conv
        | _ -> ())
      | _ -> ());
  (!fp_ops, !conv)

(* ------------------------------------------------------------------ *)
(* Scalar and array dependence scan over a loop body.                  *)

(* subscript vectors compared syntactically through the unparser *)
let subscript_key idx = String.concat "," (List.map Unparse.expr idx)

let array_dependences st ~in_proc body =
  let writes : (string, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let reads : (string, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let note tbl name key =
    match Hashtbl.find_opt tbl name with
    | Some l -> l := key :: !l
    | None -> Hashtbl.add tbl name (ref [ key ])
  in
  let is_array name =
    match Symtab.lookup_var st ~in_proc name with
    | Some { v_dims = _ :: _; _ } -> true
    | Some _ | None -> false
  in
  let read = function
    | Ast.Index (name, args) -> if is_array name then note reads name (subscript_key args)
    | Ast.Var name -> if is_array name then note reads name "<whole>"
    | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Str_lit _ | Ast.Unop _
    | Ast.Binop _ ->
      ()
  in
  Ast.iter_block body
    ~expr:(fun _ _ e -> Ast.iter_expr read e)
    ~stmt:(fun _ s ->
      match s.Ast.node with
      | Ast.Assign (Ast.Lvar v, _) -> if is_array v then note writes v "<whole>"
      | Ast.Assign (Ast.Lindex (v, idx), _) -> if is_array v then note writes v (subscript_key idx)
      | Ast.Call (_, args) ->
        (* conservatively, array arguments may be written by the callee *)
        List.iter (function Ast.Var v when is_array v -> note writes v "<whole>" | _ -> ()) args
      | _ -> ());
  Hashtbl.fold
    (fun name wkeys acc ->
      match Hashtbl.find_opt reads name with
      | None -> acc
      | Some rkeys ->
        let wk = List.sort_uniq compare !wkeys in
        let rk = List.sort_uniq compare !rkeys in
        (* dependence-free only when every access uses one identical key *)
        if List.length wk = 1 && rk = wk && List.hd wk <> "<whole>" then acc
        else Carried_array_dependence name :: acc)
    writes []

(* Recognize [s = s + e], [s = s * e], [s = min(s, e)], [s = max(s, e)]. *)
let reduction_pattern st ~in_proc (s : Ast.stmt) =
  let minmax name =
    match Symtab.classify_ref st ~in_proc name with
    | Symtab.Intrinsic (Builtins.Minmax _) -> true
    | Symtab.Intrinsic _ | Symtab.Variable _ | Symtab.Builtin_subroutine | Symtab.Procedure _
    | Symtab.Unknown ->
      false
  in
  match s.node with
  | Ast.Assign (Ast.Lvar v, rhs) -> (
    match rhs with
    | Ast.Binop ((Ast.Add | Ast.Mul), Ast.Var v', e) when v' = v ->
      if List.mem v (Ast.expr_vars [] e) then None else Some v
    | Ast.Binop ((Ast.Add | Ast.Mul), e, Ast.Var v') when v' = v ->
      if List.mem v (Ast.expr_vars [] e) then None else Some v
    | Ast.Index (name, [ Ast.Var v'; e ]) when v' = v && minmax name ->
      if List.mem v (Ast.expr_vars [] e) then None else Some v
    | Ast.Index (name, [ e; Ast.Var v' ]) when v' = v && minmax name ->
      if List.mem v (Ast.expr_vars [] e) then None else Some v
    | _ -> None)
  | _ -> None

(* Scalars read in an iteration before being assigned in that iteration
   (other than via a recognized reduction) carry values between
   iterations. The scan walks statements in order, tracking definitely-
   assigned scalars; [if] branches merge by intersection.

   A scalar qualifies as a reduction only when every one of its
   assignments matches the reduction pattern and it is never read outside
   those assignments — an accumulator whose running value feeds other
   computation (e.g. funarc's [d1]) is a true recurrence. *)
let scalar_dependences st ~in_proc ~induction body =
  let is_scalar name =
    match Symtab.lookup_var st ~in_proc name with
    | Some { v_dims = []; v_base = Ast.Treal _ | Ast.Tinteger; v_parameter = false; _ } -> true
    | Some _ | None -> false
  in
  let assigned_somewhere = Hashtbl.create 8 in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.node with
      | Ast.Assign (Ast.Lvar v, _) when is_scalar v -> Hashtbl.replace assigned_somewhere v ()
      | _ -> ())
    body;
  (* disqualify reduction candidates that are read or re-assigned outside
     their own reduction statement *)
  let disqualified = Hashtbl.create 8 in
  let candidates = Hashtbl.create 8 in
  Ast.iter_stmts
    (fun s ->
      match reduction_pattern st ~in_proc s with
      | Some v ->
        Hashtbl.replace candidates v ();
        (* reads of the non-accumulator operand still disqualify others *)
        (match s.Ast.node with
        | Ast.Assign (_, rhs) ->
          List.iter
            (fun r -> if r <> v then Hashtbl.replace disqualified r ())
            (Ast.expr_vars [] rhs)
        | _ -> ())
      | None ->
        (* reads and non-reduction writes in this statement disqualify *)
        let note_var v = Hashtbl.replace disqualified v () in
        (match s.Ast.node with Ast.Assign (Ast.Lvar v, _) -> note_var v | _ -> ());
        Ast.iter_stmt_exprs (fun e -> List.iter note_var (Ast.expr_vars [] e)) s)
    body;
  let valid_reduction v = Hashtbl.mem candidates v && not (Hashtbl.mem disqualified v) in
  let reductions = ref [] in
  let bad = ref [] in
  let module SS = Set.Make (String) in
  let note_read defined v =
    if
      is_scalar v && v <> induction
      && Hashtbl.mem assigned_somewhere v
      && (not (SS.mem v defined))
      && (not (List.mem v !reductions))
      && not (List.mem v !bad)
    then bad := v :: !bad
  in
  let reads_of_expr e = List.sort_uniq compare (Ast.expr_vars [] e) in
  let read defined e = List.iter (note_read defined) (reads_of_expr e) in
  let merge = function [] -> assert false | first :: rest -> List.fold_left SS.inter first rest in
  let rec stmt defined (s : Ast.stmt) =
    match reduction_pattern st ~in_proc s, s.node with
    | Some v, Ast.Assign (_, rhs) when valid_reduction v ->
      if not (List.mem v !reductions) then reductions := v :: !reductions;
      (* operand reads still count *)
      List.iter (fun r -> if r <> v then note_read defined r) (reads_of_expr rhs);
      defined
    | _, Ast.Assign (lhs, rhs) -> (
      read defined rhs;
      match lhs with
      | Ast.Lvar v when is_scalar v -> SS.add v defined
      | Ast.Lvar _ -> defined
      | Ast.Lindex (_, idx) ->
        List.iter (read defined) idx;
        defined)
    | _, Ast.Call (_, args) ->
      (* scalar lvalue arguments may be defined by the callee; scalar
         value reads count as reads *)
      List.fold_left
        (fun defined a ->
          read defined a;
          match a with
          | Ast.Var v when is_scalar v -> SS.add v defined
          | _ -> defined)
        defined args
    | _, node -> (
      Ast.iter_stmt_exprs (read defined) s;
      match node with
      | Ast.If (arms, els) ->
        merge (List.map (fun (_, blk) -> block defined blk) arms @ [ block defined els ])
      | Ast.Select { arms; default; _ } ->
        merge (List.map (fun (_, blk) -> block defined blk) arms @ [ block defined default ])
      | Ast.Do { body = b; var; _ } ->
        ignore (block (SS.add var defined) b);
        defined
      | Ast.Do_while { body = b; _ } ->
        ignore (block defined b);
        defined
      | Ast.Assign _ | Ast.Call _ | Ast.Print_stmt _ | Ast.Exit_stmt | Ast.Cycle_stmt
      | Ast.Return_stmt | Ast.Stop_stmt _ ->
        defined)
  and block defined blk = List.fold_left stmt defined blk in
  ignore (block SS.empty body);
  (List.rev !bad, List.rev !reductions)

(* ------------------------------------------------------------------ *)

let analyze ?(inline_stmt_limit = 16) st : report list =
  let reports = ref [] in
  let analyze_loop ~proc ~loc ~id ~induction body =
    let blockers = ref [] in
    let add b = blockers := b :: !blockers in
    if has_loop body then add Nested_loop;
    let irregular = ref false in
    Ast.iter_stmts
      (fun s ->
        match s.Ast.node with
        | Ast.Exit_stmt | Ast.Cycle_stmt | Ast.Return_stmt | Ast.Stop_stmt _
        | Ast.Select _ (* multiway branches defeat if-conversion *) ->
          irregular := true
        | _ -> ())
      body;
    if !irregular then add Irregular_control_flow;
    List.iter add (array_dependences st ~in_proc:proc body);
    let scalar_bad, reductions =
      scalar_dependences st ~in_proc:proc ~induction body
    in
    List.iter (fun v -> add (Carried_scalar_dependence v)) scalar_bad;
    let inlined = ref [] in
    let fp_extra = ref 0 in
    let conv_extra = ref 0 in
    Symtab.iter_sites st ~body:(proc, body) (fun ~caller:_ ~depth:_ ~loc:_ name args callee ->
        match callee with
        | Symtab.Procedure p
          when inlinable st ~inline_stmt_limit p && kind_uniform_boundary st ~in_proc:proc p args ->
          inlined := name :: !inlined;
          let f, c = count_sites st ~in_proc:(Some p.Ast.proc_name) p.Ast.proc_body in
          fp_extra := !fp_extra + f;
          conv_extra := !conv_extra + c
        | Symtab.Procedure _ | Symtab.Unknown -> add (Non_inlinable_call name)
        | Symtab.Variable _ | Symtab.Intrinsic _ | Symtab.Builtin_subroutine -> ());
    let fp_ops, conv_sites = count_sites st ~in_proc:proc body in
    reports :=
      { loop_id = id; proc; loc; blockers = List.rev !blockers; fp_ops = fp_ops + !fp_extra;
        conv_sites = conv_sites + !conv_extra; reductions;
        inlined_calls = List.sort_uniq compare !inlined }
      :: !reports
  in
  Ast.iter_bodies
    (fun owner body ->
      let proc = Option.map (fun (p : Ast.proc) -> p.proc_name) owner in
      Ast.iter_stmts
        (fun s ->
          match s.Ast.node with
          | Ast.Do { id; var; body; _ } -> analyze_loop ~proc ~loc:s.loc ~id ~induction:var body
          | Ast.Do_while { id; body; _ } ->
            let fp_ops, conv_sites = count_sites st ~in_proc:proc body in
            reports :=
              { loop_id = id; proc; loc = s.loc; blockers = [ Do_while_loop ]; fp_ops; conv_sites;
                reductions = []; inlined_calls = [] }
              :: !reports
          | _ -> ())
        body)
    (Symtab.program st);
  List.sort (fun a b -> compare a.loop_id b.loop_id) !reports

let report_for reports id = List.find_opt (fun r -> r.loop_id = id) reports
