open Fortran

type result = {
  program : Ast.program;
  wrapper_map : (string * string) list;
}

(* actual kind at each parameter position; None = non-real or kind matches *)
type site_sig = Ast.real_kind option list

let sig_suffix (s : site_sig) =
  String.concat ""
    (List.map (function Some Ast.K4 -> "4" | Some Ast.K8 -> "8" | None -> "x") s)

type gen_state = {
  st : Symtab.t;
  mutable next_loop_id : int;
  mutable next_proc_id : int;
  wrappers : (string * string, Ast.proc * string) Hashtbl.t;
      (* (callee, suffix) -> (wrapper proc, owner unit) *)
  mutable map : (string * string) list;
}

let max_ids prog =
  let loop_id = ref (-1) in
  Ast.iter_bodies
    (fun _ ->
      Ast.iter_stmts (fun s ->
          match s.Ast.node with
          | Ast.Do { id; _ } | Ast.Do_while { id; _ } -> loop_id := max !loop_id id
          | _ -> ()))
    prog;
  let proc_id =
    List.fold_left (fun m (p : Ast.proc) -> max m p.proc_id) (-1) (Ast.all_procs prog)
  in
  (!loop_id + 1, proc_id + 1)

let fresh_loop_id g =
  let id = g.next_loop_id in
  g.next_loop_id <- id + 1;
  id

(* The actual-kind signature of a call site; [None] where no conversion is
   needed. Returns None overall when no position mismatches. [args] are
   the site's arguments as written: a wrapper a nested call is redirected
   to is not in [g.st], and it returns its callee's kind anyway. *)
let site_signature g ~caller (p : Ast.proc) args : site_sig option =
  if List.length args <> List.length p.params then None
  else begin
    let any = ref false in
    let s =
      List.map2
        (fun actual dummy ->
          match Symtab.lookup_var g.st ~in_proc:(Some p.proc_name) dummy with
          | Some { v_base = Ast.Treal dk; _ } -> (
            match Typecheck.infer g.st ~in_proc:caller actual with
            | Typecheck.Real ak when ak <> dk ->
              any := true;
              Some ak
            | Typecheck.Real _ -> None
            | Typecheck.Integer ->
              None (* integer actuals bind with conversion in our runtime *)
            | Typecheck.Logical | Typecheck.Str -> None
            | exception Typecheck.Error _ -> None)
          | Some _ | None -> None)
        args p.params
    in
    if !any then Some s else None
  end

let mk_stmt node = { Ast.node; loc = Loc.dummy }

(* element-wise copy loops: dst(i1,..,ir) = src(i1,..,ir) over dims *)
let copy_loops g ~dst ~src (dims : Ast.expr list) =
  let rank = List.length dims in
  let idx_vars = List.init rank (fun i -> Printf.sprintf "iw%d_" (i + 1)) in
  let indices = List.map (fun v -> Ast.Var v) idx_vars in
  let inner = mk_stmt (Ast.Assign (Ast.Lindex (dst, indices), Ast.Index (src, indices))) in
  let body =
    List.fold_left2
      (fun acc var dim ->
        [ mk_stmt
            (Ast.Do
               { id = fresh_loop_id g; var; from_ = Ast.Int_lit 1; to_ = dim; step = None;
                 body = acc }) ])
      [ inner ]
      (List.rev idx_vars) (List.rev dims)
  in
  (body, idx_vars)

let get_dinfo g callee dummy =
  match Symtab.lookup_var g.st ~in_proc:(Some callee) dummy with
  | Some i -> i
  | None -> failwith ("wrapper generation: dummy " ^ dummy ^ " of " ^ callee ^ " undeclared")

(* Build the wrapper procedure for (callee, signature). *)
let build_wrapper g (p : Ast.proc) (s : site_sig) : Ast.proc =
  let callee = p.proc_name in
  let suffix = sig_suffix s in
  let wname = callee ^ "_w" ^ suffix in
  let decls = ref [] in
  let copy_in = ref [] in
  let copy_out = ref [] in
  let max_rank = ref 0 in
  let call_args =
    List.map2
      (fun dummy conv ->
        let dinfo = get_dinfo g callee dummy in
        match conv with
        | None ->
          (* pass through; declare the dummy exactly as the callee does *)
          decls :=
            { Ast.base = dinfo.v_base; dims = dinfo.v_dims; parameter = false;
              intent = dinfo.v_intent; names = [ (dummy, None) ]; decl_loc = Loc.dummy }
            :: !decls;
          Ast.Var dummy
        | Some actual_kind ->
          let dk =
            match dinfo.v_base with
            | Ast.Treal k -> k
            | Ast.Tinteger | Ast.Tlogical -> assert false
          in
          let tmp = dummy ^ "_tmp" in
          (* the wrapper's dummy carries the caller's kind *)
          decls :=
            { Ast.base = Ast.Treal actual_kind; dims = dinfo.v_dims; parameter = false;
              intent = dinfo.v_intent; names = [ (dummy, None) ]; decl_loc = Loc.dummy }
            :: !decls;
          decls :=
            { Ast.base = Ast.Treal dk; dims = dinfo.v_dims; parameter = false; intent = None;
              names = [ (tmp, None) ]; decl_loc = Loc.dummy }
            :: !decls;
          if dinfo.v_dims = [] then begin
            if dinfo.v_intent <> Some Ast.Out then
              copy_in := mk_stmt (Ast.Assign (Ast.Lvar tmp, Ast.Var dummy)) :: !copy_in;
            if dinfo.v_intent <> Some Ast.In then
              copy_out := mk_stmt (Ast.Assign (Ast.Lvar dummy, Ast.Var tmp)) :: !copy_out
          end
          else begin
            max_rank := max !max_rank (List.length dinfo.v_dims);
            if dinfo.v_intent <> Some Ast.Out then begin
              let loops, _ = copy_loops g ~dst:tmp ~src:dummy dinfo.v_dims in
              copy_in := List.rev_append loops !copy_in
            end;
            if dinfo.v_intent <> Some Ast.In then begin
              let loops, _ = copy_loops g ~dst:dummy ~src:tmp dinfo.v_dims in
              copy_out := List.rev_append loops !copy_out
            end
          end;
          Ast.Var tmp)
      p.Ast.params s
  in
  if !max_rank > 0 then
    decls :=
      { Ast.base = Ast.Tinteger; dims = []; parameter = false; intent = None;
        names = List.init !max_rank (fun i -> (Printf.sprintf "iw%d_" (i + 1), None));
        decl_loc = Loc.dummy }
      :: !decls;
  let call_and_result =
    match p.Ast.proc_kind with
    | Ast.Subroutine -> ([ mk_stmt (Ast.Call (callee, call_args)) ], Ast.Subroutine)
    | Ast.Function { result } ->
      let rinfo = get_dinfo g callee result in
      let res = "res_w" in
      decls :=
        { Ast.base = rinfo.v_base; dims = []; parameter = false; intent = None;
          names = [ (res, None) ]; decl_loc = Loc.dummy }
        :: !decls;
      ( [ mk_stmt (Ast.Assign (Ast.Lvar res, Ast.Index (callee, call_args))) ],
        Ast.Function { result = res } )
  in
  let body = List.rev !copy_in @ fst call_and_result @ List.rev !copy_out in
  let proc_id = g.next_proc_id in
  g.next_proc_id <- proc_id + 1;
  {
    Ast.proc_id;
    proc_kind = snd call_and_result;
    proc_name = wname;
    params = p.Ast.params;
    proc_decls = List.rev !decls;
    proc_body = body;
    proc_loc = Loc.dummy;
  }

let wrapper_for g ~caller (p : Ast.proc) args : string option =
  match site_signature g ~caller p args with
  | None -> None
  | Some s ->
    let key = (p.proc_name, sig_suffix s) in
    (match Hashtbl.find_opt g.wrappers key with
    | Some (w, _) -> Some w.Ast.proc_name
    | None ->
      let w = build_wrapper g p s in
      let owner = Symtab.proc_owner g.st p.proc_name in
      Hashtbl.add g.wrappers key (w, owner);
      g.map <- (w.Ast.proc_name, p.proc_name) :: g.map;
      Some w.Ast.proc_name)

(* The name a call site should use: its wrapper's when its kinds
   mismatch the callee's dummies. *)
let redirect g ~caller callee name args =
  match callee with
  | Symtab.Procedure p -> Option.value ~default:name (wrapper_for g ~caller p args)
  | Symtab.Variable _ | Symtab.Intrinsic | Symtab.Builtin_subroutine | Symtab.Unknown -> name

(* Rewrite every call site of a block, redirecting mismatching sites. *)
let rec rw_expr g ~caller e =
  match e with
  | Ast.Index (name, args) ->
    let args' = List.map (rw_expr g ~caller) args in
    Ast.Index (redirect g ~caller (Symtab.classify_ref g.st ~in_proc:caller name) name args, args')
  | Ast.Unop (op, a) -> Ast.Unop (op, rw_expr g ~caller a)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, rw_expr g ~caller a, rw_expr g ~caller b)
  | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Str_lit _ | Ast.Var _ -> e

let rec rw_stmt g ~caller (s : Ast.stmt) : Ast.stmt =
  let node =
    match s.node with
    | Ast.Assign (lhs, rhs) ->
      let lhs =
        match lhs with
        | Ast.Lvar _ -> lhs
        | Ast.Lindex (v, idx) -> Ast.Lindex (v, List.map (rw_expr g ~caller) idx)
      in
      Ast.Assign (lhs, rw_expr g ~caller rhs)
    | Ast.Call (name, args) ->
      let args' = List.map (rw_expr g ~caller) args in
      Ast.Call (redirect g ~caller (Symtab.classify_call g.st name) name args, args')
    | Ast.If (arms, els) ->
      Ast.If
        ( List.map (fun (c, b) -> (rw_expr g ~caller c, rw_block g ~caller b)) arms,
          rw_block g ~caller els )
    | Ast.Do d ->
      Ast.Do
        {
          d with
          from_ = rw_expr g ~caller d.from_;
          to_ = rw_expr g ~caller d.to_;
          step = Option.map (rw_expr g ~caller) d.step;
          body = rw_block g ~caller d.body;
        }
    | Ast.Do_while d ->
      Ast.Do_while { d with cond = rw_expr g ~caller d.cond; body = rw_block g ~caller d.body }
    | Ast.Select { selector; arms; default } ->
      Ast.Select
        {
          selector = rw_expr g ~caller selector;
          arms =
            List.map
              (fun (items, b) ->
                ( List.map
                    (function
                      | Ast.Case_value v -> Ast.Case_value (rw_expr g ~caller v)
                      | Ast.Case_range (lo, hi) ->
                        Ast.Case_range
                          (Option.map (rw_expr g ~caller) lo, Option.map (rw_expr g ~caller) hi))
                    items,
                  rw_block g ~caller b ))
              arms;
          default = rw_block g ~caller default;
        }
    | Ast.Print_stmt args -> Ast.Print_stmt (List.map (rw_expr g ~caller) args)
    | (Ast.Exit_stmt | Ast.Cycle_stmt | Ast.Return_stmt | Ast.Stop_stmt _) as n -> n
  in
  { s with node }

and rw_block g ~caller blk = List.map (rw_stmt g ~caller) blk

let insert prog : result =
  let st = Symtab.build prog in
  let next_loop_id, next_proc_id = max_ids prog in
  let g = { st; next_loop_id; next_proc_id; wrappers = Hashtbl.create 8; map = [] } in
  let prog' =
    Ast.map_bodies
      (fun owner b -> rw_block g ~caller:(Option.map (fun (p : Ast.proc) -> p.proc_name) owner) b)
      prog
  in
  (* append wrappers to their owners *)
  let by_owner : (string, Ast.proc list) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (w, owner) ->
      Hashtbl.replace by_owner owner (w :: Option.value ~default:[] (Hashtbl.find_opt by_owner owner)))
    g.wrappers;
  let sort_ws ws = List.sort (fun (a : Ast.proc) b -> compare a.proc_name b.proc_name) ws in
  let prog'' =
    List.map
      (fun u ->
        match u with
        | Ast.Module m -> (
          match Hashtbl.find_opt by_owner m.mod_name with
          | Some ws -> Ast.Module { m with mod_procs = m.mod_procs @ sort_ws ws }
          | None -> u)
        | Ast.Main m -> (
          match Hashtbl.find_opt by_owner m.main_name with
          | Some ws -> Ast.Main { m with main_procs = m.main_procs @ sort_ws ws }
          | None -> u))
      prog'
  in
  { program = prog''; wrapper_map = List.rev g.map }

let owner_fn r name = List.assoc_opt name r.wrapper_map
