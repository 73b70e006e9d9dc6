(* Lowering of a typechecked program to the slot-resolved IR ([Ir]).

   [Interp] (the concrete instance of [Walk]) resolves each (procedure,
   name) pair once, into a frame slot, but finds that resolution by name
   on every visit, looks each loop's vectorization mode up on every
   entry, and re-dispatches every intrinsic and cost-model call on each
   visit. This pass lowers a typechecked program once: names become
   integer slots into per-frame arrays, loop vectorization modes and
   per-operation SIMD cost tables are baked into the nodes, and
   call/intrinsic dispatch is pre-resolved. [Compile] turns the result
   into closures over its own frame layout; [run] is exactly that,
   compile then run (see DESIGN.md §6–§7).

   Procedures additionally carry a cache key derived from the precision
   signature of every declaration their lowered body can observe (their
   own scope, all unit scopes, and the scopes of transitively reachable
   callees), so unchanged procedures are reused across the thousands of
   variants a campaign evaluates. *)

open Fortran
include Ir

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)

type lenv = {
  st : Symtab.t;
  machine : Machine.t;
  in_proc : string option;
  (* proc-local non-parameter vars: name -> (slot, declared-scalar) *)
  slots : (string, int * bool) Hashtbl.t option;
  gslot : string -> string -> int;
  pslot : Symtab.var_info -> int;
  vec_mode_of : int -> vmode;
  callee_idx : string -> int;  (* interns into the owning body's callee table *)
}

let sp = Printf.sprintf

let param_key (info : Symtab.var_info) =
  (match info.v_scope with
  | Symtab.Proc_scope p -> "p:" ^ p
  | Symtab.Unit_scope u -> "u:" ^ u)
  ^ "." ^ info.v_name

let resolve_ref env name : ref_ =
  let local =
    match env.slots with
    | Some tbl -> (match Hashtbl.find_opt tbl name with Some (i, _) -> Some (Rlocal i) | None -> None)
    | None -> None
  in
  match local with
  | Some r -> r
  | None -> (
    match Symtab.lookup_var env.st ~in_proc:env.in_proc name with
    | None -> Rerr (sp "undeclared variable %s" name)
    | Some info ->
      if info.v_parameter then Rparam (env.pslot info)
      else (
        match info.v_scope with
        | Symtab.Unit_scope u -> Rglobal (env.gslot u name)
        | Symtab.Proc_scope p -> Rerr (sp "variable %s local to %s referenced out of scope" name p)))

let optab env op = table6 env.machine (fun lanes k -> Machine.op_cost env.machine ~lanes k op)
let intrtab env name =
  table6 env.machine (fun lanes k -> Machine.intrinsic_cost env.machine ~lanes k name)
let memtab env = table6 env.machine (fun lanes k -> Machine.mem_cost env.machine ~lanes k)

let rec lower_expr env (e : Ast.expr) : expr =
  match e with
  | Ast.Int_lit i -> Elit (Value.Vint i)
  | Ast.Real_lit { value; kind; _ } -> Elit (Value.Vreal (Fp32.of_kind kind value, kind))
  | Ast.Logical_lit b -> Elit (Value.Vlog b)
  | Ast.Str_lit s -> Elit (Value.Vstr s)
  | Ast.Var name -> Evar { name; r = resolve_ref env name }
  | Ast.Unop (Ast.Neg, e1) -> Eneg { e = lower_expr env e1; costs = optab env Ast.Sub }
  | Ast.Unop (Ast.Not, e1) -> Enot (lower_expr env e1)
  | Ast.Binop (op, a, b) ->
    let arith = match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow -> true
      | _ -> false
    in
    Ebin
      {
        op;
        a = lower_expr env a;
        b = lower_expr env b;
        exempt = Ast.is_real_literal a || Ast.is_real_literal b;
        costs = (if arith then optab env op else [||]);
        powmul = (if op = Ast.Pow then optab env Ast.Mul else [||]);
      }
  | Ast.Index (name, args) -> (
    let local = match env.slots with Some tbl -> Hashtbl.find_opt tbl name | None -> None in
    match local with
    | Some (i, _scalar) ->
      Earr { name; r = Rlocal i; idx = lower_indices env args; mem = memtab env }
    | None -> (
      match Symtab.classify_ref env.st ~in_proc:env.in_proc name with
      | Symtab.Variable info when info.v_dims <> [] ->
        Earr { name; r = resolve_ref env name; idx = lower_indices env args; mem = memtab env }
      | Symtab.Variable _ -> Etrap (sp "scalar %s subscripted" name)
      | Symtab.Intrinsic -> lower_intrinsic env name args
      | (Symtab.Builtin_subroutine | Symtab.Procedure _ | Symtab.Unknown) as callee ->
        Ecall (lower_call env name args callee)))

and lower_indices env args = Array.of_list (List.map (lower_expr env) args)

and lower_intrinsic env name args : expr =
  let unary k =
    match args with
    | [ a ] -> k (lower_expr env a)
    | _ -> Etrap (sp "intrinsic %s expects one argument" name)
  in
  match name with
  | "abs" -> unary (fun e -> Eintr (Iabs { e; costs = intrtab env name }))
  | "sqrt" | "exp" | "log" | "log10" | "sin" | "cos" | "tan" | "atan" | "asin" | "acos"
  | "sinh" | "cosh" | "tanh" | "aint" | "anint" ->
    unary (fun e -> Eintr (Ielem { name; fn = Walk.elemental name; e; costs = intrtab env name }))
  | "min" | "max" ->
    Eintr
      (Iminmax
         { name; args = Array.of_list (List.map (lower_expr env) args); costs = intrtab env name })
  | "mod" -> (
    match args with
    | [ a; b ] -> Eintr (Imod { a = lower_expr env a; b = lower_expr env b; costs = optab env Ast.Div })
    | _ -> Etrap "mod expects two arguments")
  | "atan2" -> (
    match args with
    | [ a; b ] ->
      Eintr (Iatan2 { a = lower_expr env a; b = lower_expr env b; costs = intrtab env name })
    | _ -> Etrap "atan2 expects two arguments")
  | "sign" -> (
    match args with
    | [ a; b ] ->
      Eintr (Isign { a = lower_expr env a; b = lower_expr env b; costs = intrtab env name })
    | _ -> Etrap "sign expects two arguments")
  | "real" -> (
    match args with
    | [ a ] -> Eintr (Ireal { e = lower_expr env a; kind = None })
    | [ a; Ast.Int_lit k ] -> (
      match Token.kind_of_int k with
      | Some kk -> Eintr (Ireal { e = lower_expr env a; kind = Some kk })
      (* the reference evaluates the operand before rejecting the kind *)
      | None -> Eintr (Ireal_bad { e = lower_expr env a; k }))
    | _ -> Etrap "real() expects (x) or (x, kind)")
  | "dble" -> unary (fun e -> Eintr (Idble e))
  | "int" -> unary (fun e -> Eintr (Iicvt { which = 0; e }))
  | "nint" -> unary (fun e -> Eintr (Iicvt { which = 1; e }))
  | "floor" -> unary (fun e -> Eintr (Iicvt { which = 2; e }))
  | "dot_product" -> (
    match args with
    | [ Ast.Var a; Ast.Var b ] ->
      Eintr (Idot { an = a; ar = resolve_ref env a; bn = b; br = resolve_ref env b })
    | _ -> Etrap "dot_product expects two whole-array arguments")
  | "sum" | "maxval" | "minval" -> (
    match args with
    | [ Ast.Var arr ] -> Eintr (Ireduce { name; rn = arr; r = resolve_ref env arr })
    | _ -> Etrap (sp "%s expects a whole-array argument" name))
  | "size" -> (
    match args with
    | [ Ast.Var arr ] -> Eintr (Isize { rn = arr; r = resolve_ref env arr; dim = None })
    | [ Ast.Var arr; d ] ->
      Eintr (Isize { rn = arr; r = resolve_ref env arr; dim = Some (lower_expr env d) })
    | _ -> Etrap "size expects an array argument")
  | "epsilon" | "huge" | "tiny" -> unary (fun e -> Eintr (Iinq { name; e }))
  | _ -> Etrap (sp "unknown intrinsic %s" name)

and lower_call env name args (callee : Symtab.callee) : call_site =
  match callee with
  | Symtab.Variable _ | Symtab.Intrinsic | Symtab.Builtin_subroutine | Symtab.Unknown ->
    (* [Interp.call_user] traps before touching the arguments *)
    { cs_name = name; cs_callee = -1; cs_args = [||];
      cs_arity_trap = Some (sp "unknown procedure %s" name) }
  | Symtab.Procedure p ->
    let expected = List.length p.Ast.params in
    let got = List.length args in
    if expected <> got then
      { cs_name = name; cs_callee = env.callee_idx name; cs_args = [||];
        cs_arity_trap = Some (sp "procedure %s expects %d arguments, got %d" name expected got) }
    else
      let lower_arg actual =
        match actual with
        | Ast.Var a -> Aref { name = a; r = resolve_ref env a }
        | _ ->
          let co =
            (* copy-out candidate: an array-element actual over a visible
               non-parameter array (the dummy's writability is checked at
               bind time against the callee's own IR) *)
            match actual with
            | Ast.Index (arr_name, idx) -> (
              match Symtab.lookup_var env.st ~in_proc:env.in_proc arr_name with
              | Some { v_dims = _ :: _; v_parameter = false; _ } ->
                Some
                  { co_name = arr_name; co_r = resolve_ref env arr_name;
                    co_idx = lower_indices env idx }
              | Some _ | None -> None)
            | _ -> None
          in
          Aval { e = lower_expr env actual; lit = Ast.is_real_literal actual; co }
      in
      { cs_name = name; cs_callee = env.callee_idx name;
        cs_args = Array.of_list (List.map lower_arg args); cs_arity_trap = None }

let rec lower_stmt env (s : Ast.stmt) : stmt =
  match s.Ast.node with
  | Ast.Assign (lhs, rhs) ->
    let rhs_lit = Ast.is_real_literal rhs in
    let tgt =
      match lhs with
      | Ast.Lvar name -> Lsc { name; r = resolve_ref env name; rhs_lit }
      | Ast.Lindex (name, idx) ->
        Larr { name; r = resolve_ref env name; idx = lower_indices env idx; rhs_lit }
    in
    Sassign { tgt; rhs = lower_expr env rhs }
  | Ast.Call (name, args) -> (
    match Symtab.classify_call env.st name with
    | Symtab.Builtin_subroutine -> (
      match name, args with
      | "mpi_allreduce", [ send; Ast.Var recv; Ast.Str_lit op ] ->
        Sallreduce
          { send = lower_expr env send; send_lit = Ast.is_real_literal send; rn = recv;
            recv = resolve_ref env recv; op }
      | "mpi_allreduce", _ -> Strap "mpi_allreduce expects (send, recv, 'op')"
      | "mpi_barrier", [] -> Sbarrier
      | "mpi_barrier", _ -> Strap "mpi_barrier takes no arguments"
      | _, _ -> Strap (sp "unknown builtin subroutine %s" name))
    | callee -> Scall (lower_call env name args callee))
  | Ast.If (arms, els) ->
    Sif
      {
        arms =
          Array.of_list
            (List.map (fun (c, blk) -> (lower_expr env c, lower_block env blk)) arms);
        els = lower_block env els;
      }
  | Ast.Do { id; var; from_; to_; step; body } ->
    let mode = env.vec_mode_of id in
    let iter_overhead =
      match mode with
      | Vscalar -> env.machine.Machine.loop_overhead
      | Vnarrow | Vfull ->
        env.machine.Machine.loop_overhead /. float_of_int env.machine.Machine.lanes_f64
    in
    Sdo
      {
        vn = var;
        var = resolve_ref env var;
        from_ = lower_expr env from_;
        to_ = lower_expr env to_;
        step = Option.map (lower_expr env) step;
        mode;
        iter_overhead;
        body = lower_block env body;
      }
  | Ast.Do_while { cond; body; _ } ->
    Sdo_while { cond = lower_expr env cond; body = lower_block env body }
  | Ast.Select { selector; arms; default } ->
    let lower_case = function
      | Ast.Case_value v -> Cval (lower_expr env v)
      | Ast.Case_range (lo, hi) ->
        Crange (Option.map (lower_expr env) lo, Option.map (lower_expr env) hi)
    in
    Sselect
      {
        selector = lower_expr env selector;
        arms =
          Array.of_list
            (List.map
               (fun (items, blk) ->
                 (Array.of_list (List.map lower_case items), lower_block env blk))
               arms);
        default = lower_block env default;
      }
  | Ast.Exit_stmt -> Sexit
  | Ast.Cycle_stmt -> Scycle
  | Ast.Return_stmt -> Sreturn
  | Ast.Stop_stmt m -> Sstop (Option.value ~default:"" m)
  | Ast.Print_stmt args -> Sprint (Array.of_list (List.map (lower_expr env) args))

and lower_block env blk = Array.of_list (List.map (lower_stmt env) blk)

(* ------------------------------------------------------------------ *)
(* Procedure lowering                                                  *)

(* interning callee-name table: one per lowered body *)
let make_interner () =
  let tbl = Hashtbl.create 8 in
  let names = ref [] in
  let n = ref 0 in
  let idx name =
    match Hashtbl.find_opt tbl name with
    | Some i -> i
    | None ->
      let i = !n in
      Hashtbl.add tbl name i;
      names := name :: !names;
      incr n;
      i
  in
  (idx, fun () -> Array.of_list (List.rev !names))

let lower_proc ~st ~machine ~gslot ~pslot ~vec_mode_of ~is_wrapper ~is_inlinable (p : Ast.proc)
    : proc_ir =
  let name = p.Ast.proc_name in
  let scope_vars = Symtab.vars_of_scope st (Symtab.Proc_scope name) in
  let slots = Hashtbl.create 16 in
  let nslots = ref 0 in
  List.iter
    (fun (info : Symtab.var_info) ->
      if not info.v_parameter then begin
        Hashtbl.replace slots info.v_name (!nslots, info.v_dims = []);
        incr nslots
      end)
    scope_vars;
  let callee_idx, callee_names = make_interner () in
  let env =
    { st; machine; in_proc = Some name; slots = Some slots; gslot; pslot; vec_mode_of; callee_idx }
  in
  let dummies =
    Array.of_list
      (List.map
         (fun dummy ->
           match Symtab.lookup_var st ~in_proc:(Some name) dummy with
           | Some dinfo when not dinfo.v_parameter ->
             let slot = fst (Hashtbl.find slots dummy) in
             {
               d_name = dummy;
               d_slot = slot;
               d_base = dinfo.v_base;
               d_is_array = dinfo.v_dims <> [];
               d_writable =
                 (match dinfo.v_intent with
                 | Some Ast.Out | Some Ast.Inout | None -> true
                 | Some Ast.In -> false);
               d_undeclared = false;
             }
           | Some _ | None ->
             { d_name = dummy; d_slot = -1; d_base = Ast.Tinteger; d_is_array = false;
               d_writable = false; d_undeclared = true })
         p.Ast.params)
  in
  let locals =
    scope_vars
    |> List.filter (fun (i : Symtab.var_info) ->
           (not i.v_parameter) && not (List.mem i.v_name p.Ast.params))
    |> List.map (fun (i : Symtab.var_info) ->
           {
             l_slot = fst (Hashtbl.find slots i.v_name);
             l_base = i.v_base;
             l_dims = Array.of_list (List.map (lower_expr env) i.v_dims);
           })
    |> Array.of_list
  in
  let inits =
    scope_vars
    |> List.filter_map (fun (i : Symtab.var_info) ->
           match i.v_init with
           | Some e when not i.v_parameter ->
             Some
               {
                 i_name = i.v_name;
                 i_slot = fst (Hashtbl.find slots i.v_name);
                 i_rhs = lower_expr env e;
                 i_lit = Ast.is_real_literal e;
               }
           | Some _ | None -> None)
    |> Array.of_list
  in
  let body = lower_block env p.Ast.proc_body in
  let p_result, p_is_function =
    match p.Ast.proc_kind with
    | Ast.Subroutine -> (-1, false)
    | Ast.Function { result } -> (
      match Hashtbl.find_opt slots result with
      | Some (i, _) -> (i, true)
      | None -> (-2, true))
  in
  {
    p_name = name;
    p_key = "";
    p_result;
    p_is_function;
    p_is_wrapper = is_wrapper;
    p_inlinable = is_inlinable;
    p_nslots = !nslots;
    p_dummies = dummies;
    p_locals = locals;
    p_inits = inits;
    p_body = body;
    p_callees = callee_names ();
  }

(* ------------------------------------------------------------------ *)
(* Per-procedure compilation cache                                     *)

module Cache = struct
  (* Keyed by procedure name + the precision signature of every
     declaration the lowered body can observe. Domain-safe: lookups and
     inserts hold [lock]; lowering on a miss runs outside it, and a race
     where two domains lower the same key keeps the first-published IR.
     One cache serves one (program family × machine): the tuner allocates
     one per campaign. *)
  type t = {
    tbl : (string, proc_ir) Hashtbl.t;
    lock : Mutex.t;
    (* traffic counters are atomics, not lock-guarded fields: worker
       domains aggregate into them without contending on [lock], and a
       reader never observes a torn total *)
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create () =
    { tbl = Hashtbl.create 512; lock = Mutex.create (); hits = Atomic.make 0;
      misses = Atomic.make 0 }

  let stats t = (Atomic.get t.hits, Atomic.get t.misses)

  let get_or_lower t key f =
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.tbl key with
    | Some ir ->
      Atomic.incr t.hits;
      Mutex.unlock t.lock;
      ir
    | None ->
      Atomic.incr t.misses;
      Mutex.unlock t.lock;
      let ir = f () in
      Mutex.lock t.lock;
      (match Hashtbl.find_opt t.tbl key with
      | Some winner ->
        Mutex.unlock t.lock;
        winner
      | None ->
        Hashtbl.replace t.tbl key ir;
        Mutex.unlock t.lock;
        ir)
end

(* precision signature of one scope: real declarations, sorted by name
   (sorted because Rewrite splits declaration lists per kind, which
   permutes [vars_of_scope] order across variants) *)
let scope_sig st buf scope =
  let vars =
    List.sort
      (fun (a : Symtab.var_info) (b : Symtab.var_info) -> compare a.v_name b.v_name)
      (Symtab.vars_of_scope st scope)
  in
  List.iter
    (fun (i : Symtab.var_info) ->
      match i.v_base with
      | Ast.Treal Ast.K4 -> Buffer.add_string buf i.v_name; Buffer.add_string buf "!4;"
      | Ast.Treal Ast.K8 -> Buffer.add_string buf i.v_name; Buffer.add_string buf "!8;"
      | Ast.Tinteger | Ast.Tlogical -> ())
    vars

(* cache key for [root]: its own scope, every unit scope, and the scope of
   every procedure transitively reachable from it. Wrapper redirection,
   inlinability and the baked vectorization modes are all functions of
   exactly these declarations (plus the fixed machine). *)
let proc_cache_key st ~units ~cg ~roots name =
  let buf = Buffer.create 256 in
  Buffer.add_string buf name;
  Buffer.add_char buf '|';
  List.iter
    (fun u ->
      Buffer.add_string buf u;
      Buffer.add_char buf ':';
      scope_sig st buf (Symtab.Unit_scope u);
      Buffer.add_char buf '|')
    units;
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Buffer.add_char buf ':';
      scope_sig st buf (Symtab.Proc_scope p);
      Buffer.add_char buf '|')
    (List.sort_uniq compare (Analysis.Callgraph.reachable cg ~roots));
  Buffer.contents buf

(* Every cache key one lowering of [st] through a [Cache] would request
   (and [Compile.compile ?cache] re-requests, one for one): each
   procedure keyed with itself as root, then the main pseudo-procedure
   over main's callees — computed without lowering anything. The tuner
   replays these over a campaign's committed records to derive
   scheduling-independent backend traffic counters. *)
let cache_keys st =
  let prog = Symtab.program st in
  let cg = Analysis.Callgraph.build st in
  let units = List.map Ast.unit_name prog in
  let proc_keys =
    List.map
      (fun (p : Ast.proc) ->
        proc_cache_key st ~units ~cg ~roots:[ p.Ast.proc_name ] p.Ast.proc_name)
      (Ast.all_procs prog)
  in
  match Ast.main_of prog with
  | None -> proc_keys
  | Some _ ->
    let roots = List.map fst (Analysis.Callgraph.callees cg None) in
    proc_keys @ [ proc_cache_key st ~units ~cg ~roots "<main>" ]

(* ------------------------------------------------------------------ *)
(* Program assembly                                                    *)

let lower ?cache ?(wrapper_owner = fun _ -> None) ~machine st : program =
  let prog = Symtab.program st in
  (* canonical global slots: sorted (unit, name) over non-parameter
     unit-scope vars, stable under Rewrite's declaration re-splitting *)
  let unit_vars =
    List.concat_map
      (fun u ->
        let uname = Ast.unit_name u in
        List.filter_map
          (fun (i : Symtab.var_info) -> if i.v_parameter then None else Some (uname, i))
          (Symtab.vars_of_scope st (Symtab.Unit_scope uname)))
      prog
  in
  let gtbl = Hashtbl.create 64 in
  List.iteri
    (fun slot (u, n) -> Hashtbl.replace gtbl (u, n) slot)
    (List.sort compare (List.map (fun (u, (i : Symtab.var_info)) -> (u, i.v_name)) unit_vars));
  let gslot u n = try Hashtbl.find gtbl (u, n) with Not_found -> assert false in
  (* canonical parameter slots: sorted by scope-qualified key *)
  let all_params =
    List.concat_map
      (fun u ->
        let uname = Ast.unit_name u in
        let of_scope s =
          List.filter (fun (i : Symtab.var_info) -> i.v_parameter) (Symtab.vars_of_scope st s)
        in
        of_scope (Symtab.Unit_scope uname)
        @ List.concat_map
            (fun (p : Ast.proc) -> of_scope (Symtab.Proc_scope p.Ast.proc_name))
            (Ast.procs_of_unit u))
      prog
  in
  let all_params =
    List.sort (fun a b -> compare (param_key a) (param_key b)) all_params
  in
  let ptbl = Hashtbl.create 32 in
  List.iteri (fun slot info -> Hashtbl.replace ptbl (param_key info) slot) all_params;
  let pslot info = try Hashtbl.find ptbl (param_key info) with Not_found -> assert false in
  (* vectorization facts, forced only when some procedure must be lowered *)
  let vec_modes = lazy (vec_modes machine st) in
  let vec_mode_of id = Lazy.force vec_modes id in
  let cg = lazy (Analysis.Callgraph.build st) in
  let units = List.map Ast.unit_name prog in
  let cached_lower ~roots key_name (f : unit -> proc_ir) =
    match cache with
    | None -> f ()
    | Some c ->
      let key = proc_cache_key st ~units ~cg:(Lazy.force cg) ~roots key_name in
      Cache.get_or_lower c key (fun () -> { (f ()) with p_key = key })
  in
  let procs_src = Ast.all_procs prog in
  let procs =
    Array.of_list
      (List.map
         (fun (p : Ast.proc) ->
           let name = p.Ast.proc_name in
           cached_lower ~roots:[ name ] name (fun () ->
               lower_proc ~st ~machine ~gslot ~pslot ~vec_mode_of
                 ~is_wrapper:(wrapper_owner name <> None)
                 ~is_inlinable:
                   (Analysis.Vectorize.inlinable st
                      ~inline_stmt_limit:machine.Machine.inline_stmt_limit p)
                 p))
         procs_src)
  in
  let proc_index = Hashtbl.create 64 in
  Array.iteri (fun i (ir : proc_ir) -> Hashtbl.replace proc_index ir.p_name i) procs;
  let link_of name = match Hashtbl.find_opt proc_index name with Some i -> i | None -> -1 in
  let links = Array.map (fun (ir : proc_ir) -> Array.map link_of ir.p_callees) procs in
  (* main body as a cached pseudo-procedure *)
  let main_ir =
    match Ast.main_of prog with
    | None -> None
    | Some m ->
      let roots =
        List.map fst (Analysis.Callgraph.callees (Lazy.force cg) None)
      in
      Some
        (cached_lower ~roots "<main>" (fun () ->
             let callee_idx, callee_names = make_interner () in
             let env =
               { st; machine; in_proc = None; slots = None; gslot; pslot; vec_mode_of;
                 callee_idx }
             in
             let body = lower_block env m.Ast.main_body in
             {
               p_name = "<main>"; p_key = ""; p_result = -1; p_is_function = false;
               p_is_wrapper = false; p_inlinable = false; p_nslots = 0; p_dummies = [||];
               p_locals = [||]; p_inits = [||]; p_body = body; p_callees = callee_names ();
             }))
  in
  let main_body, main_key, main_links =
    match main_ir with
    | Some ir -> (ir.p_body, ir.p_key, Array.map link_of ir.p_callees)
    | None -> ([||], "", [||])
  in
  (* global + parameter initializer expressions share one callee table *)
  let aux_idx, aux_names = make_interner () in
  let aux_env in_proc =
    { st; machine; in_proc; slots = None; gslot; pslot; vec_mode_of; callee_idx = aux_idx }
  in
  let globals =
    Array.of_list
      (List.map
         (fun (uname, (info : Symtab.var_info)) ->
           let extents =
             let rec go acc = function
               | [] -> Some (Array.of_list (List.rev acc))
               | d :: tl -> (
                 match Typecheck.static_int st ~in_proc:None d with
                 | Some n -> go (n :: acc) tl
                 | None -> None)
             in
             go [] info.v_dims
           in
           {
             g_slot = gslot uname info.v_name;
             g_unit = uname;
             g_name = info.v_name;
             g_base = info.v_base;
             g_extents = extents;
             g_init =
               Option.map
                 (fun e -> (lower_expr (aux_env None) e, Ast.is_real_literal e))
                 info.v_init;
           })
         unit_vars)
  in
  let params =
    Array.of_list
      (List.map
         (fun (info : Symtab.var_info) ->
           let in_proc =
             match info.v_scope with
             | Symtab.Proc_scope p -> Some p
             | Symtab.Unit_scope _ -> None
           in
           {
             pa_name = info.v_name;
             pa_base = info.v_base;
             pa_init = Option.map (fun e -> lower_expr (aux_env in_proc) e) info.v_init;
           })
         all_params)
  in
  let aux_links = Array.map link_of (aux_names ()) in
  let l64 = machine.Machine.lanes_f64 in
  {
    machine;
    has_main = main_ir <> None;
    procs;
    links;
    main_body;
    main_key;
    main_links;
    aux_links;
    globals;
    nglobals = Array.length globals;
    params;
    conv_costs =
      [|
        Machine.convert_cost machine ~lanes:1;
        Machine.convert_cost machine ~lanes:l64;
        Machine.convert_cost machine ~lanes:l64;
      |];
  }

let run ?budget (p : program) : Interp.outcome = Compile.run ?budget (Compile.compile p)
