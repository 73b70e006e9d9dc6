(* Typed random-program generation.

   Every helper generates at a requested type against an explicit
   environment of visible variables and callable procedures, so the
   output is well-typed by construction (see gen.mli). The module keeps
   name pools disjoint by prefix: module globals [g*]/[ga*], parameters
   [np]/[cf8], procedure dummies [a*], locals [v*]/[m*], loop counters
   [i1]/[i2], while-loop counters [w*], function results [res_]. *)

open Fortran

type case = {
  source : string;
  lowered : string list;
}

let module_name = "mfz"

(* ------------------------------------------------------------------ *)
(* Randomness helpers over the raw state (QCheck.Gen.t is exactly
   [Random.State.t -> 'a], so these compose with QCheck directly).      *)

let rint st n = if n <= 0 then 0 else Random.State.int st n
let range st lo hi = lo + rint st (hi - lo + 1)
let pick st l = List.nth l (rint st (List.length l))
let flip st p = Random.State.float st 1.0 < p

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)

type vinfo = {
  vn : string;
  base : Ast.base_type;
  dims : int list;  (* literal extents; [] = scalar *)
  writable : bool;  (* false: parameters, intent(in) dummies, loop vars *)
}

type proc_sig = {
  ps_name : string;
  ps_dummies : (string * Ast.base_type * int list * Ast.intent option) list;
  ps_result : Ast.base_type option;  (* None = subroutine *)
}

type env = {
  st : Random.State.t;
  vars : vinfo list;  (* innermost-first, deduped by name *)
  procs : proc_sig list;  (* procedures generated so far (no recursion) *)
  loops : (string * int) list;  (* active do variables with upper bounds *)
  free : string list;  (* loop variables not currently in use *)
  in_proc : bool;
  in_loop : bool;
  depth : int;  (* remaining block-nesting budget *)
}

(* while-loop counters, allocated per scope while its body is generated *)
type scope_state = { mutable counters : string list }

let alloc_counter st_ (s : scope_state) =
  ignore st_;
  if List.length s.counters >= 2 then None
  else begin
    let w = Printf.sprintf "w%d" (List.length s.counters + 1) in
    s.counters <- s.counters @ [ w ];
    Some w
  end

let dedupe vars =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v.vn then false
      else begin
        Hashtbl.add seen v.vn ();
        true
      end)
    vars

let scalars env pred = List.filter (fun v -> v.dims = [] && pred v) env.vars
let arrays env pred = List.filter (fun v -> v.dims <> [] && pred v) env.vars

let mk node = { Ast.node; loc = Loc.dummy }

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)

let lit_table =
  [ ("0.5", 0.5); ("1.5", 1.5); ("2.0", 2.0); ("0.25", 0.25); ("3.0", 3.0); ("1.0e-2", 0.01) ]

let real_lit_of (text4, v) k =
  match k with
  | Ast.K4 -> Ast.Real_lit { text = text4; value = v; kind = Ast.K4 }
  | Ast.K8 ->
    let text8 =
      if String.contains text4 'e' then
        String.map (fun c -> if c = 'e' then 'd' else c) text4
      else text4 ^ "d0"
    in
    Ast.Real_lit { text = text8; value = v; kind = Ast.K8 }

let real_lit st k = real_lit_of (pick st lit_table) k
let half_lit k = real_lit_of ("0.5", 0.5) k
let two_lit k = real_lit_of ("2.0", 2.0) k

(* ------------------------------------------------------------------ *)
(* Typed expression generation                                         *)

let rec gen_int env fuel : Ast.expr =
  let st = env.st in
  let leaf () =
    let vs = scalars env (fun v -> v.base = Ast.Tinteger) in
    if vs <> [] && flip st 0.5 then Ast.Var (pick st vs).vn else Ast.Int_lit (range st 0 9)
  in
  if fuel <= 0 then leaf ()
  else
    match rint st 10 with
    | 0 | 1 | 2 -> leaf ()
    | 3 ->
      Ast.Binop
        (pick st [ Ast.Add; Ast.Sub; Ast.Mul ], gen_int env (fuel - 1), gen_int env (fuel - 1))
    | 4 ->
      (* division and modulus with a non-zero denominator by construction *)
      let den =
        Ast.Binop (Ast.Add, Ast.Index ("abs", [ gen_int env (fuel - 1) ]), Ast.Int_lit 1)
      in
      let num = gen_int env (fuel - 1) in
      if flip st 0.5 then Ast.Binop (Ast.Div, num, den) else Ast.Index ("mod", [ num; den ])
    | 5 -> Ast.Index ("abs", [ gen_int env (fuel - 1) ])
    | 6 ->
      Ast.Index (pick st [ "min"; "max" ], [ gen_int env (fuel - 1); gen_int env (fuel - 1) ])
    | 7 ->
      Ast.Index
        (pick st [ "int"; "nint"; "floor" ], [ gen_real env (fuel - 1) (pick st [ Ast.K4; Ast.K8 ]) ])
    | 8 -> (
      match arrays env (fun _ -> true) with
      | [] -> leaf ()
      | arrs -> Ast.Index ("size", [ Ast.Var (pick st arrs).vn ]))
    | _ -> Ast.Binop (Ast.Pow, Ast.Int_lit (range st 0 3), Ast.Int_lit (range st 0 2))

and gen_real env fuel k : Ast.expr =
  let st = env.st in
  let leaf () =
    let vs = scalars env (fun v -> v.base = Ast.Treal k) in
    if vs <> [] && flip st 0.7 then Ast.Var (pick st vs).vn else real_lit st k
  in
  if fuel <= 0 then leaf ()
  else
    match rint st 14 with
    | 0 | 1 -> leaf ()
    | 2 | 3 -> (
      let op = pick st [ Ast.Add; Ast.Sub; Ast.Mul ] in
      let l = gen_real env (fuel - 1) k in
      let r =
        match k with
        | Ast.K8 -> (
          match rint st 3 with
          | 0 -> gen_real env (fuel - 1) Ast.K8
          | 1 -> gen_real env (fuel - 1) Ast.K4
          | _ -> gen_int env (fuel - 1))
        | Ast.K4 -> if flip st 0.3 then gen_int env (fuel - 1) else gen_real env (fuel - 1) Ast.K4
      in
      match flip st 0.5 with
      | true -> Ast.Binop (op, l, r)
      | false -> Ast.Binop (op, r, l))
    | 4 ->
      let num = gen_real env (fuel - 1) k in
      let den =
        Ast.Binop (Ast.Add, Ast.Index ("abs", [ gen_real env (fuel - 1) k ]), half_lit k)
      in
      Ast.Binop (Ast.Div, num, den)
    | 5 -> Ast.Unop (Ast.Neg, gen_real env (fuel - 1) k)
    | 6 -> Ast.Binop (Ast.Pow, gen_real env (fuel - 1) k, Ast.Int_lit (range st 0 2))
    | 7 -> (
      (* each argument kept inside the function's domain: |0.5*tanh(e)|
         < 1/2 for tan, asin and acos, twice that for sinh and cosh *)
      let half_tanh () =
        Ast.Binop (Ast.Mul, half_lit k, Ast.Index ("tanh", [ gen_real env (fuel - 1) k ]))
      in
      let abs_plus_half () =
        Ast.Binop (Ast.Add, Ast.Index ("abs", [ gen_real env (fuel - 1) k ]), half_lit k)
      in
      match rint st 8 with
      | 0 -> Ast.Index (pick st [ "sin"; "cos"; "tanh"; "atan" ], [ gen_real env (fuel - 1) k ])
      | 1 -> Ast.Index ("sqrt", [ Ast.Index ("abs", [ gen_real env (fuel - 1) k ]) ])
      | 2 -> Ast.Index ("log", [ abs_plus_half () ])
      | 3 -> Ast.Index ("exp", [ Ast.Index ("min", [ gen_real env (fuel - 1) k; two_lit k ]) ])
      | 4 -> Ast.Index (pick st [ "tan"; "asin"; "acos" ], [ half_tanh () ])
      | 5 ->
        Ast.Index (pick st [ "sinh"; "cosh" ], [ Ast.Binop (Ast.Mul, two_lit k, half_tanh ()) ])
      | 6 -> Ast.Index (pick st [ "aint"; "anint" ], [ gen_real env (fuel - 1) k ])
      | _ -> Ast.Index ("log10", [ abs_plus_half () ]))
    | 8 ->
      Ast.Index
        (pick st [ "min"; "max" ], [ gen_real env (fuel - 1) k; gen_real env (fuel - 1) k ])
    | 9 -> (
      match rint st 3 with
      | 0 -> Ast.Index ("sign", [ gen_real env (fuel - 1) k; gen_real env (fuel - 1) k ])
      | 1 -> Ast.Index ("atan2", [ gen_real env (fuel - 1) k; gen_real env (fuel - 1) k ])
      | _ ->
        Ast.Index
          ( "mod",
            [
              gen_real env (fuel - 1) k;
              Ast.Binop (Ast.Add, Ast.Index ("abs", [ gen_real env (fuel - 1) k ]), half_lit k);
            ] ))
    | 10 -> (
      match k with
      | Ast.K4 ->
        Ast.Index
          ( "real",
            [ (if flip st 0.5 then gen_real env (fuel - 1) Ast.K8 else gen_int env (fuel - 1)) ]
          )
      | Ast.K8 ->
        if flip st 0.5 then
          Ast.Index
            ( "dble",
              [ (if flip st 0.5 then gen_real env (fuel - 1) Ast.K4 else gen_int env (fuel - 1)) ]
            )
        else Ast.Index ("real", [ gen_real env (fuel - 1) Ast.K4; Ast.Int_lit 8 ])
    )
    | 11 -> (
      match arrays env (fun v -> v.base = Ast.Treal k) with
      | [] -> leaf ()
      | arrs ->
        let a = pick st arrs in
        Ast.Index (a.vn, List.map (fun d -> gen_index env (fuel - 1) d) a.dims))
    | 12 -> (
      match arrays env (fun v -> v.base = Ast.Treal k) with
      | [] -> leaf ()
      | arrs -> (
        let a = pick st arrs in
        match rint st 4 with
        | 0 -> Ast.Index ("sum", [ Ast.Var a.vn ])
        | 1 -> Ast.Index ("maxval", [ Ast.Var a.vn ])
        | 2 -> Ast.Index ("minval", [ Ast.Var a.vn ])
        | _ -> Ast.Index ("dot_product", [ Ast.Var a.vn; Ast.Var a.vn ])))
    | _ -> (
      match List.filter (fun p -> p.ps_result = Some (Ast.Treal k)) env.procs with
      | [] -> (
        match scalars env (fun v -> v.base = Ast.Treal k) with
        | [] -> leaf ()
        | vs -> Ast.Index (pick st [ "epsilon"; "tiny" ], [ Ast.Var (pick st vs).vn ]))
      | fs ->
        let p = pick st fs in
        Ast.Index (p.ps_name, List.map (gen_fun_actual env (fuel - 1)) p.ps_dummies))

and gen_logical env fuel : Ast.expr =
  let st = env.st in
  let leaf () =
    let vs = scalars env (fun v -> v.base = Ast.Tlogical) in
    if vs <> [] && flip st 0.6 then Ast.Var (pick st vs).vn else Ast.Logical_lit (flip st 0.5)
  in
  if fuel <= 0 then leaf ()
  else
    match rint st 8 with
    | 0 | 1 -> leaf ()
    | 2 | 3 | 4 -> (
      let cmp = pick st [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ] in
      match rint st 3 with
      | 0 -> Ast.Binop (cmp, gen_int env (fuel - 1), gen_int env (fuel - 1))
      | 1 ->
        let k = pick st [ Ast.K4; Ast.K8 ] in
        Ast.Binop (cmp, gen_real env (fuel - 1) k, gen_real env (fuel - 1) k)
      | _ ->
        Ast.Binop
          ( cmp,
            gen_real env (fuel - 1) (pick st [ Ast.K4; Ast.K8 ]),
            gen_real env (fuel - 1) (pick st [ Ast.K4; Ast.K8 ]) ))
    | 5 ->
      Ast.Binop (pick st [ Ast.And; Ast.Or ], gen_logical env (fuel - 1), gen_logical env (fuel - 1))
    | 6 -> Ast.Unop (Ast.Not, gen_logical env (fuel - 1))
    | _ -> leaf ()

(* An always-in-bounds subscript for extent [d]. *)
and gen_index env fuel d : Ast.expr =
  let st = env.st in
  let fits = List.filter (fun (_, b) -> b <= d) env.loops in
  if fits <> [] && flip st 0.4 then Ast.Var (fst (pick st fits))
  else if flip st 0.75 then Ast.Int_lit (range st 1 d)
  else
    Ast.Binop
      ( Ast.Add,
        Ast.Int_lit 1,
        Ast.Index ("mod", [ Ast.Index ("abs", [ gen_int env fuel ]); Ast.Int_lit d ]) )

(* Function-call actuals: exact kind match for real dummies (argument
   association has no implicit conversion), whole arrays for array
   dummies. *)
and gen_fun_actual env fuel (_, base, dims, _) : Ast.expr =
  let st = env.st in
  match base, dims with
  | Ast.Treal dk, [] -> (
    match scalars env (fun v -> v.base = Ast.Treal dk) with
    | [] -> real_lit st dk
    | vs -> if flip st 0.3 then real_lit st dk else Ast.Var (pick st vs).vn)
  | Ast.Treal dk, _ -> (
    match arrays env (fun v -> v.base = Ast.Treal dk && v.dims = dims) with
    | [] -> assert false (* module arrays cover every generated dummy shape *)
    | vs -> Ast.Var (pick st vs).vn)
  | Ast.Tinteger, _ -> gen_int env fuel
  | Ast.Tlogical, _ -> gen_logical env fuel

(* Subroutine actuals additionally honor writability for out/inout. *)
let gen_actual env (dummy : string * Ast.base_type * int list * Ast.intent option) : Ast.expr =
  let st = env.st in
  let _, base, dims, intent = dummy in
  match base, dims, intent with
  | Ast.Treal dk, [], Some Ast.In ->
    if flip st 0.4 then gen_real env 2 dk else gen_fun_actual env 2 dummy
  | Ast.Treal dk, [], _ -> (
    match scalars env (fun v -> v.base = Ast.Treal dk && v.writable) with
    | [] -> real_lit st dk
    | ws -> Ast.Var (pick st ws).vn)
  | _ -> gen_fun_actual env 2 dummy

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let rec gen_stmt env sstate : Ast.stmt list =
  let st = env.st in
  let assign_scalar () =
    match scalars env (fun v -> v.writable) with
    | [] -> []
    | ws ->
      let v = pick st ws in
      let rhs =
        match v.base with
        | Ast.Treal k ->
          if flip st 0.75 then gen_real env 3 k
          else if flip st 0.5 then gen_real env 3 (if k = Ast.K4 then Ast.K8 else Ast.K4)
          else gen_int env 3
        | Ast.Tinteger ->
          if flip st 0.85 then gen_int env 3 else gen_real env 3 (pick st [ Ast.K4; Ast.K8 ])
        | Ast.Tlogical -> gen_logical env 3
      in
      [ mk (Ast.Assign (Ast.Lvar v.vn, rhs)) ]
  in
  let assign_elem () =
    match arrays env (fun v -> v.writable) with
    | [] -> assign_scalar ()
    | arrs ->
      let a = pick st arrs in
      let k = match a.base with Ast.Treal k -> k | Ast.Tinteger | Ast.Tlogical -> Ast.K8 in
      let idx = List.map (fun d -> gen_index env 2 d) a.dims in
      let rhs =
        if flip st 0.8 then gen_real env 3 k
        else gen_real env 3 (if k = Ast.K4 then Ast.K8 else Ast.K4)
      in
      [ mk (Ast.Assign (Ast.Lindex (a.vn, idx), rhs)) ]
  in
  let if_stmt () =
    let benv = { env with depth = env.depth - 1 } in
    let arms =
      List.init (range st 1 2) (fun _ -> (gen_logical env 2, gen_block benv sstate))
    in
    let els = if flip st 0.5 then gen_block benv sstate else [] in
    [ mk (Ast.If (arms, els)) ]
  in
  let do_stmt () =
    match env.free with
    | [] -> assign_scalar ()
    | v :: rest ->
      let to_, bound = if flip st 0.2 then (Ast.Var "np", 3) else
        let b = range st 2 4 in
        (Ast.Int_lit b, b)
      in
      let step = if flip st 0.3 then Some (Ast.Int_lit (pick st [ 1; 2 ])) else None in
      let benv =
        { env with
          free = rest;
          loops = (v, bound) :: env.loops;
          in_loop = true;
          depth = env.depth - 1;
        }
      in
      [ mk (Ast.Do { id = 0; var = v; from_ = Ast.Int_lit 1; to_; step; body = gen_block benv sstate }) ]
  in
  let while_stmt () =
    match alloc_counter st sstate with
    | None -> do_stmt ()
    | Some w ->
      let bound = range st 1 3 in
      let benv = { env with in_loop = true; depth = env.depth - 1 } in
      (* the counter increments first, so any [cycle] in the rest of the
         body cannot make the loop diverge *)
      let inc = mk (Ast.Assign (Ast.Lvar w, Ast.Binop (Ast.Add, Ast.Var w, Ast.Int_lit 1))) in
      let body = inc :: gen_block benv sstate in
      [ mk (Ast.Do_while { id = 0; cond = Ast.Binop (Ast.Lt, Ast.Var w, Ast.Int_lit bound); body }) ]
  in
  let select_stmt () =
    let benv = { env with depth = env.depth - 1 } in
    if flip st 0.8 then begin
      let selector = gen_int env 2 in
      let arms =
        List.init (range st 1 3) (fun _ ->
            let items =
              match rint st 4 with
              | 0 -> [ Ast.Case_value (Ast.Int_lit (range st 0 5)) ]
              | 1 ->
                [
                  Ast.Case_value (Ast.Int_lit (range st 0 3));
                  Ast.Case_value (Ast.Int_lit (range st 4 7));
                ]
              | 2 ->
                let lo = range st 0 4 in
                [ Ast.Case_range (Some (Ast.Int_lit lo), Some (Ast.Int_lit (lo + range st 0 3))) ]
              | _ ->
                [
                  (if flip st 0.5 then Ast.Case_range (None, Some (Ast.Int_lit 0))
                   else Ast.Case_range (Some (Ast.Int_lit 8), None));
                ]
            in
            (items, gen_block benv sstate))
      in
      let default = if flip st 0.6 then gen_block benv sstate else [] in
      [ mk (Ast.Select { selector; arms; default }) ]
    end
    else begin
      let selector = gen_logical env 2 in
      let arms = [ ([ Ast.Case_value (Ast.Logical_lit true) ], gen_block benv sstate) ] in
      let arms =
        if flip st 0.5 then
          arms @ [ ([ Ast.Case_value (Ast.Logical_lit false) ], gen_block benv sstate) ]
        else arms
      in
      let default = if flip st 0.4 then gen_block benv sstate else [] in
      [ mk (Ast.Select { selector; arms; default }) ]
    end
  in
  let call_stmt () =
    match List.filter (fun p -> p.ps_result = None) env.procs with
    | [] -> assign_scalar ()
    | subs ->
      let p = pick st subs in
      [ mk (Ast.Call (p.ps_name, List.map (gen_actual env) p.ps_dummies)) ]
  in
  let mpi_stmt () =
    if flip st 0.3 then [ mk (Ast.Call ("mpi_barrier", [])) ]
    else
      match scalars env (fun v -> v.writable && Ast.is_real v.base) with
      | [] -> []
      | ws ->
        let recv = pick st ws in
        let k = match recv.base with Ast.Treal k -> k | _ -> Ast.K8 in
        let send = gen_real env 2 (if flip st 0.7 then k else pick st [ Ast.K4; Ast.K8 ]) in
        [
          mk
            (Ast.Call
               ("mpi_allreduce", [ send; Ast.Var recv.vn; Ast.Str_lit (pick st [ "sum"; "max"; "min" ]) ]));
        ]
  in
  let print_stmt () =
    let key = pick st [ "k0"; "k1"; "k2"; "k3" ] in
    let n = range st 1 2 in
    let exprs =
      List.init n (fun _ ->
          if flip st 0.7 then gen_real env 2 (pick st [ Ast.K4; Ast.K8 ]) else gen_int env 2)
    in
    [ mk (Ast.Print_stmt (Ast.Str_lit key :: exprs)) ]
  in
  let exit_cycle () = [ mk (if flip st 0.5 then Ast.Exit_stmt else Ast.Cycle_stmt) ] in
  let candidates =
    [
      (12, assign_scalar);
      (6, assign_elem);
      (4, print_stmt);
      (2, mpi_stmt);
    ]
    @ (if env.depth > 0 then [ (4, if_stmt); (5, do_stmt); (3, while_stmt); (3, select_stmt) ] else [])
    @ (if env.procs <> [] then [ (5, call_stmt) ] else [])
    @ (if env.in_loop then [ (3, exit_cycle) ] else [])
    @ (if env.in_proc then [ (1, fun () -> [ mk Ast.Return_stmt ]) ] else [])
    @ (if (not env.in_proc) && not env.in_loop then [ (1, fun () -> [ mk (Ast.Stop_stmt (Some "fz")) ]) ] else [])
  in
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 candidates in
  let rec choose r = function
    | [] -> assign_scalar ()
    | (w, f) :: rest -> if r < w then f () else choose (r - w) rest
  in
  choose (rint st total) candidates

and gen_block env sstate : Ast.block =
  let n = range env.st 1 3 in
  List.concat (List.init n (fun _ -> gen_stmt env sstate))

let gen_body env sstate : Ast.block =
  let n = range env.st 2 5 in
  List.concat (List.init n (fun _ -> gen_stmt env sstate))

(* ------------------------------------------------------------------ *)
(* Declarations and program units                                      *)

let mk_decl ?(param = false) ?(intent = None) ?(dims = []) base names =
  { Ast.base; dims; parameter = param; intent; names; decl_loc = Loc.dummy }

(* Module skeleton: both real kinds at both scalar and array shapes are
   always present, so every call-site and expression generator has a
   matching variable available. *)
let gen_module_decls st =
  let maybe_init k p = if flip st p then Some (real_lit st k) else None in
  let scalar_group k names p_init =
    let entities = List.map (fun n -> (n, maybe_init k p_init)) names in
    if flip st 0.6 then [ mk_decl (Ast.Treal k) entities ]
    else List.map (fun e -> mk_decl (Ast.Treal k) [ e ]) entities
  in
  let arr name k d =
    let dim = if d = 3 && flip st 0.3 then Ast.Var "np" else Ast.Int_lit d in
    mk_decl (Ast.Treal k) ~dims:[ dim ] [ (name, None) ]
  in
  let decls =
    [ mk_decl Ast.Tinteger ~param:true [ ("np", Some (Ast.Int_lit 3)) ] ]
    @ (if flip st 0.5 then
         [ mk_decl (Ast.Treal Ast.K8) ~param:true [ ("cf8", Some (real_lit st Ast.K8)) ] ]
       else [])
    @ scalar_group Ast.K4 [ "g41"; "g42" ] 0.4
    @ scalar_group Ast.K8 [ "g81"; "g82" ] 0.4
    @ [
        mk_decl Ast.Tinteger [ ("gi1", if flip st 0.4 then Some (Ast.Int_lit (range st 0 5)) else None) ];
        mk_decl Ast.Tlogical [ ("gl1", if flip st 0.3 then Some (Ast.Logical_lit true) else None) ];
        arr "ga43" Ast.K4 3;
        arr "ga44" Ast.K4 4;
        arr "ga83" Ast.K8 3;
        arr "ga84" Ast.K8 4;
      ]
  in
  let vinfos =
    List.concat_map
      (fun (d : Ast.decl) ->
        List.map
          (fun (n, _) ->
            {
              vn = n;
              base = d.Ast.base;
              dims =
                List.map
                  (function Ast.Int_lit i -> i | _ -> 3 (* dimension(np) with np = 3 *))
                  d.Ast.dims;
              writable = not d.Ast.parameter;
            })
          d.Ast.names)
      decls
  in
  (decls, vinfos)

(* Locals for a procedure or the main body; [prefix] keeps the name pools
   of different scopes disjoint. *)
let gen_locals st ~prefix =
  let n = rint st 4 in
  let entities =
    List.init n (fun i ->
        let name = Printf.sprintf "%s%d" prefix (i + 1) in
        let base =
          pick st [ Ast.Treal Ast.K4; Ast.Treal Ast.K8; Ast.Treal Ast.K8; Ast.Tinteger; Ast.Tlogical ]
        in
        (name, base))
  in
  (* group same-base scalars into multi-entity declarations half the time
     (the Fig.-3 split transformation needs them) *)
  let grouped =
    if flip st 0.5 then begin
      let bases = List.sort_uniq compare (List.map snd entities) in
      List.map
        (fun b ->
          mk_decl b (List.filter_map (fun (n, b') -> if b' = b then Some (n, None) else None) entities))
        bases
    end
    else List.map (fun (n, b) -> mk_decl b [ (n, None) ]) entities
  in
  let arr_local =
    if flip st 0.3 then
      let k = pick st [ Ast.K4; Ast.K8 ] in
      [ (Printf.sprintf "%sa1" prefix, k) ]
    else []
  in
  let decls =
    grouped
    @ List.map (fun (n, k) -> mk_decl (Ast.Treal k) ~dims:[ Ast.Int_lit 3 ] [ (n, None) ]) arr_local
    @ [ mk_decl Ast.Tinteger [ ("i1", None); ("i2", None) ] ]
  in
  let vinfos =
    List.map (fun (n, b) -> { vn = n; base = b; dims = []; writable = true }) entities
    @ List.map (fun (n, k) -> { vn = n; base = Ast.Treal k; dims = [ 3 ]; writable = true }) arr_local
    @ List.map (fun n -> { vn = n; base = Ast.Tinteger; dims = []; writable = false }) [ "i1"; "i2" ]
  in
  (decls, vinfos)

let counter_decl (sstate : scope_state) =
  if sstate.counters = [] then []
  else [ mk_decl Ast.Tinteger (List.map (fun w -> (w, None)) sstate.counters) ]

(* Rename one dummy to an identically-shaped writable module variable, so
   slot resolution has shadowing to get right. *)
let maybe_shadow st module_vars dummies =
  if dummies = [] || not (flip st 0.15) then dummies
  else begin
    let i = rint st (List.length dummies) in
    List.mapi
      (fun j ((_, base, dims, intent) as d) ->
        if j <> i then d
        else
          match
            List.find_opt (fun mv -> mv.base = base && mv.dims = dims && mv.writable) module_vars
          with
          | Some mv -> (mv.vn, base, dims, intent)
          | None -> d)
      dummies
  end

let gen_proc st ~module_vars ~sigs idx : Ast.proc * proc_sig =
  let pname = Printf.sprintf "p%d" (idx + 1) in
  let is_fun = flip st 0.4 in
  let ndum = rint st 4 in
  let dummies =
    List.init ndum (fun j ->
        let dn = Printf.sprintf "a%d" (j + 1) in
        match rint st 5 with
        | 0 ->
          (dn, Ast.Treal (pick st [ Ast.K4; Ast.K8 ]), [],
           pick st [ Some Ast.In; Some Ast.Out; Some Ast.Inout; None ])
        | 1 -> (dn, Ast.Tinteger, [], pick st [ Some Ast.In; None ])
        | 2 ->
          (dn, Ast.Treal (pick st [ Ast.K4; Ast.K8 ]), [ pick st [ 3; 4 ] ],
           pick st [ Some Ast.In; Some Ast.Inout; None ])
        | 3 -> (dn, Ast.Treal (pick st [ Ast.K4; Ast.K8 ]), [], Some Ast.In)
        | _ -> (dn, Ast.Tlogical, [], None))
  in
  let dummies = maybe_shadow st module_vars dummies in
  let result = if is_fun then Some (pick st [ Ast.Treal Ast.K4; Ast.Treal Ast.K8; Ast.Tinteger ]) else None in
  let dummy_decls =
    List.map
      (fun (dn, base, dims, intent) ->
        mk_decl base ~intent ~dims:(List.map (fun d -> Ast.Int_lit d) dims) [ (dn, None) ])
      dummies
  in
  let dummy_vinfos =
    List.map
      (fun (dn, base, dims, intent) ->
        { vn = dn; base; dims; writable = intent <> Some Ast.In })
      dummies
  in
  let local_decls, local_vinfos = gen_locals st ~prefix:"v" in
  let res_decl, res_vinfo =
    match result with
    | Some base -> ([ mk_decl base [ ("res_", None) ] ], [ { vn = "res_"; base; dims = []; writable = true } ])
    | None -> ([], [])
  in
  let sstate = { counters = [] } in
  let env =
    {
      st;
      vars = dedupe (dummy_vinfos @ local_vinfos @ res_vinfo @ module_vars);
      procs = sigs;
      loops = [];
      free = [ "i1"; "i2" ];
      in_proc = true;
      in_loop = false;
      depth = 3;
    }
  in
  let body = gen_body env sstate in
  let body =
    match result with
    | Some (Ast.Treal k) -> body @ [ mk (Ast.Assign (Ast.Lvar "res_", gen_real env 3 k)) ]
    | Some Ast.Tinteger -> body @ [ mk (Ast.Assign (Ast.Lvar "res_", gen_int env 3)) ]
    | Some Ast.Tlogical -> body @ [ mk (Ast.Assign (Ast.Lvar "res_", gen_logical env 3)) ]
    | None -> body
  in
  let proc =
    {
      Ast.proc_id = 0;
      proc_kind =
        (match result with Some _ -> Ast.Function { result = "res_" } | None -> Ast.Subroutine);
      proc_name = pname;
      params = List.map (fun (dn, _, _, _) -> dn) dummies;
      proc_decls = dummy_decls @ local_decls @ counter_decl sstate @ res_decl;
      proc_body = body;
      proc_loc = Loc.dummy;
    }
  in
  (proc, { ps_name = pname; ps_dummies = dummies; ps_result = result })

let gen_main st ~module_vars ~sigs : Ast.main_unit =
  let local_decls, local_vinfos = gen_locals st ~prefix:"m" in
  let sstate = { counters = [] } in
  let env =
    {
      st;
      vars = dedupe (local_vinfos @ module_vars);
      procs = sigs;
      loops = [];
      free = [ "i1"; "i2" ];
      in_proc = false;
      in_loop = false;
      depth = 3;
    }
  in
  let body = gen_body env sstate in
  let tail_call =
    match List.filter (fun p -> p.ps_result = None) sigs with
    | [] -> []
    | subs when flip st 0.7 ->
      let p = pick st subs in
      [ mk (Ast.Call (p.ps_name, List.map (gen_actual env) p.ps_dummies)) ]
    | _ -> []
  in
  let chk =
    mk (Ast.Print_stmt [ Ast.Str_lit "chk"; gen_real env 3 Ast.K8; Ast.Var "g41" ])
  in
  {
    Ast.main_name = "fzmain";
    main_uses = [ module_name ];
    main_decls = local_decls @ counter_decl sstate;
    main_body = body @ tail_call @ [ chk ];
    main_procs = [];
  }

let gen_program st : Ast.program =
  let mod_decls, module_vars = gen_module_decls st in
  let nproc = rint st 4 in
  let procs, sigs =
    List.fold_left
      (fun (procs, sigs) idx ->
        let p, s = gen_proc st ~module_vars ~sigs idx in
        (procs @ [ p ], sigs @ [ s ]))
      ([], [])
      (List.init nproc Fun.id)
  in
  let main = gen_main st ~module_vars ~sigs in
  [
    Ast.Module { mod_name = module_name; mod_uses = []; mod_decls; mod_procs = procs };
    Ast.Main main;
  ]

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)

let program = gen_program

let case st : case =
  let ast = gen_program st in
  let text0 = Unparse.program ast in
  (* canonicalize: the parser assigns dense ids and real locations *)
  let prog = Parser.parse ~file:"fuzz.f90" text0 in
  let source = Unparse.program prog in
  let symtab = Symtab.build prog in
  let atoms = Transform.Assignment.atoms_of_module symtab module_name in
  let lowered =
    List.filter_map
      (fun (a : Transform.Assignment.atom) ->
        let p = if a.Transform.Assignment.a_declared = Ast.K8 then 0.45 else 0.1 in
        if flip st p then Some (Transform.Assignment.atom_id a) else None)
      atoms
  in
  { source; lowered }

let case_at ~seed ~index = case (Random.State.make [| 0x5eed; seed; index |])

let assignment_of symtab lowered =
  let atoms = Transform.Assignment.atoms_of_module symtab module_name in
  let low =
    List.filter (fun a -> List.mem (Transform.Assignment.atom_id a) lowered) atoms
  in
  Transform.Assignment.of_lowered atoms ~lowered:low
