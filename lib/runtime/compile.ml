(* The evaluator: closure compilation of the slot-resolved IR ([Ir]).

   Each lowered procedure is translated ONCE into a tree of OCaml
   closures: expressions become [ctx -> float/int/bool/value] functions
   with storage offsets, cost sub-tables and static typing decisions
   pre-bound, statements become [ctx -> unit]. The per-evaluation inner
   loop then runs no opcode dispatch at all.

   Frames. A compiled procedure owns its frame layout, fixed at compile
   time from its declarations (which the cache key signs):
   - real scalars live unboxed in a per-run float stack [fs];
   - integer and logical scalars (logicals as 0/1) in an int stack [is];
   - arrays are held by reference, as [Value.cell]s, in a cell stack [cs];
   - a scalar dummy is an [is] slot holding the ABSOLUTE address of its
     storage: the caller's slot when bound by reference (so the caller
     and callee share one location, exactly as [Interp] shares a cell),
     or its own "home" slot in the callee frame when bound by value.
   Module variables sit at the bottom of the three stacks at addresses
   fixed per program; a frame is three base offsets into the stacks.
   No scalar store, argument binding, copy-out or function result
   allocates.

   Observable behavior is bit-identical to [Interp.run]: every charge in
   the same order, every trap message, every timer bracket. Typed lanes
   are exact because a slot's type never changes: storage is chosen from
   the declaration, by-reference binding traps on any kind mismatch, and
   every store converts to the slot's declared type as [Interp]'s
   [scalar_store] does. Shapes without a typed lane run on the generic
   [Value.v] lane, which applies [Walk]'s value rules (coercions,
   rounding traps, operators, intrinsics) and charges from this module's
   cost tables. In the registered models that lane carries the
   reductions, [mpi_allreduce] stores and by-value parameter actuals;
   elsewhere strings, traps, mixed-lane operators and intrinsics on
   logicals. The typed lanes keep their arithmetic inline and call
   [Walk] only to trap. The control-flow signals and the run status are
   [Walk]'s as well. Nothing falls back to an IR-walking evaluator. The
   one divergence is on programs [Typecheck] rejects: a non-integer [do]
   variable traps on the first iteration instead of taking an integer
   value.

   Compiled procedures are cacheable across variants under the key
   [Lower] gives them ([proc_ir.p_key]): closures never bake procedure
   indices (callees resolve through the frame's link table at runtime)
   and callee frame layouts are read from the callee's own compiled
   form at call time. *)

open Fortran
open Ir

let trap = Walk.trap
let trap_s m = raise (Walk.Trap m)
let sp = Printf.sprintf

let cat_index =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun i c -> Hashtbl.add tbl c i) Machine.categories;
  fun c -> Hashtbl.find tbl c

let ci_flops = cat_index Machine.Cat_flops
let ci_memory = cat_index Machine.Cat_memory
let ci_convert = cat_index Machine.Cat_convert
let ci_call = cat_index Machine.Cat_call
let ci_reduction = cat_index Machine.Cat_reduction
let ci_loop = cat_index Machine.Cat_loop

(* all-float one-field record: stored flat, so updating [fv] allocates
   nothing (a [mutable float] field of a mixed record boxes per store) *)
type fbox = { mutable fv : float }

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)

(* where a scalar lives, relative to the current frame *)
type loc =
  | Own of int  (* frame slot: base + offset *)
  | Ref of int  (* dummy: the [is] frame slot at this offset holds the absolute address *)
  | Abs of int  (* module variable: absolute address *)

(* the static view of a name, from its declaration *)
type var =
  | Vf of loc * Ast.real_kind  (* real scalar, in [fs] *)
  | Vi of loc  (* integer scalar, in [is] *)
  | Vb of loc  (* logical scalar, in [is] as 0/1 *)
  | Va of loc * Ast.base_type  (* array cell, in [cs] (never [Ref]) *)
  | Vparam of int
  | Vunalloc  (* a local not yet allocated where this code runs *)
  | Vtrap of string  (* resolution failed: trap when touched *)

(* a callee's dummy, as its caller binds it *)
type dummy_slot =
  | Dreal of { dn : string; dk : Ast.real_kind; addr : int; home : int; wr : bool }
  | Dint of { dn : string; logical : bool; addr : int; home : int; wr : bool }
  | Darr of { dn : string; db : Ast.base_type; slot : int }
  | Dnone of string  (* undeclared: binding traps *)

type result_slot = Rsub | Rmissing | Rarray | Rscalar of var

(* ------------------------------------------------------------------ *)
(* Compiled forms and the run context                                  *)

type ctx = {
  cprocs : cproc array;
  links : int array array;
  aux_links : int array;
  machine : Machine.t;
  timers : Timers.t;
  accs : Timers.acc option array;  (* by proc index, resolved on first entry *)
  cost : Timers.clock;
  budget : float;  (* infinity when unbudgeted *)
  params : Value.v option array;
  pdefs : cparam array;
  conv : float array;
  memtab : float array;
  breakdown : float array;
  scratch : fbox;
  mutable fs : float array;
  mutable is : int array;
  mutable cs : Value.cell array;
  mutable fb : int;  (* frame bases *)
  mutable ib : int;
  mutable cb : int;
  mutable fsp : int;  (* stack tops *)
  mutable isp : int;
  mutable csp : int;
  mutable flinks : int array;  (* this body's callee index -> proc index *)
  mutable vec : int;  (* mode_idx of the active vectorization mode *)
  mutable i0 : int;  (* evaluated subscripts of the access in progress *)
  mutable i1 : int;
  mutable ix : int array;
  mutable records : (string * float) list;  (* reversed *)
  mutable printed : string list;  (* reversed *)
  mutable depth : int;
  mutable charging : bool;
  mutable in_wrapper : bool;
}

and cproc = {
  ir : proc_ir;
  nf : int;  (* frame sizes *)
  ni : int;
  nc : int;
  dummies : dummy_slot array;
  result : result_slot;
  clocals : clocal array;  (* array locals, in allocation order *)
  cinits : (ctx -> unit) array;
  cbody : (ctx -> unit) array;
}

and clocal = { cl_slot : int; cl_base : Ast.base_type; cl_dims : (ctx -> int) array }
and cparam = { cp_name : string; cp_base : Ast.base_type; cp_init : (ctx -> Value.v) option }

(* an expression compiles into one of four lanes; the typed lanes carry
   unboxed results. The float lane does NOT return its result: an
   indirect OCaml call returning [float] boxes on every return, so a
   float closure instead writes [ct.scratch.fv] as its final action and
   the consumer reads it back immediately. Reads must happen before any
   further evaluation, since nested code reuses the same scratch cell. *)
type cexpr =
  | Kf of (ctx -> unit) * Ast.real_kind
  | Ki of (ctx -> int)
  | Kb of (ctx -> bool)
  | Kv of (ctx -> Value.v)

(* ------------------------------------------------------------------ *)
(* Charging and value helpers                                          *)

let[@inline] charge ct i c =
  if ct.charging then begin
    ct.cost.Timers.now <- ct.cost.Timers.now +. c;
    (* [i] is always one of the [ci_*] constants, all below the
       breakdown array's fixed length *)
    Array.unsafe_set ct.breakdown i (Array.unsafe_get ct.breakdown i +. c);
    let tm = ct.timers in
    tm.Timers.top.Timers.exclusive <- tm.Timers.top.Timers.exclusive +. c
  end

let[@inline] check_budget ct = if ct.cost.Timers.now > ct.budget then raise Walk.Timeout_signal

(* timer accumulator of proc [pidx], cached per run. Lazy on purpose:
   resolving every proc up front would add never-entered procedures to
   the snapshot. *)
let proc_acc ct pidx name =
  match ct.accs.(pidx) with
  | Some a -> a
  | None ->
    let a = Timers.acc_of ct.timers name in
    ct.accs.(pidx) <- Some a;
    a

(* local clones of [Fp32.round]/[Fp32.of_kind] and [Walk.round_real] for
   the typed lanes: a cross-module call is not inlined (dune's dev profile
   passes -opaque, and the compiler has no flambda), so it boxes its float
   argument and result *)
let[@inline] round32 x = Int32.float_of_bits (Int32.bits_of_float x)

let[@inline] cround (k : Ast.real_kind) x =
  match k with
  | Ast.K4 -> round32 x
  | Ast.K8 -> x

let[@inline] cmk_realf k x =
  let y = cround k x in
  if Float.is_finite y then y else Walk.arith_trap k y

let kmax k1 k2 = if k1 = Ast.K8 || k2 = Ast.K8 then Ast.K8 else Ast.K4

(* [Vint] blocks are immutable, so the small values can be shared *)
let vint_cache = Array.init 4097 (fun i -> Value.Vint i)
let[@inline] vint i = if i >= 0 && i <= 4096 then vint_cache.(i) else Value.Vint i

(* cost sub-table for a statically-known kind: indexed by [ct.vec] *)
let sub3 costs k =
  let ki = kind_idx k in
  [| costs.(ki); costs.(2 + ki); costs.(4 + ki) |]

(* ------------------------------------------------------------------ *)
(* Stacks                                                              *)

let no_cell = Value.Int_array { data = [||]; dims = [||] }

let grow_f ct need =
  let a = Array.make (max need (2 * Array.length ct.fs)) 0.0 in
  Array.blit ct.fs 0 a 0 ct.fsp;
  ct.fs <- a

let grow_i ct need =
  let a = Array.make (max need (2 * Array.length ct.is)) 0 in
  Array.blit ct.is 0 a 0 ct.isp;
  ct.is <- a

let grow_c ct need =
  let a = Array.make (max need (2 * Array.length ct.cs)) no_cell in
  Array.blit ct.cs 0 a 0 ct.csp;
  ct.cs <- a

(* push a zeroed frame for [cp] above the stack tops; arguments are
   evaluated (and may call) after this, so their frames land above it.
   A grown stack is a new array, which is why no code holds [ct.fs] /
   [ct.is] / [ct.cs] across an evaluation. *)
let reserve ct (cp : cproc) =
  let f0 = ct.fsp and i0 = ct.isp in
  let f1 = f0 + cp.nf and i1 = i0 + cp.ni and c1 = ct.csp + cp.nc in
  if f1 > Array.length ct.fs then grow_f ct f1;
  if i1 > Array.length ct.is then grow_i ct i1;
  if c1 > Array.length ct.cs then grow_c ct c1;
  let fs = ct.fs in
  for k = f0 to f1 - 1 do
    Array.unsafe_set fs k 0.0
  done;
  let is = ct.is in
  for k = i0 to i1 - 1 do
    Array.unsafe_set is k 0
  done;
  ct.fsp <- f1;
  ct.isp <- i1;
  ct.csp <- c1

let[@inline] faddr ct = function
  | Own o -> ct.fb + o
  | Ref o -> ct.is.(ct.ib + o)
  | Abs a -> a

let[@inline] iaddr ct = function
  | Own o -> ct.ib + o
  | Ref o -> ct.is.(ct.ib + o)
  | Abs a -> a

let[@inline] cell_at ct = function
  | Own o -> ct.cs.(ct.cb + o)
  | Abs a -> ct.cs.(a)
  | Ref _ -> assert false

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)

(* evaluated lazily, uncharged, in an empty frame over the initializer
   link table. As in [Interp], charging is not restored if the
   initializer raises; the caller's frame is. *)
let force_param ct s =
  match ct.params.(s) with
  | Some v -> v
  | None ->
    let pd = ct.pdefs.(s) in
    let init =
      match pd.cp_init with
      | Some f -> f
      | None -> trap "parameter %s has no initializer" pd.cp_name
    in
    let saved = ct.charging in
    ct.charging <- false;
    let links = ct.flinks in
    ct.flinks <- ct.aux_links;
    let v =
      match init ct with
      | v -> v
      | exception e ->
        ct.flinks <- links;
        raise e
    in
    ct.flinks <- links;
    ct.charging <- saved;
    let v =
      match pd.cp_base with
      | Ast.Treal k -> Value.Vreal (Fp32.of_kind k (Walk.as_float v), k)
      | Ast.Tinteger -> Value.Vint (Walk.as_int v)
      | Ast.Tlogical -> Value.Vlog (Walk.as_bool v)
    in
    ct.params.(s) <- Some v;
    v

(* the cell a whole-array reference resolves to; scalars and parameters
   (forced first) resolve to a sentinel scalar, which every caller
   rejects with its own message *)
let sentinel_scalar = Value.Scalar (ref (Value.Vint 0))

let resolve_cell ct = function
  | Vtrap m -> trap_s m
  | Vparam s ->
    ignore (force_param ct s : Value.v);
    sentinel_scalar
  | Vf _ | Vi _ | Vb _ -> sentinel_scalar
  | Va (l, _) -> cell_at ct l
  | Vunalloc -> assert false

(* ------------------------------------------------------------------ *)
(* The generic value lane: [Walk]'s value rules, charged here          *)

(* the binary operators, as [Interp.Concrete.binop] applies them *)
let bin_v ct op ~exempt ~costs ~powmul va vb =
  (match Walk.value_kind va, Walk.value_kind vb with
  | Some k1, Some k2 when k1 <> k2 -> if not exempt then charge ct ci_convert ct.conv.(ct.vec)
  | _ -> ());
  match va, vb, op with
  | Value.Vint x, Value.Vint y, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow) ->
    charge ct ci_flops ct.machine.Machine.int_op;
    Value.Vint (Walk.int_arith op x y)
  | _, _, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) ->
    let k = Walk.promoted va vb in
    charge ct ci_flops costs.((ct.vec * 2) + kind_idx k);
    Walk.mk_real k (Walk.real_arith op (Walk.as_float va) (Walk.as_float vb))
  | _, _, Ast.Pow -> (
    let k = Walk.promoted va vb in
    let x = Walk.as_float va in
    match vb with
    | Value.Vint n when abs n <= 4 ->
      charge ct ci_flops (powmul.((ct.vec * 2) + kind_idx k) *. float_of_int (max 1 (abs n - 1)));
      Walk.mk_real k (Walk.small_pow x n)
    | _ ->
      charge ct ci_flops costs.((ct.vec * 2) + kind_idx k);
      Walk.mk_real k (Float.pow x (Walk.as_float vb)))
  | _, _, (Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) ->
    charge ct ci_flops ct.machine.Machine.compare_cost;
    Value.Vlog (Walk.compare op va vb)
  | _, _, (Ast.And | Ast.Or) -> assert false

(* [scalar_store]: convert [v] to the slot's declared type and store *)
let store_v ct var ~lit v =
  match var with
  | Vf (l, k) ->
    (match Walk.value_kind v with
    | Some k2 when k2 <> k -> if not lit then charge ct ci_convert ct.conv.(ct.vec)
    | _ -> ());
    let x = cround k (Walk.as_float v) in
    if not (Float.is_finite x) then Walk.nonfinite_scalar k;
    ct.fs.(faddr ct l) <- x
  | Vi l ->
    let i = Walk.as_int v in
    ct.is.(iaddr ct l) <- i
  | Vb l ->
    let b = Walk.as_bool v in
    ct.is.(iaddr ct l) <- Bool.to_int b
  | Va _ | Vparam _ | Vunalloc | Vtrap _ -> assert false

(* [bind_by_value] into a dummy of the frame based at [fb']/[ib'] *)
let bind_value ct callee ~lit (d : dummy_slot) fb' ib' v =
  match d, v with
  | Dreal { dn; dk; addr; home; _ }, Value.Vreal (x, ak) ->
    if ak <> dk then begin
      if lit then ct.fs.(fb' + home) <- cround dk x
      else
        trap "real(kind=%d) value passed to real(kind=%d) dummy %s of %s — wrapper required"
          (Token.int_of_kind ak) (Token.int_of_kind dk) dn callee
    end
    else ct.fs.(fb' + home) <- x;
    ct.is.(ib' + addr) <- fb' + home
  | Dreal { dk; addr; home; _ }, Value.Vint i ->
    ct.fs.(fb' + home) <- cround dk (float_of_int i);
    ct.is.(ib' + addr) <- fb' + home
  | Dint { logical = false; addr; home; _ }, Value.Vint i ->
    ct.is.(ib' + home) <- i;
    ct.is.(ib' + addr) <- ib' + home
  | Dint { logical = true; addr; home; _ }, Value.Vlog b ->
    ct.is.(ib' + home) <- Bool.to_int b;
    ct.is.(ib' + addr) <- ib' + home
  | (Dreal { dn; _ } | Dint { dn; _ }), _ ->
    trap "type mismatch binding value to dummy %s of %s" dn callee
  | (Darr _ | Dnone _), _ -> assert false

(* ------------------------------------------------------------------ *)
(* Subscripts and element access                                       *)

type sub =
  | S1 of (ctx -> int)
  | S2 of (ctx -> int) * (ctx -> int)
  | Sn of (ctx -> int) array

(* [Value.offset] on an int array: same checks, same messages *)
let offset_arr ~name ~dims (idx : int array) =
  let rank = Array.length dims in
  if Array.length idx <> rank then
    raise
      (Value.Bounds
         (Printf.sprintf "%s: rank %d but %d subscripts" name rank (Array.length idx)));
  let off = ref 0 in
  let stride = ref 1 in
  for d = 0 to rank - 1 do
    let i = idx.(d) in
    if i < 1 || i > dims.(d) then
      raise
        (Value.Bounds
           (Printf.sprintf "%s: subscript %d of dimension %d out of range [1,%d]" name i (d + 1)
              dims.(d)));
    off := !off + ((i - 1) * !stride);
    stride := !stride * dims.(d)
  done;
  !off

(* [offset_arr] specialized to one and two subscripts: no index array *)
let[@inline] offset1 ~name ~(dims : int array) i =
  if Array.length dims <> 1 then
    raise
      (Value.Bounds (Printf.sprintf "%s: rank %d but %d subscripts" name (Array.length dims) 1));
  if i < 1 || i > dims.(0) then
    raise
      (Value.Bounds
         (Printf.sprintf "%s: subscript %d of dimension %d out of range [1,%d]" name i 1 dims.(0)));
  i - 1

let[@inline] offset2 ~name ~(dims : int array) i j =
  if Array.length dims <> 2 then
    raise
      (Value.Bounds (Printf.sprintf "%s: rank %d but %d subscripts" name (Array.length dims) 2));
  if i < 1 || i > dims.(0) then
    raise
      (Value.Bounds
         (Printf.sprintf "%s: subscript %d of dimension %d out of range [1,%d]" name i 1 dims.(0)));
  if j < 1 || j > dims.(1) then
    raise
      (Value.Bounds
         (Printf.sprintf "%s: subscript %d of dimension %d out of range [1,%d]" name j 2 dims.(1)));
  i - 1 + ((j - 1) * dims.(0))

(* [eval_indices]: int_op charged before each subscript evaluates *)
let eval_cidx (cidx : (ctx -> int) array) ct : int array =
  let n = Array.length cidx in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    charge ct ci_flops ct.machine.Machine.int_op;
    out.(i) <- cidx.(i) ct
  done;
  out

(* evaluate the subscripts into [ct.i0]/[ct.i1]/[ct.ix]; nothing runs
   between this and the [sub_off] that reads them *)
let eval_sub ct = function
  | S1 f ->
    charge ct ci_flops ct.machine.Machine.int_op;
    let i = f ct in
    ct.i0 <- i
  | S2 (f, g) ->
    charge ct ci_flops ct.machine.Machine.int_op;
    let i = f ct in
    charge ct ci_flops ct.machine.Machine.int_op;
    let j = g ct in
    ct.i0 <- i;
    ct.i1 <- j
  | Sn fs -> ct.ix <- eval_cidx fs ct

let sub_off ct name dims = function
  | S1 _ -> offset1 ~name ~dims ct.i0
  | S2 _ -> offset2 ~name ~dims ct.i0 ct.i1
  | Sn _ -> offset_arr ~name ~dims ct.ix

(* [store_indexed]'s tail once the subscripts are evaluated, one per
   value lane; the float operand is in [ct.scratch.fv] with kind [vk] *)
let put_f ct name cell sub ~lit vk =
  match cell with
  | Value.Real_array { kind; data; dims } ->
    charge ct ci_memory ct.memtab.((ct.vec * 2) + kind_idx kind);
    if vk <> kind && not lit then charge ct ci_convert ct.conv.(ct.vec);
    let x = cround kind ct.scratch.fv in
    if not (Float.is_finite x) then Walk.nonfinite_element name kind;
    data.(sub_off ct name dims sub) <- x
  | Value.Int_array { data; dims } ->
    charge ct ci_flops ct.machine.Machine.int_op;
    let i = int_of_float ct.scratch.fv in
    data.(sub_off ct name dims sub) <- i
  | Value.Log_array _ -> trap_s "logical value expected"
  | Value.Scalar _ -> trap "scalar %s subscripted" name

let put_i ct name cell sub i =
  match cell with
  | Value.Real_array { kind; data; dims } ->
    charge ct ci_memory ct.memtab.((ct.vec * 2) + kind_idx kind);
    let x = cround kind (float_of_int i) in
    if not (Float.is_finite x) then Walk.nonfinite_element name kind;
    data.(sub_off ct name dims sub) <- x
  | Value.Int_array { data; dims } ->
    charge ct ci_flops ct.machine.Machine.int_op;
    data.(sub_off ct name dims sub) <- i
  | Value.Log_array _ -> trap_s "logical value expected"
  | Value.Scalar _ -> trap "scalar %s subscripted" name

let put_b ct name cell sub b =
  match cell with
  | Value.Real_array { kind; _ } ->
    charge ct ci_memory ct.memtab.((ct.vec * 2) + kind_idx kind);
    trap_s "numeric value expected"
  | Value.Int_array _ ->
    charge ct ci_flops ct.machine.Machine.int_op;
    trap_s "integer value expected"
  | Value.Log_array { data; dims } -> data.(sub_off ct name dims sub) <- b
  | Value.Scalar _ -> trap "scalar %s subscripted" name

let put_v ct name cell sub ~lit v =
  match cell with
  | Value.Real_array { kind; data; dims } ->
    charge ct ci_memory ct.memtab.((ct.vec * 2) + kind_idx kind);
    (match Walk.value_kind v with
    | Some k when k <> kind -> if not lit then charge ct ci_convert ct.conv.(ct.vec)
    | _ -> ());
    let x = cround kind (Walk.as_float v) in
    if not (Float.is_finite x) then Walk.nonfinite_element name kind;
    data.(sub_off ct name dims sub) <- x
  | Value.Int_array { data; dims } ->
    charge ct ci_flops ct.machine.Machine.int_op;
    let i = Walk.as_int v in
    data.(sub_off ct name dims sub) <- i
  | Value.Log_array { data; dims } ->
    let b = Walk.as_bool v in
    data.(sub_off ct name dims sub) <- b
  | Value.Scalar _ -> trap "scalar %s subscripted" name

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)

type ccall = {
  cc : call_site;  (* names, callee index and arity trap *)
  cc_args : carg array;
  cc_copies : bool;  (* some argument may copy out *)
}

and carg =
  | CAref of { a : string; v : var }  (* whole-variable actual *)
  | CAval of { e : cexpr; lit : bool; co : ccopy option }

(* an array-element actual's copy-out destination, resolved in the
   caller *)
and ccopy = { out_name : string; out_var : var; out_sub : sub }

(* a [for] rather than [Array.iter]: the iter closure would capture [ct]
   and allocate on every block execution *)
let exec_cblock ct (blk : (ctx -> unit) array) =
  for i = 0 to Array.length blk - 1 do
    blk.(i) ct
  done

let bind_ref ct callee a v (d : dummy_slot) fb' ib' cb' =
  match d with
  | Darr { dn; db; slot } -> (
    match v with
    | Vtrap m -> trap_s m
    | Vparam s ->
      ignore (force_param ct s : Value.v);
      trap "parameter %s passed to array dummy" a
    | Vf _ | Vi _ | Vb _ -> trap "scalar %s passed to array dummy %s of %s" a dn callee
    | Va (l, _) -> (
      let cell = cell_at ct l in
      match cell with
      | Value.Real_array { kind; _ } -> (
        match db with
        | Ast.Treal dk when dk = kind -> ct.cs.(cb' + slot) <- cell
        | Ast.Treal dk ->
          trap
            "argument %s of %s: real(kind=%d) array passed to real(kind=%d) dummy %s — \
             wrapper required"
            a callee (Token.int_of_kind kind) (Token.int_of_kind dk) dn
        | Ast.Tinteger | Ast.Tlogical -> trap "array type mismatch for %s of %s" dn callee)
      | Value.Int_array _ -> (
        match db with
        | Ast.Tinteger -> ct.cs.(cb' + slot) <- cell
        | Ast.Treal _ | Ast.Tlogical -> trap "array type mismatch for %s of %s" dn callee)
      | Value.Log_array _ -> (
        match db with
        | Ast.Tlogical -> ct.cs.(cb' + slot) <- cell
        | Ast.Treal _ | Ast.Tinteger -> trap "array type mismatch for %s of %s" dn callee)
      | Value.Scalar _ -> trap "scalar %s passed to array dummy %s of %s" a dn callee)
    | Vunalloc -> assert false)
  | Dreal { dn; dk; addr; _ } -> (
    match v with
    | Vtrap m -> trap_s m
    | Vparam s -> bind_value ct callee ~lit:false d fb' ib' (force_param ct s)
    | Va _ -> trap "array %s passed to scalar dummy %s of %s" a dn callee
    | Vf (l, ak) ->
      if ak = dk then ct.is.(ib' + addr) <- faddr ct l
      else
        trap
          "argument %s of %s: real(kind=%d) passed to real(kind=%d) dummy %s — wrapper \
           required"
          a callee (Token.int_of_kind ak) (Token.int_of_kind dk) dn
    | Vi _ | Vb _ -> trap "type mismatch binding %s to dummy %s of %s" a dn callee
    | Vunalloc -> assert false)
  | Dint { dn; logical; addr; _ } -> (
    match v with
    | Vtrap m -> trap_s m
    | Vparam s -> bind_value ct callee ~lit:false d fb' ib' (force_param ct s)
    | Va _ -> trap "array %s passed to scalar dummy %s of %s" a dn callee
    | Vi l when not logical -> ct.is.(ib' + addr) <- iaddr ct l
    | Vb l when logical -> ct.is.(ib' + addr) <- iaddr ct l
    | Vf _ | Vi _ | Vb _ -> trap "type mismatch binding %s to dummy %s of %s" a dn callee
    | Vunalloc -> assert false)
  | Dnone _ -> assert false

let bind_val ct callee (e : cexpr) ~lit (d : dummy_slot) fb' ib' =
  match e with
  | Kf (f, ak) -> (
    f ct;
    match d with
    | Dreal { dn; dk; addr; home; _ } ->
      if ak <> dk then begin
        if lit then ct.fs.(fb' + home) <- cround dk ct.scratch.fv
        else
          trap "real(kind=%d) value passed to real(kind=%d) dummy %s of %s — wrapper required"
            (Token.int_of_kind ak) (Token.int_of_kind dk) dn callee
      end
      else ct.fs.(fb' + home) <- ct.scratch.fv;
      ct.is.(ib' + addr) <- fb' + home
    | Dint { dn; _ } -> trap "type mismatch binding value to dummy %s of %s" dn callee
    | Darr _ | Dnone _ -> assert false)
  | Ki f -> (
    let i = f ct in
    match d with
    | Dreal { dk; addr; home; _ } ->
      ct.fs.(fb' + home) <- cround dk (float_of_int i);
      ct.is.(ib' + addr) <- fb' + home
    | Dint { logical = false; addr; home; _ } ->
      ct.is.(ib' + home) <- i;
      ct.is.(ib' + addr) <- ib' + home
    | Dint { dn; _ } -> trap "type mismatch binding value to dummy %s of %s" dn callee
    | Darr _ | Dnone _ -> assert false)
  | Kb f -> (
    let b = f ct in
    match d with
    | Dint { logical = true; addr; home; _ } ->
      ct.is.(ib' + home) <- Bool.to_int b;
      ct.is.(ib' + addr) <- ib' + home
    | Dreal { dn; _ } | Dint { dn; _ } ->
      trap "type mismatch binding value to dummy %s of %s" dn callee
    | Darr _ | Dnone _ -> assert false)
  | Kv f -> bind_value ct callee ~lit d fb' ib' (f ct)

(* write a by-value dummy's final value back to the array element its
   actual named — in the caller's frame, the callee's still reserved *)
let copy_out ct (co : ccopy) (d : dummy_slot) fb' ib' =
  match co.out_var with
  | Vtrap m -> trap_s m
  | Vparam s -> ignore (force_param ct s : Value.v)
  | Vf _ | Vi _ | Vb _ ->
    eval_sub ct co.out_sub;
    trap "scalar %s subscripted" co.out_name
  | Va (l, _) -> (
    let cell = cell_at ct l in
    eval_sub ct co.out_sub;
    match d with
    | Dreal { dk; home; _ } ->
      ct.scratch.fv <- ct.fs.(fb' + home);
      put_f ct co.out_name cell co.out_sub ~lit:false dk
    | Dint { logical = false; home; _ } -> put_i ct co.out_name cell co.out_sub ct.is.(ib' + home)
    | Dint { logical = true; home; _ } ->
      put_b ct co.out_name cell co.out_sub (ct.is.(ib' + home) <> 0)
    | Darr _ | Dnone _ -> ())
  | Vunalloc -> assert false

let alloc_array (base : Ast.base_type) (dims : int array) : Value.cell =
  let n = Value.elements dims in
  if n < 0 || n > 50_000_000 then trap "array allocation of %d elements refused" n;
  match base with
  | Ast.Treal kind -> Value.Real_array { kind; data = Array.make n 0.0; dims }
  | Ast.Tinteger -> Value.Int_array { data = Array.make n 0; dims }
  | Ast.Tlogical -> Value.Log_array { data = Array.make n false; dims }

(* the function result's storage, encoded [addr lsl 2 lor tag] with tag
   0/1 = real(4)/real(8) in [fs], 2 = integer, 3 = logical in [is];
   -1 for a subroutine *)
let result_code ct name (cp : cproc) fb' ib' =
  match cp.result with
  | Rsub -> -1
  | Rmissing -> trap "function %s has no result cell" name
  | Rarray -> trap "array-valued function %s unsupported" name
  | Rscalar (Vf (Own o, k)) -> ((fb' + o) lsl 2) lor kind_idx k
  | Rscalar (Vi (Own o)) -> ((ib' + o) lsl 2) lor 2
  | Rscalar (Vb (Own o)) -> ((ib' + o) lsl 2) lor 3
  | Rscalar (Vf (Ref o, k)) -> (ct.is.(ib' + o) lsl 2) lor kind_idx k
  | Rscalar (Vi (Ref o)) -> (ct.is.(ib' + o) lsl 2) lor 2
  | Rscalar (Vb (Ref o)) -> (ct.is.(ib' + o) lsl 2) lor 3
  | Rscalar _ -> assert false

(* the call protocol: [Interp.call_user] step for step. Returns
   [result_code]; the popped callee frame stays intact until the next
   push, so the caller reads the result straight after. *)
let exec_ccall ct (ca : ccall) : int =
  let cs = ca.cc in
  if cs.cs_callee = -1 then
    (* unknown procedure: the reference traps before the depth increment *)
    trap_s (match cs.cs_arity_trap with Some m -> m | None -> assert false);
  let name = cs.cs_name in
  ct.depth <- ct.depth + 1;
  if ct.depth > 200 then trap "call depth limit exceeded at %s" name;
  check_budget ct;
  (match cs.cs_arity_trap with Some m -> trap_s m | None -> ());
  let pidx = ct.flinks.(cs.cs_callee) in
  let cp = ct.cprocs.(pidx) in
  let ir = cp.ir in
  let fb = ct.fb and ib = ct.ib and cb = ct.cb and links = ct.flinks in
  let fb' = ct.fsp and ib' = ct.isp and cb' = ct.csp in
  reserve ct cp;
  (try
     let args = ca.cc_args in
     for i = 0 to Array.length args - 1 do
       let d = cp.dummies.(i) in
       match d with
       | Dnone dn -> trap "dummy %s of %s undeclared" dn name
       | _ -> (
         match args.(i) with
         | CAref { a; v } -> bind_ref ct name a v d fb' ib' cb'
         | CAval { e; lit; _ } -> (
           match d with
           | Darr { dn; _ } ->
             trap "array dummy %s of %s requires a whole-array actual argument" dn name
           | _ -> bind_val ct name e ~lit d fb' ib'))
     done;
     ct.fb <- fb';
     ct.ib <- ib';
     ct.cb <- cb';
     ct.flinks <- ct.links.(pidx);
     let ls = cp.clocals in
     for k = 0 to Array.length ls - 1 do
       let l = ls.(k) in
       let nd = Array.length l.cl_dims in
       let dims = Array.make nd 0 in
       for j = 0 to nd - 1 do
         dims.(j) <- l.cl_dims.(j) ct
       done;
       let cell = alloc_array l.cl_base dims in
       ct.cs.(cb' + l.cl_slot) <- cell
     done;
     exec_cblock ct cp.cinits
   with e ->
     ct.fb <- fb;
     ct.ib <- ib;
     ct.cb <- cb;
     ct.flinks <- links;
     ct.fsp <- fb';
     ct.isp <- ib';
     ct.csp <- cb';
     raise e);
  let is_wrapper = ir.p_is_wrapper in
  let inl = (not is_wrapper) && (not ct.in_wrapper) && ir.p_inlinable in
  if not is_wrapper then Timers.enter_clock ct.timers (proc_acc ct pidx ir.p_name) ir.p_name ct.cost;
  if not inl then begin
    charge ct ci_call ct.machine.Machine.call_overhead;
    if is_wrapper then charge ct ci_call ct.machine.Machine.wrapper_overhead
  end;
  let saved_vec = ct.vec in
  let saved_in_wrapper = ct.in_wrapper in
  if not inl then ct.vec <- 0;
  ct.in_wrapper <- is_wrapper;
  (match exec_cblock ct cp.cbody with
  | () -> ()
  | exception Walk.Return_signal -> ()
  | exception e ->
    if not is_wrapper then Timers.exit_clock ct.timers ct.cost;
    ct.vec <- saved_vec;
    ct.in_wrapper <- saved_in_wrapper;
    ct.depth <- ct.depth - 1;
    ct.fb <- fb;
    ct.ib <- ib;
    ct.cb <- cb;
    ct.flinks <- links;
    ct.fsp <- fb';
    ct.isp <- ib';
    ct.csp <- cb';
    raise e);
  if not is_wrapper then Timers.exit_clock ct.timers ct.cost;
  ct.vec <- saved_vec;
  ct.in_wrapper <- saved_in_wrapper;
  ct.depth <- ct.depth - 1;
  ct.fb <- fb;
  ct.ib <- ib;
  ct.cb <- cb;
  ct.flinks <- links;
  if ca.cc_copies then begin
    (* [Interp] copies out in reverse binding order *)
    let args = ca.cc_args in
    try
      for i = Array.length args - 1 downto 0 do
        match args.(i), cp.dummies.(i) with
        | CAval { co = Some co; _ }, ((Dreal { wr = true; _ } | Dint { wr = true; _ }) as d) ->
          copy_out ct co d fb' ib'
        | _ -> ()
      done
    with e ->
      ct.fsp <- fb';
      ct.isp <- ib';
      ct.csp <- cb';
      raise e
  end;
  ct.fsp <- fb';
  ct.isp <- ib';
  ct.csp <- cb';
  result_code ct name cp fb' ib'

(* a function result as a value, from its [result_code] *)
let result_value ct name r =
  if r < 0 then trap "subroutine %s called as a function" name
  else
    let a = r lsr 2 in
    match r land 3 with
    | 0 -> Value.Vreal (ct.fs.(a), Ast.K4)
    | 1 -> Value.Vreal (ct.fs.(a), Ast.K8)
    | 2 -> Value.Vint ct.is.(a)
    | _ -> Value.Vlog (ct.is.(a) <> 0)

(* ------------------------------------------------------------------ *)
(* Lane views. A typed lane is read directly; any other view is [Walk]'s
   coercion of the forced value, so the operand is always evaluated (with
   its charges) before any trap. *)

let force = function
  | Kf (f, k) ->
    fun ct ->
      f ct;
      Value.Vreal (ct.scratch.fv, k)
  | Ki f -> fun ct -> vint (f ct)
  | Kb f -> fun ct -> Value.Vlog (f ct)
  | Kv f -> f

(* float view: evaluate and leave the float in [ct.scratch.fv] *)
let fput = function
  | Kf (f, _) -> f
  | Ki f -> fun ct -> ct.scratch.fv <- float_of_int (f ct)
  | (Kb _ | Kv _) as c ->
    let f = force c in
    fun ct -> ct.scratch.fv <- Walk.as_float (f ct)

let iview = function
  | Ki f -> f
  | Kf (f, _) ->
    fun ct ->
      f ct;
      int_of_float ct.scratch.fv
  | (Kb _ | Kv _) as c ->
    let f = force c in
    fun ct -> Walk.as_int (f ct)

let bview = function
  | Kb f -> f
  | c ->
    let f = force c in
    fun ct -> Walk.as_bool (f ct)

(* evaluate for effect only *)
let effect = function
  | Kf (f, _) -> f
  | Ki f -> fun ct -> ignore (f ct : int)
  | Kb f -> fun ct -> ignore (f ct : bool)
  | Kv f -> fun ct -> ignore (f ct : Value.v)

(* ------------------------------------------------------------------ *)
(* Compile-time environment                                            *)

type cenv = {
  prog : program;
  gvars : var array;  (* by global slot *)
  pbase : Ast.base_type array;  (* by parameter slot *)
  fvars : var array;  (* by frame slot of the body being compiled *)
  pname : string;  (* for the out-of-scope trap *)
  clinks : int array;  (* this body's callee index -> proc index *)
}

let var_of env name = function
  | Rerr m -> Vtrap m
  | Rparam s -> Vparam s
  | Rlocal i -> (
    match env.fvars.(i) with
    | Vunalloc -> Vtrap (sp "variable %s local to %s referenced out of scope" name env.pname)
    | v -> v)
  | Rglobal i -> env.gvars.(i)

let var_of_base (b : Ast.base_type) l =
  match b with
  | Ast.Treal k -> Vf (l, k)
  | Ast.Tinteger -> Vi l
  | Ast.Tlogical -> Vb l

(* result lane of the function behind a call site, pinned by the cache
   key: the callee is reachable, so its scope signature signs every
   real kind this decision depends on *)
let callee_result env (cs : call_site) =
  if cs.cs_callee < 0 || cs.cs_callee >= Array.length env.clinks then None
  else
    match env.clinks.(cs.cs_callee) with
    | -1 -> None
    | pidx ->
      let ir = env.prog.procs.(pidx) in
      if (not ir.p_is_function) || ir.p_result < 0 then None
      else begin
        let found = ref None in
        Array.iter
          (fun (l : local) ->
            if l.l_slot = ir.p_result && l.l_dims = [||] then found := Some l.l_base)
          ir.p_locals;
        Array.iter
          (fun (d : dummy) ->
            if (not d.d_undeclared) && d.d_slot = ir.p_result && not d.d_is_array then
              found := Some d.d_base)
          ir.p_dummies;
        !found
      end

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let read_var env name r : cexpr =
  match var_of env name r with
  | Vf (Own o, k) -> Kf ((fun ct -> ct.scratch.fv <- ct.fs.(ct.fb + o)), k)
  | Vf (Ref o, k) -> Kf ((fun ct -> ct.scratch.fv <- ct.fs.(ct.is.(ct.ib + o))), k)
  | Vf (Abs a, k) -> Kf ((fun ct -> ct.scratch.fv <- ct.fs.(a)), k)
  | Vi (Own o) -> Ki (fun ct -> ct.is.(ct.ib + o))
  | Vi (Ref o) -> Ki (fun ct -> ct.is.(ct.is.(ct.ib + o)))
  | Vi (Abs a) -> Ki (fun ct -> ct.is.(a))
  | Vb l -> Kb (fun ct -> ct.is.(iaddr ct l) <> 0)
  | Va _ -> Kv (fun _ -> trap "whole array %s used as a value" name)
  | Vparam s -> (
    match env.pbase.(s) with
    | Ast.Treal k -> Kf ((fun ct -> ct.scratch.fv <- Walk.as_float (force_param ct s)), k)
    | Ast.Tinteger -> Ki (fun ct -> Walk.as_int (force_param ct s))
    | Ast.Tlogical -> Kb (fun ct -> Walk.as_bool (force_param ct s)))
  | Vtrap m -> Kv (fun _ -> trap_s m)
  | Vunalloc -> assert false

let rec compile_expr env (e : expr) : cexpr =
  match e with
  | Elit (Value.Vreal (x, k)) -> Kf ((fun ct -> ct.scratch.fv <- x), k)
  | Elit (Value.Vint i) -> Ki (fun _ -> i)
  | Elit (Value.Vlog b) -> Kb (fun _ -> b)
  | Elit (Value.Vstr _ as v) -> Kv (fun _ -> v)
  | Evar { name; r } -> read_var env name r
  | Eneg { e = e1; costs } -> (
    match compile_expr env e1 with
    | Kf (f, k) ->
      let sub = sub3 costs k in
      Kf
        ( (fun ct ->
            f ct;
            let x = ct.scratch.fv in
            charge ct ci_flops sub.(ct.vec);
            ct.scratch.fv <- cmk_realf k (-.x)),
          k )
    | Ki f ->
      Ki
        (fun ct ->
          let i = f ct in
          charge ct ci_flops ct.machine.Machine.int_op;
          -i)
    | (Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct ->
          match f ct with
          | Value.Vint i ->
            charge ct ci_flops ct.machine.Machine.int_op;
            Value.Vint (-i)
          | Value.Vreal (x, k) ->
            charge ct ci_flops costs.((ct.vec * 2) + kind_idx k);
            Walk.mk_real k (-.x)
          | Value.Vlog _ | Value.Vstr _ -> trap_s "negation of non-numeric value"))
  | Enot e1 ->
    let f = bview (compile_expr env e1) in
    Kb (fun ct -> not (f ct))
  | Ebin { op; a; b; exempt; costs; powmul } -> compile_bin env op a b exempt costs powmul
  | Earr { name; r; idx; mem } -> compile_load env name r idx mem
  | Ecall cs -> (
    let ca = compile_call env cs in
    let name = cs.cs_name in
    match callee_result env cs with
    | Some (Ast.Treal k) ->
      Kf
        ( (fun ct ->
            let r = exec_ccall ct ca in
            if r < 0 then trap "subroutine %s called as a function" name;
            ct.scratch.fv <- ct.fs.(r lsr 2)),
          k )
    | Some Ast.Tinteger ->
      Ki
        (fun ct ->
          let r = exec_ccall ct ca in
          if r < 0 then trap "subroutine %s called as a function" name;
          ct.is.(r lsr 2))
    | Some Ast.Tlogical ->
      Kb
        (fun ct ->
          let r = exec_ccall ct ca in
          if r < 0 then trap "subroutine %s called as a function" name;
          ct.is.(r lsr 2) <> 0)
    | None -> Kv (fun ct -> result_value ct name (exec_ccall ct ca)))
  | Eintr it -> compile_intr env it
  | Etrap m -> Kv (fun _ -> trap_s m)

and compile_bin env op a b exempt costs powmul : cexpr =
  let ca = compile_expr env a in
  let cb = compile_expr env b in
  (* the generic lane: both operands as values, then [bin_v] *)
  let gen_bin () =
    let fa = force ca and fb = force cb in
    Kv
      (fun ct ->
        let va = fa ct in
        let vb = fb ct in
        bin_v ct op ~exempt ~costs ~powmul va vb)
  in
  match op with
  | Ast.And ->
    let fa = bview ca and fb = bview cb in
    Kb (fun ct -> if fa ct then fb ct else false)
  | Ast.Or ->
    let fa = bview ca and fb = bview cb in
    Kb (fun ct -> if fa ct then true else fb ct)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> (
    match ca, cb with
    | Ki fa, Ki fb -> (
      match op with
      | Ast.Add ->
        Ki
          (fun ct ->
            let x = fa ct in
            let y = fb ct in
            charge ct ci_flops ct.machine.Machine.int_op;
            x + y)
      | Ast.Sub ->
        Ki
          (fun ct ->
            let x = fa ct in
            let y = fb ct in
            charge ct ci_flops ct.machine.Machine.int_op;
            x - y)
      | Ast.Mul ->
        Ki
          (fun ct ->
            let x = fa ct in
            let y = fb ct in
            charge ct ci_flops ct.machine.Machine.int_op;
            x * y)
      | _ ->
        Ki
          (fun ct ->
            let x = fa ct in
            let y = fb ct in
            charge ct ci_flops ct.machine.Machine.int_op;
            if y = 0 then trap_s "integer division by zero" else x / y))
    | (Kf _ | Ki _), (Kf _ | Ki _) ->
      let k, conv =
        match ca, cb with
        | Kf (_, k1), Kf (_, k2) -> (kmax k1 k2, k1 <> k2 && not exempt)
        | Kf (_, k), _ | _, Kf (_, k) -> (k, false)
        | _ -> assert false
      in
      let sub = sub3 costs k in
      let fa = fput ca and fb = fput cb in
      let arith =
        (* one closure per operator: the float never leaves registers *)
        match op with
        | Ast.Add ->
          fun ct ->
            fa ct;
            let x = ct.scratch.fv in
            fb ct;
            let y = ct.scratch.fv in
            if conv then charge ct ci_convert ct.conv.(ct.vec);
            charge ct ci_flops sub.(ct.vec);
            ct.scratch.fv <- cmk_realf k (x +. y)
        | Ast.Sub ->
          fun ct ->
            fa ct;
            let x = ct.scratch.fv in
            fb ct;
            let y = ct.scratch.fv in
            if conv then charge ct ci_convert ct.conv.(ct.vec);
            charge ct ci_flops sub.(ct.vec);
            ct.scratch.fv <- cmk_realf k (x -. y)
        | Ast.Mul ->
          fun ct ->
            fa ct;
            let x = ct.scratch.fv in
            fb ct;
            let y = ct.scratch.fv in
            if conv then charge ct ci_convert ct.conv.(ct.vec);
            charge ct ci_flops sub.(ct.vec);
            ct.scratch.fv <- cmk_realf k (x *. y)
        | _ ->
          fun ct ->
            fa ct;
            let x = ct.scratch.fv in
            fb ct;
            let y = ct.scratch.fv in
            if conv then charge ct ci_convert ct.conv.(ct.vec);
            charge ct ci_flops sub.(ct.vec);
            ct.scratch.fv <- cmk_realf k (x /. y)
      in
      Kf (arith, k)
    | _ -> gen_bin ())
  | Ast.Pow -> (
    match ca, cb with
    | Ki fa, Ki fb ->
      Ki
        (fun ct ->
          let x = fa ct in
          let y = fb ct in
          charge ct ci_flops ct.machine.Machine.int_op;
          if y < 0 then trap_s "negative integer exponent"
          else begin
            let r = ref 1 in
            for _ = 1 to y do
              r := !r * x
            done;
            !r
          end)
    | Kf (fa, k), Ki fb ->
      (* runtime integer exponent: strength-reduced when |n| <= 4, as the
         same left-associated product the generic loop forms *)
      let psub = sub3 powmul k and csub = sub3 costs k in
      Kf
        ( (fun ct ->
            fa ct;
            let x = ct.scratch.fv in
            let n = fb ct in
            if abs n <= 4 then begin
              charge ct ci_flops (psub.(ct.vec) *. float_of_int (max 1 (abs n - 1)));
              let v =
                match abs n with
                | 0 -> 1.0
                | 1 -> 1.0 *. x
                | 2 -> 1.0 *. x *. x
                | 3 -> 1.0 *. x *. x *. x
                | _ -> 1.0 *. x *. x *. x *. x
              in
              ct.scratch.fv <- cmk_realf k (if n < 0 then 1.0 /. v else v)
            end
            else begin
              charge ct ci_flops csub.(ct.vec);
              ct.scratch.fv <- cmk_realf k (Float.pow x (float_of_int n))
            end),
          k )
    | Kf (fa, k1), Kf (fb, k2) ->
      let k = kmax k1 k2 in
      let conv = k1 <> k2 && not exempt in
      let csub = sub3 costs k in
      Kf
        ( (fun ct ->
            fa ct;
            let x = ct.scratch.fv in
            fb ct;
            let y = ct.scratch.fv in
            if conv then charge ct ci_convert ct.conv.(ct.vec);
            charge ct ci_flops csub.(ct.vec);
            ct.scratch.fv <- cmk_realf k (Float.pow x y)),
          k )
    | Ki fa, Kf (fb, k) ->
      let csub = sub3 costs k in
      Kf
        ( (fun ct ->
            let x = float_of_int (fa ct) in
            fb ct;
            let y = ct.scratch.fv in
            charge ct ci_flops csub.(ct.vec);
            ct.scratch.fv <- cmk_realf k (Float.pow x y)),
          k )
    | _ -> gen_bin ())
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
    match ca, cb with
    | Ki fa, Ki fb ->
      Kb
        (fun ct ->
          let x = fa ct in
          let y = fb ct in
          charge ct ci_flops ct.machine.Machine.compare_cost;
          let x = float_of_int x and y = float_of_int y in
          match op with
          | Ast.Eq -> x = y
          | Ast.Ne -> x <> y
          | Ast.Lt -> x < y
          | Ast.Le -> x <= y
          | Ast.Gt -> x > y
          | _ -> x >= y)
    | (Kf _ | Ki _), (Kf _ | Ki _) ->
      let conv =
        match ca, cb with
        | Kf (_, k1), Kf (_, k2) -> k1 <> k2 && not exempt
        | _ -> false
      in
      let fa = fput ca and fb = fput cb in
      Kb
        (fun ct ->
          fa ct;
          let x = ct.scratch.fv in
          fb ct;
          let y = ct.scratch.fv in
          if conv then charge ct ci_convert ct.conv.(ct.vec);
          charge ct ci_flops ct.machine.Machine.compare_cost;
          match op with
          | Ast.Eq -> x = y
          | Ast.Ne -> x <> y
          | Ast.Lt -> x < y
          | Ast.Le -> x <= y
          | Ast.Gt -> x > y
          | _ -> x >= y)
    | Kb fa, Kb fb when op = Ast.Eq || op = Ast.Ne ->
      Kb
        (fun ct ->
          let x = fa ct in
          let y = fb ct in
          charge ct ci_flops ct.machine.Machine.compare_cost;
          if op = Ast.Eq then x = y else x <> y)
    | _ -> gen_bin ())

(* [Earr]: resolve the cell, evaluate subscripts (charging), then
   dispatch on the tag. The tag always matches the declaration; the
   other arms replicate load-then-coerce for completeness. *)
and compile_load env name r idx mem : cexpr =
  let cidx = Array.map (fun e -> iview (compile_expr env e)) idx in
  match var_of env name r with
  | Vtrap m -> Kv (fun _ -> trap_s m)
  | Vparam s ->
    Kv
      (fun ct ->
        ignore (force_param ct s : Value.v);
        trap "array parameter %s unsupported" name)
  | Vf _ | Vi _ | Vb _ ->
    Kv
      (fun ct ->
        ignore (eval_cidx cidx ct : int array);
        trap "scalar %s subscripted" name)
  | Vunalloc -> assert false
  | Va (l, base) -> (
    let get = match l with Own o -> fun ct -> ct.cs.(ct.cb + o) | _ -> fun ct -> cell_at ct l in
    let sub = match cidx with [| a |] -> S1 a | [| a; b |] -> S2 (a, b) | _ -> Sn cidx in
    let load_v ct cell =
      (* the tail of [load_indexed], on any tag *)
      match cell with
      | Value.Real_array { kind; data; dims } ->
        charge ct ci_memory mem.((ct.vec * 2) + kind_idx kind);
        Value.Vreal (data.(sub_off ct name dims sub), kind)
      | Value.Int_array { data; dims } ->
        charge ct ci_flops ct.machine.Machine.int_op;
        Value.Vint data.(sub_off ct name dims sub)
      | Value.Log_array { data; dims } -> Value.Vlog data.(sub_off ct name dims sub)
      | Value.Scalar _ -> trap "scalar %s subscripted" name
    in
    match base, cidx with
    | Ast.Treal k, [| c0 |] ->
      Kf
        ( (fun ct ->
            let cell = get ct in
            charge ct ci_flops ct.machine.Machine.int_op;
            let i = c0 ct in
            match cell with
            | Value.Real_array { kind; data; dims } ->
              charge ct ci_memory mem.((ct.vec * 2) + kind_idx kind);
              ct.scratch.fv <- data.(offset1 ~name ~dims i)
            | _ ->
              ct.i0 <- i;
              ct.scratch.fv <- Walk.as_float (load_v ct cell)),
          k )
    | Ast.Treal k, [| c0; c1 |] ->
      Kf
        ( (fun ct ->
            let cell = get ct in
            charge ct ci_flops ct.machine.Machine.int_op;
            let i = c0 ct in
            charge ct ci_flops ct.machine.Machine.int_op;
            let j = c1 ct in
            match cell with
            | Value.Real_array { kind; data; dims } ->
              charge ct ci_memory mem.((ct.vec * 2) + kind_idx kind);
              ct.scratch.fv <- data.(offset2 ~name ~dims i j)
            | _ ->
              ct.i0 <- i;
              ct.i1 <- j;
              ct.scratch.fv <- Walk.as_float (load_v ct cell)),
          k )
    | Ast.Treal k, _ ->
      Kf
        ( (fun ct ->
            let cell = get ct in
            eval_sub ct sub;
            match cell with
            | Value.Real_array { kind; data; dims } ->
              charge ct ci_memory mem.((ct.vec * 2) + kind_idx kind);
              ct.scratch.fv <- data.(offset_arr ~name ~dims ct.ix)
            | _ -> ct.scratch.fv <- Walk.as_float (load_v ct cell)),
          k )
    | Ast.Tinteger, [| c0 |] ->
      Ki
        (fun ct ->
          let cell = get ct in
          charge ct ci_flops ct.machine.Machine.int_op;
          let i = c0 ct in
          match cell with
          | Value.Int_array { data; dims } ->
            charge ct ci_flops ct.machine.Machine.int_op;
            data.(offset1 ~name ~dims i)
          | _ ->
            ct.i0 <- i;
            Walk.as_int (load_v ct cell))
    | Ast.Tinteger, _ ->
      Ki
        (fun ct ->
          let cell = get ct in
          eval_sub ct sub;
          match cell with
          | Value.Int_array { data; dims } ->
            charge ct ci_flops ct.machine.Machine.int_op;
            data.(sub_off ct name dims sub)
          | _ -> Walk.as_int (load_v ct cell))
    | Ast.Tlogical, _ ->
      Kb
        (fun ct ->
          let cell = get ct in
          eval_sub ct sub;
          match cell with
          | Value.Log_array { data; dims } -> data.(sub_off ct name dims sub)
          | _ -> Walk.as_bool (load_v ct cell)))

and compile_intr env (it : intr) : cexpr =
  match it with
  | Iabs { e; costs } -> (
    match compile_expr env e with
    | Kf (f, k) ->
      let sub = sub3 costs k in
      Kf
        ( (fun ct ->
            f ct;
            let x = ct.scratch.fv in
            charge ct ci_flops sub.(ct.vec);
            ct.scratch.fv <- cmk_realf k (Float.abs x)),
          k )
    | Ki f ->
      Ki
        (fun ct ->
          let i = f ct in
          charge ct ci_flops ct.machine.Machine.int_op;
          abs i)
    | (Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct ->
          match f ct with
          | Value.Vint i ->
            charge ct ci_flops ct.machine.Machine.int_op;
            Value.Vint (abs i)
          | Value.Vreal (x, k) ->
            charge ct ci_flops costs.((ct.vec * 2) + kind_idx k);
            Walk.mk_real k (Float.abs x)
          | Value.Vlog _ | Value.Vstr _ -> trap_s "abs of non-numeric value"))
  | Ielem { fn; e; costs } -> (
    match compile_expr env e with
    | Kf (f, k) ->
      let sub = sub3 costs k in
      (* the functions of [Walk.elemental], matched here so that each is
         applied directly: an indirect application boxes argument and
         result every time *)
      Kf
        ( (fun ct ->
            f ct;
            let x = ct.scratch.fv in
            charge ct ci_flops sub.(ct.vec);
            ct.scratch.fv <-
              cmk_realf k
                (match fn with
                | Builtins.Sqrt -> sqrt x
                | Exp -> exp x
                | Log -> log x
                | Log10 -> log10 x
                | Sin -> sin x
                | Cos -> cos x
                | Tan -> tan x
                | Atan -> atan x
                | Asin -> asin x
                | Acos -> acos x
                | Sinh -> sinh x
                | Cosh -> cosh x
                | Tanh -> tanh x
                | Aint -> Float.trunc x
                | Anint -> Float.round x)),
          k )
    | c ->
      let f = force c in
      Kv
        (fun ct ->
          match f ct with
          | Value.Vreal (x, k) ->
            charge ct ci_flops costs.((ct.vec * 2) + kind_idx k);
            Walk.mk_real k (Walk.elemental fn x)
          | Value.Vint _ | Value.Vlog _ | Value.Vstr _ ->
            trap "%s of non-real value" (Builtins.name (Builtins.Elemental fn))))
  | Iminmax { m; args; costs } -> (
    let n = Array.length args in
    let cs = Array.map (compile_expr env) args in
    let is_min = m = Builtins.Min in
    let all_int = Array.for_all (function Ki _ -> true | _ -> false) cs in
    let typed = Array.for_all (function Ki _ | Kf _ -> true | _ -> false) cs in
    if n >= 2 && all_int then begin
      let fs = Array.map iview cs in
      (* folding as the operands evaluate is exact: the one charge comes
         after all of them, and nothing else is observable *)
      Ki
        (fun ct ->
          let acc = ref (fs.(0) ct) in
          for i = 1 to n - 1 do
            let v = fs.(i) ct in
            acc := if is_min then min !acc v else max !acc v
          done;
          charge ct ci_flops ct.machine.Machine.int_op;
          !acc)
    end
    else if n > 2 && typed then begin
      let k = Array.fold_left (fun acc c -> match c with Kf (_, Ast.K8) -> Ast.K8 | _ -> acc) Ast.K4 cs in
      let sub = sub3 costs k in
      let fs = Array.map fput cs in
      Kf
        ( (fun ct ->
            fs.(0) ct;
            let acc = ref ct.scratch.fv in
            for i = 1 to n - 1 do
              fs.(i) ct;
              let v = ct.scratch.fv in
              acc := if is_min then Float.min !acc v else Float.max !acc v
            done;
            charge ct ci_flops sub.(ct.vec);
            ct.scratch.fv <- cmk_realf k !acc),
          k )
    end
    else if n = 2 && typed then begin
      (* at least one real operand: the promoted kind is static *)
      let k = Array.fold_left (fun acc c -> match c with Kf (_, Ast.K8) -> Ast.K8 | _ -> acc) Ast.K4 cs in
      let sub = sub3 costs k in
      let f0 = fput cs.(0) and f1 = fput cs.(1) in
      Kf
        ( (fun ct ->
            f0 ct;
            let a = ct.scratch.fv in
            f1 ct;
            let b = ct.scratch.fv in
            charge ct ci_flops sub.(ct.vec);
            let z = if is_min then Float.min a b else Float.max a b in
            ct.scratch.fv <- cmk_realf k z),
          k )
    end
    else
      let fs = Array.to_list (Array.map force cs) in
      Kv
        (fun ct ->
          let vs = List.map (fun f -> f ct) fs in
          if n < 2 then trap "%s needs at least two arguments" (Builtins.name (Builtins.Minmax m));
          match List.fold_left (fun acc v -> Walk.promote_kind acc (Walk.value_kind v)) None vs with
          | None ->
            charge ct ci_flops ct.machine.Machine.int_op;
            Value.Vint (Walk.int_extremum_of m (List.map Walk.as_int vs))
          | Some k ->
            charge ct ci_flops costs.((ct.vec * 2) + kind_idx k);
            Walk.mk_real k (Walk.extremum m (List.map Walk.as_float vs))))
  | Imod { a; b; costs } -> (
    match compile_expr env a, compile_expr env b with
    | Ki fa, Ki fb ->
      Ki
        (fun ct ->
          let x = fa ct in
          let y = fb ct in
          charge ct ci_flops ct.machine.Machine.int_op;
          if y = 0 then trap_s "mod with zero divisor" else x - (x / y * y))
    | ((Kf _ | Ki _) as ca), ((Kf _ | Ki _) as cb) ->
      let k = match ca, cb with Kf (_, k1), Kf (_, k2) -> kmax k1 k2 | Kf (_, k), _ | _, Kf (_, k) -> k | _ -> assert false in
      binary_f ca cb k (sub3 costs k) `Rem
    | ca, cb ->
      let fa = force ca and fb = force cb in
      Kv
        (fun ct ->
          let va = fa ct in
          let vb = fb ct in
          match va, vb with
          | Value.Vint x, Value.Vint y ->
            charge ct ci_flops ct.machine.Machine.int_op;
            Value.Vint (Walk.int_mod x y)
          | _ ->
            let k =
              match Walk.promote_kind (Walk.value_kind va) (Walk.value_kind vb) with
              | Some k -> k
              | None -> trap_s "mod of non-numeric"
            in
            charge ct ci_flops costs.((ct.vec * 2) + kind_idx k);
            Walk.mk_real k (Float.rem (Walk.as_float va) (Walk.as_float vb))))
  | Iatan2 { a; b; costs } -> (
    match compile_expr env a, compile_expr env b with
    | (Kf (_, k1) as ca), (Kf (_, k2) as cb) ->
      let k = kmax k1 k2 in
      binary_f ca cb k (sub3 costs k) `Atan2
    | (Kf (_, k) as ca), (Ki _ as cb) | (Ki _ as ca), (Kf (_, k) as cb) ->
      binary_f ca cb k (sub3 costs k) `Atan2
    | ca, cb ->
      let fa = force ca and fb = force cb in
      Kv
        (fun ct ->
          let va = fa ct in
          let vb = fb ct in
          match Walk.promote_kind (Walk.value_kind va) (Walk.value_kind vb) with
          | Some k ->
            charge ct ci_flops costs.((ct.vec * 2) + kind_idx k);
            Walk.mk_real k (Float.atan2 (Walk.as_float va) (Walk.as_float vb))
          | None -> trap_s "atan2 of non-real values"))
  | Isign { a; b; costs } -> (
    match compile_expr env a, compile_expr env b with
    | Ki fa, Ki fb ->
      Ki
        (fun ct ->
          let x = fa ct in
          let y = fb ct in
          charge ct ci_flops ct.machine.Machine.int_op;
          let m = abs x in
          if y >= 0 then m else -m)
    | ((Kf _ | Ki _) as ca), ((Kf _ | Ki _) as cb) ->
      let k = match ca, cb with Kf (_, k1), Kf (_, k2) -> kmax k1 k2 | Kf (_, k), _ | _, Kf (_, k) -> k | _ -> assert false in
      binary_f ca cb k (sub3 costs k) `Sign
    | ca, cb ->
      let fa = force ca and fb = force cb in
      Kv
        (fun ct ->
          let x = fa ct in
          let y = fb ct in
          match Walk.promote_kind (Walk.value_kind x) (Walk.value_kind y) with
          | Some k ->
            charge ct ci_flops costs.((ct.vec * 2) + kind_idx k);
            Walk.mk_real k (Walk.real_sign (Walk.as_float x) (Walk.as_float y))
          | None ->
            charge ct ci_flops ct.machine.Machine.int_op;
            let m = Walk.as_int x in
            Value.Vint (Walk.int_sign m (Walk.as_int y))))
  | Ireal { e; kind = None } -> (
    match compile_expr env e with
    | Kf (f, Ast.K4) ->
      Kf
        ( (fun ct ->
            f ct;
            ct.scratch.fv <- round32 ct.scratch.fv),
          Ast.K4 )
    | Kf (f, Ast.K8) ->
      Kf
        ( (fun ct ->
            f ct;
            let x = ct.scratch.fv in
            charge ct ci_convert ct.conv.(ct.vec);
            ct.scratch.fv <- round32 x),
          Ast.K4 )
    | Ki f -> Kf ((fun ct -> ct.scratch.fv <- round32 (float_of_int (f ct))), Ast.K4)
    | (Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct ->
          let v = f ct in
          if Walk.value_kind v = Some Ast.K8 then charge ct ci_convert ct.conv.(ct.vec);
          Value.Vreal (round32 (Walk.as_float v), Ast.K4)))
  | Ireal { e; kind = Some kk } -> (
    match compile_expr env e with
    | Kf (f, k) when k = kk ->
      Kf
        ( (fun ct ->
            f ct;
            ct.scratch.fv <- cround kk ct.scratch.fv),
          kk )
    | Kf (f, _) ->
      Kf
        ( (fun ct ->
            f ct;
            let x = ct.scratch.fv in
            charge ct ci_convert ct.conv.(ct.vec);
            ct.scratch.fv <- cround kk x),
          kk )
    | Ki f -> Kf ((fun ct -> ct.scratch.fv <- cround kk (float_of_int (f ct))), kk)
    | (Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct ->
          let v = f ct in
          if Walk.value_kind v <> Some kk && Walk.value_kind v <> None then
            charge ct ci_convert ct.conv.(ct.vec);
          Value.Vreal (cround kk (Walk.as_float v), kk)))
  | Ireal_bad { e; k } ->
    let f = effect (compile_expr env e) in
    Kv
      (fun ct ->
        f ct;
        trap "real(): unsupported kind %d" k)
  | Idble e -> (
    match compile_expr env e with
    | Kf (f, Ast.K8) -> Kf (f, Ast.K8)
    | Kf (f, Ast.K4) ->
      Kf
        ( (fun ct ->
            f ct;
            charge ct ci_convert ct.conv.(ct.vec)),
          Ast.K8 )
    | Ki f -> Kf ((fun ct -> ct.scratch.fv <- float_of_int (f ct)), Ast.K8)
    | (Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct ->
          let v = f ct in
          if Walk.value_kind v = Some Ast.K4 then charge ct ci_convert ct.conv.(ct.vec);
          Value.Vreal (Walk.as_float v, Ast.K8)))
  | Iicvt { conv; e } ->
    (* int_op is charged before the operand evaluates *)
    let f = fput (compile_expr env e) in
    Ki
      (fun ct ->
        charge ct ci_flops ct.machine.Machine.int_op;
        f ct;
        let x = ct.scratch.fv in
        match conv with
        | Builtins.Int -> int_of_float x
        | Nint -> int_of_float (Float.round x)
        | Floor -> int_of_float (Float.floor x))
  | Idot { an; ar; bn; br } ->
    let va = var_of env an ar and vb = var_of env bn br in
    Kv
      (fun ct ->
        (* the reference resolves both via a tuple: right-to-left *)
        let cb = resolve_cell ct vb in
        let ca = resolve_cell ct va in
        match ca, cb with
        | Value.Real_array { kind = ka; data = da; _ }, Value.Real_array { kind = kb; data = db; _ }
          ->
          let n = min (Array.length da) (Array.length db) in
          let kind = Walk.dot_kind ka kb in
          let l = Machine.lanes ct.machine kind in
          charge ct ci_flops
            (2.0 *. float_of_int n *. Machine.op_cost ct.machine ~lanes:l kind Ast.Add);
          charge ct ci_memory (2.0 *. float_of_int n *. Machine.mem_cost ct.machine ~lanes:l kind);
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            s := Walk.dot_step kind !s da.(i) db.(i)
          done;
          Walk.mk_real kind !s
        | _ -> trap_s "dot_product expects two real arrays")
  | Ireduce { red; rn; r } ->
    let v = var_of env rn r in
    Kv
      (fun ct ->
        match resolve_cell ct v with
        | Value.Real_array { kind; data; _ } -> (
          let n = Array.length data in
          let l = Machine.lanes ct.machine kind in
          charge ct ci_flops (float_of_int n *. Machine.op_cost ct.machine ~lanes:l kind Ast.Add);
          charge ct ci_memory (float_of_int n *. Machine.mem_cost ct.machine ~lanes:l kind);
          match red with
          | Builtins.Sum ->
            let s = ref 0.0 in
            Array.iter (fun x -> s := Fp32.of_kind kind (!s +. x)) data;
            Walk.mk_real kind !s
          | Extreme m ->
            if n = 0 then Walk.empty_reduction m
            else Walk.mk_real kind (Array.fold_left (Walk.float_extremum m) data.(0) data))
        | Value.Int_array { data; _ } ->
          charge ct ci_flops (float_of_int (Array.length data) *. ct.machine.Machine.int_op);
          Value.Vint (Walk.int_reduce red data)
        | Value.Scalar _ | Value.Log_array _ ->
          trap "%s of non-array" (Builtins.name (Builtins.Reduce red)))
  | Isize { rn; r; dim } -> (
    let v = var_of env rn r in
    let dims_of ct =
      match resolve_cell ct v with
      | Value.Real_array { dims; _ } | Value.Int_array { dims; _ } | Value.Log_array { dims; _ } ->
        dims
      | Value.Scalar _ -> trap_s "size of non-array"
    in
    match dim with
    | None -> Ki (fun ct -> Value.elements (dims_of ct))
    | Some d ->
      let fd = iview (compile_expr env d) in
      Ki
        (fun ct ->
          let dim = fd ct in
          let dims = dims_of ct in
          if dim >= 1 && dim <= Array.length dims then dims.(dim - 1)
          else trap "size: dimension %d out of range" dim))
  | Iinq { q; e } -> (
    match compile_expr env e with
    | Kf (f, k) ->
      let v = Walk.inquiry q k in
      Kf
        ( (fun ct ->
            f ct;
            ct.scratch.fv <- v),
          k )
    | c ->
      let f = force c in
      Kv
        (fun ct ->
          match f ct with
          | Value.Vreal (_, k) -> Value.Vreal (Walk.inquiry q k, k)
          | Value.Vint _ | Value.Vlog _ | Value.Vstr _ ->
            trap "%s of non-real value" (Builtins.name (Builtins.Inquiry q))))

(* two typed operands (at least one real) into a rounded real of kind
   [k]: mod, atan2 and sign *)
and binary_f ca cb k sub which : cexpr =
  let fa = fput ca and fb = fput cb in
  match which with
  | `Rem ->
    Kf
      ( (fun ct ->
          fa ct;
          let x = ct.scratch.fv in
          fb ct;
          let y = ct.scratch.fv in
          charge ct ci_flops sub.(ct.vec);
          ct.scratch.fv <- cmk_realf k (Float.rem x y)),
        k )
  | `Atan2 ->
    Kf
      ( (fun ct ->
          fa ct;
          let x = ct.scratch.fv in
          fb ct;
          let y = ct.scratch.fv in
          charge ct ci_flops sub.(ct.vec);
          ct.scratch.fv <- cmk_realf k (Float.atan2 x y)),
        k )
  | `Sign ->
    Kf
      ( (fun ct ->
          fa ct;
          let x = ct.scratch.fv in
          fb ct;
          let y = ct.scratch.fv in
          charge ct ci_flops sub.(ct.vec);
          let m = Float.abs x in
          ct.scratch.fv <- cmk_realf k (if y >= 0.0 then m else -.m)),
        k )

and compile_sub env idx =
  match Array.map (fun e -> iview (compile_expr env e)) idx with
  | [| a |] -> S1 a
  | [| a; b |] -> S2 (a, b)
  | c -> Sn c

and compile_call env (cs : call_site) : ccall =
  let args =
    Array.map
      (function
        | Aref { name; r } -> CAref { a = name; v = var_of env name r }
        | Aval { e; lit; co } ->
          CAval
            {
              e = compile_expr env e;
              lit;
              co =
                Option.map
                  (fun c ->
                    { out_name = c.co_name; out_var = var_of env c.co_name c.co_r;
                      out_sub = compile_sub env c.co_idx })
                  co;
            })
      cs.cs_args
  in
  {
    cc = cs;
    cc_args = args;
    cc_copies = Array.exists (function CAval { co = Some _; _ } -> true | _ -> false) args;
  }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

(* store [c]'s value into the scalar [var], converting to its declared
   type; the rhs evaluates first, as in [Interp] *)
let compile_store var ~lit (c : cexpr) : ctx -> unit =
  match var, c with
  | Vf (l, kind), Kf (f, k) -> (
    let conv = k <> kind && not lit in
    match l with
    | Own o ->
      fun ct ->
        f ct;
        let x = ct.scratch.fv in
        if conv then charge ct ci_convert ct.conv.(ct.vec);
        let y = cround kind x in
        if not (Float.is_finite y) then Walk.nonfinite_scalar kind;
        ct.fs.(ct.fb + o) <- y
    | _ ->
      fun ct ->
        f ct;
        let x = ct.scratch.fv in
        if conv then charge ct ci_convert ct.conv.(ct.vec);
        let y = cround kind x in
        if not (Float.is_finite y) then Walk.nonfinite_scalar kind;
        ct.fs.(faddr ct l) <- y)
  | Vf (l, kind), Ki f ->
    fun ct ->
      let i = f ct in
      let y = cround kind (float_of_int i) in
      if not (Float.is_finite y) then Walk.nonfinite_scalar kind;
      ct.fs.(faddr ct l) <- y
  | Vi (Own o), Ki f ->
    fun ct ->
      let i = f ct in
      ct.is.(ct.ib + o) <- i
  | Vi l, Ki f ->
    fun ct ->
      let i = f ct in
      ct.is.(iaddr ct l) <- i
  | Vi l, Kf (f, _) ->
    fun ct ->
      f ct;
      let i = int_of_float ct.scratch.fv in
      ct.is.(iaddr ct l) <- i
  | Vb l, Kb f ->
    fun ct ->
      let b = f ct in
      ct.is.(iaddr ct l) <- Bool.to_int b
  | (Vf _ | Vi _ | Vb _), _ ->
    let f = force c in
    fun ct -> store_v ct var ~lit (f ct)
  | (Va _ | Vparam _ | Vunalloc | Vtrap _), _ -> assert false

(* a scalar assignment target; [on_array]/[on_param] are the traps of
   the statement kind *)
let compile_assign env ~name ~r ~lit ~on_array ~on_param rhs : ctx -> unit =
  let c = compile_expr env rhs in
  match var_of env name r with
  | (Vf _ | Vi _ | Vb _) as v -> compile_store v ~lit c
  | Vtrap m ->
    let f = effect c in
    fun ct ->
      f ct;
      trap_s m
  | Vparam s ->
    let f = effect c in
    fun ct ->
      f ct;
      ignore (force_param ct s : Value.v);
      trap_s on_param
  | Va _ ->
    let f = effect c in
    fun ct ->
      f ct;
      trap_s on_array
  | Vunalloc -> assert false

type ccase =
  | CCval of (ctx -> Value.v)
  | CCrange of (ctx -> int) option * (ctx -> int) option

let rec compile_stmt env (s : stmt) : ctx -> unit =
  match s with
  | Sassign { tgt = Lsc { name; r; rhs_lit }; rhs } ->
    compile_assign env ~name ~r ~lit:rhs_lit
      ~on_array:(sp "assignment to whole array %s unsupported" name)
      ~on_param:(sp "assignment to parameter %s" name) rhs
  | Sassign { tgt = Larr { name; r; idx; rhs_lit }; rhs } -> compile_elem_store env name r idx rhs_lit rhs
  | Scall cs ->
    let ca = compile_call env cs in
    fun ct -> ignore (exec_ccall ct ca : int)
  | Sallreduce { send; send_lit; rn; recv; op } -> (
    let fsend = force (compile_expr env send) in
    let known_op = op = "sum" || op = "max" || op = "min" in
    let head ct =
      let v = fsend ct in
      charge ct ci_reduction ct.machine.Machine.allreduce;
      if not known_op then trap "mpi_allreduce: unknown op %s" op;
      v
    in
    match var_of env rn recv with
    | (Vf _ | Vi _ | Vb _) as var -> fun ct -> store_v ct var ~lit:send_lit (head ct)
    | Vtrap m ->
      fun ct ->
        ignore (head ct : Value.v);
        trap_s m
    | Vparam s ->
      fun ct ->
        ignore (head ct : Value.v);
        ignore (force_param ct s : Value.v);
        trap "parameter %s cannot be assigned" rn
    | Va _ ->
      fun ct ->
        ignore (head ct : Value.v);
        trap "array %s used as a scalar" rn
    | Vunalloc -> assert false)
  | Sbarrier -> fun ct -> charge ct ci_reduction (ct.machine.Machine.allreduce /. 2.0)
  | Sif { arms; els } ->
    let carms =
      Array.map (fun (c, blk) -> (bview (compile_expr env c), compile_block env blk)) arms
    in
    let cels = compile_block env els in
    let n = Array.length carms in
    (* [go] closes over the compiled arms only, so it is allocated once
       here rather than on every execution of the [if] *)
    let rec go ct i =
      if i = n then exec_cblock ct cels
      else
        let cond, blk = carms.(i) in
        if cond ct then exec_cblock ct blk else go ct (i + 1)
    in
    fun ct -> go ct 0
  | Sdo { vn; var; from_; to_; step; mode; iter_overhead; body } -> (
    let flo = iview (compile_expr env from_) in
    let fhi = iview (compile_expr env to_) in
    let fstep = Option.map (fun e -> iview (compile_expr env e)) step in
    let cbody = compile_block env body in
    let midx = mode_idx mode in
    (* the loop proper, given the counter store; [Interp] resolves the
       variable before evaluating the bounds *)
    let loop ct set =
      let lo = flo ct in
      let hi = fhi ct in
      let stp = match fstep with Some f -> f ct | None -> 1 in
      if stp = 0 then trap_s "do loop with zero step";
      let saved_vec = ct.vec in
      ct.vec <- midx;
      (try
         let i = ref lo in
         while (stp > 0 && !i <= hi) || (stp < 0 && !i >= hi) do
           set ct !i;
           charge ct ci_loop iter_overhead;
           check_budget ct;
           (try exec_cblock ct cbody with Walk.Cycle_signal -> ());
           i := !i + stp
         done
       with
      | Walk.Exit_signal -> ()
      | e ->
        ct.vec <- saved_vec;
        raise e);
      ct.vec <- saved_vec
    in
    match var_of env vn var with
    | Vi (Own o) when fstep = None ->
      (* the common shape: unit step, counter in the frame *)
      fun ct ->
        let lo = flo ct in
        let hi = fhi ct in
        let saved_vec = ct.vec in
        ct.vec <- midx;
        (try
           for i = lo to hi do
             ct.is.(ct.ib + o) <- i;
             charge ct ci_loop iter_overhead;
             check_budget ct;
             try exec_cblock ct cbody with Walk.Cycle_signal -> ()
           done
         with
        | Walk.Exit_signal -> ()
        | e ->
          ct.vec <- saved_vec;
          raise e);
        ct.vec <- saved_vec
    | Vi l ->
      let set ct i = ct.is.(iaddr ct l) <- i in
      fun ct -> loop ct set
    | Vf _ | Vb _ ->
      (* ill-typed (Typecheck rejects it): [Interp] would store an
         integer into the variable; fail at that first store *)
      let set _ _ = trap "do variable %s is not integer" vn in
      fun ct -> loop ct set
    | Vtrap m -> fun _ -> trap_s m
    | Vparam s ->
      fun ct ->
        ignore (force_param ct s : Value.v);
        trap "parameter %s cannot be assigned" vn
    | Va _ -> fun _ -> trap "array %s used as a scalar" vn
    | Vunalloc -> assert false)
  | Sdo_while { cond; body } ->
    let fcond = bview (compile_expr env cond) in
    let cbody = compile_block env body in
    fun ct -> (
      try
        while fcond ct do
          charge ct ci_loop ct.machine.Machine.loop_overhead;
          check_budget ct;
          try exec_cblock ct cbody with Walk.Cycle_signal -> ()
        done
      with Walk.Exit_signal -> ())
  | Sselect { selector; arms; default } ->
    let fsel = force (compile_expr env selector) in
    let carms =
      Array.map
        (fun (items, blk) ->
          ( Array.map
              (function
                | Cval e -> CCval (force (compile_expr env e))
                | Crange (lo, hi) ->
                  CCrange
                    ( Option.map (fun e -> iview (compile_expr env e)) lo,
                      Option.map (fun e -> iview (compile_expr env e)) hi ))
              items,
            compile_block env blk ))
        arms
    in
    let cdefault = compile_block env default in
    let n = Array.length carms in
    let matches ct sel item =
      match item, sel with
      | CCval f, _ -> (
        match f ct, sel with
        | Value.Vint a, Value.Vint b -> a = b
        | Value.Vlog a, Value.Vlog b -> a = b
        | _ -> trap_s "case value incompatible with selector")
      | CCrange (lo, hi), Value.Vint x ->
        let above = match lo with Some f -> x >= f ct | None -> true in
        let below = match hi with Some f -> x <= f ct | None -> true in
        above && below
      | CCrange _, _ -> trap_s "case range requires an integer selector"
    in
    let rec matches_any ct sel (items : ccase array) j =
      j < Array.length items && (matches ct sel items.(j) || matches_any ct sel items (j + 1))
    in
    let rec go ct sel i =
      if i = n then exec_cblock ct cdefault
      else
        let items, blk = carms.(i) in
        if matches_any ct sel items 0 then exec_cblock ct blk else go ct sel (i + 1)
    in
    fun ct ->
      let sel = fsel ct in
      charge ct ci_flops ct.machine.Machine.compare_cost;
      go ct sel 0
  | Sexit -> fun _ -> raise Walk.Exit_signal
  | Scycle -> fun _ -> raise Walk.Cycle_signal
  | Sreturn -> fun _ -> raise Walk.Return_signal
  | Sstop m -> fun _ -> raise (Walk.Stop_signal m)
  | Sprint args ->
    let fs = Array.map (fun e -> force (compile_expr env e)) args in
    let n = Array.length fs in
    fun ct ->
      let vs = Array.map (fun f -> f ct) fs in
      let line = String.concat " " (List.map Value.to_string (Array.to_list vs)) in
      ct.printed <- line :: ct.printed;
      if n > 0 then (
        match vs.(0) with
        | Value.Vstr key ->
          for i = 1 to n - 1 do
            match vs.(i) with
            | Value.Vreal (x, _) -> ct.records <- (key, x) :: ct.records
            | Value.Vint iv -> ct.records <- (key, float_of_int iv) :: ct.records
            | Value.Vlog _ | Value.Vstr _ -> ()
          done
        | _ -> ())
  | Strap m -> fun _ -> trap_s m

(* [Larr]: rhs, then the target cell, then subscripts and the store *)
and compile_elem_store env name r idx lit rhs : ctx -> unit =
  let crhs = compile_expr env rhs in
  let sub = compile_sub env idx in
  match var_of env name r with
  | Vtrap m ->
    let f = effect crhs in
    fun ct ->
      f ct;
      trap_s m
  | Vparam s ->
    let f = effect crhs in
    fun ct ->
      f ct;
      ignore (force_param ct s : Value.v);
      trap "assignment to parameter %s" name
  | Vf _ | Vi _ | Vb _ ->
    let f = effect crhs in
    fun ct ->
      f ct;
      eval_sub ct sub;
      trap "scalar %s subscripted" name
  | Vunalloc -> assert false
  | Va (l, _) -> (
    let get = match l with Own o -> fun ct -> ct.cs.(ct.cb + o) | _ -> fun ct -> cell_at ct l in
    match crhs, sub with
    | Kf (f, krhs), S1 c0 ->
      (* hot combination: rank-1 store of a typed float, unboxed from the
         rhs through the element store *)
      fun ct ->
        f ct;
        let xv = ct.scratch.fv in
        let cell = get ct in
        charge ct ci_flops ct.machine.Machine.int_op;
        let i = c0 ct in
        (match cell with
        | Value.Real_array { kind; data; dims } ->
          charge ct ci_memory ct.memtab.((ct.vec * 2) + kind_idx kind);
          if krhs <> kind && not lit then charge ct ci_convert ct.conv.(ct.vec);
          let x = cround kind xv in
          if not (Float.is_finite x) then Walk.nonfinite_element name kind;
          data.(offset1 ~name ~dims i) <- x
        | _ ->
          ct.i0 <- i;
          ct.scratch.fv <- xv;
          put_f ct name cell sub ~lit krhs)
    | Kf (f, krhs), S2 (c0, c1) ->
      fun ct ->
        f ct;
        let xv = ct.scratch.fv in
        let cell = get ct in
        charge ct ci_flops ct.machine.Machine.int_op;
        let i = c0 ct in
        charge ct ci_flops ct.machine.Machine.int_op;
        let j = c1 ct in
        (match cell with
        | Value.Real_array { kind; data; dims } ->
          charge ct ci_memory ct.memtab.((ct.vec * 2) + kind_idx kind);
          if krhs <> kind && not lit then charge ct ci_convert ct.conv.(ct.vec);
          let x = cround kind xv in
          if not (Float.is_finite x) then Walk.nonfinite_element name kind;
          data.(offset2 ~name ~dims i j) <- x
        | _ ->
          ct.i0 <- i;
          ct.i1 <- j;
          ct.scratch.fv <- xv;
          put_f ct name cell sub ~lit krhs)
    | Kf (f, krhs), Sn _ ->
      fun ct ->
        f ct;
        let xv = ct.scratch.fv in
        let cell = get ct in
        eval_sub ct sub;
        ct.scratch.fv <- xv;
        put_f ct name cell sub ~lit krhs
    | Ki f, _ ->
      fun ct ->
        let v = f ct in
        let cell = get ct in
        eval_sub ct sub;
        put_i ct name cell sub v
    | Kb f, _ ->
      fun ct ->
        let v = f ct in
        let cell = get ct in
        eval_sub ct sub;
        put_b ct name cell sub v
    | Kv f, _ ->
      fun ct ->
        let v = f ct in
        let cell = get ct in
        eval_sub ct sub;
        put_v ct name cell sub ~lit v)

and compile_block env (blk : stmt array) = Array.map (compile_stmt env) blk

(* ------------------------------------------------------------------ *)
(* Whole-program compilation                                           *)

(* a procedure's frame layout, from its declarations *)
let layout (ir : proc_ir) =
  let fvars = Array.make ir.p_nslots Vunalloc in
  let nf = ref 0 and ni = ref 0 and nc = ref 0 in
  let next r =
    let v = !r in
    incr r;
    v
  in
  let dummies =
    Array.map
      (fun (d : dummy) ->
        if d.d_undeclared then Dnone d.d_name
        else if d.d_is_array then begin
          let slot = next nc in
          fvars.(d.d_slot) <- Va (Own slot, d.d_base);
          Darr { dn = d.d_name; db = d.d_base; slot }
        end
        else begin
          let addr = next ni in
          match d.d_base with
          | Ast.Treal dk ->
            let home = next nf in
            fvars.(d.d_slot) <- Vf (Ref addr, dk);
            Dreal { dn = d.d_name; dk; addr; home; wr = d.d_writable }
          | (Ast.Tinteger | Ast.Tlogical) as b ->
            let home = next ni in
            let logical = b = Ast.Tlogical in
            fvars.(d.d_slot) <- var_of_base b (Ref addr);
            Dint { dn = d.d_name; logical; addr; home; wr = d.d_writable }
        end)
      ir.p_dummies
  in
  let arrays =
    Array.map
      (fun (l : local) ->
        if l.l_dims = [||] then begin
          let loc = match l.l_base with Ast.Treal _ -> Own (next nf) | _ -> Own (next ni) in
          fvars.(l.l_slot) <- var_of_base l.l_base loc;
          None
        end
        else begin
          let slot = next nc in
          fvars.(l.l_slot) <- Va (Own slot, l.l_base);
          Some slot
        end)
      ir.p_locals
  in
  let result =
    if not ir.p_is_function then Rsub
    else if ir.p_result < 0 then Rmissing
    else
      match fvars.(ir.p_result) with
      | Va _ -> Rarray
      | (Vf _ | Vi _ | Vb _) as v -> Rscalar v
      | Vparam _ | Vunalloc | Vtrap _ -> Rmissing
  in
  (fvars, dummies, arrays, result, !nf, !ni, !nc)

let compile_proc ~prog ~gvars ~pbase ~clinks (ir : proc_ir) : cproc =
  let fvars, dummies, arrays, result, nf, ni, nc = layout ir in
  let env = { prog; gvars; pbase; fvars; pname = ir.p_name; clinks } in
  let clocals =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun j (l : local) ->
              match arrays.(j) with
              | None -> None
              | Some slot ->
                (* dims run while this local and the ones after it are
                   unallocated: naming one traps, as in [Interp] *)
                let unalloc = Array.copy fvars in
                for k = j to Array.length ir.p_locals - 1 do
                  unalloc.(ir.p_locals.(k).l_slot) <- Vunalloc
                done;
                let denv = { env with fvars = unalloc } in
                Some
                  {
                    cl_slot = slot;
                    cl_base = l.l_base;
                    cl_dims = Array.map (fun e -> iview (compile_expr denv e)) l.l_dims;
                  })
            ir.p_locals))
  in
  let cinits =
    Array.map
      (fun (it : initr) ->
        compile_assign env ~name:it.i_name ~r:(Rlocal it.i_slot) ~lit:it.i_lit
          ~on_array:(sp "initializer on array %s unsupported" it.i_name)
          ~on_param:"" it.i_rhs)
      ir.p_inits
  in
  {
    ir;
    nf;
    ni;
    nc;
    dummies;
    result;
    clocals = Array.of_list clocals;
    cinits;
    cbody = compile_block env ir.p_body;
  }

module Cache = struct
  (* Same key discipline and locking protocol as [Lower.Cache]: compiled
     procedures are pure functions of (IR, machine) and the IR is itself
     pinned by the key, so entries are shared across variants and
     domains; a publish race keeps the first-published closure tree. *)
  type t = {
    tbl : (string, cproc) Hashtbl.t;
    lock : Mutex.t;
    (* atomics: domains aggregate traffic without holding [lock] and
       totals are never torn *)
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create () =
    { tbl = Hashtbl.create 512; lock = Mutex.create (); hits = Atomic.make 0;
      misses = Atomic.make 0 }

  let stats t = (Atomic.get t.hits, Atomic.get t.misses)

  let get_or_compile t key f =
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.tbl key with
    | Some cp ->
      Atomic.incr t.hits;
      Mutex.unlock t.lock;
      cp
    | None ->
      Atomic.incr t.misses;
      Mutex.unlock t.lock;
      let cp = f () in
      Mutex.lock t.lock;
      (match Hashtbl.find_opt t.tbl key with
      | Some winner ->
        Mutex.unlock t.lock;
        winner
      | None ->
        Hashtbl.replace t.tbl key cp;
        Mutex.unlock t.lock;
        cp)
end

type t = {
  prog : program;
  cprocs : cproc array;
  cmain : (ctx -> unit) array;
  gvars : var array;
  gsize : int * int * int;  (* module variables in [fs], [is], [cs] *)
  ginits : (ctx -> unit) array;  (* by position in [prog.globals] *)
  pdefs : cparam array;
  memtab : float array;
}

(* module variables at fixed addresses at the bottom of the stacks,
   assigned in canonical-slot order (stable across variants) *)
let global_layout (p : program) =
  let gvars = Array.make p.nglobals (Vtrap "module variable not allocated") in
  let nf = ref 0 and ni = ref 0 and nc = ref 0 in
  let next r =
    let v = !r in
    incr r;
    v
  in
  let by_slot = Array.make p.nglobals None in
  Array.iter (fun (g : global) -> by_slot.(g.g_slot) <- Some g) p.globals;
  Array.iteri
    (fun s g ->
      match g with
      | None -> ()
      | Some (g : global) ->
        gvars.(s) <-
          (match g.g_extents with
          | None -> Vtrap (sp "module array %s.%s has non-constant extent" g.g_unit g.g_name)
          | Some [||] -> (
            match g.g_base with
            | Ast.Treal _ -> var_of_base g.g_base (Abs (next nf))
            | Ast.Tinteger | Ast.Tlogical -> var_of_base g.g_base (Abs (next ni)))
          | Some _ -> Va (Abs (next nc), g.g_base)))
    by_slot;
  (gvars, (!nf, !ni, !nc))

let compile ?cache (p : program) : t =
  let gvars, gsize = global_layout p in
  let pbase = Array.map (fun (pa : param) -> pa.pa_base) p.params in
  let cached key f =
    match cache with
    | Some c when key <> "" -> Cache.get_or_compile c key f
    | Some _ | None -> f ()
  in
  let cprocs =
    Array.mapi
      (fun i (ir : proc_ir) ->
        cached ir.p_key (fun () -> compile_proc ~prog:p ~gvars ~pbase ~clinks:p.links.(i) ir))
      p.procs
  in
  (* the main body runs in an empty frame: every name it touches is a
     module variable or parameter *)
  let main_env = { prog = p; gvars; pbase; fvars = [||]; pname = ""; clinks = p.main_links } in
  let main_ir =
    {
      p_name = "";
      p_key = p.main_key;
      p_result = -1;
      p_is_function = false;
      p_is_wrapper = false;
      p_inlinable = false;
      p_nslots = 0;
      p_dummies = [||];
      p_locals = [||];
      p_inits = [||];
      p_body = p.main_body;
      p_callees = [||];
    }
  in
  let cmain =
    (cached p.main_key (fun () ->
         { ir = main_ir; nf = 0; ni = 0; nc = 0; dummies = [||]; result = Rsub; clocals = [||];
           cinits = [||]; cbody = compile_block main_env p.main_body }))
      .cbody
  in
  let aux_env = { main_env with clinks = p.aux_links } in
  let ginits =
    Array.map
      (fun (g : global) ->
        match g.g_init with
        | None -> fun _ -> ()
        | Some (e, lit) ->
          compile_assign aux_env ~name:g.g_name ~r:(Rglobal g.g_slot) ~lit
            ~on_array:(sp "initializer on module array %s unsupported" g.g_name)
            ~on_param:"" e)
      p.globals
  in
  let pdefs =
    Array.map
      (fun (pa : param) ->
        { cp_name = pa.pa_name; cp_base = pa.pa_base;
          cp_init = Option.map (fun e -> force (compile_expr aux_env e)) pa.pa_init })
      p.params
  in
  {
    prog = p;
    cprocs;
    cmain;
    gvars;
    gsize;
    ginits;
    pdefs;
    memtab = table6 p.machine (fun lanes k -> Machine.mem_cost p.machine ~lanes k);
  }

(* module arrays, then module initializers, in declaration order *)
let prepare_globals ct (t : t) =
  let gs = t.prog.globals in
  Array.iter
    (fun (g : global) ->
      match g.g_extents, t.gvars.(g.g_slot) with
      | None, _ -> trap "module array %s.%s has non-constant extent" g.g_unit g.g_name
      | Some ext, Va (Abs a, base) -> ct.cs.(a) <- alloc_array base ext
      | Some _, _ -> ())
    gs;
  exec_cblock ct t.ginits

let run ?budget (t : t) : Interp.outcome =
  let p = t.prog in
  let nf, ni, nc = t.gsize in
  let ct =
    {
      cprocs = t.cprocs;
      links = p.links;
      aux_links = p.aux_links;
      machine = p.machine;
      timers = Timers.create ();
      accs = Array.make (Array.length p.procs) None;
      cost = { Timers.now = 0.0 };
      budget = (match budget with Some b -> b | None -> Float.infinity);
      params = Array.make (Array.length p.params) None;
      pdefs = t.pdefs;
      conv = p.conv_costs;
      memtab = t.memtab;
      breakdown = Array.make (List.length Machine.categories) 0.0;
      scratch = { fv = 0.0 };
      fs = Array.make (nf + 256) 0.0;
      is = Array.make (ni + 256) 0;
      cs = Array.make (nc + 64) no_cell;
      fb = nf;
      ib = ni;
      cb = nc;
      fsp = nf;
      isp = ni;
      csp = nc;
      flinks = p.aux_links;
      vec = 0;
      i0 = 0;
      i1 = 0;
      ix = [||];
      records = [];
      printed = [];
      depth = 0;
      charging = true;
      in_wrapper = false;
    }
  in
  let status =
    Walk.run_status (fun () ->
        prepare_globals ct t;
        if not p.has_main then trap_s "program has no main unit";
        ct.flinks <- p.main_links;
        Timers.enter_clock ct.timers (Timers.acc_of ct.timers "<main>") "<main>" ct.cost;
        (try exec_cblock ct t.cmain
         with e ->
           Timers.exit_clock ct.timers ct.cost;
           raise e);
        Timers.exit_clock ct.timers ct.cost)
  in
  {
    Interp.status;
    cost = ct.cost.Timers.now;
    timers = Timers.snapshot ct.timers;
    records = List.rev ct.records;
    printed = List.rev ct.printed;
    breakdown = List.mapi (fun i c -> (c, ct.breakdown.(i))) Machine.categories;
  }
