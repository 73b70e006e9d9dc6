open Fortran

type status = Walk.status =
  | Finished
  | Stopped of string
  | Runtime_error of string
  | Timed_out

type outcome = {
  status : status;
  cost : float;
  timers : Timers.entry list;
  records : (string * float) list;
  printed : string list;
  breakdown : (Machine.category * float) list;
      (* modeled cost by category; the Cat_convert entry is the run's
         casting overhead *)
}

let pp_status ppf = function
  | Finished -> Format.pp_print_string ppf "finished"
  | Stopped m -> Format.fprintf ppf "stopped: %s" m
  | Runtime_error m -> Format.fprintf ppf "runtime error: %s" m
  | Timed_out -> Format.pp_print_string ppf "timed out"

let trap = Walk.trap

(* ------------------------------------------------------------------ *)
(* The concrete domain: plain values, charged to the cost model         *)

type dom = {
  st : Symtab.t;
  machine : Machine.t;
  timers : Timers.t;
  mutable cost : float;
  budget : float option;
  vec_mode : int -> Ir.vmode;  (* of a loop, by id *)
  wrapper_owner : string -> string option;
  mutable vec : Ir.vmode;
  mutable charging : bool;  (* disabled while folding compile-time constants *)
  mutable in_wrapper : bool;  (* executing a generated wrapper's body *)
  breakdown : float array;  (* indexed in Machine.categories order *)
  steps : Walk.steps;  (* counted, never limited *)
}

let category_index =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun i c -> Hashtbl.add tbl c i) Machine.categories;
  fun c -> Hashtbl.find tbl c

let charge d cat c =
  if d.charging then begin
    d.cost <- d.cost +. c;
    let i = category_index cat in
    d.breakdown.(i) <- d.breakdown.(i) +. c;
    Timers.charge d.timers c
  end

let check_budget d =
  match d.budget with
  | Some b when d.cost > b -> raise Walk.Timeout_signal
  | Some _ | None -> ()

let lanes_of d kind =
  match d.vec with
  | Ir.Vscalar -> 1
  | Ir.Vnarrow -> d.machine.Machine.lanes_f64
  | Ir.Vfull -> Machine.lanes d.machine kind

let int_op d = charge d Machine.Cat_flops d.machine.Machine.int_op
let op d k o = charge d Machine.Cat_flops (Machine.op_cost d.machine ~lanes:(lanes_of d k) k o)

let intrinsic_op d k b =
  charge d Machine.Cat_flops (Machine.intrinsic_cost d.machine ~lanes:(lanes_of d k) k b)

let memory d k =
  charge d Machine.Cat_memory (Machine.mem_cost d.machine ~lanes:(lanes_of d k) k)

(* a kind conversion that does not fold at compile time, at the binary64
   width *)
let convert d = charge d Machine.Cat_convert (Machine.convert_cost d.machine ~lanes:(lanes_of d Ast.K8))

(* casting overhead of mixing real kinds where neither side is a literal
   (literal conversions fold at compile time) *)
let convert_unless_literal d ~literal k1 k2 = if k1 <> k2 && not literal then convert d

(* the value a store into real storage of kind [k] writes *)
let[@inline] stored d ~literal k v =
  (match Walk.value_kind v with
  | Some k2 -> convert_unless_literal d ~literal k k2
  | None -> ());
  Fp32.of_kind k (Walk.as_float v)

module Concrete = struct
  type t = dom
  type v = Value.v
  type shadow = unit
  type binding = unit
  type proc = { name : string; is_wrapper : bool; inlinable : bool }
  type saved = { s_vec : Ir.vmode; s_in_wrapper : bool }

  let print_lines = true
  let of_concrete v = v
  let concrete v = v
  let binding _ _ = ()
  let shadow _ = ()

  let proc d name p =
    {
      name;
      is_wrapper = d.wrapper_owner name <> None;
      inlinable =
        Analysis.Vectorize.inlinable d.st ~inline_stmt_limit:d.machine.Machine.inline_stmt_limit p;
    }

  let steps d = d.steps
  let past_limit _ = ()

  let event d (e : Walk.event) =
    match e with
    | Walk.Int_op -> int_op d
    | Walk.Select -> charge d Machine.Cat_flops d.machine.Machine.compare_cost
    | Walk.Allreduce -> charge d Machine.Cat_reduction d.machine.Machine.allreduce
    | Walk.Barrier -> charge d Machine.Cat_reduction (d.machine.Machine.allreduce /. 2.0)
    | Walk.Call -> check_budget d
    | Walk.Iteration ->
      (* a vectorized loop spreads its bookkeeping over the binary64 lanes *)
      charge d Machine.Cat_loop
        (d.machine.Machine.loop_overhead /. float_of_int (lanes_of d Ast.K8));
      check_budget d
    | Walk.While_iteration ->
      charge d Machine.Cat_loop d.machine.Machine.loop_overhead;
      check_budget d

  (* compile-time constants cost nothing *)
  let folding d f =
    let saved = d.charging in
    d.charging <- false;
    let v = f () in
    d.charging <- saved;
    v

  (* Call cost: inlinable calls are free; wrappers pay extra. A call from
     inside a wrapper body is never inlined: the boundary conversions are
     exactly what defeated inlining of the original call (the paper's
     MPAS-A flux observation).  Wrappers do not get a timer of their own:
     their conversion cost lands on the procedure containing the call
     site, exactly where GPTL-style instrumentation inside the work
     routines would leave it. The wrapped callee still times itself when
     invoked from the wrapper body. Call overhead is charged after timer
     entry, so a non-inlined callee's per-call time includes its call
     cost — as a GPTL timer at function entry would report. *)
  let enter d p =
    let inl = (not p.is_wrapper) && (not d.in_wrapper) && p.inlinable in
    if not p.is_wrapper then Timers.enter d.timers p.name ~now:d.cost;
    if not inl then begin
      charge d Machine.Cat_call d.machine.Machine.call_overhead;
      if p.is_wrapper then charge d Machine.Cat_call d.machine.Machine.wrapper_overhead
    end;
    let saved = { s_vec = d.vec; s_in_wrapper = d.in_wrapper } in
    if not inl then d.vec <- Ir.Vscalar;
    d.in_wrapper <- p.is_wrapper;
    saved

  let leave d p saved =
    if not p.is_wrapper then Timers.exit_ d.timers ~now:d.cost;
    d.vec <- saved.s_vec;
    d.in_wrapper <- saved.s_in_wrapper

  let enter_loop d id =
    let saved = { s_vec = d.vec; s_in_wrapper = d.in_wrapper } in
    d.vec <- d.vec_mode id;
    saved

  let leave_loop d saved = d.vec <- saved.s_vec
  let enter_main d = Timers.enter d.timers "<main>" ~now:d.cost
  let leave_main d = Timers.exit_ d.timers ~now:d.cost
  let to_int _ v = Walk.as_int v
  let int_conv _ c v = Walk.int_conversion c (Walk.as_float v)
  let read _ () v = v
  let param _ _ k v = Value.Vreal (Fp32.of_kind k (Walk.as_float v), k)

  let store d () ~literal k v =
    let x = stored d ~literal k v in
    if not (Float.is_finite x) then Walk.nonfinite_scalar k;
    Value.Vreal (x, k)

  let load_elem d () name (a : shadow Walk.real_array) indices =
    memory d a.kind;
    Value.Vreal (a.data.(Value.offset ~name ~dims:a.dims indices), a.kind)

  let store_elem d () name ~literal (a : shadow Walk.real_array) indices v =
    memory d a.kind;
    let x = stored d ~literal a.kind v in
    if not (Float.is_finite x) then Walk.nonfinite_element name a.kind;
    a.data.(Value.offset ~name ~dims:a.dims indices) <- x

  let by_reference _ ~callee:_ _ ~dummy:_ ~actual:_ ~outer:_ _ = ()

  let by_value _ _ ~dummy:_ dk v =
    match v with
    | Value.Vreal (x, ak) when ak <> dk -> Value.Vreal (Fp32.of_kind dk x, dk)
    | _ -> v

  let neg d = function
    | Value.Vint i ->
      int_op d;
      Value.Vint (-i)
    | Value.Vreal (x, k) ->
      op d k Ast.Sub;
      Walk.mk_real k (-.x)
    | Value.Vlog _ | Value.Vstr _ -> trap "negation of non-numeric value"

  let binop d o ~literal va vb =
    (match (Walk.value_kind va, Walk.value_kind vb) with
    | Some k1, Some k2 -> convert_unless_literal d ~literal k1 k2
    | _ -> ());
    match (va, vb, o) with
    | Value.Vint x, Value.Vint y, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow) ->
      int_op d;
      Value.Vint (Walk.int_arith o x y)
    | _, _, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) ->
      let k = Walk.promoted va vb in
      op d k o;
      Walk.mk_real k (Walk.real_arith o (Walk.as_float va) (Walk.as_float vb))
    | _, _, Ast.Pow -> (
      let k = Walk.promoted va vb in
      let x = Walk.as_float va in
      match vb with
      | Value.Vint n when abs n <= 4 ->
        charge d Machine.Cat_flops
          (Machine.op_cost d.machine ~lanes:(lanes_of d k) k Ast.Mul
          *. float_of_int (max 1 (abs n - 1)));
        Walk.mk_real k (Walk.small_pow x n)
      | _ ->
        op d k Ast.Pow;
        Walk.mk_real k (Float.pow x (Walk.as_float vb)))
    | _, _, (Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) ->
      charge d Machine.Cat_flops d.machine.Machine.compare_cost;
      Value.Vlog (Walk.compare o va vb)
    | _, _, (Ast.And | Ast.Or) -> assert false

  let abs d = function
    | Value.Vint i ->
      int_op d;
      Value.Vint (abs i)
    | Value.Vreal (x, k) ->
      intrinsic_op d k Builtins.Abs;
      Walk.mk_real k (Float.abs x)
    | Value.Vlog _ | Value.Vstr _ -> trap "abs of non-numeric value"

  let elemental d f = function
    | Value.Vreal (x, k) ->
      intrinsic_op d k (Builtins.Elemental f);
      Walk.mk_real k (Walk.elemental f x)
    | Value.Vint _ | Value.Vlog _ | Value.Vstr _ ->
      trap "%s of non-real value" (Builtins.name (Builtins.Elemental f))

  let minmax d m vs =
    match List.fold_left (fun acc v -> Walk.promote_kind acc (Walk.value_kind v)) None vs with
    | None ->
      int_op d;
      Value.Vint (Walk.int_extremum_of m (List.map Walk.as_int vs))
    | Some k ->
      intrinsic_op d k (Builtins.Minmax m);
      Walk.mk_real k (Walk.extremum m (List.map Walk.as_float vs))

  let modulo d va vb =
    match (va, vb) with
    | Value.Vint x, Value.Vint y ->
      int_op d;
      Value.Vint (Walk.int_mod x y)
    | _ ->
      let k =
        match Walk.promote_kind (Walk.value_kind va) (Walk.value_kind vb) with
        | Some k -> k
        | None -> trap "mod of non-numeric"
      in
      op d k Ast.Div;
      Walk.mk_real k (Float.rem (Walk.as_float va) (Walk.as_float vb))

  let atan2 d va vb =
    match Walk.promote_kind (Walk.value_kind va) (Walk.value_kind vb) with
    | Some k ->
      intrinsic_op d k Builtins.Atan2;
      Walk.mk_real k (Float.atan2 (Walk.as_float va) (Walk.as_float vb))
    | None -> trap "atan2 of non-real values"

  let sign d x y =
    match Walk.promote_kind (Walk.value_kind x) (Walk.value_kind y) with
    | Some k ->
      intrinsic_op d k Builtins.Sign;
      Walk.mk_real k (Walk.real_sign (Walk.as_float x) (Walk.as_float y))
    | None ->
      int_op d;
      let m = Walk.as_int x in
      Value.Vint (Walk.int_sign m (Walk.as_int y))

  let real d kk v =
    (match Walk.value_kind v with
    | Some k when k <> kk -> convert d
    | Some _ | None -> ());
    Value.Vreal (Fp32.of_kind kk (Walk.as_float v), kk)

  let dble d v = real d Ast.K8 v

  let dot_product d () (a : shadow Walk.real_array) () (b : shadow Walk.real_array) =
    let da = a.data and db = b.data in
    let n = min (Array.length da) (Array.length db) in
    let kind = Walk.dot_kind a.kind b.kind in
    let l = Machine.lanes d.machine kind in
    charge d Machine.Cat_flops (2.0 *. float_of_int n *. Machine.op_cost d.machine ~lanes:l kind Ast.Add);
    charge d Machine.Cat_memory (2.0 *. float_of_int n *. Machine.mem_cost d.machine ~lanes:l kind);
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := Walk.dot_step kind !s da.(i) db.(i)
    done;
    Walk.mk_real kind !s

  let reduce d r () ({ kind; data; _ } : shadow Walk.real_array) =
    let n = Array.length data in
    (* library reductions vectorize internally *)
    let l = Machine.lanes d.machine kind in
    charge d Machine.Cat_flops (float_of_int n *. Machine.op_cost d.machine ~lanes:l kind Ast.Add);
    charge d Machine.Cat_memory (float_of_int n *. Machine.mem_cost d.machine ~lanes:l kind);
    match (r : Builtins.reduction) with
    | Sum ->
      let s = ref 0.0 in
      Array.iter (fun x -> s := Fp32.of_kind kind (!s +. x)) data;
      Walk.mk_real kind !s
    | Extreme m ->
      if n = 0 then Walk.empty_reduction m
      else Walk.mk_real kind (Array.fold_left (Walk.float_extremum m) data.(0) data)

  let reduce_int d r data =
    charge d Machine.Cat_flops (float_of_int (Array.length data) *. d.machine.Machine.int_op);
    Value.Vint (Walk.int_reduce r data)

  let inquiry _ q = function
    | Value.Vreal (_, k) -> Value.Vreal (Walk.inquiry q k, k)
    | Value.Vint _ | Value.Vlog _ | Value.Vstr _ ->
      trap "%s of non-real value" (Builtins.name (Builtins.Inquiry q))
end

module W = Walk.Make (Concrete)

let run ?(machine = Machine.default) ?budget ?(wrapper_owner = fun _ -> None) st =
  let d =
    {
      st;
      machine;
      timers = Timers.create ();
      cost = 0.0;
      budget;
      vec_mode = Ir.vec_modes machine st;
      wrapper_owner;
      vec = Ir.Vscalar;
      charging = true;
      in_wrapper = false;
      breakdown = Array.make (List.length Machine.categories) 0.0;
      steps = { Walk.count = 0; limit = max_int };
    }
  in
  let r = W.run st d in
  {
    status = r.W.status;
    cost = d.cost;
    timers = Timers.snapshot d.timers;
    records = List.map (fun (k, v) -> (k, Walk.as_float v)) r.W.records;
    printed = r.W.printed;
    breakdown = List.mapi (fun i c -> (c, d.breakdown.(i))) Machine.categories;
  }

let series (outcome : outcome) key =
  List.filter_map (fun (k, v) -> if k = key then Some v else None) outcome.records

let casting_share (outcome : outcome) =
  if outcome.cost <= 0.0 then 0.0
  else
    match List.assoc_opt Machine.Cat_convert outcome.breakdown with
    | Some c -> c /. outcome.cost
    | None -> 0.0
