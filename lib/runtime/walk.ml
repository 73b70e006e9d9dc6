(* The interpreter's traversal, written once over a value domain.

   [Make (D)] executes a typechecked program: frames laid out in slots
   per procedure, names resolved once per (procedure, name), parameter
   folding, module globals and their initializers, argument association,
   locals, the statements and the control-flow signals.  Every value it
   computes comes from the domain: {!Interp} instantiates it with plain
   values and the cost model, [Sensitivity.Absint] with values that carry
   per-atom error vectors.  The concrete value rules — coercions,
   rounding and its trap texts, integer arithmetic, comparisons, the
   intrinsic table — and the signals with their mapping to a run's status
   are the plain functions before the functor.  Both domains apply them,
   and so does {!Compile}, whose generic lane calls them.

   A domain computes its own operators and intrinsics from operand
   values the traversal hands it, so it decides where its charges and
   ticks fall relative to the traps the concrete rules raise. *)

open Fortran

type status = Finished | Stopped of string | Runtime_error of string | Timed_out

exception Return_signal
exception Exit_signal
exception Cycle_signal
exception Stop_signal of string
exception Trap of string
exception Timeout_signal  (* the interpreter's cost budget is spent *)

let trap fmt = Format.kasprintf (fun m -> raise (Trap m)) fmt

(* the status of a run: [f] returned, or raised a signal, a trap or a
   subscript out of range *)
let run_status f =
  match f () with
  | () -> Finished
  | exception Stop_signal m -> Stopped m
  | exception Trap m -> Runtime_error m
  | exception Value.Bounds m -> Runtime_error m
  | exception Timeout_signal -> Timed_out
  | exception Return_signal -> Finished
  | exception Exit_signal -> Runtime_error "exit outside a loop"
  | exception Cycle_signal -> Runtime_error "cycle outside a loop"

(* ------------------------------------------------------------------ *)
(* Concrete value rules                                                *)

let[@inline never] arith_trap k x =
  if Float.is_nan x then trap "NaN produced in real(kind=%d) arithmetic" (Token.int_of_kind k)
  else trap "overflow in real(kind=%d) arithmetic" (Token.int_of_kind k)

let[@inline] round_real k x =
  let x = Fp32.of_kind k x in
  if Float.is_finite x then x else arith_trap k x

let mk_real k x = Value.Vreal (round_real k x, k)

let[@inline never] nonfinite_scalar k =
  trap "non-finite value stored to real(kind=%d) scalar" (Token.int_of_kind k)

let[@inline never] nonfinite_element name k =
  trap "non-finite value stored to %s (real(kind=%d))" name (Token.int_of_kind k)

let as_float = function
  | Value.Vreal (x, _) -> x
  | Value.Vint i -> float_of_int i
  | Value.Vlog _ | Value.Vstr _ -> trap "numeric value expected"

let as_int = function
  | Value.Vint i -> i
  | Value.Vreal (x, _) -> int_of_float x  (* truncation, as Fortran int assignment *)
  | Value.Vlog _ | Value.Vstr _ -> trap "integer value expected"

let as_bool = function
  | Value.Vlog b -> b
  | Value.Vint _ | Value.Vreal _ | Value.Vstr _ -> trap "logical value expected"

let value_kind = function
  | Value.Vreal (_, k) -> Some k
  | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> None

(* result kind of promoting two operands *)
let promote_kind a b =
  match (a, b) with
  | Some Ast.K8, _ | _, Some Ast.K8 -> Some Ast.K8
  | Some Ast.K4, _ | _, Some Ast.K4 -> Some Ast.K4
  | None, None -> None

let promoted a b =
  match promote_kind (value_kind a) (value_kind b) with
  | Some k -> k
  | None -> trap "numeric operands expected"

let int_arith op x y =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | Ast.Div -> if y = 0 then trap "integer division by zero" else x / y
  | Ast.Pow ->
    if y < 0 then trap "negative integer exponent"
    else begin
      let rec pow acc n = if n = 0 then acc else pow (acc * x) (n - 1) in
      pow 1 y
    end
  | _ -> assert false

(* the unrounded result of a real [+ - * /] *)
let real_arith op x y =
  match op with
  | Ast.Add -> x +. y
  | Ast.Sub -> x -. y
  | Ast.Mul -> x *. y
  | Ast.Div -> x /. y
  | _ -> assert false

let compare op a b =
  match (a, b) with
  | Value.Vlog x, Value.Vlog y -> (
    match op with Ast.Eq -> x = y | Ast.Ne -> x <> y | _ -> trap "ordering of logicals")
  | _ -> (
    let x = as_float a in
    let y = as_float b in
    match op with
    | Ast.Eq -> x = y
    | Ast.Ne -> x <> y
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
    | _ -> assert false)

(* the function of a one-argument real intrinsic *)
let elemental = function
  | "sqrt" -> sqrt
  | "exp" -> exp
  | "log" -> log
  | "log10" -> log10
  | "sin" -> sin
  | "cos" -> cos
  | "tan" -> tan
  | "atan" -> atan
  | "asin" -> asin
  | "acos" -> acos
  | "sinh" -> sinh
  | "cosh" -> cosh
  | "tanh" -> tanh
  | "aint" -> Float.trunc
  | "anint" -> Float.round
  | _ -> assert false

(* x ** n for an integer exponent |n| <= 4, strength-reduced to
   repeated multiplication *)
let small_pow x n =
  let rec pow acc i = if i = 0 then acc else pow (acc *. x) (i - 1) in
  let v = pow 1.0 (abs n) in
  if n < 0 then 1.0 /. v else v

(* the binary operation of min()/max() and minval()/maxval() *)
let float_extremum = function
  | "min" | "minval" -> Float.min
  | "max" | "maxval" -> Float.max
  | _ -> assert false

let extremum name = function
  | x :: xs -> List.fold_left (float_extremum name) x xs
  | [] -> assert false

let int_extremum name = function
  | x :: xs -> List.fold_left (if name = "min" then min else max) x xs
  | [] -> assert false

(* dot_product accumulates at the wider kind, rounding each product and
   each partial sum *)
let dot_kind ka kb = if ka = Ast.K8 || kb = Ast.K8 then Ast.K8 else Ast.K4
let[@inline] dot_step kind s a b = Fp32.of_kind kind (s +. Fp32.of_kind kind (a *. b))

let int_mod x y = if y = 0 then trap "mod with zero divisor" else x - (x / y * y)

(* sign(x, y) on reals: |x| carrying the sign of y *)
let real_sign x y =
  let m = Float.abs x in
  if y >= 0.0 then m else -.m

let int_sign x y =
  let m = abs x in
  if y >= 0 then m else -m

let inquiry name (k : Ast.real_kind) =
  match (name, k) with
  | "epsilon", Ast.K8 -> epsilon_float
  | "epsilon", Ast.K4 -> 1.1920928955078125e-07
  | "huge", Ast.K8 -> max_float
  | "huge", Ast.K4 -> Fp32.max_finite
  | "tiny", Ast.K8 -> min_float
  | "tiny", Ast.K4 -> Fp32.min_positive_normal
  | _ -> assert false

(* the integer conversions of int(), nint() and floor() *)
let truncate x = int_of_float x
let nearest x = int_of_float (Float.round x)
let floor_ x = int_of_float (Float.floor x)

let int_reduce name data =
  match name with
  | "sum" -> Array.fold_left ( + ) 0 data
  | "maxval" -> Array.fold_left max min_int data
  | "minval" -> Array.fold_left min max_int data
  | _ -> assert false

let empty_reduction name = trap "%s of empty array" name

(* ------------------------------------------------------------------ *)
(* The domain                                                          *)

(* Points of the traversal where the interpreter charges cost or checks
   its budget: before an array index or an int()/nint()/floor() argument
   is evaluated and at an integer array element ([Int_op]), after a
   select's selector, at the MPI builtins, after a call passed the depth
   limit ([Call]), and at each iteration of a do or do-while loop. *)
type event = Int_op | Select | Allreduce | Barrier | Call | Iteration | While_iteration

(* A domain's step counter.  The traversal advances it inline — once per
   expression, per statement and per loop iteration — and calls the
   domain's [past_limit] when the count passes [limit]. *)
type steps = { mutable count : int; limit : int }

(* A real array carries the domain's [shadow] beside its data (the error
   vectors of the abstract domain). *)
type 's real_array = { kind : Ast.real_kind; data : float array; shadow : 's; dims : int array }

type ('v, 's) cell =
  | Scalar of 'v ref
  | Real_array of 's real_array
  | Int_array of { data : int array; dims : int array }
  | Log_array of { data : bool array; dims : int array }

module type DOMAIN = sig
  type t  (* the state of one run *)
  type v  (* a value: concrete, or concrete plus what the domain tracks *)
  type shadow
  type binding  (* what the domain resolves once per (procedure, name) *)
  type proc  (* what the domain keeps per called procedure *)
  type saved  (* domain state saved across a call or a loop *)

  val print_lines : bool  (* keep the text of every printed line *)
  val of_concrete : Value.v -> v  (* a literal, or a value no operation produced *)
  val concrete : v -> Value.v
  val binding : t -> Symtab.var_info option -> binding
  val shadow : int -> shadow
  val proc : t -> string -> Ast.proc -> proc
  val steps : t -> steps
  val past_limit : t -> unit
  val event : t -> event -> unit
  val folding : t -> (unit -> 'a) -> 'a  (* evaluate a parameter initializer *)
  val enter : t -> proc -> saved  (* the arguments are bound *)
  val leave : t -> proc -> saved -> unit  (* also when the body raised *)
  val enter_loop : t -> int -> saved  (* a do loop with this id starts iterating *)
  val leave_loop : t -> saved -> unit
  val enter_main : t -> unit
  val leave_main : t -> unit

  (* Values.  [literal] says a real literal is an operand (the rhs of a
     store, either side of a binop): its kind conversion folds. *)
  val to_int : t -> v -> int  (* an index, a bound, an integer store *)
  val int_conv : t -> (float -> int) -> v -> int  (* int(), nint(), floor() *)
  val read : t -> binding -> v -> v  (* a scalar read through a binding *)
  val param : t -> Symtab.var_info -> Ast.real_kind -> v -> v  (* a folded real parameter *)
  val store : t -> binding -> literal:bool -> Ast.real_kind -> v -> v  (* into a real scalar *)
  val load_elem : t -> binding -> string -> shadow real_array -> int list -> v

  val store_elem :
    t -> binding -> string -> literal:bool -> shadow real_array -> int list -> v -> unit

  (* Argument association of a real dummy of the actual's kind: by
     reference ([outer] when the actual is not in the caller's frame), or
     by value — where [v] may be a real literal of the other kind *)
  val by_reference :
    t -> callee:string -> Symtab.var_info -> dummy:binding -> actual:binding -> outer:bool ->
    (v, shadow) cell -> unit

  val by_value : t -> Symtab.var_info -> dummy:binding -> Ast.real_kind -> v -> v

  (* Operators and intrinsics, from evaluated operands *)
  val neg : t -> v -> v
  val binop : t -> Ast.binop -> literal:bool -> v -> v -> v
  val abs : t -> v -> v
  val elemental : t -> string -> v -> v  (* the one-argument real functions *)
  val minmax : t -> string -> v list -> v
  val modulo : t -> v -> v -> v
  val atan2 : t -> v -> v -> v
  val sign : t -> v -> v -> v
  val real : t -> Ast.real_kind -> v -> v
  val dble : t -> v -> v
  val dot_product : t -> binding -> shadow real_array -> binding -> shadow real_array -> v
  val reduce : t -> string -> binding -> shadow real_array -> v  (* sum, maxval, minval *)
  val reduce_int : t -> string -> int array -> v
  val inquiry : t -> string -> v -> v  (* epsilon, huge, tiny *)
end

(* ------------------------------------------------------------------ *)
(* The traversal                                                       *)

(* name-keyed tables on the per-use lookup path *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Make (D : DOMAIN) : sig
  type result = {
    status : status;
    records : (string * D.v) list;
        (* every real or integer value printed after a string key, in
           execution order *)
    printed : string list;  (* every printed line, when [D.print_lines] *)
  }

  val run : Symtab.t -> D.t -> result
end = struct
  type nonrec cell = (D.v, D.shadow) cell

  (* the content of a frame slot whose variable is not bound (yet) *)
  let unbound : cell = Log_array { data = [||]; dims = [||] }

  (* What [name] denotes as seen from one procedure (or from the main
     program), resolved on first use: every field is a pure function of
     (procedure, name).  A procedure's frames all hold the same dummies
     and locals, and a parameter initializer's frame (no slots) resolves
     a procedure-scope name to the same declaration through the symtab. *)
  type name_info = {
    decl : Symtab.var_info option;  (* Symtab.lookup_var from the procedure *)
    b : D.binding;
    slot : int;  (* index into the frame's cells, -1 when not a frame variable *)
    intrinsic : bool;  (* undeclared, and an intrinsic function name *)
    mutable outer : [ `Cell of cell | `Param of D.v ] option;
        (* the resolution outside the frame, memoized once it succeeded
           (a trap is raised again on every use) *)
  }

  type env = {
    proc : string option;
    slots : (string, int) Hashtbl.t;  (* frame layout: dummies, then locals *)
    names : name_info Names.t;
  }

  type frame = { env : env; cells : cell array }

  (* a procedure as the call path needs it, built on its first call *)
  type callee = {
    c_proc : Ast.proc;
    c_env : env;
    c_vars : (Symtab.var_info * int) list;  (* declarations of the scope, with slots *)
    c_nslots : int;
    c_dom : D.proc;
  }

  type ctx = {
    st : Symtab.t;
    dom : D.t;
    steps : steps;
    globals : (string, cell) Hashtbl.t;  (* "unit.var" *)
    params : (string, D.v) Hashtbl.t;
    callees : callee Names.t;
    scope_envs : (string option, env) Hashtbl.t;  (* slotless: main, globals, parameters *)
    mutable records : (string * D.v) list;  (* reversed *)
    mutable printed : string list;  (* reversed *)
    mutable depth : int;
  }

  type result = { status : status; records : (string * D.v) list; printed : string list }

  let lookup ctx env name =
    match Names.find env.names name with
    | ni -> ni
    | exception Not_found ->
      let callee = Symtab.classify_ref ctx.st ~in_proc:env.proc name in
      let decl = match callee with Symtab.Variable v -> Some v | _ -> None in
      let ni =
        {
          decl;
          b = D.binding ctx.dom decl;
          slot = Option.value ~default:(-1) (Hashtbl.find_opt env.slots name);
          intrinsic = (match callee with Symtab.Intrinsic -> true | _ -> false);
          outer = None;
        }
      in
      Names.replace env.names name ni;
      ni

  let frame_cell frame ni = if ni.slot < 0 then unbound else frame.cells.(ni.slot)

  let scope_env ctx proc =
    match Hashtbl.find_opt ctx.scope_envs proc with
    | Some env -> env
    | None ->
      let env = { proc; slots = Hashtbl.create 1; names = Names.create 16 } in
      Hashtbl.replace ctx.scope_envs proc env;
      env

  let scope_frame ctx proc = { env = scope_env ctx proc; cells = [||] }
  let global_key unit_name var = unit_name ^ "." ^ var

  let alloc_cell (base : Ast.base_type) (extents : int list) : cell =
    match (extents, base) with
    | [], Ast.Treal k -> Scalar (ref (D.of_concrete (Value.Vreal (0.0, k))))
    | [], Ast.Tinteger -> Scalar (ref (D.of_concrete (Value.Vint 0)))
    | [], Ast.Tlogical -> Scalar (ref (D.of_concrete (Value.Vlog false)))
    | _ -> (
      let dims = Array.of_list extents in
      let n = Value.elements dims in
      if n < 0 || n > 50_000_000 then trap "array allocation of %d elements refused" n;
      match base with
      | Ast.Treal kind -> Real_array { kind; data = Array.make n 0.0; shadow = D.shadow n; dims }
      | Ast.Tinteger -> Int_array { data = Array.make n 0; dims }
      | Ast.Tlogical -> Log_array { data = Array.make n false; dims })

  let find_callee ctx name =
    match Names.find ctx.callees name with
    | c -> c
    | exception Not_found ->
      let p =
        match Symtab.find_proc ctx.st name with
        | Some p -> p
        | None -> trap "unknown procedure %s" name
      in
      (* the frame holds exactly the dummies and the non-parameter locals *)
      let slots = Hashtbl.create 16 in
      let add_slot v =
        if not (Hashtbl.mem slots v) then Hashtbl.replace slots v (Hashtbl.length slots)
      in
      List.iter add_slot p.Ast.params;
      let vars = Symtab.vars_of_scope ctx.st (Symtab.Proc_scope name) in
      List.iter
        (fun (info : Symtab.var_info) -> if not info.v_parameter then add_slot info.v_name)
        vars;
      let c =
        {
          c_proc = p;
          c_env = { proc = Some name; slots; names = Names.create 16 };
          c_vars =
            List.map
              (fun (info : Symtab.var_info) ->
                (info, Option.value ~default:(-1) (Hashtbl.find_opt slots info.v_name)))
              vars;
          c_nslots = Hashtbl.length slots;
          c_dom = D.proc ctx.dom name p;
        }
      in
      Names.replace ctx.callees name c;
      c

  let[@inline] tick ctx =
    let s = ctx.steps in
    s.count <- s.count + 1;
    if s.count > s.limit then D.past_limit ctx.dom

  let to_int ctx v = D.to_int ctx.dom v
  let as_bool_v v = as_bool (D.concrete v)

  let rec param_value ctx (info : Symtab.var_info) =
    let key =
      (match info.v_scope with
      | Symtab.Proc_scope p -> "p:" ^ p
      | Symtab.Unit_scope u -> "u:" ^ u)
      ^ "." ^ info.v_name
    in
    match Hashtbl.find_opt ctx.params key with
    | Some v -> v
    | None ->
      let in_proc =
        match info.v_scope with Symtab.Proc_scope p -> Some p | Symtab.Unit_scope _ -> None
      in
      let init =
        match info.v_init with
        | Some e -> e
        | None -> trap "parameter %s has no initializer" info.v_name
      in
      (* parameters reference only literals and other parameters: evaluate
         in an empty frame, as the compiler folds them *)
      let v = D.folding ctx.dom (fun () -> eval_expr ctx (scope_frame ctx in_proc) init) in
      let v =
        match info.v_base with
        | Ast.Treal k -> D.param ctx.dom info k v
        | Ast.Tinteger -> D.of_concrete (Value.Vint (to_int ctx v))
        | Ast.Tlogical -> D.of_concrete (Value.Vlog (as_bool_v v))
      in
      Hashtbl.replace ctx.params key v;
      v

  and resolve ctx frame ni name : [ `Cell of cell | `Param of D.v ] =
    let cell = frame_cell frame ni in
    if cell != unbound then `Cell cell
    else
      match ni.outer with
      | Some r -> r
      | None ->
        let r =
          match ni.decl with
          | None -> trap "undeclared variable %s" name
          | Some info -> (
            if info.v_parameter then `Param (param_value ctx info)
            else
              match info.v_scope with
              | Symtab.Unit_scope u -> (
                match Hashtbl.find_opt ctx.globals (global_key u name) with
                | Some cell -> `Cell cell
                | None -> trap "global %s.%s not allocated" u name)
              | Symtab.Proc_scope p ->
                trap "variable %s local to %s referenced out of scope" name p)
        in
        ni.outer <- Some r;
        r

  and scalar_ref ctx frame ni name =
    match resolve ctx frame ni name with
    | `Cell (Scalar r) -> r
    | `Cell (Real_array _ | Int_array _ | Log_array _) -> trap "array %s used as a scalar" name
    | `Param _ -> trap "parameter %s cannot be assigned" name

  and eval_expr ctx frame (e : Ast.expr) : D.v =
    tick ctx;
    match e with
    | Ast.Int_lit i -> D.of_concrete (Value.Vint i)
    | Ast.Real_lit { value; kind; _ } -> D.of_concrete (Value.Vreal (Fp32.of_kind kind value, kind))
    | Ast.Logical_lit b -> D.of_concrete (Value.Vlog b)
    | Ast.Str_lit s -> D.of_concrete (Value.Vstr s)
    | Ast.Var name -> (
      let ni = lookup ctx frame.env name in
      (* a scalar of the frame first: [resolve] allocates its answer *)
      match frame_cell frame ni with
      | Scalar r -> D.read ctx.dom ni.b !r
      | Real_array _ | Int_array _ | Log_array _ -> (
        match resolve ctx frame ni name with
        | `Param v -> v
        | `Cell (Scalar r) -> D.read ctx.dom ni.b !r
        | `Cell (Real_array _ | Int_array _ | Log_array _) ->
          trap "whole array %s used as a value" name))
    | Ast.Unop (Ast.Neg, e1) -> D.neg ctx.dom (eval_expr ctx frame e1)
    | Ast.Unop (Ast.Not, e1) -> D.of_concrete (Value.Vlog (not (as_bool_v (eval_expr ctx frame e1))))
    | Ast.Binop (op, a, b) -> eval_binop ctx frame op a b
    | Ast.Index (name, args) -> (
      (* array element, intrinsic, or user function *)
      let ni = lookup ctx frame.env name in
      let cell = frame_cell frame ni in
      if cell != unbound then array_load ctx frame ni name cell args
      else
        match ni.decl with
        | Some { v_dims = _ :: _; _ } -> (
          match resolve ctx frame ni name with
          | `Cell cell -> array_load ctx frame ni name cell args
          | `Param _ -> trap "array parameter %s unsupported" name)
        | Some _ -> trap "scalar %s subscripted" name
        | None -> (
          if ni.intrinsic then eval_intrinsic ctx frame name args
          else
            match call_user ctx frame name args with
            | Some v -> v
            | None -> trap "subroutine %s called as a function" name))

  and eval_binop ctx frame op a b =
    match op with
    | Ast.And ->
      (* short-circuit; Fortran does not specify, but it is safe here *)
      if as_bool_v (eval_expr ctx frame a) then
        D.of_concrete (Value.Vlog (as_bool_v (eval_expr ctx frame b)))
      else D.of_concrete (Value.Vlog false)
    | Ast.Or ->
      if as_bool_v (eval_expr ctx frame a) then D.of_concrete (Value.Vlog true)
      else D.of_concrete (Value.Vlog (as_bool_v (eval_expr ctx frame b)))
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le
    | Ast.Gt | Ast.Ge ->
      let va = eval_expr ctx frame a in
      let vb = eval_expr ctx frame b in
      D.binop ctx.dom op ~literal:(Ast.is_real_literal a || Ast.is_real_literal b) va vb

  and eval_indices ctx frame = function
    | [] -> []
    | a :: rest ->
      D.event ctx.dom Int_op;
      let i = to_int ctx (eval_expr ctx frame a) in
      i :: eval_indices ctx frame rest

  and array_load ctx frame ni name (cell : cell) args =
    let indices = eval_indices ctx frame args in
    match cell with
    | Real_array a -> D.load_elem ctx.dom ni.b name a indices
    | Int_array { data; dims } ->
      D.event ctx.dom Int_op;
      D.of_concrete (Value.Vint data.(Value.offset ~name ~dims indices))
    | Log_array { data; dims } -> D.of_concrete (Value.Vlog data.(Value.offset ~name ~dims indices))
    | Scalar _ -> trap "scalar %s subscripted" name

  and array_store ctx frame ni name (cell : cell) args ~literal v =
    let indices = eval_indices ctx frame args in
    match cell with
    | Real_array a -> D.store_elem ctx.dom ni.b name ~literal a indices v
    | Int_array { data; dims } ->
      D.event ctx.dom Int_op;
      let i = to_int ctx v in
      data.(Value.offset ~name ~dims indices) <- i
    | Log_array { data; dims } ->
      let b = as_bool_v v in
      data.(Value.offset ~name ~dims indices) <- b
    | Scalar _ -> trap "scalar %s subscripted" name

  and scalar_store ctx ni r ~literal v =
    match D.concrete !r with
    | Value.Vreal (_, k) -> r := D.store ctx.dom ni.b ~literal k v
    | Value.Vint _ -> r := D.of_concrete (Value.Vint (to_int ctx v))
    | Value.Vlog _ -> r := D.of_concrete (Value.Vlog (as_bool_v v))
    | Value.Vstr _ -> r := v

  (* ---------------------------------------------------------------- *)
  (* Intrinsics                                                        *)

  and eval_intrinsic ctx frame name args =
    let unary () =
      match args with
      | [ a ] -> eval_expr ctx frame a
      | _ -> trap "intrinsic %s expects one argument" name
    in
    let binary f =
      match args with
      | [ a; b ] ->
        let va = eval_expr ctx frame a in
        let vb = eval_expr ctx frame b in
        f ctx.dom va vb
      | _ -> trap "%s expects two arguments" name
    in
    match name with
    | "abs" -> D.abs ctx.dom (unary ())
    | "sqrt" | "exp" | "log" | "log10" | "sin" | "cos" | "tan" | "atan" | "asin" | "acos"
    | "sinh" | "cosh" | "tanh" | "aint" | "anint" ->
      D.elemental ctx.dom name (unary ())
    | "min" | "max" ->
      let vs = List.map (eval_expr ctx frame) args in
      if List.length vs < 2 then trap "%s needs at least two arguments" name;
      D.minmax ctx.dom name vs
    | "mod" -> binary D.modulo
    | "atan2" -> binary D.atan2
    | "sign" -> binary D.sign
    | "real" -> (
      match args with
      | [ a ] -> D.real ctx.dom Ast.K4 (eval_expr ctx frame a)
      | [ a; Ast.Int_lit k ] -> (
        let v = eval_expr ctx frame a in
        match Token.kind_of_int k with
        | Some kk -> D.real ctx.dom kk v
        | None -> trap "real(): unsupported kind %d" k)
      | _ -> trap "real() expects (x) or (x, kind)")
    | "dble" -> D.dble ctx.dom (unary ())
    | "int" | "nint" | "floor" ->
      let conv = match name with "int" -> truncate | "nint" -> nearest | _ -> floor_ in
      D.event ctx.dom Int_op;
      D.of_concrete (Value.Vint (D.int_conv ctx.dom conv (unary ())))
    | "dot_product" -> (
      match args with
      | [ Ast.Var a; Ast.Var b ] -> (
        let nia = lookup ctx frame.env a and nib = lookup ctx frame.env b in
        match (resolve ctx frame nia a, resolve ctx frame nib b) with
        | `Cell (Real_array a), `Cell (Real_array b) -> D.dot_product ctx.dom nia.b a nib.b b
        | _ -> trap "dot_product expects two real arrays")
      | _ -> trap "dot_product expects two whole-array arguments")
    | "sum" | "maxval" | "minval" -> (
      match args with
      | [ Ast.Var arr ] -> (
        let ni = lookup ctx frame.env arr in
        match resolve ctx frame ni arr with
        | `Cell (Real_array a) -> D.reduce ctx.dom name ni.b a
        | `Cell (Int_array { data; _ }) -> D.reduce_int ctx.dom name data
        | `Cell (Scalar _ | Log_array _) | `Param _ -> trap "%s of non-array" name)
      | _ -> trap "%s expects a whole-array argument" name)
    | "size" -> (
      let dims_of arr =
        match resolve ctx frame (lookup ctx frame.env arr) arr with
        | `Cell (Real_array { dims; _ } | Int_array { dims; _ } | Log_array { dims; _ }) -> dims
        | `Cell (Scalar _) | `Param _ -> trap "size of non-array"
      in
      match args with
      | [ Ast.Var arr ] -> D.of_concrete (Value.Vint (Value.elements (dims_of arr)))
      | [ Ast.Var arr; d ] ->
        let dim = to_int ctx (eval_expr ctx frame d) in
        let dims = dims_of arr in
        if dim >= 1 && dim <= Array.length dims then D.of_concrete (Value.Vint dims.(dim - 1))
        else trap "size: dimension %d out of range" dim
      | _ -> trap "size expects an array argument")
    | "epsilon" | "huge" | "tiny" -> D.inquiry ctx.dom name (unary ())
    | _ -> trap "unknown intrinsic %s" name

  (* ---------------------------------------------------------------- *)
  (* Procedure calls                                                   *)

  and call_user ctx frame name arg_exprs : D.v option =
    let callee = find_callee ctx name in
    let p = callee.c_proc in
    ctx.depth <- ctx.depth + 1;
    if ctx.depth > 200 then trap "call depth limit exceeded at %s" name;
    D.event ctx.dom Call;
    if List.length arg_exprs <> List.length p.Ast.params then
      trap "procedure %s expects %d arguments, got %d" name (List.length p.Ast.params)
        (List.length arg_exprs);
    let callee_frame = { env = callee.c_env; cells = Array.make callee.c_nslots unbound } in
    let copy_out = ref [] in
    List.iter2
      (fun dummy actual ->
        (* Symtab.build guarantees every dummy is declared in the procedure
           scope, so its name_info is the dummy's own *)
        let dni = lookup ctx callee.c_env dummy in
        let dinfo =
          match dni.decl with
          | Some i -> i
          | None -> trap "dummy %s of %s undeclared" dummy name
        in
        let bind cell = callee_frame.cells.(dni.slot) <- cell in
        let by_reference ani cell =
          D.by_reference ctx.dom ~callee:name dinfo ~dummy:dni.b ~actual:ani.b
            ~outer:(frame_cell frame ani == unbound) cell;
          bind cell
        in
        if dinfo.v_dims <> [] then begin
          (* whole-array association: share the cell *)
          match actual with
          | Ast.Var a -> (
            let ani = lookup ctx frame.env a in
            match (resolve ctx frame ani a, dinfo.v_base) with
            | `Cell (Real_array { kind; _ } as cell), Ast.Treal dk ->
              if dk = kind then by_reference ani cell
              else
                trap
                  "argument %s of %s: real(kind=%d) array passed to real(kind=%d) dummy %s — \
                   wrapper required"
                  a name (Token.int_of_kind kind) (Token.int_of_kind dk) dummy
            | `Cell (Int_array _ as cell), Ast.Tinteger
            | `Cell (Log_array _ as cell), Ast.Tlogical ->
              bind cell
            | `Cell (Real_array _ | Int_array _ | Log_array _), _ ->
              trap "array type mismatch for %s of %s" dummy name
            | `Cell (Scalar _), _ -> trap "scalar %s passed to array dummy %s of %s" a dummy name
            | `Param _, _ -> trap "parameter %s passed to array dummy" a)
          | _ -> trap "array dummy %s of %s requires a whole-array actual argument" dummy name
        end
        else begin
          match actual with
          | Ast.Var a -> (
            let ani = lookup ctx frame.env a in
            match resolve ctx frame ani a with
            | `Cell (Scalar r as cell) -> (
              match (D.concrete !r, dinfo.v_base) with
              | Value.Vreal (_, ak), Ast.Treal dk ->
                if ak = dk then by_reference ani cell
                else
                  trap
                    "argument %s of %s: real(kind=%d) passed to real(kind=%d) dummy %s — \
                     wrapper required"
                    a name (Token.int_of_kind ak) (Token.int_of_kind dk) dummy
              | Value.Vint _, Ast.Tinteger | Value.Vlog _, Ast.Tlogical -> bind cell
              | _ -> trap "type mismatch binding %s to dummy %s of %s" a dummy name)
            | `Param v -> bind (bind_by_value ctx ~callee:name ~dummy ~dni ~dinfo ~actual v)
            | `Cell (Real_array _ | Int_array _ | Log_array _) ->
              trap "array %s passed to scalar dummy %s of %s" a dummy name)
          | _ -> (
            let v = eval_expr ctx frame actual in
            bind (bind_by_value ctx ~callee:name ~dummy ~dni ~dinfo ~actual v);
            (* copy-out for array-element actuals when the dummy may write *)
            match (actual, dinfo.v_intent) with
            | Ast.Index (arr_name, idx), (Some Ast.Out | Some Ast.Inout | None) -> (
              let ani = lookup ctx frame.env arr_name in
              match ani.decl with
              | Some { v_dims = _ :: _; v_parameter = false; _ } ->
                copy_out := (ani, arr_name, idx, dni) :: !copy_out
              | Some _ | None -> ())
            | _ -> ())
        end)
      p.Ast.params arg_exprs;
    (* allocate locals (non-dummy, non-parameter) *)
    List.iter
      (fun ((info : Symtab.var_info), slot) ->
        if (not info.v_parameter) && callee_frame.cells.(slot) == unbound then begin
          let extents = List.map (fun d -> to_int ctx (eval_expr ctx callee_frame d)) info.v_dims in
          callee_frame.cells.(slot) <- alloc_cell info.v_base extents
        end)
      callee.c_vars;
    (* run declaration initializers *)
    List.iter
      (fun ((info : Symtab.var_info), slot) ->
        match info.v_init with
        | Some e when not info.v_parameter -> (
          let v = eval_expr ctx callee_frame e in
          match callee_frame.cells.(slot) with
          | Scalar r ->
            scalar_store ctx (lookup ctx callee.c_env info.v_name) r
              ~literal:(Ast.is_real_literal e) v
          | Real_array _ | Int_array _ | Log_array _ ->
            trap "initializer on array %s unsupported" info.v_name)
        | Some _ | None -> ())
      callee.c_vars;
    let saved = D.enter ctx.dom callee.c_dom in
    let finish () =
      D.leave ctx.dom callee.c_dom saved;
      ctx.depth <- ctx.depth - 1
    in
    (match exec_block ctx callee_frame p.Ast.proc_body with
    | () -> ()
    | exception Return_signal -> ()
    | exception e ->
      finish ();
      raise e);
    finish ();
    (* copy-out temporaries bound to array elements *)
    List.iter
      (fun (ani, arr_name, idx, dni) ->
        match frame_cell callee_frame dni with
        | Scalar r -> (
          match resolve ctx frame ani arr_name with
          | `Cell cell ->
            array_store ctx frame ani arr_name cell idx ~literal:false (D.read ctx.dom dni.b !r)
          | `Param _ -> ())
        | Real_array _ | Int_array _ | Log_array _ -> ())
      !copy_out;
    match p.Ast.proc_kind with
    | Ast.Subroutine -> None
    | Ast.Function { result } -> (
      let rni = lookup ctx callee.c_env result in
      match frame_cell callee_frame rni with
      | Scalar r -> Some (D.read ctx.dom rni.b !r)
      | cell when cell == unbound -> trap "function %s has no result cell" name
      | Real_array _ | Int_array _ | Log_array _ -> trap "array-valued function %s unsupported" name)

  (* a by-value actual: a parameter or an expression, bound to a fresh
     scalar of the dummy *)
  and bind_by_value ctx ~callee ~dummy ~dni ~(dinfo : Symtab.var_info) ~actual v : cell =
    match (dinfo.v_base, D.concrete v) with
    | Ast.Treal dk, Value.Vreal (_, ak) ->
      (* a real literal of the other kind folds at compile time *)
      if ak <> dk && not (Ast.is_real_literal actual) then
        trap "real(kind=%d) value passed to real(kind=%d) dummy %s of %s — wrapper required"
          (Token.int_of_kind ak) (Token.int_of_kind dk) dummy callee
      else Scalar (ref (D.by_value ctx.dom dinfo ~dummy:dni.b dk v))
    | Ast.Treal dk, Value.Vint i ->
      Scalar (ref (D.of_concrete (Value.Vreal (Fp32.of_kind dk (float_of_int i), dk))))
    | Ast.Tinteger, Value.Vint _ | Ast.Tlogical, Value.Vlog _ -> Scalar (ref v)
    | _ -> trap "type mismatch binding value to dummy %s of %s" dummy callee

  (* ---------------------------------------------------------------- *)
  (* Statements                                                        *)

  and exec_block ctx frame = function
    | [] -> ()
    | s :: rest ->
      exec_stmt ctx frame s;
      exec_block ctx frame rest

  and exec_stmt ctx frame (s : Ast.stmt) =
    tick ctx;
    match s.node with
    | Ast.Assign (lhs, rhs) -> (
      let v = eval_expr ctx frame rhs in
      match lhs with
      | Ast.Lvar name -> (
        let ni = lookup ctx frame.env name in
        match frame_cell frame ni with
        | Scalar r -> scalar_store ctx ni r ~literal:(Ast.is_real_literal rhs) v
        | Real_array _ | Int_array _ | Log_array _ -> (
          match resolve ctx frame ni name with
          | `Cell (Scalar r) -> scalar_store ctx ni r ~literal:(Ast.is_real_literal rhs) v
          | `Cell _ -> trap "assignment to whole array %s unsupported" name
          | `Param _ -> trap "assignment to parameter %s" name))
      | Ast.Lindex (name, idx) -> (
        let ni = lookup ctx frame.env name in
        match resolve ctx frame ni name with
        | `Cell cell ->
          array_store ctx frame ni name cell idx ~literal:(Ast.is_real_literal rhs) v
        | `Param _ -> trap "assignment to parameter %s" name))
    | Ast.Call (name, args) -> (
      match Symtab.classify_call ctx.st name with
      | Symtab.Builtin_subroutine -> exec_builtin_call ctx frame name args
      | Symtab.Variable _ | Symtab.Intrinsic | Symtab.Procedure _ | Symtab.Unknown ->
        ignore (call_user ctx frame name args))
    | Ast.If (arms, els) ->
      let rec go = function
        | [] -> exec_block ctx frame els
        | (cond, blk) :: rest ->
          if as_bool_v (eval_expr ctx frame cond) then exec_block ctx frame blk else go rest
      in
      go arms
    | Ast.Do { id; var; from_; to_; step; body } ->
      let r = scalar_ref ctx frame (lookup ctx frame.env var) var in
      let lo = to_int ctx (eval_expr ctx frame from_) in
      let hi = to_int ctx (eval_expr ctx frame to_) in
      let stp = match step with Some e -> to_int ctx (eval_expr ctx frame e) | None -> 1 in
      if stp = 0 then trap "do loop with zero step";
      let saved = D.enter_loop ctx.dom id in
      (try
         let i = ref lo in
         while (stp > 0 && !i <= hi) || (stp < 0 && !i >= hi) do
           r := D.of_concrete (Value.Vint !i);
           tick ctx;
           D.event ctx.dom Iteration;
           (try exec_block ctx frame body with Cycle_signal -> ());
           i := !i + stp
         done
       with
      | Exit_signal -> ()
      | e ->
        D.leave_loop ctx.dom saved;
        raise e);
      D.leave_loop ctx.dom saved
    | Ast.Do_while { cond; body; _ } -> (
      try
        while as_bool_v (eval_expr ctx frame cond) do
          tick ctx;
          D.event ctx.dom While_iteration;
          try exec_block ctx frame body with Cycle_signal -> ()
        done
      with Exit_signal -> ())
    | Ast.Select { selector; arms; default } ->
      let sel = D.concrete (eval_expr ctx frame selector) in
      D.event ctx.dom Select;
      let matches item =
        match (item, sel) with
        | Ast.Case_value v, _ -> (
          match (D.concrete (eval_expr ctx frame v), sel) with
          | Value.Vint a, Value.Vint b -> a = b
          | Value.Vlog a, Value.Vlog b -> a = b
          | _ -> trap "case value incompatible with selector")
        | Ast.Case_range (lo, hi), Value.Vint x ->
          let above =
            match lo with Some e -> x >= to_int ctx (eval_expr ctx frame e) | None -> true
          in
          let below =
            match hi with Some e -> x <= to_int ctx (eval_expr ctx frame e) | None -> true
          in
          above && below
        | Ast.Case_range _, _ -> trap "case range requires an integer selector"
      in
      let rec go = function
        | [] -> exec_block ctx frame default
        | (items, blk) :: rest ->
          if List.exists matches items then exec_block ctx frame blk else go rest
      in
      go arms
    | Ast.Exit_stmt -> raise Exit_signal
    | Ast.Cycle_stmt -> raise Cycle_signal
    | Ast.Return_stmt -> raise Return_signal
    | Ast.Stop_stmt m -> raise (Stop_signal (Option.value ~default:"" m))
    | Ast.Print_stmt args -> (
      let vs = List.map (eval_expr ctx frame) args in
      if D.print_lines then
        ctx.printed <-
          String.concat " " (List.map (fun v -> Value.to_string (D.concrete v)) vs)
          :: ctx.printed;
      match vs with
      | key :: rest -> (
        match D.concrete key with
        | Value.Vstr key ->
          List.iter
            (fun v ->
              match D.concrete v with
              | Value.Vreal _ | Value.Vint _ -> ctx.records <- (key, v) :: ctx.records
              | Value.Vlog _ | Value.Vstr _ -> ())
            rest
        | Value.Vreal _ | Value.Vint _ | Value.Vlog _ -> ())
      | [] -> ())

  and exec_builtin_call ctx frame name args =
    match (name, args) with
    | "mpi_allreduce", [ send; Ast.Var recv; Ast.Str_lit op ] ->
      let v = eval_expr ctx frame send in
      D.event ctx.dom Allreduce;
      (* single-rank semantics: the reduction of one contribution *)
      (match op with
      | "sum" | "max" | "min" -> ()
      | _ -> trap "mpi_allreduce: unknown op %s" op);
      let ni = lookup ctx frame.env recv in
      let r = scalar_ref ctx frame ni recv in
      scalar_store ctx ni r ~literal:(Ast.is_real_literal send) v
    | "mpi_allreduce", _ -> trap "mpi_allreduce expects (send, recv, 'op')"
    | "mpi_barrier", [] -> D.event ctx.dom Barrier
    | "mpi_barrier", _ -> trap "mpi_barrier takes no arguments"
    | _, _ -> trap "unknown builtin subroutine %s" name

  (* ---------------------------------------------------------------- *)
  (* Program entry                                                     *)

  let prepare_globals ctx =
    let prog = Symtab.program ctx.st in
    List.iter
      (fun u ->
        let uname = Ast.unit_name u in
        List.iter
          (fun (info : Symtab.var_info) ->
            if not info.v_parameter then begin
              let extents =
                List.map
                  (fun d ->
                    match Typecheck.static_int ctx.st ~in_proc:None d with
                    | Some n -> n
                    | None -> trap "module array %s.%s has non-constant extent" uname info.v_name)
                  info.v_dims
              in
              Hashtbl.replace ctx.globals (global_key uname info.v_name)
                (alloc_cell info.v_base extents)
            end)
          (Symtab.vars_of_scope ctx.st (Symtab.Unit_scope uname)))
      prog;
    (* run module-level initializers *)
    List.iter
      (fun u ->
        let uname = Ast.unit_name u in
        List.iter
          (fun (info : Symtab.var_info) ->
            match info.v_init with
            | Some e when not info.v_parameter -> (
              let frame = scope_frame ctx None in
              let v = eval_expr ctx frame e in
              match Hashtbl.find_opt ctx.globals (global_key uname info.v_name) with
              | Some (Scalar r) ->
                scalar_store ctx (lookup ctx frame.env info.v_name) r
                  ~literal:(Ast.is_real_literal e) v
              | Some _ | None -> trap "initializer on module array %s unsupported" info.v_name)
            | Some _ | None -> ())
          (Symtab.vars_of_scope ctx.st (Symtab.Unit_scope uname)))
      prog

  let run st dom =
    let ctx =
      {
        st;
        dom;
        steps = D.steps dom;
        globals = Hashtbl.create 64;
        params = Hashtbl.create 64;
        callees = Names.create 32;
        scope_envs = Hashtbl.create 8;
        records = [];
        printed = [];
        depth = 0;
      }
    in
    let status =
      run_status (fun () ->
          prepare_globals ctx;
          match Ast.main_of (Symtab.program st) with
          | None -> trap "program has no main unit"
          | Some m ->
            D.enter_main dom;
            (try exec_block ctx (scope_frame ctx None) m.Ast.main_body
             with e ->
               D.leave_main dom;
               raise e);
            D.leave_main dom)
    in
    { status; records = List.rev ctx.records; printed = List.rev ctx.printed }
end
