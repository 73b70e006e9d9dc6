(* The slot-resolved IR that [Lower] produces and [Compile] executes.

   Names are already resolved: locals and dummies are integer slots of
   their procedure's frame, module variables and parameters index
   program-wide stores, and callees index a per-body link table. Loop
   vectorization modes and per-site cost tables (indexed
   [mode_idx * 2 + kind_idx]) are baked into the nodes. The types live
   in their own module so that [Compile] can execute them and
   [Lower.run] can still be compile-then-run without a module cycle. *)

open Fortran

type vmode = Vscalar | Vnarrow | Vfull

let mode_idx = function Vscalar -> 0 | Vnarrow -> 1 | Vfull -> 2
let kind_idx = function Ast.K4 -> 0 | Ast.K8 -> 1

(* The vectorization mode of a loop, by id, from {!Analysis.Vectorize}'s
   reports (scalar for a loop without one).  A vectorizable loop
   runs at each operation's natural width when it converts nothing, at
   the binary64 width while its static conversion-site ratio stays at or
   below the machine threshold, and scalar above it. *)
let vec_modes (machine : Machine.t) st : int -> vmode =
  let module V = Analysis.Vectorize in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (r : V.report) ->
      let ratio =
        (* a loop that only converts (e.g. a wrapper copy loop) has nothing
           to amortize the packed converts against: treat as all-conversion *)
        if r.V.fp_ops = 0 then if r.V.conv_sites > 0 then infinity else 0.0
        else float_of_int r.V.conv_sites /. float_of_int r.V.fp_ops
      in
      let mode =
        if not (V.vectorizable r) then Vscalar
        else if ratio > machine.Machine.conv_ratio_threshold then Vscalar
        else if ratio > 0.0 then Vnarrow
        else Vfull
      in
      Hashtbl.replace tbl r.V.loop_id mode)
    (V.analyze ~inline_stmt_limit:machine.Machine.inline_stmt_limit st);
  fun id -> Option.value ~default:Vscalar (Hashtbl.find_opt tbl id)

(* cost tables indexed [mode_idx * 2 + kind_idx]: the (vec mode × kind)
   grid of Interp's [lanes_of]-dependent charges, precomputed *)
let table6 (machine : Machine.t) f =
  let l64 = machine.Machine.lanes_f64 in
  [|
    f 1 Ast.K4; f 1 Ast.K8;
    f l64 Ast.K4; f l64 Ast.K8;
    f (Machine.lanes machine Ast.K4) Ast.K4; f (Machine.lanes machine Ast.K8) Ast.K8;
  |]

(* ------------------------------------------------------------------ *)
(* The IR                                                              *)

type ref_ =
  | Rlocal of int  (* slot in the current frame *)
  | Rglobal of int  (* slot in the per-run global store *)
  | Rparam of int  (* slot in the lazily-evaluated parameter store *)
  | Rerr of string  (* name resolution failed: trap when touched *)

type expr =
  | Elit of Value.v  (* literals, with Real_lit folded through Fp32 *)
  | Evar of { name : string; r : ref_ }
  | Eneg of { e : expr; costs : float array }  (* Sub table for the real case *)
  | Enot of expr
  | Ebin of {
      op : Ast.binop;
      a : expr;
      b : expr;
      exempt : bool;  (* either operand is a real literal: casting folds *)
      costs : float array;  (* op table ([||] for compares and logic) *)
      powmul : float array;  (* Mul table for strength-reduced powers *)
    }
  | Earr of {
      name : string;
      r : ref_;
      idx : expr array;
      mem : float array;  (* mem_cost table *)
    }
  | Ecall of call_site  (* user function in expression position *)
  | Eintr of intr
  | Etrap of string  (* statically-determined trap *)

and intr =
  | Iabs of { e : expr; costs : float array }
  | Ielem of { fn : Builtins.elemental; e : expr; costs : float array }
  | Iminmax of { m : Builtins.extremum; args : expr array; costs : float array }
  | Imod of { a : expr; b : expr; costs : float array }  (* Div table *)
  | Iatan2 of { a : expr; b : expr; costs : float array }
  | Isign of { a : expr; b : expr; costs : float array }
  | Ireal of { e : expr; kind : Ast.real_kind option }  (* None = real(x) *)
  | Ireal_bad of { e : expr; k : int }  (* real(x, k) with unsupported k *)
  | Idble of expr
  | Iicvt of { conv : Builtins.conversion; e : expr }
  | Idot of { an : string; ar : ref_; bn : string; br : ref_ }
  | Ireduce of { red : Builtins.reduction; rn : string; r : ref_ }
  | Isize of { rn : string; r : ref_; dim : expr option }
  | Iinq of { q : Builtins.inquiry; e : expr }

and call_site = {
  cs_name : string;
  cs_callee : int;  (* index into the owning body's callee-name table *)
  cs_args : arg array;
  cs_arity_trap : string option;  (* wrong arg count: trap after depth/budget *)
}

and arg =
  | Aref of { name : string; r : ref_ }  (* actual is a whole variable *)
  | Aval of { e : expr; lit : bool; co : copy_out option }

and copy_out = { co_name : string; co_r : ref_; co_idx : expr array }

type lhs =
  | Lsc of { name : string; r : ref_; rhs_lit : bool }
  | Larr of { name : string; r : ref_; idx : expr array; rhs_lit : bool }

type stmt =
  | Sassign of { tgt : lhs; rhs : expr }
  | Scall of call_site
  | Sallreduce of { send : expr; send_lit : bool; rn : string; recv : ref_; op : string }
  | Sbarrier
  | Sif of { arms : (expr * stmt array) array; els : stmt array }
  | Sdo of {
      vn : string;
      var : ref_;
      from_ : expr;
      to_ : expr;
      step : expr option;
      mode : vmode;  (* baked vectorization decision for this loop *)
      iter_overhead : float;
      body : stmt array;
    }
  | Sdo_while of { cond : expr; body : stmt array }
  | Sselect of { selector : expr; arms : (case array * stmt array) array; default : stmt array }
  | Sexit
  | Scycle
  | Sreturn
  | Sstop of string
  | Sprint of expr array
  | Strap of string

and case =
  | Cval of expr
  | Crange of expr option * expr option

type dummy = {
  d_name : string;
  d_slot : int;
  d_base : Ast.base_type;
  d_is_array : bool;
  d_writable : bool;  (* intent out/inout/none: copy-out registration *)
  d_undeclared : bool;
}

type local = { l_slot : int; l_base : Ast.base_type; l_dims : expr array }
type initr = { i_name : string; i_slot : int; i_rhs : expr; i_lit : bool }

type proc_ir = {
  p_name : string;
  p_key : string;  (* cache key when lowered through a [Cache]; "" otherwise *)
  p_result : int;  (* result slot; -1 = subroutine; -2 = function, no cell *)
  p_is_function : bool;
  p_is_wrapper : bool;
  p_inlinable : bool;
  p_nslots : int;
  p_dummies : dummy array;
  p_locals : local array;  (* allocation order = vars_of_scope order *)
  p_inits : initr array;
  p_body : stmt array;
  p_callees : string array;  (* call_site.cs_callee indexes this *)
}

(* per-variant global/parameter descriptors (cheap to rebuild, not cached) *)
type global = {
  g_slot : int;  (* canonical slot: stable across variants *)
  g_unit : string;
  g_name : string;
  g_base : Ast.base_type;
  g_extents : int array option;  (* None = non-constant extent: trap *)
  g_init : (expr * bool) option;  (* lowered initializer, rhs-literal flag *)
}

type param = { pa_name : string; pa_base : Ast.base_type; pa_init : expr option }

type program = {
  machine : Machine.t;
  has_main : bool;
  procs : proc_ir array;
  links : int array array;  (* per proc: local callee index -> proc index (-1 unknown) *)
  main_body : stmt array;
  main_key : string;  (* cache key of the main pseudo-procedure; "" uncached *)
  main_links : int array;
  aux_links : int array;  (* links for global/parameter initializer expressions *)
  globals : global array;  (* program declaration order *)
  nglobals : int;
  params : param array;
  conv_costs : float array;  (* per mode: convert_cost at Interp's conv_lanes *)
}
