(** Cost-model parameters of the modeled CPU.

    The paper's dynamic evaluation ran on Derecho nodes (AMD EPYC 7763,
    AVX2); this repository substitutes an analytic cost model whose
    parameters encode the three mechanisms the paper identifies as the
    sources of reduced-precision speedup and slowdown (Sec. II-A):

    - {b vector width}: packed binary32 admits twice the lanes of binary64
      ([lanes_f32] vs [lanes_f64]), applied only inside loops the
      {!Analysis.Vectorize} analysis approves;
    - {b memory traffic}: array accesses cost per byte moved;
    - {b casting overhead}: every kind conversion not folded at compile
      time costs [convert]; a call through a generated wrapper
      additionally pays [wrapper_overhead] and defeats inlining.

    Costs are in abstract "time units" (≈ cycles); only ratios matter,
    because every reported number is a speedup against a baseline run
    under the same machine. *)

(** Cost categories for attribution breakdowns. The paper's variant
    analyses quantify where variant CPU time goes — most notably casting
    overhead ("40 % of the CPU time is spent on casting overhead",
    Sec. IV-B) — so every charge carries a category. *)
type category =
  | Cat_flops  (** arithmetic, intrinsic math *)
  | Cat_memory  (** array element traffic *)
  | Cat_convert  (** kind conversions: the casting overhead *)
  | Cat_call  (** call and wrapper overhead *)
  | Cat_reduction  (** MPI reductions *)
  | Cat_loop  (** loop bookkeeping *)

val categories : category list
val category_name : category -> string

type t = {
  flop_f64 : float;  (** add/sub/mul, binary64 *)
  flop_f32 : float;
  div_f64 : float;
  div_f32 : float;
  sqrt_f64 : float;
  sqrt_f32 : float;
  math_f64 : float;  (** sin/cos/tan/exp/log/atan/asin/acos *)
  math_f32 : float;
  pow_f64 : float;
  pow_f32 : float;
  compare_cost : float;
  int_op : float;
  convert : float;  (** one kind-conversion instruction *)
  mem_byte : float;  (** array load/store, per byte *)
  call_overhead : float;  (** non-inlined user-procedure call *)
  wrapper_overhead : float;  (** additional penalty for a generated wrapper call *)
  allreduce : float;  (** fixed cost of the MPI_ALLREDUCE stand-in *)
  loop_overhead : float;  (** per loop iteration *)
  lanes_f32 : int;
  lanes_f64 : int;
  conv_ratio_threshold : float;
      (** a vectorizable loop whose static conversion-site/FP-op ratio
          exceeds this is compiled scalar (packed converts crowd out the
          pipeline) *)
  inline_stmt_limit : int;  (** max callee statements for inlining *)
}

val default : t
(** Derecho-flavored defaults (AVX2: 8 × f32 / 4 × f64 lanes). *)

val scalar : t
(** A machine with no SIMD ([lanes_f32 = lanes_f64 = 1]); used by ablation
    benchmarks to show criterion (1)'s contribution. *)

val op_cost : t -> lanes:int -> Fortran.Ast.real_kind -> Fortran.Ast.binop -> float
(** Cost of one executed arithmetic/comparison operation at the given
    result kind, spread over [lanes] SIMD lanes ([lanes = 1] = scalar).
    A kind-uniform vectorized loop passes [lanes t kind]; a mixed-kind
    vectorized loop runs every operation at the {e narrow} (binary64)
    width, as real compilers emit. *)

val intrinsic_cost : t -> lanes:int -> Fortran.Ast.real_kind -> Fortran.Builtins.t -> float
(** Cost of one evaluation of an intrinsic the cost model prices per
    call ([abs], the elemental functions, [min], [max], [sign],
    [atan2]). *)

val convert_cost : t -> lanes:int -> float
(** Packed conversions never exceed the binary64 width. *)

val mem_cost : t -> lanes:int -> Fortran.Ast.real_kind -> float
val lanes : t -> Fortran.Ast.real_kind -> int
