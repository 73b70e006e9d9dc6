(** Fortran intrinsic procedures recognized by the frontend and runtime:
    the one table of what each intrinsic function is called.

    The paper's timing methodology excludes non-targeted model procedures
    but {e includes} time spent in intrinsic or library functions
    (Sec. III-E); the cost model therefore prices intrinsics explicitly,
    and — matching hardware — prices most of them cheaper at binary32
    (e.g. [sqrt], [sin]) while leaving precision-insensitive operations
    (like MPI reductions) flat. The type checker, the evaluators, the
    sensitivity analysis and the cost model each match {!t}, grouped the
    way they dispatch, so an evaluator that misses an intrinsic does not
    compile. *)

(** The one-argument real functions. *)
type elemental =
  | Sqrt
  | Exp
  | Log
  | Log10
  | Sin
  | Cos
  | Tan
  | Atan
  | Asin
  | Acos
  | Sinh
  | Cosh
  | Tanh
  | Aint  (** truncation toward zero *)
  | Anint  (** rounding to the nearest whole number, halves away from zero *)

type extremum = Min | Max

type reduction =
  | Sum
  | Extreme of extremum  (** [maxval], [minval] *)

type conversion = Int | Nint | Floor  (** the integer conversions *)
type inquiry = Epsilon | Huge | Tiny  (** of the argument's real kind *)

type t =
  | Abs  (** of a real or an integer *)
  | Elemental of elemental
  | Minmax of extremum  (** [min], [max]: n-ary, promoting *)
  | Mod  (** binary, promoting, as are [Sign] and [Atan2] *)
  | Sign
  | Atan2
  | Real  (** [real(x)] or [real(x, kind)] *)
  | Dble
  | Int_conv of conversion
  | Dot_product  (** of two whole arrays *)
  | Reduce of reduction  (** [sum], [maxval], [minval] of a whole array *)
  | Size  (** [size(a)] or [size(a, dim)] *)
  | Inquiry of inquiry

val all : t list
(** Every intrinsic function, each once. *)

val name : t -> string
(** The lowercase Fortran name. *)

val is_intrinsic_subroutine : string -> bool
(** Currently the MPI stand-ins: [mpi_allreduce] (scalar, op in {'sum',
    'max', 'min'}) and [mpi_barrier]. *)
