(** IEEE binary32 emulation.

    OCaml's [float] is binary64; a [real(kind=4)] value is represented as
    the binary64 float that is exactly representable in binary32, obtained
    by rounding through the 32-bit encoding after {e every} operation.
    This is bit-faithful to performing the operation in single precision
    for the arithmetic used here (single rounding of a correctly-rounded
    binary64 result differs from fused binary32 arithmetic only through
    double rounding, which is immaterial to the tuning methodology). *)

val round : float -> float
(** Round a binary64 value to the nearest binary32 value (ties to even),
    returned as binary64. Overflow yields the appropriately signed
    infinity, exactly as binary32 arithmetic would. *)

val max_finite : float
(** Largest finite binary32 value, [(2 - 2{^-23}) * 2{^127}]. *)

val min_positive_normal : float

val of_kind : Fortran.Ast.real_kind -> float -> float
(** [of_kind K4 x = round x]; [of_kind K8 x = x]. *)
