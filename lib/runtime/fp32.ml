let[@inline] round x = Int32.float_of_bits (Int32.bits_of_float x)
let max_finite = round 3.4028234663852886e38
let min_positive_normal = round 1.1754943508222875e-38
let[@inline] of_kind (k : Fortran.Ast.real_kind) x = match k with Fortran.Ast.K4 -> round x | Fortran.Ast.K8 -> x
