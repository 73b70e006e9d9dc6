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
  | Aint
  | Anint

type extremum = Min | Max
type reduction = Sum | Extreme of extremum
type conversion = Int | Nint | Floor
type inquiry = Epsilon | Huge | Tiny

type t =
  | Abs
  | Elemental of elemental
  | Minmax of extremum
  | Mod
  | Sign
  | Atan2
  | Real
  | Dble
  | Int_conv of conversion
  | Dot_product
  | Reduce of reduction
  | Size
  | Inquiry of inquiry

let table =
  [
    ("abs", Abs);
    ("sqrt", Elemental Sqrt);
    ("exp", Elemental Exp);
    ("log", Elemental Log);
    ("sin", Elemental Sin);
    ("cos", Elemental Cos);
    ("tan", Elemental Tan);
    ("atan", Elemental Atan);
    ("asin", Elemental Asin);
    ("acos", Elemental Acos);
    ("sinh", Elemental Sinh);
    ("cosh", Elemental Cosh);
    ("tanh", Elemental Tanh);
    ("log10", Elemental Log10);
    ("aint", Elemental Aint);
    ("anint", Elemental Anint);
    ("min", Minmax Min);
    ("max", Minmax Max);
    ("mod", Mod);
    ("sign", Sign);
    ("atan2", Atan2);
    ("real", Real);
    ("dble", Dble);
    ("int", Int_conv Int);
    ("nint", Int_conv Nint);
    ("floor", Int_conv Floor);
    ("sum", Reduce Sum);
    ("maxval", Reduce (Extreme Max));
    ("minval", Reduce (Extreme Min));
    ("dot_product", Dot_product);
    ("size", Size);
    ("epsilon", Inquiry Epsilon);
    ("huge", Inquiry Huge);
    ("tiny", Inquiry Tiny);
  ]

let all = List.map snd table
let name b = fst (List.find (fun (_, b') -> b' = b) table)
let is_intrinsic_subroutine name = name = "mpi_allreduce" || name = "mpi_barrier"
