type category =
  | Cat_flops
  | Cat_memory
  | Cat_convert
  | Cat_call
  | Cat_reduction
  | Cat_loop

let categories = [ Cat_flops; Cat_memory; Cat_convert; Cat_call; Cat_reduction; Cat_loop ]

let category_name = function
  | Cat_flops -> "flops"
  | Cat_memory -> "memory"
  | Cat_convert -> "convert"
  | Cat_call -> "call"
  | Cat_reduction -> "reduction"
  | Cat_loop -> "loop"

type t = {
  flop_f64 : float;
  flop_f32 : float;
  div_f64 : float;
  div_f32 : float;
  sqrt_f64 : float;
  sqrt_f32 : float;
  math_f64 : float;
  math_f32 : float;
  pow_f64 : float;
  pow_f32 : float;
  compare_cost : float;
  int_op : float;
  convert : float;
  mem_byte : float;
  call_overhead : float;
  wrapper_overhead : float;
  allreduce : float;
  loop_overhead : float;
  lanes_f32 : int;
  lanes_f64 : int;
  conv_ratio_threshold : float;
  inline_stmt_limit : int;
}

let default =
  {
    flop_f64 = 1.0;
    flop_f32 = 1.0;
    div_f64 = 4.0;
    div_f32 = 2.5;
    sqrt_f64 = 5.0;
    sqrt_f32 = 3.0;
    math_f64 = 12.0;
    math_f32 = 6.5;
    pow_f64 = 22.0;
    pow_f32 = 13.0;
    compare_cost = 0.5;
    int_op = 0.2;
    convert = 2.0;
    mem_byte = 0.35;
    call_overhead = 20.0;
    wrapper_overhead = 15.0;
    allreduce = 1200.0;
    loop_overhead = 1.0;
    lanes_f32 = 8;
    lanes_f64 = 4;
    conv_ratio_threshold = 0.8;
    inline_stmt_limit = 16;
  }

let scalar = { default with lanes_f32 = 1; lanes_f64 = 1 }

let lanes t = function Fortran.Ast.K4 -> t.lanes_f32 | Fortran.Ast.K8 -> t.lanes_f64

let scale ~lanes:n cost = if n > 1 then cost /. float_of_int n else cost

let op_cost t ~lanes (kind : Fortran.Ast.real_kind) (op : Fortran.Ast.binop) =
  let raw =
    match op, kind with
    | (Fortran.Ast.Add | Fortran.Ast.Sub | Fortran.Ast.Mul), Fortran.Ast.K8 -> t.flop_f64
    | (Fortran.Ast.Add | Fortran.Ast.Sub | Fortran.Ast.Mul), Fortran.Ast.K4 -> t.flop_f32
    | Fortran.Ast.Div, Fortran.Ast.K8 -> t.div_f64
    | Fortran.Ast.Div, Fortran.Ast.K4 -> t.div_f32
    | Fortran.Ast.Pow, Fortran.Ast.K8 -> t.pow_f64
    | Fortran.Ast.Pow, Fortran.Ast.K4 -> t.pow_f32
    | ( ( Fortran.Ast.Eq | Fortran.Ast.Ne | Fortran.Ast.Lt | Fortran.Ast.Le | Fortran.Ast.Gt
        | Fortran.Ast.Ge | Fortran.Ast.And | Fortran.Ast.Or ),
        _ ) ->
      t.compare_cost
  in
  ignore kind;
  scale ~lanes raw

let intrinsic_cost t ~lanes (kind : Fortran.Ast.real_kind) (b : Fortran.Builtins.t) =
  let raw =
    match b, kind with
    | Elemental Sqrt, Fortran.Ast.K8 -> t.sqrt_f64
    | Elemental Sqrt, Fortran.Ast.K4 -> t.sqrt_f32
    | ( ( Elemental (Sin | Cos | Tan | Exp | Log | Log10 | Atan | Asin | Acos | Sinh | Cosh | Tanh)
        | Atan2 ),
        Fortran.Ast.K8 ) ->
      t.math_f64
    | ( ( Elemental (Sin | Cos | Tan | Exp | Log | Log10 | Atan | Asin | Acos | Sinh | Cosh | Tanh)
        | Atan2 ),
        Fortran.Ast.K4 ) ->
      t.math_f32
    | (Abs | Minmax _ | Sign | Mod | Elemental (Aint | Anint)), Fortran.Ast.K8 -> t.flop_f64
    | (Abs | Minmax _ | Sign | Mod | Elemental (Aint | Anint)), Fortran.Ast.K4 -> t.flop_f32
    | (Real | Dble | Int_conv _ | Dot_product | Reduce _ | Size | Inquiry _), _ -> t.flop_f64
  in
  scale ~lanes raw

let convert_cost t ~lanes = scale ~lanes:(min lanes t.lanes_f64) t.convert

let mem_cost t ~lanes (kind : Fortran.Ast.real_kind) =
  let bytes = match kind with Fortran.Ast.K4 -> 4.0 | Fortran.Ast.K8 -> 8.0 in
  scale ~lanes (t.mem_byte *. bytes)
