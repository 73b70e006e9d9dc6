(* Microbenchmark for the compiled evaluator: minor words and wall time
   per loop iteration for isolated statement shapes. Allocation counts
   are deterministic, so this is the measurement to trust when the
   machine's timing is noisy. Budget: 0 words per iteration for every
   shape here, procedure calls included — scalars live unboxed in the
   evaluator's frame stacks, dummies hold addresses, results are read
   from the callee's slot. [test/test_lower.ml] (group [alloc]) pins
   three of these shapes at 0 independently of host speed.

     dune exec bench/alloc/alloc.exe *)
let build src =
  let prog = Fortran.Parser.parse src in
  let st = Fortran.Symtab.build prog in
  ignore (Fortran.Typecheck.check_program st);
  let machine = Core.Config.default.Core.Config.machine in
  let ir = Runtime.Lower.lower ~machine st in
  Runtime.Compile.compile ir

let probe label iters src =
  let t = build src in
  ignore (Runtime.Compile.run t);
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (Runtime.Compile.run t);
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  Printf.printf "%-28s %6.2f w/iter  %7.1f ns/iter\n" label
    (dw /. float_of_int iters) (1e9 *. dt /. float_of_int iters)

(* body runs 100 * 10000 = 1e6 times; init (10k) is 1% noise *)
let tmpl body =
  Printf.sprintf {|
module m
contains
  subroutine k(a, b, n)
    integer :: n, i, rep, rep2, im1, ip1, ip2
    real(kind=8), dimension(n) :: a, b
    real(kind=8) :: x, x2
    x = 0.5d0
    do rep = 1, 100
    do i = 2, n
%s
    end do
    end do
  end subroutine k
  subroutine s0()
  end subroutine s0
  subroutine s2(u, v)
    real(kind=8) :: u, v
    u = v
  end subroutine s2
  real(kind=8) function f1(v)
    real(kind=8) :: v
    f1 = v
  end function f1
  real(kind=8) function f0()
    f0 = 1.0d0
  end function f0
  real(kind=8) function flux4(q_im2, q_im1, q_i, q_ip1, ua)
    real(kind=8), intent(in) :: q_im2, q_im1, q_i, q_ip1, ua
    flux4 = ua * (7.0d0 * (q_i + q_im1) - (q_ip1 + q_im2)) / 12.0d0
  end function flux4
  subroutine s1r(u)
    real(kind=8) :: u
  end subroutine s1r
  subroutine s1v(u)
    real(kind=8), intent(in) :: u
  end subroutine s1v
  subroutine sa(arr, m)
    integer :: m
    real(kind=8), dimension(m) :: arr
    arr(1) = arr(2)
  end subroutine sa
end module m
program p
  use m
  integer, parameter :: n = 10000
  real(kind=8), dimension(n) :: a, b
  integer :: j
  do j = 1, n
    a(j) = 1.0d0 + j * 1.0d-7
    b(j) = 2.0d0
  end do
  call k(a, b, n)
end program p
|} body

let () =
  let iters = 100 * 9999 in
  probe "truly empty" iters (tmpl "");
  probe "scalar self-assign" iters (tmpl "      x = x");
  probe "arr store a(i)=b(i)" iters (tmpl "      a(i) = b(i)");
  probe "arr fma" iters (tmpl "      a(i) = a(i-1) * 1.0000001d0 + b(i)");
  probe "scalar assign x=b(i)" iters (tmpl "      x = b(i)");
  probe "scalar arith x=x*c+d" iters (tmpl "      x = x * 1.0000001d0 + 0.5d0");
  probe "if-compare" iters (tmpl "      if (b(i) > 1.0d0) then\n      x = x\n      end if");
  probe "sqrt" iters (tmpl "      a(i) = sqrt(b(i))");
  probe "min2" iters (tmpl "      a(i) = min(a(i), b(i))");
  probe "atan2" iters (tmpl "      a(i) = atan2(a(i), b(i))");
  probe "pow" iters (tmpl "      a(i) = b(i) ** 2");
  probe "int mod" iters (tmpl "      if (mod(i, 2) == 0) then\n      x = x\n      end if");
  probe "nested do" (100*9999*4) (tmpl "      do rep2 = 1, 4\n      x2 = x\n      end do");
  probe "exit-check loop" iters (tmpl "      if (b(i) > 9.9d9) then\n      exit\n      end if");
  probe "call sub0" iters (tmpl "      call s0()");
  probe "call sub2(x, b(i))" iters (tmpl "      call s2(x, b(i))");
  probe "call fn y=f1(b(i))" iters (tmpl "      x = f1(b(i))");
  probe "call sub arr" iters (tmpl "      call sa(a, n)");
  probe "fn0 x=f0()" iters (tmpl "      x = f0()");
  probe "sub var-arg" iters (tmpl "      call s1r(x)");
  probe "sub lit-arg" iters (tmpl "      call s1v(1.5d0)");
  probe "sub elem-arg" iters (tmpl "      call s1v(b(i))");
  probe "int store > 4096" iters (tmpl "      rep2 = i + 5000");
  probe "flux4 call (MPAS Fig. 6)" iters
    (tmpl
       "      im1 = i - 1\n      ip1 = min(i + 1, n)\n      ip2 = min(i + 2, n)\n      \
        a(i) = flux4(b(im1), b(i), b(ip1), b(ip2), x)")
