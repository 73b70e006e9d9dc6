(* Runtime tests: binary32 emulation, noise, timers, and the interpreter's
   semantics + cost accounting. *)

open Fortran

let t name f = Alcotest.test_case name `Quick f

let run ?budget src =
  let st = Symtab.build (Parser.parse src) in
  Typecheck.check_program st;
  Runtime.Interp.run ?budget st

let run_unchecked ?budget src =
  Runtime.Interp.run ?budget (Symtab.build (Parser.parse src))

let series out key = Runtime.Interp.series out key

let first out key =
  match series out key with
  | v :: _ -> v
  | [] -> Alcotest.failf "no '%s' record" key

let prog body = Printf.sprintf "program t\n implicit none\n%s\nend program t\n" body

let float_eq = Alcotest.float 1e-12

(* ------------------------------------------------------------------ *)

let fp32_tests =
  [
    t "round is idempotent" (fun () ->
        let x = Runtime.Fp32.round 0.1 in
        Alcotest.(check float_eq) "fix" x (Runtime.Fp32.round x));
    t "exact values unchanged" (fun () ->
        List.iter
          (fun v -> Alcotest.(check float_eq) "exact" v (Runtime.Fp32.round v))
          [ 0.0; 1.0; -2.5; 0.25; 1024.0; Float.of_int (1 lsl 20) ]);
    t "0.1 is not representable" (fun () ->
        Alcotest.(check bool) "repr" false (Float.equal (Runtime.Fp32.round 0.1) 0.1));
    t "overflow becomes infinity" (fun () ->
        Alcotest.(check bool) "inf" true (Float.is_integer (Runtime.Fp32.round 1e39) = false
                                          && Runtime.Fp32.round 1e39 = infinity));
    t "max_finite survives" (fun () ->
        Alcotest.(check bool) "finite" true (Float.is_finite Runtime.Fp32.max_finite);
        Alcotest.(check bool) "fix" true
          (Runtime.Fp32.round Runtime.Fp32.max_finite = Runtime.Fp32.max_finite));
    t "of_kind K8 is identity" (fun () ->
        Alcotest.(check float_eq) "id" 0.1 (Runtime.Fp32.of_kind Ast.K8 0.1));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"rounding error bounded by half ulp" ~count:500
         QCheck.(float_bound_exclusive 1e30)
         (fun x ->
           QCheck.assume (Float.is_finite x && Float.abs x > 1e-30);
           let r = Runtime.Fp32.round x in
           Float.abs (r -. x) <= Float.abs x *. (1.0 /. 16777216.0)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"round is monotone" ~count:500
         QCheck.(pair (float_bound_exclusive 1e30) (float_bound_exclusive 1e30))
         (fun (a, b) ->
           let lo, hi = if a <= b then (a, b) else (b, a) in
           Runtime.Fp32.round lo <= Runtime.Fp32.round hi));
  ]

let noise_tests =
  [
    t "deterministic for equal seeds" (fun () ->
        Alcotest.(check float_eq) "same"
          (Runtime.Noise.factor ~seed:7 ~run:3 ~rel_std:0.05)
          (Runtime.Noise.factor ~seed:7 ~run:3 ~rel_std:0.05));
    t "different runs differ" (fun () ->
        Alcotest.(check bool) "differ" true
          (Runtime.Noise.factor ~seed:7 ~run:0 ~rel_std:0.05
          <> Runtime.Noise.factor ~seed:7 ~run:1 ~rel_std:0.05));
    t "zero std is exactly 1" (fun () ->
        Alcotest.(check float_eq) "one" 1.0 (Runtime.Noise.factor ~seed:9 ~run:4 ~rel_std:0.0));
    t "clamped to [0.5, 2.0]" (fun () ->
        for run = 0 to 200 do
          let f = Runtime.Noise.factor ~seed:1 ~run ~rel_std:0.5 in
          Alcotest.(check bool) "bounds" true (f >= 0.5 && f <= 2.0)
        done);
    t "sample std close to requested" (fun () ->
        let fs = List.init 3000 (fun run -> Runtime.Noise.factor ~seed:3 ~run ~rel_std:0.05) in
        let sd = Metrics.Stats.stddev fs in
        Alcotest.(check bool) "about 5%" true (sd > 0.03 && sd < 0.07));
  ]

let timer_tests =
  [
    t "nested attribution" (fun () ->
        let tm = Runtime.Timers.create () in
        Runtime.Timers.enter tm "outer" ~now:0.0;
        Runtime.Timers.charge tm 10.0;
        Runtime.Timers.enter tm "inner" ~now:10.0;
        Runtime.Timers.charge tm 5.0;
        Runtime.Timers.exit_ tm ~now:15.0;
        Runtime.Timers.charge tm 2.0;
        Runtime.Timers.exit_ tm ~now:17.0;
        let snap = Runtime.Timers.snapshot tm in
        Alcotest.(check float_eq) "outer exclusive" 12.0
          (Runtime.Timers.exclusive_of snap "outer");
        Alcotest.(check float_eq) "outer inclusive" 17.0
          (Runtime.Timers.inclusive_of snap "outer");
        Alcotest.(check float_eq) "inner exclusive" 5.0 (Runtime.Timers.exclusive_of snap "inner");
        Alcotest.(check int) "calls" 1 (Runtime.Timers.calls_of snap "inner"));
    t "repeated calls accumulate" (fun () ->
        let tm = Runtime.Timers.create () in
        let now = ref 0.0 in
        for _ = 1 to 3 do
          Runtime.Timers.enter tm "p" ~now:!now;
          Runtime.Timers.charge tm 4.0;
          now := !now +. 4.0;
          Runtime.Timers.exit_ tm ~now:!now
        done;
        let snap = Runtime.Timers.snapshot tm in
        Alcotest.(check int) "3 calls" 3 (Runtime.Timers.calls_of snap "p");
        Alcotest.(check float_eq) "inclusive" 12.0 (Runtime.Timers.inclusive_of snap "p"));
    t "charge outside any frame is dropped" (fun () ->
        let tm = Runtime.Timers.create () in
        Runtime.Timers.charge tm 5.0;
        Alcotest.(check int) "empty" 0 (List.length (Runtime.Timers.snapshot tm)));
    t "recursion adds inclusive time at the outermost activation only" (fun () ->
        (* 21 activations of r: as in GPTL, the inner spans lie inside the
           outermost one, so r's inclusive time is the whole run's cost *)
        let src =
          "module m\n implicit none\ncontains\n subroutine r(n, acc)\n  integer :: n\n\
          \  real(kind=8) :: acc\n  acc = acc + 1.0d0\n  if (n > 0) then\n\
          \   call r(n - 1, acc)\n  end if\n end subroutine r\nend module m\nprogram p\n\
          \ use m\n implicit none\n real(kind=8) :: acc\n acc = 0.0d0\n call r(20, acc)\n\
          \ print *, 'acc', acc\nend program p\n"
        in
        let st = Symtab.build (Parser.parse src) in
        Typecheck.check_program st;
        let check name (out : Runtime.Interp.outcome) =
          let timers = out.Runtime.Interp.timers in
          Alcotest.(check int) (name ^ ": activations") 21 (Runtime.Timers.calls_of timers "r");
          Alcotest.(check (float 1e-9)) (name ^ ": run cost") 455.5 out.Runtime.Interp.cost;
          Alcotest.(check int64) (name ^ ": r inclusive is the run's cost")
            (Int64.bits_of_float out.Runtime.Interp.cost)
            (Int64.bits_of_float (Runtime.Timers.inclusive_of timers "r"))
        in
        let machine = Runtime.Machine.default in
        let interp = Runtime.Interp.run ~machine st in
        let compiled = Runtime.Lower.run (Runtime.Lower.lower ~machine st) in
        check "interp" interp;
        check "compiled" compiled;
        Alcotest.(check bool) "evaluators agree on every timer" true
          (compare interp.Runtime.Interp.timers compiled.Runtime.Interp.timers = 0));
  ]

(* ------------------------------------------------------------------ *)

let semantics_tests =
  [
    t "integer division truncates" (fun () ->
        let out = run (prog " integer :: i\n i = 7 / 2\n print *, 'v', i") in
        Alcotest.(check float_eq) "3" 3.0 (first out "v"));
    t "real to integer assignment truncates" (fun () ->
        let out = run (prog " integer :: i\n real(kind=8) :: x\n x = 3.9d0\n i = x\n print *, 'v', i") in
        Alcotest.(check float_eq) "3" 3.0 (first out "v"));
    t "mod and sign intrinsics" (fun () ->
        let out =
          run
            (prog
               " integer :: m\n real(kind=8) :: s\n m = mod(7, 3)\n s = sign(2.5d0, -1.0d0)\n print *, 'm', m\n print *, 's', s")
        in
        Alcotest.(check float_eq) "mod" 1.0 (first out "m");
        Alcotest.(check float_eq) "sign" (-2.5) (first out "s"));
    t "min max n-ary" (fun () ->
        let out =
          run (prog " real(kind=8) :: v\n v = max(1.0d0, min(5.0d0, 3.0d0), 2.0d0)\n print *, 'v', v")
        in
        Alcotest.(check float_eq) "3" 3.0 (first out "v"));
    t "small integer powers are exact" (fun () ->
        let out = run (prog " real(kind=8) :: v\n v = 3.0d0 ** 2\n print *, 'v', v") in
        Alcotest.(check float_eq) "9" 9.0 (first out "v"));
    t "k4 store rounds to binary32" (fun () ->
        let out = run (prog " real(kind=4) :: x\n x = 0.1d0\n print *, 'v', x") in
        Alcotest.(check float_eq) "rounded" (Runtime.Fp32.round 0.1) (first out "v"));
    t "k4 arithmetic rounds every operation" (fun () ->
        let out =
          run
            (prog
               " real(kind=4) :: a, b\n a = 1.0\n b = 3.0\n a = a / b\n print *, 'v', a")
        in
        Alcotest.(check float_eq) "f32 third" (Runtime.Fp32.round (1.0 /. 3.0)) (first out "v"));
    t "k8 arithmetic stays double" (fun () ->
        let out =
          run (prog " real(kind=8) :: a\n a = 1.0d0 / 3.0d0\n print *, 'v', a")
        in
        Alcotest.(check float_eq) "double third" (1.0 /. 3.0) (first out "v"));
    t "column-major array order" (fun () ->
        (* a(i,j) with dims (2,3): a(2,1) is element 2, a(1,2) is element 3 —
           observable via sequential sum after writes *)
        let out =
          run
            (prog
               " real(kind=8), dimension(2, 3) :: a\n integer :: i, j\n do j = 1, 3\n  do i = 1, 2\n   a(i, j) = 10.0d0 * i + j\n  end do\n end do\n print *, 'v', a(2, 3)")
        in
        Alcotest.(check float_eq) "a(2,3)" 23.0 (first out "v"));
    t "do loop with negative step" (fun () ->
        let out =
          run
            (prog
               " integer :: i, count\n count = 0\n do i = 10, 1, -3\n  count = count + 1\n end do\n print *, 'v', count")
        in
        Alcotest.(check float_eq) "4 iterations" 4.0 (first out "v"));
    t "zero-trip do loop" (fun () ->
        let out =
          run
            (prog
               " integer :: i, count\n count = 0\n do i = 5, 1\n  count = count + 1\n end do\n print *, 'v', count")
        in
        Alcotest.(check float_eq) "0 iterations" 0.0 (first out "v"));
    t "exit and cycle" (fun () ->
        let out =
          run
            (prog
               " integer :: i, s\n s = 0\n do i = 1, 10\n  if (mod(i, 2) == 0) cycle\n  if (i > 6) exit\n  s = s + i\n end do\n print *, 'v', s")
        in
        (* 1 + 3 + 5 = 9 *)
        Alcotest.(check float_eq) "9" 9.0 (first out "v"));
    t "do while" (fun () ->
        let out =
          run
            (prog
               " integer :: n\n n = 1\n do while (n < 100)\n  n = n * 2\n end do\n print *, 'v', n")
        in
        Alcotest.(check float_eq) "128" 128.0 (first out "v"));
    t "select case dispatch" (fun () ->
        let out =
          run
            (prog
               " integer :: k, i\n real(kind=8) :: x\n x = 0.0d0\n do i = 1, 6\n  k = mod(i, 4)\n  select case (k)\n  case (0)\n   x = x + 1.0d0\n  case (1, 2)\n   x = x + 10.0d0\n  case (3:)\n   x = x + 100.0d0\n  case default\n   x = x - 1.0d0\n  end select\n end do\n print *, 'v', x")
        in
        Alcotest.(check float_eq) "141" 141.0 (first out "v"));
    t "select case falls to default" (fun () ->
        let out =
          run
            (prog
               " integer :: k\n real(kind=8) :: x\n k = 9\n select case (k)\n case (1:5)\n  x = 1.0d0\n case default\n  x = 2.0d0\n end select\n print *, 'v', x")
        in
        Alcotest.(check float_eq) "default" 2.0 (first out "v"));
    t "select case without match or default is a no-op" (fun () ->
        let out =
          run
            (prog
               " integer :: k\n real(kind=8) :: x\n x = 5.0d0\n k = 3\n select case (k)\n case (1)\n  x = 0.0d0\n end select\n print *, 'v', x")
        in
        Alcotest.(check float_eq) "unchanged" 5.0 (first out "v"));
    t "hyperbolic and log10 intrinsics" (fun () ->
        let out =
          run
            (prog
               " real(kind=8) :: a, b, c\n a = tanh(0.5d0)\n b = log10(1000.0d0)\n c = cosh(0.0d0)\n print *, 'a', a\n print *, 'b', b\n print *, 'c', c")
        in
        Alcotest.(check float_eq) "tanh" (tanh 0.5) (first out "a");
        Alcotest.(check float_eq) "log10" 3.0 (first out "b");
        Alcotest.(check float_eq) "cosh" 1.0 (first out "c"));
    t "atan2 aint anint" (fun () ->
        let out =
          run
            (prog
               " real(kind=8) :: a, b, c\n a = atan2(1.0d0, 1.0d0)\n b = aint(2.7d0)\n c = anint(2.7d0)\n print *, 'a', a\n print *, 'b', b\n print *, 'c', c")
        in
        Alcotest.(check float_eq) "atan2" (Float.atan2 1.0 1.0) (first out "a");
        Alcotest.(check float_eq) "aint" 2.0 (first out "b");
        Alcotest.(check float_eq) "anint" 3.0 (first out "c"));
    t "dot_product over arrays" (fun () ->
        let out =
          run
            (prog
               " real(kind=8), dimension(3) :: a, b\n integer :: i\n do i = 1, 3\n  a(i) = i * 1.0d0\n  b(i) = 2.0d0\n end do\n print *, 'v', dot_product(a, b)")
        in
        Alcotest.(check float_eq) "12" 12.0 (first out "v"));
    t "epsilon huge tiny" (fun () ->
        let out =
          run
            (prog
               " real(kind=4) :: x4\n real(kind=8) :: x8\n x4 = 1.0\n x8 = 1.0d0\n print *, 'e4', epsilon(x4)\n print *, 'e8', epsilon(x8)\n print *, 'h4', huge(x4)")
        in
        Alcotest.(check float_eq) "eps4" 1.1920928955078125e-07 (first out "e4");
        Alcotest.(check float_eq) "eps8" epsilon_float (first out "e8");
        Alcotest.(check float_eq) "huge4" Runtime.Fp32.max_finite (first out "h4"));
    t "sum maxval minval size" (fun () ->
        let out =
          run
            (prog
               " real(kind=8), dimension(4) :: a\n integer :: i\n do i = 1, 4\n  a(i) = i * 1.0d0\n end do\n print *, 's', sum(a)\n print *, 'mx', maxval(a)\n print *, 'mn', minval(a)\n print *, 'sz', size(a)")
        in
        Alcotest.(check float_eq) "sum" 10.0 (first out "s");
        Alcotest.(check float_eq) "max" 4.0 (first out "mx");
        Alcotest.(check float_eq) "min" 1.0 (first out "mn");
        Alcotest.(check float_eq) "size" 4.0 (first out "sz"));
    t "parameters are compile-time constants" (fun () ->
        let out =
          run
            (prog
               " integer, parameter :: n = 6\n real(kind=8), parameter :: c = 2.5d0\n print *, 'v', n * c")
        in
        Alcotest.(check float_eq) "15" 15.0 (first out "v"));
    t "module variable initializers run" (fun () ->
        let src =
          "module m\n implicit none\n real(kind=8) :: g = 4.5d0\nend module m\nprogram p\n use m\n implicit none\n print *, 'v', g\nend program p\n"
        in
        Alcotest.(check float_eq) "4.5" 4.5 (first (run src) "v"));
  ]

let call_tests =
  [
    t "scalar arguments pass by reference" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n subroutine swap(a, b)\n  real(kind=8) :: a, b, t\n  t = a\n  a = b\n  b = t\n end subroutine swap\nend module m\nprogram p\n use m\n implicit none\n real(kind=8) :: x, y\n x = 1.0d0\n y = 2.0d0\n call swap(x, y)\n print *, 'x', x\n print *, 'y', y\nend program p\n"
        in
        let out = run src in
        Alcotest.(check float_eq) "x" 2.0 (first out "x");
        Alcotest.(check float_eq) "y" 1.0 (first out "y"));
    t "whole arrays share storage" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n subroutine fill(v, n)\n  integer :: n, i\n  real(kind=8), dimension(n) :: v\n  do i = 1, n\n   v(i) = 7.0d0\n  end do\n end subroutine fill\nend module m\nprogram p\n use m\n implicit none\n real(kind=8), dimension(3) :: a\n call fill(a, 3)\n print *, 'v', a(2)\nend program p\n"
        in
        Alcotest.(check float_eq) "7" 7.0 (first (run src) "v"));
    t "array element actual copies back" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n subroutine bump(x)\n  real(kind=8), intent(inout) :: x\n  x = x + 1.0d0\n end subroutine bump\nend module m\nprogram p\n use m\n implicit none\n real(kind=8), dimension(2) :: a\n a(1) = 5.0d0\n call bump(a(1))\n print *, 'v', a(1)\nend program p\n"
        in
        Alcotest.(check float_eq) "6" 6.0 (first (run src) "v"));
    t "expression actuals are copies" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n function twice(x) result(y)\n  real(kind=8) :: x, y\n  y = 2.0d0 * x\n end function twice\nend module m\nprogram p\n use m\n implicit none\n print *, 'v', twice(3.0d0 + 1.0d0)\nend program p\n"
        in
        Alcotest.(check float_eq) "8" 8.0 (first (run src) "v"));
    t "function result via result clause" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n function sq(x) result(y)\n  real(kind=8) :: x, y\n  y = x * x\n end function sq\nend module m\nprogram p\n use m\n implicit none\n print *, 'v', sq(4.0d0)\nend program p\n"
        in
        Alcotest.(check float_eq) "16" 16.0 (first (run src) "v"));
    t "local arrays sized by dummy integers" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n function total(n) result(s)\n  integer :: n, i\n  real(kind=8) :: s\n  real(kind=8), dimension(n) :: w\n  do i = 1, n\n   w(i) = 1.0d0\n  end do\n  s = sum(w)\n end function total\nend module m\nprogram p\n use m\n implicit none\n print *, 'v', total(5)\nend program p\n"
        in
        Alcotest.(check float_eq) "5" 5.0 (first (run src) "v"));
    t "mpi_allreduce stand-in" (fun () ->
        let out =
          run
            (prog
               " real(kind=8) :: a, b\n a = 3.5d0\n call mpi_allreduce(a, b, 'sum')\n print *, 'v', b")
        in
        Alcotest.(check float_eq) "3.5" 3.5 (first out "v"));
    t "kind-mismatched binding is a runtime error" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n subroutine s(a)\n  real(kind=8) :: a\n  a = a + 1.0d0\n end subroutine s\nend module m\nprogram p\n use m\n implicit none\n real(kind=4) :: x\n x = 1.0\n call s(x)\nend program p\n"
        in
        match (run_unchecked src).Runtime.Interp.status with
        | Runtime.Interp.Runtime_error _ -> ()
        | s -> Alcotest.failf "expected runtime error, got %a" Runtime.Interp.pp_status s);
  ]

let failure_tests =
  [
    t "f32 overflow traps" (fun () ->
        let src = prog " real(kind=4) :: x\n x = 1.0e30\n x = x * x\n print *, 'v', x" in
        match (run src).Runtime.Interp.status with
        | Runtime.Interp.Runtime_error m ->
          Alcotest.(check bool) "overflow message" true
            (String.length m > 0 && String.sub m 0 8 = "overflow")
        | s -> Alcotest.failf "expected trap, got %a" Runtime.Interp.pp_status s);
    t "division by zero traps" (fun () ->
        let src = prog " real(kind=8) :: x\n x = 1.0d0\n x = x / 0.0d0" in
        match (run src).Runtime.Interp.status with
        | Runtime.Interp.Runtime_error _ -> ()
        | s -> Alcotest.failf "expected trap, got %a" Runtime.Interp.pp_status s);
    t "sqrt of negative traps as NaN" (fun () ->
        let src = prog " real(kind=8) :: x\n x = sqrt(-1.0d0)" in
        match (run src).Runtime.Interp.status with
        | Runtime.Interp.Runtime_error _ -> ()
        | s -> Alcotest.failf "expected trap, got %a" Runtime.Interp.pp_status s);
    t "array bounds are checked" (fun () ->
        let src = prog " real(kind=8), dimension(3) :: a\n integer :: i\n i = 4\n a(i) = 1.0d0" in
        match (run src).Runtime.Interp.status with
        | Runtime.Interp.Runtime_error _ -> ()
        | s -> Alcotest.failf "expected bounds error, got %a" Runtime.Interp.pp_status s);
    t "stop reports its message" (fun () ->
        let src = prog " stop 'unstable'" in
        match (run src).Runtime.Interp.status with
        | Runtime.Interp.Stopped "unstable" -> ()
        | s -> Alcotest.failf "expected stop, got %a" Runtime.Interp.pp_status s);
    t "budget exhaustion times out" (fun () ->
        let src =
          prog
            " integer :: i\n real(kind=8) :: s\n s = 0.0d0\n do i = 1, 1000000\n  s = s + 1.0d0\n end do"
        in
        match (run ~budget:100.0 src).Runtime.Interp.status with
        | Runtime.Interp.Timed_out -> ()
        | s -> Alcotest.failf "expected timeout, got %a" Runtime.Interp.pp_status s);
    t "runaway recursion is caught" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n function loopy(x) result(y)\n  real(kind=8) :: x, y\n  y = loopy(x + 1.0d0)\n end function loopy\nend module m\nprogram p\n use m\n implicit none\n print *, 'v', loopy(0.0d0)\nend program p\n"
        in
        match (run src).Runtime.Interp.status with
        | Runtime.Interp.Runtime_error _ -> ()
        | s -> Alcotest.failf "expected depth error, got %a" Runtime.Interp.pp_status s);
  ]

(* ------------------------------------------------------------------ *)
(* Cost-model behavior observable through total cost                    *)

let cost_of src = (run src).Runtime.Interp.cost

let cost_tests =
  [
    t "runs are deterministic" (fun () ->
        let src = Models.Funarc.source ~n:200 () in
        let a = run src and b = run src in
        Alcotest.(check float_eq) "same cost" a.Runtime.Interp.cost b.Runtime.Interp.cost;
        Alcotest.(check bool) "same records" true
          (a.Runtime.Interp.records = b.Runtime.Interp.records));
    t "vectorizable loop is cheaper than a recurrence" (fun () ->
        let clean =
          prog
            " real(kind=8), dimension(64) :: a\n integer :: i\n do i = 1, 64\n  a(i) = a(i) * 1.5d0 + 2.0d0\n end do"
        in
        let carried =
          prog
            " real(kind=8), dimension(64) :: a\n integer :: i\n do i = 2, 64\n  a(i) = a(i - 1) * 1.5d0 + 2.0d0\n end do"
        in
        Alcotest.(check bool) "vectorized cheaper" true (cost_of clean < cost_of carried));
    t "uniform k4 loop is cheaper than uniform k8" (fun () ->
        let mk kind =
          prog
            (Printf.sprintf
               " real(kind=%s), dimension(64) :: a\n integer :: i\n do i = 1, 64\n  a(i) = a(i) * 1.5 + sqrt(a(i) + 2.0)\n end do"
               kind)
        in
        Alcotest.(check bool) "k4 cheaper" true (cost_of (mk "4") < cost_of (mk "8")));
    t "lightly mixed loop sits between uniform kinds" (fun () ->
        let mk decl =
          prog
            (Printf.sprintf
               " %s\n integer :: i\n do i = 1, 64\n  a(i) = (a(i) + a(i) + a(i) * 1.5 + a(i) * a(i)) * w\n end do\n print *, 'v', w"
               decl)
        in
        let k8 = cost_of (mk "real(kind=8), dimension(64) :: a\n real(kind=8) :: w") in
        let k4 = cost_of (mk "real(kind=4), dimension(64) :: a\n real(kind=4) :: w") in
        let mixed = cost_of (mk "real(kind=4), dimension(64) :: a\n real(kind=8) :: w") in
        Alcotest.(check bool) "k4 < mixed" true (k4 < mixed);
        Alcotest.(check bool) "mixed < k8" true (mixed < k8));
    t "heavily mixed loop devectorizes and loses to both uniform kinds" (fun () ->
        let mk decl =
          prog
            (Printf.sprintf
               " %s\n integer :: i\n do i = 1, 64\n  a(i) = a(i) * w + sqrt(a(i))\n end do\n print *, 'v', w"
               decl)
        in
        let k8 = cost_of (mk "real(kind=8), dimension(64) :: a\n real(kind=8) :: w") in
        let k4 = cost_of (mk "real(kind=4), dimension(64) :: a\n real(kind=4) :: w") in
        let mixed = cost_of (mk "real(kind=4), dimension(64) :: a\n real(kind=8) :: w") in
        (* the casting-overhead phenomenon behind funarc's "67% worse on
           both axes" (Sec. II-B) *)
        Alcotest.(check bool) "worse than k8" true (mixed > k8);
        Alcotest.(check bool) "worse than k4" true (mixed > k4));
    t "f32 math intrinsics are cheaper even scalar" (fun () ->
        (* a loop-carried chain stays scalar for both kinds *)
        let mk kind lit =
          prog
            (Printf.sprintf
               " real(kind=%s) :: x\n integer :: i\n x = 0.5%s\n do i = 1, 100\n  x = sin(x) + 1.0%s\n end do\n print *, 'v', x"
               kind lit lit)
        in
        Alcotest.(check bool) "sin f32 cheaper" true (cost_of (mk "4" "") < cost_of (mk "8" "d0")));
    t "timing excludes nothing: intrinsics charged to caller" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n subroutine heavy()\n  real(kind=8) :: x\n  integer :: i\n  x = 0.5d0\n  do i = 1, 50\n   x = sin(x)\n  end do\n end subroutine heavy\nend module m\nprogram p\n use m\n implicit none\n call heavy\nend program p\n"
        in
        let out = run src in
        let excl = Runtime.Timers.exclusive_of out.Runtime.Interp.timers "heavy" in
        Alcotest.(check bool) "sin cost attributed" true (excl > 50.0 *. 5.0));
  ]

(* ------------------------------------------------------------------ *)
(* Whole outcomes pinned on the registered models                      *)

(* Every bit of [Interp.run]'s outcome, in one digest per model: status,
   cost in [%h], the category breakdown, every timer entry, every record
   and every printed line.  Four runs per model: the original program; a
   budget cut at half its cost; the uniform 32-bit variant of the target
   atoms; and a variant lowering every other target atom — both variants
   with boundary wrappers and their owners, so kind conversions, wrapper
   calls and the inlining rule are all charged.  The constants were
   recorded before the interpreter moved onto the shared traversal; any
   drift in a value, a trap text, a charge or its order against a trap
   shows. *)
let outcome_digest (model : Models.Registry.t) =
  let st =
    Symtab.build
      (Parser.parse ~file:(model.Models.Registry.name ^ ".f90") model.Models.Registry.source)
  in
  Typecheck.check_program st;
  let atoms =
    Transform.Assignment.atoms_of_target st ~module_:model.Models.Registry.target_module
      ~procs:(Some model.Models.Registry.target_procs)
      ~exclude:model.Models.Registry.exclude_atoms
  in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.bprintf buf fmt in
  let dump label (o : Runtime.Interp.outcome) =
    pf "%s: %s cost=%h\n" label
      (Format.asprintf "%a" Runtime.Interp.pp_status o.Runtime.Interp.status)
      o.Runtime.Interp.cost;
    List.iter
      (fun (c, x) -> pf "b %s %h\n" (Runtime.Machine.category_name c) x)
      o.Runtime.Interp.breakdown;
    List.iter
      (fun (e : Runtime.Timers.entry) ->
        pf "t %s %d %h %h\n" e.Runtime.Timers.name e.Runtime.Timers.calls
          e.Runtime.Timers.exclusive e.Runtime.Timers.inclusive)
      o.Runtime.Interp.timers;
    List.iter (fun (k, v) -> pf "r %s %h\n" k v) o.Runtime.Interp.records;
    List.iter (fun l -> pf "p %s\n" l) o.Runtime.Interp.printed
  in
  let variant label asg =
    let w = Transform.Wrappers.insert (Transform.Rewrite.apply st asg) in
    let st' = Symtab.build w.Transform.Wrappers.program in
    Typecheck.check_program st';
    dump label
      (Runtime.Interp.run ~wrapper_owner:(Transform.Wrappers.owner_fn w) st')
  in
  let base = Runtime.Interp.run st in
  dump "original" base;
  dump "budget" (Runtime.Interp.run ~budget:(base.Runtime.Interp.cost /. 2.0) st);
  variant "uniform32" (Transform.Assignment.uniform atoms Ast.K4);
  variant "alternate"
    (Transform.Assignment.of_lowered atoms
       ~lowered:(List.filteri (fun i _ -> i mod 2 = 0) atoms));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let outcome_pin_tests =
  List.map
    (fun (name, expected) ->
      t (Printf.sprintf "pinned on %s" name) (fun () ->
          Alcotest.(check string) "digest" expected
            (outcome_digest (Models.Registry.find name))))
    [
      ("funarc", "1b374192a71b3cc74f553edbd172829e");
      ("mpas", "a19509fabc7c31702ed5944412aa13eb");
      ("adcirc", "769fbd0883866ba3422c6374556c51b0");
      ("mom6", "d54abcc6696dc68cd2f67b2eb932514d");
      ("lulesh", "c2632972cd73fa7eedd90370c5cad720");
      ("mpas_joint", "8f6866ab915be5c4d14f2cf4cd229a99");
    ]

let () =
  Alcotest.run "runtime"
    [
      ("fp32", fp32_tests);
      ("noise", noise_tests);
      ("timers", timer_tests);
      ("semantics", semantics_tests);
      ("calls", call_tests);
      ("failures", failure_tests);
      ("cost model", cost_tests);
      ("outcomes", outcome_pin_tests);
    ]
