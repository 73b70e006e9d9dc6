(* Type checker tests: inference, promotion, intrinsics, call-site kind
   compatibility (the wrapper obligation), constant folding. *)

open Fortran

let t name f = Alcotest.test_case name `Quick f

let env_src =
  {|
module env
  implicit none
  integer, parameter :: n = 3
  real(kind=4) :: r4
  real(kind=8) :: r8
  integer :: i
  logical :: flag
  real(kind=8), dimension(n, 2) :: arr
  real(kind=4), dimension(n) :: arr4
contains
  subroutine sub8(a)
    real(kind=8), intent(inout) :: a
    a = a + 1.0d0
  end subroutine sub8

  subroutine subarr(v)
    real(kind=8), dimension(3) :: v
    v(1) = 0.0d0
  end subroutine subarr

  function f4(x) result(y)
    real(kind=4) :: x, y
    y = x
  end function f4
end module env

program main
  use env
  implicit none
  r8 = 1.0d0
end program main
|}

let st () = Symtab.build (Parser.parse env_src)

let parse_expr src =
  let prog = Parser.parse (Printf.sprintf "program t\n x = %s\nend program t\n" src) in
  match prog with
  | [ Ast.Main { Ast.main_body = [ { Ast.node = Ast.Assign (_, rhs); _ } ]; _ } ] -> rhs
  | _ -> Alcotest.fail "bad expression fixture"

let infer src =
  Typecheck.infer (st ()) ~in_proc:None (parse_expr src)

let check_ty name src expected =
  t name (fun () ->
      let got = infer src in
      Alcotest.(check string) name
        (Format.asprintf "%a" Typecheck.pp_ty expected)
        (Format.asprintf "%a" Typecheck.pp_ty got))

let expect_infer_error name src =
  t name (fun () ->
      match infer src with
      | _ -> Alcotest.failf "expected Typecheck.Error for %s" src
      | exception Typecheck.Error _ -> ())

let inference_tests =
  [
    check_ty "int + int" "i + 2" Typecheck.Integer;
    check_ty "int + real4 promotes" "i + r4" (Typecheck.Real Ast.K4);
    check_ty "real4 + real8 promotes to 8" "r4 + r8" (Typecheck.Real Ast.K8);
    check_ty "k4 literal keeps kind" "r4 * 2.0" (Typecheck.Real Ast.K4);
    check_ty "d0 literal forces k8" "r4 * 2.0d0" (Typecheck.Real Ast.K8);
    check_ty "comparison is logical" "r4 < r8" Typecheck.Logical;
    check_ty "logical connective" "flag .and. .true." Typecheck.Logical;
    check_ty "negation keeps type" "-r8" (Typecheck.Real Ast.K8);
    check_ty "array element type" "arr(1, 2)" (Typecheck.Real Ast.K8);
    check_ty "function result type" "f4(r4)" (Typecheck.Real Ast.K4);
    check_ty "power of int" "i ** 2" Typecheck.Integer;
    expect_infer_error "arithmetic on logical" "flag + 1";
    expect_infer_error "not on number" ".not. i";
    expect_infer_error "undeclared variable" "zz + 1";
    expect_infer_error "wrong subscript count" "arr(1)";
    expect_infer_error "non-integer subscript" "arr(1.5, 1)";
    expect_infer_error "subscripted scalar" "r4(1)";
  ]

let intrinsic_tests =
  [
    check_ty "sqrt keeps kind" "sqrt(r4)" (Typecheck.Real Ast.K4);
    check_ty "sin of k8" "sin(r8)" (Typecheck.Real Ast.K8);
    check_ty "abs of int is int" "abs(i)" Typecheck.Integer;
    check_ty "min promotes" "min(i, r4, r8)" (Typecheck.Real Ast.K8);
    check_ty "mod of ints" "mod(i, 3)" Typecheck.Integer;
    check_ty "real() default kind" "real(r8)" (Typecheck.Real Ast.K4);
    check_ty "real() with kind" "real(r4, 8)" (Typecheck.Real Ast.K8);
    check_ty "dble" "dble(r4)" (Typecheck.Real Ast.K8);
    check_ty "int()" "int(r8)" Typecheck.Integer;
    check_ty "sum over array" "sum(arr)" (Typecheck.Real Ast.K8);
    check_ty "maxval over k4 array" "maxval(arr4)" (Typecheck.Real Ast.K4);
    check_ty "size is integer" "size(arr)" Typecheck.Integer;
    check_ty "epsilon keeps kind" "epsilon(r4)" (Typecheck.Real Ast.K4);
    check_ty "tanh keeps kind" "tanh(r4)" (Typecheck.Real Ast.K4);
    check_ty "atan2 promotes" "atan2(r4, r8)" (Typecheck.Real Ast.K8);
    check_ty "dot_product of k8 arrays" "dot_product(arr4, arr4)" (Typecheck.Real Ast.K4);
    expect_infer_error "sqrt of integer" "sqrt(i)";
    expect_infer_error "sum of scalar" "sum(r8)";
    expect_infer_error "min arity" "min(r4)";
  ]

(* ------------------------------------------------------------------ *)

let with_call call_src k =
  let src =
    Printf.sprintf
      {|
module env2
  implicit none
  real(kind=4) :: r4
  real(kind=8) :: r8
  real(kind=4), dimension(3) :: a4
  real(kind=8), dimension(3) :: a8
contains
  subroutine sub8(a)
    real(kind=8), intent(inout) :: a
    a = a + 1.0d0
  end subroutine sub8

  subroutine subarr(v)
    real(kind=8), dimension(3) :: v
    v(1) = 0.0d0
  end subroutine subarr
end module env2

program main
  use env2
  implicit none
  %s
end program main
|}
      call_src
  in
  k (Symtab.build (Parser.parse src))

let mismatch_tests =
  [
    t "matching call has no mismatches" (fun () ->
        with_call "call sub8(r8)" (fun st ->
            Alcotest.(check int) "mismatches" 0 (List.length (Typecheck.mismatches st));
            Typecheck.check_program st));
    t "kind-mismatched scalar argument detected" (fun () ->
        with_call "call sub8(r4)" (fun st ->
            match Typecheck.mismatches st with
            | [ m ] ->
              Alcotest.(check string) "callee" "sub8" m.Typecheck.mm_callee;
              Alcotest.(check bool) "kinds" true
                (m.Typecheck.mm_actual_kind = Ast.K4 && m.Typecheck.mm_dummy_kind = Ast.K8);
              Alcotest.(check bool) "scalar" false m.Typecheck.mm_is_array
            | _ -> Alcotest.fail "expected exactly one mismatch"));
    t "kind-mismatched literal argument detected" (fun () ->
        with_call "call sub8(1.0)" (fun st ->
            Alcotest.(check int) "mismatches" 1 (List.length (Typecheck.mismatches st))));
    t "kind-mismatched array argument detected" (fun () ->
        with_call "call subarr(a4)" (fun st ->
            match Typecheck.mismatches st with
            | [ m ] -> Alcotest.(check bool) "array" true m.Typecheck.mm_is_array
            | _ -> Alcotest.fail "expected exactly one mismatch"));
    t "check_program raises on mismatch" (fun () ->
        with_call "call sub8(r4)" (fun st ->
            match Typecheck.check_program st with
            | () -> Alcotest.fail "expected Typecheck.Error"
            | exception Typecheck.Error _ -> ()));
    t "expression actual with matching kind is fine" (fun () ->
        with_call "call sub8(r8 * 2.0d0 + 1.0d0)" (fun st ->
            Alcotest.(check int) "mismatches" 0 (List.length (Typecheck.mismatches st))));
    t "mismatch inside expression call" (fun () ->
        (* function reference in an expression also gets checked *)
        let src =
          "module m\n implicit none\n real(kind=4) :: r4\n real(kind=8) :: out\ncontains\n function g(x) result(y)\n  real(kind=8) :: x, y\n  y = x\n end function g\nend module m\nprogram p\n use m\n implicit none\n out = g(r4) + 1.0d0\nend program p\n"
        in
        let st = Symtab.build (Parser.parse src) in
        Alcotest.(check int) "mismatches" 1 (List.length (Typecheck.mismatches st)));
  ]

let folding_tests =
  [
    t "static_int literal" (fun () ->
        Alcotest.(check (option int)) "5" (Some 5)
          (Typecheck.static_int (st ()) ~in_proc:None (Ast.Int_lit 5)));
    t "static_int parameter" (fun () ->
        Alcotest.(check (option int)) "n" (Some 3)
          (Typecheck.static_int (st ()) ~in_proc:None (Ast.Var "n")));
    t "static_int arithmetic" (fun () ->
        let e = parse_expr "n * 2 + 1" in
        Alcotest.(check (option int)) "7" (Some 7) (Typecheck.static_int (st ()) ~in_proc:None e));
    t "static_int power" (fun () ->
        let e = parse_expr "2 ** n" in
        Alcotest.(check (option int)) "8" (Some 8) (Typecheck.static_int (st ()) ~in_proc:None e));
    t "static_int of runtime variable is None" (fun () ->
        Alcotest.(check (option int)) "None" None
          (Typecheck.static_int (st ()) ~in_proc:None (Ast.Var "i")));
    t "static_elements of 2d array" (fun () ->
        let st = st () in
        let v = Option.get (Symtab.lookup_var st ~in_proc:None "arr") in
        Alcotest.(check (option int)) "n*2" (Some 6) (Typecheck.static_elements st ~in_proc:None v));
    t "static_elements of scalar" (fun () ->
        let st = st () in
        let v = Option.get (Symtab.lookup_var st ~in_proc:None "r8") in
        Alcotest.(check (option int)) "1" (Some 1) (Typecheck.static_elements st ~in_proc:None v));
  ]

let whole_program_tests =
  [
    t "all bundled models type-check" (fun () ->
        List.iter
          (fun (m : Models.Registry.t) ->
            let st = Symtab.build (Parser.parse m.Models.Registry.source) in
            Typecheck.check_program st)
          (Models.Registry.funarc :: Models.Registry.all));
    t "do bound must be integer" (fun () ->
        let src = "program p\n implicit none\n real(kind=8) :: x\n integer :: i\n do i = 1, x\n  x = 1.0d0\n end do\nend program p\n" in
        match Typecheck.check_program (Symtab.build (Parser.parse src)) with
        | () -> Alcotest.fail "expected error"
        | exception Typecheck.Error _ -> ());
    t "if condition must be logical" (fun () ->
        let src = "program p\n implicit none\n real(kind=8) :: x\n if (x) then\n  x = 1.0d0\n end if\nend program p\n" in
        match Typecheck.check_program (Symtab.build (Parser.parse src)) with
        | () -> Alcotest.fail "expected error"
        | exception Typecheck.Error _ -> ());
    t "assignment type clash" (fun () ->
        let src = "program p\n implicit none\n logical :: b\n b = 1\nend program p\n" in
        match Typecheck.check_program (Symtab.build (Parser.parse src)) with
        | () -> Alcotest.fail "expected error"
        | exception Typecheck.Error _ -> ());
    t "select case selector must be integer or logical" (fun () ->
        let src =
          "program p\n implicit none\n real(kind=8) :: x\n select case (x)\n case default\n  x = 1.0d0\n end select\nend program p\n"
        in
        match Typecheck.check_program (Symtab.build (Parser.parse src)) with
        | () -> Alcotest.fail "expected error"
        | exception Typecheck.Error _ -> ());
    t "case value type must match the selector" (fun () ->
        let src =
          "program p\n implicit none\n integer :: k\n logical :: b\n b = .true.\n k = 1\n select case (k)\n case (.true.)\n  k = 2\n end select\nend program p\n"
        in
        match Typecheck.check_program (Symtab.build (Parser.parse src)) with
        | () -> Alcotest.fail "expected error"
        | exception Typecheck.Error _ -> ());
    t "call arity is checked" (fun () ->
        with_call "call sub8(r8, r8)" (fun st ->
            match Typecheck.check_program st with
            | () -> Alcotest.fail "expected error"
            | exception Typecheck.Error _ -> ()));
  ]

(* ------------------------------------------------------------------ *)
(* Negative paths: each ill-typed program must be rejected with the
   specific diagnostic, not just any failure.                          *)

let expect_message name src expected =
  t name (fun () ->
      match Typecheck.check_program (Symtab.build (Parser.parse src)) with
      | () -> Alcotest.failf "expected Typecheck.Error %S" expected
      | exception Typecheck.Error { message; _ } ->
        Alcotest.(check string) "diagnostic" expected message)

let escape_src stmt =
  Printf.sprintf
    "module m\n implicit none\n integer :: n\n real(kind=8) :: x\ncontains\n\
    \ subroutine s()\n  %s\n end subroutine s\nend module m\nprogram p\n use m\n\
    \ implicit none\n integer :: i\n n = 0\n x = 0.0d0\n do i = 1, 10\n  n = n + 1\n\
    \  call s()\n  x = x + 1.0d0\n end do\nend program p\n"
    stmt

let negative_tests =
  [
    expect_message "undeclared name in main program"
      "program p\n implicit none\n zz = 1\nend program p\n"
      "undeclared variable \"zz\" in main program";
    expect_message "undeclared name in procedure"
      "module m\n implicit none\n real(kind=8) :: x\ncontains\n subroutine s()\n  x = qq\n\
      \ end subroutine s\nend module m\nprogram p\n use m\n implicit none\n call s\nend program p\n"
      "undeclared variable \"qq\" in procedure \"s\"";
    expect_message "kind clash logical := integer"
      "program p\n implicit none\n logical :: b\n b = 1\nend program p\n"
      "type clash in assignment";
    expect_message "kind clash real := logical"
      "program p\n implicit none\n real(kind=8) :: x\n x = .true.\nend program p\n"
      "type clash in assignment";
    expect_message "subroutine arity"
      "module m\n implicit none\ncontains\n subroutine s(a)\n  real(kind=8) :: a\n  a = 0.0d0\n\
      \ end subroutine s\nend module m\nprogram p\n use m\n implicit none\n real(kind=8) :: x\n\
      \ call s(x, x)\nend program p\n"
      "subroutine \"s\" expects 1 arguments, got 2";
    expect_message "function arity"
      "module m\n implicit none\ncontains\n function g(a) result(r)\n  real(kind=8) :: a, r\n\
      \  r = a\n end function g\nend module m\nprogram p\n use m\n implicit none\n\
      \ real(kind=8) :: x\n x = g(x, x)\nend program p\n"
      "function \"g\" expects 1 arguments, got 2";
    expect_message "assignment to intent(in) dummy"
      "module m\n implicit none\ncontains\n subroutine s(a)\n  real(kind=8), intent(in) :: a\n\
      \  a = 1.0d0\n end subroutine s\nend module m\nprogram p\n use m\n implicit none\n\
      \ real(kind=8) :: x\n x = 0.0d0\n call s(x)\nend program p\n"
      "assignment to intent(in) dummy \"a\" in procedure \"s\"";
    expect_message "argument kind mismatch names the wrapper obligation"
      "module m\n implicit none\ncontains\n subroutine s(a)\n  real(kind=8) :: a\n  a = 0.0d0\n\
      \ end subroutine s\nend module m\nprogram p\n use m\n implicit none\n real(kind=4) :: x\n\
      \ call s(x)\nend program p\n"
      "argument 1 of call to \"s\": actual is real(4) but dummy \"a\" is real(8) — a \
       conversion wrapper is required";
    expect_message "do variable must be integer"
      "program p\n implicit none\n real(kind=8) :: x\n do x = 1, 3\n  x = x\n end do\n\
       end program p\n"
      "do variable \"x\" is not integer";
    expect_message "if condition must be logical (message)"
      "program p\n implicit none\n real(kind=8) :: x\n if (x) then\n  x = 1.0d0\n end if\n\
       end program p\n"
      "if condition is not logical";
    (* an escape with no loop of its own would leave the called
       procedure and end (exit) or skip the rest of (cycle) the caller's
       loop iteration *)
    expect_message "exit outside a loop escapes into the caller"
      (escape_src "exit") "exit outside a do loop in procedure \"s\"";
    expect_message "cycle outside a loop escapes into the caller"
      (escape_src "cycle") "cycle outside a do loop in procedure \"s\"";
    expect_message "exit outside a loop in the main program"
      "program p\n implicit none\n integer :: n\n n = 0\n if (n == 0) then\n  exit\n end if\n\
       end program p\n"
      "exit outside a do loop in main program";
    t "exit inside an if inside a do is accepted" (fun () ->
        let src =
          "program p\n implicit none\n integer :: i, n\n n = 0\n do i = 1, 10\n\
          \  n = n + 1\n  if (n > 3) then\n   exit\n  end if\n end do\nend program p\n"
        in
        Typecheck.check_program (Symtab.build (Parser.parse src)));
    t "intent(inout) dummy assignment is allowed" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n subroutine s(a)\n\
          \  real(kind=8), intent(inout) :: a\n  a = 1.0d0\n end subroutine s\nend module m\n\
           program p\n use m\n implicit none\n real(kind=8) :: x\n x = 0.0d0\n call s(x)\n\
           end program p\n"
        in
        Typecheck.check_program (Symtab.build (Parser.parse src)));
  ]

let () =
  Alcotest.run "typecheck"
    [
      ("inference", inference_tests);
      ("intrinsics", intrinsic_tests);
      ("call-site kinds", mismatch_tests);
      ("constant folding", folding_tests);
      ("whole programs", whole_program_tests);
      ("negative diagnostics", negative_tests);
    ]
