(* Symbol table tests: scoping, use-chains, search-space enumeration. *)

open Fortran

let t name f = Alcotest.test_case name `Quick f

let fixture =
  {|
module consts
  implicit none
  real(kind=8) :: gravity
  integer, parameter :: n = 4
end module consts

module phys
  use consts
  implicit none
  real(kind=8), dimension(n) :: field
  real(kind=4) :: coeff
contains
  subroutine step(dt)
    real(kind=8), intent(in) :: dt
    real(kind=8) :: gravity
    integer :: i
    gravity = 2.0d0
    do i = 1, n
      field(i) = field(i) + dt * gravity * coeff
    end do
  end subroutine step

  function total() result(s)
    real(kind=8) :: s
    s = sum(field)
  end function total
end module phys

program driver
  use phys
  implicit none
  real(kind=8) :: dt
  dt = 0.5d0
  call step(dt)
  print *, 'total', total()
end program driver
|}

let st () = Symtab.build (Parser.parse fixture)

let scope_tests =
  [
    t "local shadows module variable" (fun () ->
        let st = st () in
        match Symtab.lookup_var st ~in_proc:(Some "step") "gravity" with
        | Some { Symtab.v_scope = Symtab.Proc_scope "step"; _ } -> ()
        | _ -> Alcotest.fail "expected the local gravity");
    t "module variable visible in procedure" (fun () ->
        let st = st () in
        match Symtab.lookup_var st ~in_proc:(Some "step") "field" with
        | Some { Symtab.v_scope = Symtab.Unit_scope "phys"; v_dims = [ _ ]; _ } -> ()
        | _ -> Alcotest.fail "expected phys.field");
    t "used-module variable visible transitively" (fun () ->
        let st = st () in
        (* driver uses phys which uses consts *)
        match Symtab.lookup_var st ~in_proc:None "gravity" with
        | Some { Symtab.v_scope = Symtab.Unit_scope "consts"; _ } -> ()
        | _ -> Alcotest.fail "expected consts.gravity");
    t "parameter resolved with its initializer" (fun () ->
        let st = st () in
        match Symtab.lookup_var st ~in_proc:(Some "step") "n" with
        | Some { Symtab.v_parameter = true; v_init = Some (Ast.Int_lit 4); _ } -> ()
        | _ -> Alcotest.fail "expected parameter n");
    t "unknown variable yields None" (fun () ->
        Alcotest.(check bool) "nope" true
          (Symtab.lookup_var (st ()) ~in_proc:(Some "step") "nonexistent" = None));
    t "dummy argument resolves locally" (fun () ->
        match Symtab.lookup_var (st ()) ~in_proc:(Some "step") "dt" with
        | Some { Symtab.v_intent = Some Ast.In; _ } -> ()
        | _ -> Alcotest.fail "expected the dt dummy");
  ]

let proc_tests =
  [
    t "find_proc and owner" (fun () ->
        let st = st () in
        Alcotest.(check bool) "step exists" true (Symtab.find_proc st "step" <> None);
        Alcotest.(check string) "owner" "phys" (Symtab.proc_owner st "step"));
  ]

let search_space_tests =
  [
    t "fp_vars_of_module counts non-parameter reals" (fun () ->
        let vars = Symtab.fp_vars_of_module (st ()) "phys" in
        let names = List.sort compare (List.map (fun v -> v.Symtab.v_name) vars) in
        (* field, coeff (module level) + dt, gravity (step) + s (total) *)
        Alcotest.(check (list string)) "names" [ "coeff"; "dt"; "field"; "gravity"; "s" ] names);
    t "parameters excluded from the search space" (fun () ->
        let vars = Symtab.fp_vars_of_module (st ()) "consts" in
        Alcotest.(check (list string)) "only gravity" [ "gravity" ]
          (List.map (fun v -> v.Symtab.v_name) vars));
    t "vars_of_scope preserves declaration order" (fun () ->
        let vars = Symtab.vars_of_scope (st ()) (Symtab.Proc_scope "step") in
        Alcotest.(check (list string)) "order" [ "dt"; "gravity"; "i" ]
          (List.map (fun v -> v.Symtab.v_name) vars));
  ]

let expect_build_error name src =
  t name (fun () ->
      match Symtab.build (Parser.parse src) with
      | _ -> Alcotest.fail "expected Symtab.Error"
      | exception Symtab.Error _ -> ())

let error_tests =
  [
    expect_build_error "duplicate declaration in one scope"
      "program p\n implicit none\n real(kind=8) :: x\n real(kind=4) :: x\nend program p\n";
    expect_build_error "duplicate procedure names"
      "module a\n implicit none\ncontains\n subroutine s()\n  return\n end subroutine s\nend module a\nmodule b\n implicit none\ncontains\n subroutine s()\n  return\n end subroutine s\nend module b\n";
    expect_build_error "use of unknown module" "program p\n use nosuch\n implicit none\nend program p\n";
    expect_build_error "dummy without declaration"
      "module m\n implicit none\ncontains\n subroutine s(a)\n  return\n end subroutine s\nend module m\n";
    expect_build_error "function result without declaration"
      "module m\n implicit none\ncontains\n function f(x) result(y)\n  real(kind=8) :: x\n  x = 1.0d0\n end function f\nend module m\n";
    expect_build_error "duplicate program units"
      "module m\n implicit none\nend module m\nmodule m\n implicit none\nend module m\n";
  ]

let () =
  Alcotest.run "symtab"
    [
      ("scoping", scope_tests);
      ("procedures", proc_tests);
      ("search space", search_space_tests);
      ("errors", error_tests);
    ]
