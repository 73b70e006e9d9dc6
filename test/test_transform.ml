(* Transformation tests: precision assignments, declaration rewriting,
   wrapper synthesis (the Fig.-4 invariant), diffs. *)

open Fortran

let t name f = Alcotest.test_case name `Quick f

let fixture =
  {|
module m
  implicit none
  real(kind=8), dimension(4) :: shared
contains
  subroutine sink(v, s, flagged)
    real(kind=8), dimension(4), intent(inout) :: v
    real(kind=8), intent(in) :: s
    logical :: flagged
    integer :: i
    if (flagged) then
      do i = 1, 4
        v(i) = v(i) + s
      end do
    end if
  end subroutine sink

  function gain(x) result(y)
    real(kind=8) :: x, y
    y = 2.0d0 * x
  end function gain

  subroutine drive()
    real(kind=8) :: amp
    real(kind=8) :: tmp
    amp = 1.5d0
    tmp = gain(amp)
    call sink(shared, tmp, .true.)
  end subroutine drive
end module m

program p
  use m
  implicit none
  call drive
  print *, 'v', shared(1)
end program p
|}

let st () = Symtab.build (Parser.parse fixture)

let atoms () = Transform.Assignment.atoms_of_module (st ()) "m"

let atom_named atoms id =
  List.find (fun a -> Transform.Assignment.atom_id a = id) atoms

let assignment_tests =
  [
    t "atoms enumerate module FP declarations" (fun () ->
        let ids = List.sort compare (List.map Transform.Assignment.atom_id (atoms ())) in
        Alcotest.(check (list string)) "ids"
          [ "drive/amp"; "drive/tmp"; "gain/x"; "gain/y"; "m::shared"; "sink/s"; "sink/v" ]
          ids);
    t "exclude removes by name" (fun () ->
        let a = Transform.Assignment.atoms_of_module (st ()) "m" ~exclude:[ "tmp"; "y" ] in
        Alcotest.(check bool) "no tmp" true
          (not (List.exists (fun x -> Transform.Assignment.atom_id x = "drive/tmp") a)));
    t "atoms_of_target filters procedures" (fun () ->
        let a =
          Transform.Assignment.atoms_of_target (st ()) ~module_:"m" ~procs:(Some [ "gain" ])
        in
        Alcotest.(check (list string)) "gain + module level" [ "gain/x"; "gain/y"; "m::shared" ]
          (List.sort compare (List.map Transform.Assignment.atom_id a)));
    t "uniform and original" (fun () ->
        let a = atoms () in
        Alcotest.(check int) "all lowered" (List.length a)
          (Transform.Assignment.count_at (Transform.Assignment.uniform a Ast.K4) Ast.K4);
        Alcotest.(check int) "none lowered" 0
          (List.length (Transform.Assignment.lowered (Transform.Assignment.original a))));
    t "of_lowered and fraction" (fun () ->
        let a = atoms () in
        let two = [ atom_named a "drive/amp"; atom_named a "gain/x" ] in
        let asg = Transform.Assignment.of_lowered a ~lowered:two in
        Alcotest.(check int) "two lowered" 2 (List.length (Transform.Assignment.lowered asg));
        Alcotest.(check bool) "fraction" true
          (Float.abs (Transform.Assignment.fraction_lowered asg -. (2.0 /. 7.0)) < 1e-9));
    t "set flips one atom" (fun () ->
        let a = atoms () in
        let asg = Transform.Assignment.original a in
        let amp = atom_named a "drive/amp" in
        let asg' = Transform.Assignment.set asg amp Ast.K4 in
        Alcotest.(check bool) "amp is k4" true (Transform.Assignment.kind_of asg' amp = Ast.K4);
        Alcotest.(check bool) "signature changed" false
          (Transform.Assignment.equal asg asg'));
    t "signature distinguishes assignments" (fun () ->
        let a = atoms () in
        let s1 = Transform.Assignment.signature (Transform.Assignment.original a) in
        let s2 = Transform.Assignment.signature (Transform.Assignment.uniform a Ast.K4) in
        Alcotest.(check int) "lengths equal" (String.length s1) (String.length s2);
        Alcotest.(check bool) "differ" true (s1 <> s2));
    t "restrict_signature covers only the procedure" (fun () ->
        let a = atoms () in
        let asg = Transform.Assignment.original a in
        Alcotest.(check int) "gain has 2 atoms" 2
          (String.length (Transform.Assignment.restrict_signature asg ~proc:"gain")));
  ]

let rewrite_tests =
  [
    t "retypes only the targeted declarations" (fun () ->
        let st = st () in
        let a = atoms () in
        let asg =
          Transform.Assignment.of_lowered a ~lowered:[ atom_named a "drive/amp" ]
        in
        let prog' = Transform.Rewrite.apply st asg in
        let st' = Symtab.build prog' in
        (match Symtab.lookup_var st' ~in_proc:(Some "drive") "amp" with
        | Some { Symtab.v_base = Ast.Treal Ast.K4; _ } -> ()
        | _ -> Alcotest.fail "amp should be k4");
        match Symtab.lookup_var st' ~in_proc:(Some "drive") "tmp" with
        | Some { Symtab.v_base = Ast.Treal Ast.K8; _ } -> ()
        | _ -> Alcotest.fail "tmp should stay k8");
    t "splits multi-entity declarations by assigned kind" (fun () ->
        let src =
          "program p\n implicit none\n real(kind=8) :: a, b, c\n a = 1.0d0\n b = 2.0d0\n c = 3.0d0\nend program p\n"
        in
        let st = Symtab.build (Parser.parse src) in
        let ats = Transform.Assignment.atoms_of_module st "p" in
        let b = List.find (fun x -> x.Transform.Assignment.a_name = "b") ats in
        let asg = Transform.Assignment.of_lowered ats ~lowered:[ b ] in
        let text = Transform.Rewrite.apply_source st asg in
        Alcotest.(check bool) "k4 line for b" true
          (let rec contains s sub i =
             i + String.length sub <= String.length s
             && (String.sub s i (String.length sub) = sub || contains s sub (i + 1))
           in
           contains text "real(kind=4) :: b" 0);
        (* result must reparse *)
        ignore (Parser.parse text));
    t "parameters never retype" (fun () ->
        let src =
          "program p\n implicit none\n real(kind=8), parameter :: c = 1.0d0\n real(kind=8) :: x\n x = c\nend program p\n"
        in
        let st = Symtab.build (Parser.parse src) in
        let ats = Transform.Assignment.atoms_of_module st "p" in
        Alcotest.(check int) "only x is an atom" 1 (List.length ats));
    t "rewrite preserves statement structure" (fun () ->
        let st = st () in
        let a = atoms () in
        let asg = Transform.Assignment.uniform a Ast.K4 in
        let before = Unparse.program (Symtab.program st) in
        let after = Unparse.program (Transform.Rewrite.apply st asg) in
        (* only declaration lines differ *)
        let changed =
          List.filter
            (function Transform.Diff.Keep _ -> false | _ -> true)
            (Transform.Diff.lines before after)
        in
        List.iter
          (function
            | Transform.Diff.Keep _ -> ()
            | Transform.Diff.Remove l | Transform.Diff.Add l ->
              Alcotest.(check bool) ("decl line: " ^ l) true
                (let l = String.trim l in
                 String.length l >= 4 && String.sub l 0 4 = "real"))
          changed);
  ]

(* ------------------------------------------------------------------ *)

let lower_and_wrap ids =
  let st = st () in
  let a = atoms () in
  let lowered = List.map (atom_named a) ids in
  let asg = Transform.Assignment.of_lowered a ~lowered in
  let prog' = Transform.Rewrite.apply st asg in
  Transform.Wrappers.insert prog'

let wrapper_tests =
  [
    t "clean program is untouched" (fun () ->
        let w = Transform.Wrappers.insert (Parser.parse fixture) in
        Alcotest.(check int) "no wrappers" 0 (List.length w.Transform.Wrappers.wrapper_map));
    t "scalar mismatch produces a wrapper and typechecks" (fun () ->
        let w = lower_and_wrap [ "gain/x"; "gain/y" ] in
        Alcotest.(check int) "one wrapper" 1 (List.length w.Transform.Wrappers.wrapper_map);
        let st' = Symtab.build w.Transform.Wrappers.program in
        Typecheck.check_program st';
        (* flow-graph invariant restored *)
        Alcotest.(check int) "no violations" 0
          (List.length (Analysis.Flowgraph.violations (Analysis.Flowgraph.build st'))));
    t "wrapper names encode the boundary signature" (fun () ->
        let w = lower_and_wrap [ "gain/x"; "gain/y" ] in
        match w.Transform.Wrappers.wrapper_map with
        | [ (wname, "gain") ] -> Alcotest.(check string) "name" "gain_w8" wname
        | _ -> Alcotest.fail "expected gain wrapper");
    t "call sites are redirected" (fun () ->
        let w = lower_and_wrap [ "gain/x"; "gain/y" ] in
        let drive = Option.get (Ast.find_proc w.Transform.Wrappers.program "drive") in
        let text = Unparse.proc drive in
        Alcotest.(check bool) "redirected" true
          (let rec contains s sub i =
             i + String.length sub <= String.length s
             && (String.sub s i (String.length sub) = sub || contains s sub (i + 1))
           in
           contains text "gain_w8(amp)" 0));
    t "array mismatch generates element-wise copy loops" (fun () ->
        let w = lower_and_wrap [ "sink/v"; "sink/s" ] in
        let wrapper =
          Option.get (Ast.find_proc w.Transform.Wrappers.program "sink_w88x")
        in
        let loops = ref 0 in
        Ast.iter_stmts
          (fun s -> match s.Ast.node with Ast.Do _ -> incr loops | _ -> ())
          wrapper.Ast.proc_body;
        (* intent(inout) array: one copy-in and one copy-out loop *)
        Alcotest.(check int) "two copy loops" 2 !loops;
        Typecheck.check_program (Symtab.build w.Transform.Wrappers.program));
    t "intent(in) scalars skip copy-out" (fun () ->
        let w = lower_and_wrap [ "sink/s" ] in
        let wrapper = Option.get (Ast.find_proc w.Transform.Wrappers.program "sink_wx8x") in
        let assigns_to_dummy = ref 0 in
        Ast.iter_stmts
          (fun s ->
            match s.Ast.node with
            | Ast.Assign (Ast.Lvar "s", _) -> incr assigns_to_dummy
            | _ -> ())
          wrapper.Ast.proc_body;
        Alcotest.(check int) "no copy-out to s" 0 !assigns_to_dummy);
    t "wrapped program executes with the same result" (fun () ->
        let base_out = Runtime.Interp.run (st ()) in
        let w = lower_and_wrap [ "gain/x"; "gain/y" ] in
        let st' = Symtab.build w.Transform.Wrappers.program in
        let out = Runtime.Interp.run ~wrapper_owner:(Transform.Wrappers.owner_fn w) st' in
        (match out.Runtime.Interp.status with
        | Runtime.Interp.Finished -> ()
        | s -> Alcotest.failf "variant failed: %a" Runtime.Interp.pp_status s);
        let v0 = List.hd (Runtime.Interp.series base_out "v") in
        let v1 = List.hd (Runtime.Interp.series out "v") in
        Alcotest.(check bool) "close result" true (Float.abs (v0 -. v1) /. v0 < 1e-6));
    t "unparse + reparse of wrapped program is stable" (fun () ->
        let w = lower_and_wrap [ "sink/v"; "sink/s"; "gain/x"; "gain/y" ] in
        let text = Unparse.program w.Transform.Wrappers.program in
        let again = Parser.parse text in
        Alcotest.(check string) "fixpoint" text (Unparse.program again);
        Typecheck.check_program (Symtab.build again));
    t "insert is idempotent" (fun () ->
        let w = lower_and_wrap [ "gain/x"; "gain/y" ] in
        let w2 = Transform.Wrappers.insert w.Transform.Wrappers.program in
        Alcotest.(check int) "no further wrappers" 0
          (List.length w2.Transform.Wrappers.wrapper_map));
    t "owner_fn maps wrappers to wrapped procedures" (fun () ->
        let w = lower_and_wrap [ "gain/x"; "gain/y" ] in
        Alcotest.(check (option string)) "gain" (Some "gain")
          (Transform.Wrappers.owner_fn w "gain_w8");
        Alcotest.(check (option string)) "not a wrapper" None
          (Transform.Wrappers.owner_fn w "drive"));
  ]

let diff_tests =
  [
    t "lines classifies changes" (fun () ->
        let d = Transform.Diff.lines "a\nb\nc" "a\nx\nc" in
        Alcotest.(check int) "keep 2" 2
          (List.length (List.filter (function Transform.Diff.Keep _ -> true | _ -> false) d));
        Alcotest.(check int) "one removed" 1
          (List.length (List.filter (function Transform.Diff.Remove _ -> true | _ -> false) d));
        Alcotest.(check int) "one added" 1
          (List.length (List.filter (function Transform.Diff.Add _ -> true | _ -> false) d)));
    t "declarations diff lists retyped atoms by scope" (fun () ->
        let st = st () in
        let a = atoms () in
        let asg = Transform.Assignment.of_lowered a ~lowered:[ atom_named a "drive/amp" ] in
        let d = Transform.Diff.declarations st asg in
        Alcotest.(check bool) "mentions drive" true
          (let rec contains s sub i =
             i + String.length sub <= String.length s
             && (String.sub s i (String.length sub) = sub || contains s sub (i + 1))
           in
           contains d "procedure drive" 0 && contains d "+ real(kind=4) :: amp" 0));
  ]

let () =
  Alcotest.run "transform"
    [
      ("assignments", assignment_tests);
      ("rewrite", rewrite_tests);
      ("wrappers", wrapper_tests);
      ("diff", diff_tests);
    ]
