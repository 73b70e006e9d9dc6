(* Analysis tests: call graph, vectorization/dependence analysis, FP flow
   graph, static cost model, def-use summaries. *)

open Fortran

let t name f = Alcotest.test_case name `Quick f
let st_of src = Symtab.build (Parser.parse src)

(* first-occurrence textual substitution for fixture tweaking *)
module Str_replace = struct
  let replace haystack needle replacement =
    let nl = String.length needle in
    let hl = String.length haystack in
    let rec find i =
      if i + nl > hl then None
      else if String.sub haystack i nl = needle then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> Alcotest.failf "fixture does not contain %S" needle
    | Some i ->
      String.sub haystack 0 i ^ replacement ^ String.sub haystack (i + nl) (hl - i - nl)
end

(* ------------------------------------------------------------------ *)
(* Call graph                                                          *)

let callgraph_src =
  {|
module m
  implicit none
contains
  subroutine a()
    call b
    call b
    call c
  end subroutine a
  subroutine b()
    real(kind=8) :: x
    x = helper(1.0d0)
  end subroutine b
  subroutine c()
    call c
  end subroutine c
  function helper(v) result(w)
    real(kind=8) :: v, w
    w = v
  end function helper
end module m
program p
  use m
  implicit none
  call a
end program p
|}

let callgraph_tests =
  [
    t "callees with static counts" (fun () ->
        let g = Analysis.Callgraph.build (st_of callgraph_src) in
        Alcotest.(check (list (pair string int)))
          "a calls" [ ("b", 2); ("c", 1) ]
          (Analysis.Callgraph.callees g (Some "a")));
    t "function references are edges" (fun () ->
        let g = Analysis.Callgraph.build (st_of callgraph_src) in
        Alcotest.(check (list (pair string int)))
          "b calls" [ ("helper", 1) ]
          (Analysis.Callgraph.callees g (Some "b")));
    t "main body edges" (fun () ->
        let g = Analysis.Callgraph.build (st_of callgraph_src) in
        Alcotest.(check (list (pair string int))) "main" [ ("a", 1) ]
          (Analysis.Callgraph.callees g None));
    t "callers reverse edges" (fun () ->
        let g = Analysis.Callgraph.build (st_of callgraph_src) in
        Alcotest.(check int) "b has one caller" 1
          (List.length (Analysis.Callgraph.callers g "b")));
    t "reachable closure" (fun () ->
        let g = Analysis.Callgraph.build (st_of callgraph_src) in
        Alcotest.(check (list string)) "from a" [ "a"; "b"; "c"; "helper" ]
          (List.sort compare (Analysis.Callgraph.reachable g ~roots:[ "a" ])));
  ]

(* ------------------------------------------------------------------ *)
(* Vectorization analysis                                              *)

let vec_report src =
  let st = st_of src in
  match Analysis.Vectorize.analyze st with
  | r :: _ -> r
  | [] -> Alcotest.fail "no loops analyzed"

let mk_loop body_decls body =
  Printf.sprintf
    "program p\n implicit none\n integer :: i\n%s\n do i = 1, 10\n%s\n end do\nend program p\n"
    body_decls body

let has_blocker pred r = List.exists pred r.Analysis.Vectorize.blockers

let vectorize_tests =
  [
    t "clean stencil loop vectorizes" (fun () ->
        let r =
          vec_report
            (mk_loop "real(kind=8), dimension(12) :: a, b" "  b(i) = a(i) * 2.0d0 + a(i + 1)")
        in
        Alcotest.(check bool) "vectorizable" true (Analysis.Vectorize.vectorizable r));
    t "array recurrence blocks" (fun () ->
        let r = vec_report (mk_loop "real(kind=8), dimension(12) :: a" "  a(i + 1) = a(i) * 0.5d0") in
        Alcotest.(check bool) "carried" true
          (has_blocker
             (function Analysis.Vectorize.Carried_array_dependence "a" -> true | _ -> false)
             r));
    t "same-index read+write is fine" (fun () ->
        let r = vec_report (mk_loop "real(kind=8), dimension(12) :: a" "  a(i) = a(i) * 0.5d0") in
        Alcotest.(check bool) "vectorizable" true (Analysis.Vectorize.vectorizable r));
    t "scalar recurrence blocks" (fun () ->
        let r =
          vec_report
            (mk_loop "real(kind=8) :: prev\n real(kind=8), dimension(12) :: a"
               "  a(i) = prev * 0.5d0\n  prev = a(i)")
        in
        Alcotest.(check bool) "carried scalar" true
          (has_blocker
             (function Analysis.Vectorize.Carried_scalar_dependence "prev" -> true | _ -> false)
             r));
    t "privatizable temporary is fine" (fun () ->
        let r =
          vec_report
            (mk_loop "real(kind=8) :: tmp\n real(kind=8), dimension(12) :: a"
               "  tmp = a(i) * 2.0d0\n  a(i) = tmp + 1.0d0")
        in
        Alcotest.(check bool) "vectorizable" true (Analysis.Vectorize.vectorizable r));
    t "sum reduction recognized" (fun () ->
        let r =
          vec_report
            (mk_loop "real(kind=8) :: s\n real(kind=8), dimension(12) :: a" "  s = s + a(i)")
        in
        Alcotest.(check bool) "vectorizable" true (Analysis.Vectorize.vectorizable r);
        Alcotest.(check (list string)) "reduction" [ "s" ] r.Analysis.Vectorize.reductions);
    t "max reduction recognized" (fun () ->
        let r =
          vec_report
            (mk_loop "real(kind=8) :: m\n real(kind=8), dimension(12) :: a" "  m = max(m, a(i))")
        in
        Alcotest.(check bool) "vectorizable" true (Analysis.Vectorize.vectorizable r));
    t "accumulator read elsewhere disqualifies (funarc d1)" (fun () ->
        let r =
          vec_report
            (mk_loop "real(kind=8) :: d1, t1" "  d1 = 2.0d0 * d1\n  t1 = t1 + sin(d1) / d1")
        in
        Alcotest.(check bool) "not vectorizable" false (Analysis.Vectorize.vectorizable r));
    t "do while never vectorizes" (fun () ->
        let src =
          "program p\n implicit none\n real(kind=8) :: x\n x = 0.0d0\n do while (x < 1.0d0)\n  x = x + 0.25d0\n end do\nend program p\n"
        in
        let r = vec_report src in
        Alcotest.(check bool) "blocked" true
          (has_blocker (function Analysis.Vectorize.Do_while_loop -> true | _ -> false) r));
    t "exit blocks vectorization" (fun () ->
        let r =
          vec_report
            (mk_loop "real(kind=8), dimension(12) :: a" "  a(i) = 1.0d0\n  if (a(i) > 0.5d0) exit")
        in
        Alcotest.(check bool) "blocked" true
          (has_blocker (function Analysis.Vectorize.Irregular_control_flow -> true | _ -> false) r));
    t "nested loop blocks the outer loop" (fun () ->
        let src =
          "program p\n implicit none\n integer :: i, j\n real(kind=8), dimension(4, 4) :: a\n do i = 1, 4\n  do j = 1, 4\n   a(i, j) = 1.0d0\n  end do\n end do\nend program p\n"
        in
        let st = st_of src in
        let reports = Analysis.Vectorize.analyze st in
        Alcotest.(check int) "two loops" 2 (List.length reports);
        let outer = Option.get (Analysis.Vectorize.report_for reports 0) in
        let inner = Option.get (Analysis.Vectorize.report_for reports 1) in
        Alcotest.(check bool) "outer blocked" true
          (has_blocker (function Analysis.Vectorize.Nested_loop -> true | _ -> false) outer);
        Alcotest.(check bool) "inner ok" true (Analysis.Vectorize.vectorizable inner));
    t "intrinsic calls keep vectorization" (fun () ->
        let r =
          vec_report (mk_loop "real(kind=8), dimension(12) :: a" "  a(i) = sqrt(abs(a(i)))")
        in
        Alcotest.(check bool) "vectorizable" true (Analysis.Vectorize.vectorizable r));
    t "kind-uniform inlinable call keeps vectorization" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n function lin(x) result(y)\n  real(kind=8) :: x, y\n  y = 2.0d0 * x + 1.0d0\n end function lin\n subroutine work(a, n)\n  integer :: n, i\n  real(kind=8), dimension(n) :: a\n  do i = 1, n\n   a(i) = lin(a(i))\n  end do\n end subroutine work\nend module m\n"
        in
        let st = st_of src in
        let loop =
          List.find
            (fun r -> r.Analysis.Vectorize.proc = Some "work")
            (Analysis.Vectorize.analyze st)
        in
        Alcotest.(check bool) "vectorizable" true (Analysis.Vectorize.vectorizable loop);
        Alcotest.(check (list string)) "inlined" [ "lin" ] loop.Analysis.Vectorize.inlined_calls);
    t "kind-mismatched call boundary blocks vectorization" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n function lin(x) result(y)\n  real(kind=4) :: x, y\n  y = 2.0 * x + 1.0\n end function lin\n subroutine work(a, n)\n  integer :: n, i\n  real(kind=8), dimension(n) :: a\n  do i = 1, n\n   a(i) = lin(a(i))\n  end do\n end subroutine work\nend module m\n"
        in
        let st = st_of src in
        let loop =
          List.find
            (fun r -> r.Analysis.Vectorize.proc = Some "work")
            (Analysis.Vectorize.analyze st)
        in
        Alcotest.(check bool) "blocked" true
          (has_blocker
             (function Analysis.Vectorize.Non_inlinable_call "lin" -> true | _ -> false)
             loop));
    t "mixed-kind operations counted as conversion sites" (fun () ->
        let r =
          vec_report
            (mk_loop "real(kind=4), dimension(12) :: a\n real(kind=8) :: w"
               "  a(i) = w * a(i)")
        in
        Alcotest.(check bool) "has conv sites" true (r.Analysis.Vectorize.conv_sites >= 1);
        Alcotest.(check bool) "still vectorizable" true (Analysis.Vectorize.vectorizable r));
    t "select case in a loop body blocks vectorization" (fun () ->
        let r =
          vec_report
            (mk_loop "real(kind=8), dimension(12) :: a\n integer :: k"
               "  k = mod(i, 2)\n  select case (k)\n  case (0)\n   a(i) = 1.0d0\n  case default\n   a(i) = 2.0d0\n  end select")
        in
        Alcotest.(check bool) "blocked" true
          (has_blocker (function Analysis.Vectorize.Irregular_control_flow -> true | _ -> false) r));
    t "calls inside select arms are seen by the call graph" (fun () ->
        let src =
          "module m\n implicit none\ncontains\n subroutine a(k)\n  integer :: k\n  select case (k)\n  case (1)\n   call b\n  case default\n   call c\n  end select\n end subroutine a\n subroutine b()\n  return\n end subroutine b\n subroutine c()\n  return\n end subroutine c\nend module m\n"
        in
        let g = Analysis.Callgraph.build (st_of src) in
        Alcotest.(check (list (pair string int))) "edges" [ ("b", 1); ("c", 1) ]
          (Analysis.Callgraph.callees g (Some "a")));
    t "literal operands are free conversions" (fun () ->
        (* a k4 literal with a k4 array: no mixing at all *)
        let r =
          vec_report (mk_loop "real(kind=4), dimension(12) :: a" "  a(i) = 2.0 * a(i)")
        in
        Alcotest.(check int) "no conv sites" 0 r.Analysis.Vectorize.conv_sites;
        (* assigning a k8 literal to a k4 element folds at compile time *)
        let r2 = vec_report (mk_loop "real(kind=4), dimension(12) :: a" "  a(i) = 2.0d0") in
        Alcotest.(check int) "literal store free" 0 r2.Analysis.Vectorize.conv_sites;
        (* but a k8-promoted expression stored to k4 is a real conversion *)
        let r3 =
          vec_report (mk_loop "real(kind=4), dimension(12) :: a" "  a(i) = 2.0d0 * a(i)")
        in
        Alcotest.(check bool) "promoted store counted" true
          (r3.Analysis.Vectorize.conv_sites >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* Flow graph                                                          *)

let flow_src =
  {|
module m
  implicit none
  real(kind=8), dimension(8) :: buf
contains
  subroutine consume(v, s)
    real(kind=8), dimension(8) :: v
    real(kind=4) :: s
    v(1) = s
  end subroutine consume
  subroutine drive()
    real(kind=4) :: scale
    integer :: i
    scale = 2.0
    do i = 1, 3
      call consume(buf, scale)
    end do
  end subroutine drive
end module m
program p
  use m
  implicit none
  call drive
end program p
|}

let flowgraph_tests =
  [
    t "nodes cover every FP declaration" (fun () ->
        let g = Analysis.Flowgraph.build (st_of flow_src) in
        let names = List.sort compare (List.map (fun n -> n.Analysis.Flowgraph.n_var) (Analysis.Flowgraph.nodes g)) in
        Alcotest.(check (list string)) "names" [ "buf"; "s"; "scale"; "v" ] names);
    t "edges record parameter passing with loop depth" (fun () ->
        let g = Analysis.Flowgraph.build (st_of flow_src) in
        let edges = Analysis.Flowgraph.edges g in
        Alcotest.(check int) "two real dummies" 2 (List.length edges);
        List.iter
          (fun e -> Alcotest.(check int) "depth 1" 1 e.Analysis.Flowgraph.e_loop_depth)
          edges);
    t "matching kinds: no violations" (fun () ->
        let g = Analysis.Flowgraph.build (st_of flow_src) in
        Alcotest.(check int) "violations" 0 (List.length (Analysis.Flowgraph.violations g)));
    t "array element counts on nodes" (fun () ->
        let g = Analysis.Flowgraph.build (st_of flow_src) in
        let buf = Option.get (Analysis.Flowgraph.node_of_var g ~scope:(Symtab.Unit_scope "m") "buf") in
        Alcotest.(check (option int)) "8 elements" (Some 8) buf.Analysis.Flowgraph.n_elements;
        Alcotest.(check bool) "is array" true buf.Analysis.Flowgraph.n_is_array);
    t "kind mismatch shows as violation" (fun () ->
        (* retype the scale variable to kind 8: consume's s stays kind 4 *)
        let mismatched = Str_replace.replace flow_src "real(kind=4) :: scale" "real(kind=8) :: scale" in
        let g = Analysis.Flowgraph.build (st_of mismatched) in
        Alcotest.(check int) "one violation" 1 (List.length (Analysis.Flowgraph.violations g)));
  ]

(* ------------------------------------------------------------------ *)
(* Static cost model                                                   *)

let static_cost_tests =
  [
    t "clean program has zero penalty" (fun () ->
        let v = Analysis.Static_cost.evaluate (st_of flow_src) in
        Alcotest.(check (float 0.0)) "penalty" 0.0 v.Analysis.Static_cost.penalty);
    t "mismatch penalty scales with loop depth" (fun () ->
        let shallow =
          Str_replace.replace flow_src "real(kind=4) :: scale" "real(kind=8) :: scale"
        in
        let deep =
          Str_replace.replace shallow "do i = 1, 3\n      call consume(buf, scale)\n    end do"
            "do i = 1, 3\n      do j = 1, 3\n        call consume(buf, scale)\n      end do\n    end do"
        in
        let deep = Str_replace.replace deep "integer :: i" "integer :: i, j" in
        let vs = Analysis.Static_cost.evaluate (st_of shallow) in
        let vd = Analysis.Static_cost.evaluate (st_of deep) in
        Alcotest.(check bool) "deeper costs more" true
          (vd.Analysis.Static_cost.penalty > vs.Analysis.Static_cost.penalty));
    t "array mismatch penalized by elements" (fun () ->
        let arr_mismatch =
          Str_replace.replace flow_src "real(kind=8), dimension(8) :: v"
            "real(kind=4), dimension(8) :: v"
        in
        let scalar_mismatch =
          Str_replace.replace flow_src "real(kind=4) :: s" "real(kind=8) :: s"
        in
        let va = Analysis.Static_cost.evaluate (st_of arr_mismatch) in
        let vs = Analysis.Static_cost.evaluate (st_of scalar_mismatch) in
        Alcotest.(check bool) "array mismatch costs more" true
          (va.Analysis.Static_cost.penalty > vs.Analysis.Static_cost.penalty));
    t "predicts_worse on lost vectorization" (fun () ->
        let base = { Analysis.Static_cost.penalty = 0.0; vector_loops = 5; mismatched_edges = 0 } in
        let cand = { Analysis.Static_cost.penalty = 0.0; vector_loops = 4; mismatched_edges = 0 } in
        Alcotest.(check bool) "rejected" true
          (Analysis.Static_cost.predicts_worse ~baseline:base ~candidate:cand ~penalty_budget:1e9));
    t "predicts_worse on penalty budget" (fun () ->
        let base = { Analysis.Static_cost.penalty = 0.0; vector_loops = 5; mismatched_edges = 0 } in
        let cand = { Analysis.Static_cost.penalty = 100.0; vector_loops = 5; mismatched_edges = 2 } in
        Alcotest.(check bool) "rejected" true
          (Analysis.Static_cost.predicts_worse ~baseline:base ~candidate:cand ~penalty_budget:50.0);
        Alcotest.(check bool) "accepted under budget" false
          (Analysis.Static_cost.predicts_worse ~baseline:base ~candidate:cand ~penalty_budget:500.0));
  ]

(* ------------------------------------------------------------------ *)
(* Static trip counts                                                  *)

let do_loop ?step from_ to_ =
  Fortran.Ast.Do
    { id = 0; var = "i"; from_ = Ast.Int_lit from_; to_ = Ast.Int_lit to_; step; body = [] }

let trip_count_tests =
  let tc = Analysis.Static_cost.trip_count in
  [
    t "counted loop folds" (fun () ->
        Alcotest.(check (option int)) "1..10" (Some 10) (tc (do_loop 1 10));
        Alcotest.(check (option int)) "5..5" (Some 1) (tc (do_loop 5 5));
        Alcotest.(check (option int))
          "1..10 by 3" (Some 4)
          (tc (do_loop ~step:(Ast.Int_lit 3) 1 10)));
    t "zero-trip loop is Some 0, not None" (fun () ->
        Alcotest.(check (option int)) "5..1" (Some 0) (tc (do_loop 5 1));
        Alcotest.(check (option int))
          "1..5 by -1" (Some 0)
          (tc (do_loop ~step:(Ast.Int_lit (-1)) 1 5)));
    t "negative stride counts downward" (fun () ->
        Alcotest.(check (option int))
          "10..1 by -2" (Some 5)
          (tc (do_loop ~step:(Ast.Unop (Ast.Neg, Ast.Int_lit 2)) 10 1));
        Alcotest.(check (option int))
          "10..1 by -3" (Some 4)
          (tc (do_loop ~step:(Ast.Int_lit (-3)) 10 1)));
    t "do-while and zero step do not fold" (fun () ->
        Alcotest.(check (option int))
          "do while" None
          (tc (Fortran.Ast.Do_while { id = 0; cond = Ast.Logical_lit true; body = [] }));
        Alcotest.(check (option int))
          "zero step" None
          (tc (do_loop ~step:(Ast.Int_lit 0) 1 10)));
    t "const_int folds through the parameter env" (fun () ->
        let env = function "n" -> Some 100 | _ -> None in
        Alcotest.(check (option int))
          "n - 1" (Some 99)
          (Analysis.Static_cost.const_int ~env (Ast.Binop (Ast.Sub, Ast.Var "n", Ast.Int_lit 1)));
        Alcotest.(check (option int))
          "unbound var" None
          (Analysis.Static_cost.const_int (Ast.Var "n"));
        Alcotest.(check (option int))
          "division by zero" None
          (Analysis.Static_cost.const_int (Ast.Binop (Ast.Div, Ast.Int_lit 1, Ast.Int_lit 0)));
        Alcotest.(check (option int))
          "1..n loop" (Some 100)
          (tc ~env
             (Fortran.Ast.Do
                { id = 0; var = "i"; from_ = Ast.Int_lit 1; to_ = Ast.Var "n"; step = None; body = [] })));
  ]

(* ------------------------------------------------------------------ *)
(* Def-use                                                             *)

let defuse_tests =
  [
    t "defs and uses with loop depth" (fun () ->
        let src =
          "program p\n implicit none\n integer :: i\n real(kind=8) :: acc\n real(kind=8), dimension(4) :: a\n acc = 0.0d0\n do i = 1, 4\n  acc = acc + a(i)\n end do\n print *, 'acc', acc\nend program p\n"
        in
        let st = st_of src in
        let summaries = Analysis.Defuse.analyze st in
        let acc =
          Option.get (Analysis.Defuse.for_var summaries ~scope:(Symtab.Unit_scope "p") "acc")
        in
        Alcotest.(check int) "two defs" 2 (List.length acc.Analysis.Defuse.defs));
    t "call arguments count as defs" (fun () ->
        let st = st_of flow_src in
        let summaries = Analysis.Defuse.analyze st in
        let buf =
          Option.get (Analysis.Defuse.for_var summaries ~scope:(Symtab.Unit_scope "m") "buf")
        in
        Alcotest.(check bool) "buf has defs" true (buf.Analysis.Defuse.defs <> []));
  ]

(* ------------------------------------------------------------------ *)
(* Pinned outputs                                                      *)

(* One md5 over every analysis output, in a fixed order, per registered
   model and over 500 generated programs; each program is digested as
   parsed and after its precision assignment is applied (the uniform
   32-bit one for a model, the case's own for a generated program), so
   call sites with mismatching kinds are covered. The md5s were recorded
   before the analyses shared one statement walk and one classification
   of [name(args)]; the site lines then came from a walker and a rule
   written out here. On the generated programs, whose [if] statements
   can have [else if] arms with calls in their conditions, two outputs
   are digested sorted because the walks behind them used to visit all
   of an [if]'s conditions before its blocks: the Typecheck.mismatches
   list and each Vectorize report's blockers. The generated programs'
   md5 was re-recorded when the generator began to draw tan, asin, acos,
   sinh, cosh, aint, anint and log10, with the analyses unchanged. *)

let scope_s = function Symtab.Proc_scope p -> "p:" ^ p | Symtab.Unit_scope u -> "u:" ^ u
let opt_s = function Some s -> s | None -> "-"

let callee_s = function
  | Symtab.Variable _ -> "variable"
  | Symtab.Intrinsic _ -> "intrinsic"
  | Symtab.Builtin_subroutine -> "builtin"
  | Symtab.Procedure _ -> "procedure"
  | Symtab.Unknown -> "unknown"

let digest_analyses buf ~sorted ~targets st =
  let pr fmt = Printf.bprintf buf fmt in
  let prog = Symtab.program st in
  let procs = Ast.all_procs prog in
  let maybe_sort l = if sorted then List.sort compare l else l in
  let loc = Loc.to_string in
  (* call graph *)
  let g = Analysis.Callgraph.build st in
  List.iter
    (fun caller ->
      pr "callees %s:" (opt_s caller);
      List.iter (fun (c, n) -> pr " %s*%d" c n) (Analysis.Callgraph.callees g caller);
      pr "\n")
    (None :: List.map (fun (p : Ast.proc) -> Some p.proc_name) procs);
  List.iter
    (fun (p : Ast.proc) ->
      pr "callers %s:" p.proc_name;
      List.iter (fun (c, n) -> pr " %s*%d" (opt_s c) n) (Analysis.Callgraph.callers g p.proc_name);
      pr "\n")
    procs;
  (* def-use *)
  let occ (o : Analysis.Defuse.occurrence) =
    pr " %s@%d/%s" (loc o.o_loc) o.o_loop_depth (opt_s o.o_proc)
  in
  List.iter
    (fun (s : Analysis.Defuse.summary) ->
      pr "defuse %s %s defs" s.var (scope_s s.scope);
      List.iter occ s.defs;
      pr " uses";
      List.iter occ s.uses;
      pr "\n")
    (Analysis.Defuse.analyze st);
  (* flow graph *)
  let fg = Analysis.Flowgraph.build st in
  List.iter
    (fun (e : Analysis.Flowgraph.edge) ->
      pr "edge %s %s\n" (Format.asprintf "%a" Analysis.Flowgraph.pp_edge e) (loc e.e_loc))
    (Analysis.Flowgraph.edges fg);
  List.iter
    (fun e -> pr "violation %s\n" (Format.asprintf "%a" Analysis.Flowgraph.pp_edge e))
    (Analysis.Flowgraph.violations fg);
  (* vectorization *)
  List.iter
    (fun (r : Analysis.Vectorize.report) ->
      let r = { r with blockers = maybe_sort r.blockers } in
      pr "loop %s %s reductions=%s inlined=%s\n"
        (Format.asprintf "%a" Analysis.Vectorize.pp_report r)
        (loc r.loc) (String.concat "," r.reductions) (String.concat "," r.inlined_calls))
    (Analysis.Vectorize.analyze st);
  List.iter
    (fun (p : Ast.proc) ->
      pr "inlinable %s %b\n" p.proc_name
        (Analysis.Vectorize.inlinable st ~inline_stmt_limit:16 p))
    procs;
  (* taint reduction *)
  let reduced, stats = Analysis.Taint.reduce st ~targets in
  pr "taint %s\n%s" (Format.asprintf "%a" Analysis.Taint.pp_stats stats) (Unparse.program reduced);
  (* call-site kind mismatches *)
  List.iter (Buffer.add_string buf)
    (maybe_sort
       (List.map
          (fun (m : Typecheck.mismatch) ->
            Printf.sprintf "mismatch %s %s #%d %s %s %d->%d array=%b %s\n" (opt_s m.mm_caller)
              m.mm_callee m.mm_arg_index m.mm_dummy (Unparse.expr m.mm_actual)
              (Token.int_of_kind m.mm_actual_kind) (Token.int_of_kind m.mm_dummy_kind)
              m.mm_is_array (loc m.mm_loc))
          (Typecheck.mismatches st)));
  (* static cost *)
  let v = Analysis.Static_cost.evaluate st in
  pr "static %h %d %d\n" v.penalty v.vector_loops v.mismatched_edges;
  (* vectorization modes *)
  let modes = Runtime.Ir.vec_modes Runtime.Machine.default st in
  Ast.iter_bodies
    (fun _ ->
      Ast.iter_stmts (fun s ->
          match s.Ast.node with
          | Ast.Do { id; _ } | Ast.Do_while { id; _ } ->
            pr "mode %d %d\n" id (Runtime.Ir.mode_idx (modes id))
          | _ -> ()))
    prog;
  (* what every name(args) and call denotes *)
  Symtab.iter_sites st (fun ~caller ~depth ~loc:l name args callee ->
      pr "site %s %d %s %s/%d %s\n" (opt_s caller) depth (loc l) name (List.length args)
        (callee_s callee))

let model_digest (m : Models.Registry.t) =
  let buf = Buffer.create 65536 in
  let st = Symtab.build (Parser.parse ~file:(m.name ^ ".f90") m.source) in
  let atoms =
    Transform.Assignment.atoms_of_target st ~module_:m.target_module
      ~procs:(Some m.target_procs) ~exclude:m.exclude_atoms
  in
  let targets =
    List.map (fun (a : Transform.Assignment.atom) -> (a.a_scope, a.a_name)) atoms
  in
  digest_analyses buf ~sorted:false ~targets st;
  let lowered = Transform.Rewrite.apply st (Transform.Assignment.uniform atoms Ast.K4) in
  digest_analyses buf ~sorted:false ~targets (Symtab.build lowered);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let generated_digest () =
  let buf = Buffer.create (1 lsl 20) in
  for index = 0 to 499 do
    let c = Testgen.Gen.case_at ~seed:42 ~index in
    let st = Symtab.build (Parser.parse ~file:"fuzz.f90" c.source) in
    let atoms = Transform.Assignment.atoms_of_module st Testgen.Gen.module_name in
    let targets =
      List.map (fun (a : Transform.Assignment.atom) -> (a.a_scope, a.a_name)) atoms
    in
    Printf.bprintf buf "case %d\n" index;
    digest_analyses buf ~sorted:true ~targets st;
    let lowered = Transform.Rewrite.apply st (Testgen.Gen.assignment_of st c.lowered) in
    digest_analyses buf ~sorted:true ~targets (Symtab.build lowered)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_tests =
  List.map
    (fun (m, want) ->
      t (m.Models.Registry.name ^ " analyses") (fun () ->
          Alcotest.(check string) "md5" want (model_digest m)))
    [
      (Models.Registry.funarc, "5409ef02841f3a90fe62cf907a545d6b");
      (Models.Registry.mpas, "dac9c98982a12e509f619456970f1ae7");
      (Models.Registry.mpas_joint, "59b1f2028d0765570f3b3c9db760eb2c");
      (Models.Registry.adcirc, "8bd0f84389371908be5412a8fbc686b3");
      (Models.Registry.mom6, "369be382058f5bf3f626895458c991a3");
      (Models.Registry.lulesh, "a66f6943036011a57eaa03fc708b786b");
    ]
  @ [
      t "500 generated programs" (fun () ->
          Alcotest.(check string) "md5" "e95a334933e588f57b8e450ebf08106b" (generated_digest ()));
    ]

let () =
  Alcotest.run "analysis"
    [
      ("callgraph", callgraph_tests);
      ("vectorize", vectorize_tests);
      ("flowgraph", flowgraph_tests);
      ("static cost", static_cost_tests);
      ("trip count", trip_count_tests);
      ("defuse", defuse_tests);
      ("pinned", pinned_tests);
    ]
