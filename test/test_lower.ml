(* Lower tests: the slot-resolved IR, run on the compiled evaluator, must
   be observably indistinguishable from the string-keyed tree-walker —
   same status, cost, timers, records, printed lines and breakdown, bit
   for bit — on baselines and on transformed variants, with and without
   the per-procedure caches and the batch-reuse table, sequentially and
   under the worker pool. [Lower.run] is compile-then-run, uncached. The
   compiled evaluator's frames (unboxed scalar slots, dummies that hold
   the address of the caller's slot) are pinned on the by-reference
   shapes they could get silently wrong, its allocation is pinned per
   loop iteration, and every intrinsic runs on all three evaluators. *)

open Fortran

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let machine = Runtime.Machine.default

let build src =
  let st = Symtab.build (Parser.parse src) in
  Typecheck.check_program st;
  st

let interp ?budget st = Runtime.Interp.run ~machine ?budget st

let lower_run ?cache ?budget ?wrapper_owner st =
  Runtime.Lower.run ?budget (Runtime.Lower.lower ?cache ?wrapper_owner ~machine st)

(* Bit-identity of two outcomes; a failure names the first difference. *)
let check_equiv msg ref_out fast_out =
  Option.iter (Alcotest.failf "%s: %s" msg) (Runtime.Interp.diff ref_out fast_out)

let first out key =
  match Runtime.Interp.series out key with
  | v :: _ -> v
  | [] -> Alcotest.failf "no '%s' record" key

(* ------------------------------------------------------------------ *)
(* Slot resolution units: shadowing and module globals                 *)

let slot_tests =
  [
    t "dummy shadows a module global of the same name" (fun () ->
        let src =
          "module m\n implicit none\n real(kind=8) :: x = 100.0d0\ncontains\n\
          \ subroutine set(x)\n  real(kind=8) :: x\n  x = x + 1.0d0\n end subroutine set\n\
           end module m\n\
           program p\n use m\n implicit none\n real(kind=8) :: y\n y = 5.0d0\n call set(y)\n\
          \ print *, 'y', y\n print *, 'g', x\nend program p\n"
        in
        let st = build src in
        let out = lower_run st in
        (* the dummy [x] resolved to the callee's local slot, not the
           module global's slot *)
        Alcotest.(check (float 0.0)) "dummy updated" 6.0 (first out "y");
        Alcotest.(check (float 0.0)) "global untouched" 100.0 (first out "g");
        check_equiv "interp agrees" (interp st) out);
    t "local shadows a module global inside one procedure only" (fun () ->
        let src =
          "module m\n implicit none\n real(kind=8) :: g = 2.0d0\ncontains\n\
          \ function local_g() result(r)\n  real(kind=8) :: g, r\n  g = 40.0d0\n  r = g\n\
          \ end function local_g\n\
          \ function global_g() result(r)\n  real(kind=8) :: r\n  r = g\n end function global_g\n\
           end module m\n\
           program p\n use m\n implicit none\n print *, 'a', local_g()\n\
          \ print *, 'b', global_g()\n print *, 'c', g\nend program p\n"
        in
        let st = build src in
        let out = lower_run st in
        Alcotest.(check (float 0.0)) "local slot" 40.0 (first out "a");
        Alcotest.(check (float 0.0)) "global slot" 2.0 (first out "b");
        Alcotest.(check (float 0.0)) "global unchanged" 2.0 (first out "c");
        check_equiv "interp agrees" (interp st) out);
    t "module globals across two modules get distinct slots" (fun () ->
        let src =
          "module a\n implicit none\n real(kind=8) :: v = 1.0d0\nend module a\n\
           module b\n implicit none\n real(kind=4) :: w = 2.0\nend module b\n\
           program p\n use a\n use b\n implicit none\n v = v + 10.0d0\n w = w + 1.0\n\
          \ print *, 'v', v\n print *, 'w', w\nend program p\n"
        in
        let st = build src in
        let out = lower_run st in
        Alcotest.(check (float 0.0)) "a::v" 11.0 (first out "v");
        Alcotest.(check (float 0.0)) "b::w" 3.0 (first out "w");
        check_equiv "interp agrees" (interp st) out);
    t "module array global is slot-addressed and shared" (fun () ->
        let src =
          "module m\n implicit none\n real(kind=8), dimension(4) :: buf\ncontains\n\
          \ subroutine store(i, v)\n  integer :: i\n  real(kind=8) :: v\n  buf(i) = v\n\
          \ end subroutine store\nend module m\n\
           program p\n use m\n implicit none\n call store(3, 9.5d0)\n\
          \ print *, 'v', buf(3)\nend program p\n"
        in
        let st = build src in
        let out = lower_run st in
        Alcotest.(check (float 0.0)) "shared storage" 9.5 (first out "v");
        check_equiv "interp agrees" (interp st) out);
    t "out-of-scope reference to a callee local still traps" (fun () ->
        (* an array extent naming an undeclared variable must trap with
           the same message as the tree-walker *)
        let src =
          "module m\n implicit none\ncontains\n subroutine s()\n  real(kind=8) :: x\n\
          \  x = 1.0d0\n end subroutine s\nend module m\n\
           program p\n use m\n implicit none\n call s\n print *, 'v', x\nend program p\n"
        in
        let st = Symtab.build (Parser.parse src) in
        check_equiv "same trap" (interp st) (lower_run st));
  ]

(* ------------------------------------------------------------------ *)
(* Equivalence property on random assignments                          *)

let model_fixture name =
  match name with
  | "funarc" -> Models.Registry.funarc
  | "mpas" ->
    { Models.Registry.mpas with
      Models.Registry.source = Models.Mpas.source ~p:Models.Mpas.small () }
  | _ -> assert false

let equiv_on_assignment (model : Models.Registry.t) cache ccache st atoms bits =
  let lowered = List.filteri (fun i _ -> (bits lsr (i mod 62)) land 1 = 1) atoms in
  let asg = Transform.Assignment.of_lowered atoms ~lowered in
  let prog' = Transform.Rewrite.apply st asg in
  let w = Transform.Wrappers.insert prog' in
  let owner = Transform.Wrappers.owner_fn w in
  (* reference: the historical unparse→reparse round trip, tree-walked *)
  let text = Unparse.program w.Transform.Wrappers.program in
  let st_rt = Symtab.build (Parser.parse ~file:(model.name ^ "_variant.f90") text) in
  Typecheck.check_program st_rt;
  let ref_out = Runtime.Interp.run ~machine ~wrapper_owner:owner st_rt in
  (* fast paths: lowered directly from the transformed AST, run through
     [Lower.run] (compile-then-run, uncached) and through the shared
     per-procedure lowering and compile caches *)
  let st_d = Symtab.build w.Transform.Wrappers.program in
  Typecheck.check_program st_d;
  let ir = Runtime.Lower.lower ~cache ~wrapper_owner:owner ~machine st_d in
  let fast_out = Runtime.Lower.run ir in
  let compiled_out = Runtime.Compile.run (Runtime.Compile.compile ~cache:ccache ir) in
  compare ref_out fast_out = 0 && compare fast_out compiled_out = 0

let equiv_property name =
  let model = model_fixture name in
  let st = build model.Models.Registry.source in
  let atoms =
    Transform.Assignment.atoms_of_target st ~module_:model.Models.Registry.target_module
      ~procs:(Some model.Models.Registry.target_procs)
      ~exclude:model.Models.Registry.exclude_atoms
  in
  let cache = Runtime.Lower.Cache.create () in
  let ccache = Runtime.Compile.Cache.create () in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         (name ^ ": interpreter == lowered IR == compiled closures on random assignments")
       ~count:30
       QCheck.(int_bound max_int)
       (fun bits -> equiv_on_assignment model cache ccache st atoms bits))

let equiv_tests =
  [
    equiv_property "funarc";
    equiv_property "mpas";
    t "budget cut-off is bit-identical" (fun () ->
        let model = model_fixture "mpas" in
        let st = build model.Models.Registry.source in
        let baseline = interp st in
        (* a budget inside the run forces Timed_out on both paths at the
           same accumulated cost *)
        let budget = baseline.Runtime.Interp.cost /. 3.0 in
        let ref_out = interp ~budget st in
        let fast_out = lower_run ~budget st in
        Alcotest.(check bool) "timed out" true
          (ref_out.Runtime.Interp.status = Runtime.Interp.Timed_out);
        check_equiv "same cut-off" ref_out fast_out);
  ]

(* ------------------------------------------------------------------ *)
(* Cache correctness: hits reuse published procedures, results do not
   depend on cache or worker count                                     *)

let small_mpas = model_fixture "mpas"

(* [Tuner.verify] is the reference for whole campaigns: every committed
   record, table-served ones included, against the tree-walker on the
   unparse→reparse round trip, and a fresh compiled run of each against
   the same reference. Without static filter or faults, every record is
   checked. *)
let check_verified (c : Core.Tuner.campaign) =
  match Core.Tuner.verify c with
  | Ok checked ->
    Alcotest.(check int) "every record checked" (List.length c.Core.Tuner.records) checked
  | Error msg -> Alcotest.fail msg

let record_key (r : Search.Variant.record) =
  (r.Search.Variant.index, Transform.Assignment.signature r.Search.Variant.asg,
   r.Search.Variant.meas)

let cache_tests =
  [
    t "cache hits on repeated lowering of the same signature" (fun () ->
        let st = build small_mpas.Models.Registry.source in
        let cache = Runtime.Lower.Cache.create () in
        let o1 = lower_run ~cache st in
        let _, misses_after_first = Runtime.Lower.Cache.stats cache in
        let o2 = lower_run ~cache st in
        let hits, misses = Runtime.Lower.Cache.stats cache in
        Alcotest.(check int) "no new misses" misses_after_first misses;
        Alcotest.(check bool) "every procedure hit" true (hits >= misses);
        check_equiv "identical outcomes" o1 o2);
    ts "verify-roundtrip campaign passes" (fun () ->
        let config = { Core.Config.default with Core.Config.max_variants = Some 15 } in
        let c = Core.Tuner.run_delta_debug ~config ~workers:0 small_mpas in
        Alcotest.(check bool) "explored variants" true
          (c.Core.Tuner.summary.Search.Variant.total > 0);
        check_verified c);
  ]

(* ------------------------------------------------------------------ *)
(* Evaluation backends: the compiled closures and the batch-reuse table
   must leave campaigns record-for-record identical at every worker
   count, and every record equal to the tree-walker's on the
   unparse→reparse round trip ([check_verified]).                      *)

let check_campaigns_equal (reference : Core.Tuner.campaign) (candidate : Core.Tuner.campaign) =
  Alcotest.(check int) "same variant count"
    (List.length reference.Core.Tuner.records)
    (List.length candidate.Core.Tuner.records);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d identical" a.Search.Variant.index)
        true
        (compare (record_key a) (record_key b) = 0))
    reference.Core.Tuner.records candidate.Core.Tuner.records;
  Alcotest.(check bool) "same minimal" true
    (compare
       (Option.map
          (fun (r : Search.Delta_debug.result) -> r.Search.Delta_debug.high_set)
          reference.Core.Tuner.minimal)
       (Option.map
          (fun (r : Search.Delta_debug.result) -> r.Search.Delta_debug.high_set)
          candidate.Core.Tuner.minimal)
     = 0)

let run_backend model ~workers ~max_variants =
  Core.Tuner.run_delta_debug
    ~config:{ Core.Config.default with Core.Config.max_variants = Some max_variants }
    ~workers model

(* funarc with two never-referenced reals in the search space: variants
   that differ only in the spares' kinds are effectively identical, so
   the batch-reuse table gets genuine within-campaign hits *)
let funarc_spares =
  let base = Models.Registry.funarc in
  let marker = "real(kind=8) :: s1, h, t1, t2, dppi\n" in
  let insert = "    real(kind=8) :: spare1, spare2\n" in
  let src = base.Models.Registry.source in
  let i =
    let n = String.length src and m = String.length marker in
    let rec go i =
      if i + m > n then Alcotest.fail "funarc marker not found"
      else if String.equal (String.sub src i m) marker then i
      else go (i + 1)
    in
    go 0
  in
  let cut = i + String.length marker in
  { base with
    Models.Registry.source =
      String.sub src 0 cut ^ insert ^ String.sub src cut (String.length src - cut);
  }

(* the compiled campaigns at workers 0 and 4, shared by the two
   record-for-record tests below *)
let mpas_compiled =
  lazy (List.map (fun workers -> run_backend small_mpas ~workers ~max_variants:20) [ 0; 4 ])

let backend_tests =
  [
    ts "compiled backend == interpreter, record for record (workers 0 and 4)" (fun () ->
        let campaigns = Lazy.force mpas_compiled in
        List.iter
          (fun c ->
            Alcotest.(check bool) "procedures were compiled" true
              ((Core.Tuner.backend_stats c).Core.Tuner.compiled_procs > 0);
            check_verified c;
            check_campaigns_equal (List.hd campaigns) c)
          campaigns);
    ts "batched reuse == unbatched, record for record (workers 0 and 4)" (fun () ->
        let campaigns = Lazy.force mpas_compiled in
        List.iter
          (fun c ->
            Alcotest.(check bool) "variants went through the table" true
              ((Core.Tuner.backend_stats c).Core.Tuner.reuse_misses > 0);
            check_verified c;
            check_campaigns_equal (List.hd campaigns) c)
          campaigns);
    ts "batch-reuse table hits on effectively-identical variants" (fun () ->
        (* brute force enumerates atom subsets by counter bits, so with
           the never-referenced spares as the two highest-order atoms,
           every mask >= 256 repeats an earlier variant's effective
           program — the reuse table must serve those without re-running,
           and the records must not change *)
        let batched =
          Core.Tuner.run_brute_force
            ~config:{ Core.Config.default with Core.Config.max_variants = Some 300 }
            funarc_spares
        in
        Alcotest.(check bool) "reuse table was hit" true
          ((Core.Tuner.backend_stats batched).Core.Tuner.reuse_hits > 0);
        check_verified batched);
  ]

(* ------------------------------------------------------------------ *)
(* By-reference binding: the shapes an unboxed-slot frame could get
   silently wrong. Each program's result under copy-in/copy-out binding
   differs from the reference's, so a frame that copies instead of
   aliasing fails here. *)

let byref_case name src ~key ~expect =
  t name (fun () ->
      let st = build src in
      let ref_out = interp st in
      Alcotest.(check (float 0.0)) "reference value" expect (first ref_out key);
      check_equiv "compiled agrees" ref_out (lower_run st))

let module_src ~decls ~procs ~main =
  Printf.sprintf
    "module m\n implicit none\n%scontains\n%send module m\nprogram p\n use m\n implicit none\n%s\nend program p\n"
    decls procs main

let byref_tests =
  [
    byref_case "one variable bound to two dummies aliases both" ~key:"x" ~expect:10.0
      (module_src ~decls:""
         ~procs:
           " subroutine s(a, b)\n  real(kind=8) :: a, b\n  a = 5.0d0\n  b = b + a\n\
           \ end subroutine s\n"
         ~main:" real(kind=8) :: x\n x = 1.0d0\n call s(x, x)\n print *, 'x', x");
    byref_case "module scalar bound by reference sees writes through the module" ~key:"g"
      ~expect:8.0
      (module_src ~decls:" real(kind=8) :: g = 1.0d0\n"
         ~procs:
           " subroutine s(a)\n  real(kind=8) :: a\n  g = 7.0d0\n  a = a + 1.0d0\n\
           \ end subroutine s\n"
         ~main:" call s(g)\n print *, 'g', g");
    byref_case "array-element copy-out overwrites the callee's direct write" ~key:"v"
      ~expect:2.0
      (module_src ~decls:" real(kind=8), dimension(3) :: arr\n"
         ~procs:
           " subroutine s(a)\n  real(kind=8) :: a\n  arr(2) = 9.0d0\n  a = a + 1.0d0\n\
           \ end subroutine s\n"
         ~main:" arr(2) = 1.0d0\n call s(arr(2))\n print *, 'v', arr(2)");
    byref_case "by-reference dummy passed on to a further callee" ~key:"x" ~expect:8.0
      (module_src ~decls:""
         ~procs:
           " subroutine inner(c, k)\n  real(kind=8) :: c\n  integer :: k\n  c = c * 3.0d0\n\
           \  k = k + 5000\n end subroutine inner\n\
           \ subroutine outer(b, k)\n  real(kind=8) :: b\n  integer :: k\n  call inner(b, k)\n\
           \  b = b + 2.0d0\n  k = k + 1\n end subroutine outer\n"
         ~main:
           " real(kind=8) :: x\n integer :: k\n x = 2.0d0\n k = 0\n call outer(x, k)\n\
           \ print *, 'x', x\n print *, 'k', k");
    byref_case "recursion writes through by-reference dummies" ~key:"acc" ~expect:10.0
      (module_src ~decls:""
         ~procs:
           " subroutine r(n, acc, calls)\n  integer :: n, calls\n  real(kind=8) :: acc\n\
           \  calls = calls + 1\n  if (n > 0) then\n   acc = acc + dble(n)\n\
           \   call r(n - 1, acc, calls)\n  end if\n end subroutine r\n"
         ~main:
           " real(kind=8) :: acc\n integer :: calls\n acc = 0.0d0\n calls = 0\n\
           \ call r(4, acc, calls)\n print *, 'acc', acc\n print *, 'calls', calls");
    t "by-value kind mismatch traps with one text" (fun () ->
        let src =
          module_src ~decls:""
            ~procs:
              " subroutine s(a)\n  real(kind=8), intent(in) :: a\n  print *, 'v', a\n\
              \ end subroutine s\n"
            ~main:" real(kind=4) :: x\n x = 1.0\n call s(x * 2.0)"
        in
        let st = Symtab.build (Parser.parse src) in
        let ref_out = interp st in
        Alcotest.(check bool) "reference names the dummy and its procedure" true
          (ref_out.Runtime.Interp.status
          = Runtime.Interp.Runtime_error
              "real(kind=4) value passed to real(kind=8) dummy a of s — wrapper required");
        check_equiv "compiled agrees" ref_out (lower_run st));
    t "dims naming a local allocated after it trap out of scope" (fun () ->
        let src =
          module_src ~decls:""
            ~procs:
              " subroutine s()\n  real(kind=8), dimension(n) :: a\n  integer :: n\n\
              \  n = 2\n  a(1) = 1.0d0\n end subroutine s\n"
            ~main:" call s()\n print *, 'done', 1"
        in
        let st = Symtab.build (Parser.parse src) in
        let ref_out = interp st in
        Alcotest.(check bool) "reference traps out of scope" true
          (ref_out.Runtime.Interp.status
          = Runtime.Interp.Runtime_error "variable n local to s referenced out of scope");
        check_equiv "compiled agrees" ref_out (lower_run st));
  ]

(* ------------------------------------------------------------------ *)
(* The generic value lane: a reduction's result has no typed lane, so
   whatever consumes it runs on [Value.v] under [Walk]'s rules. Each
   program pins the reference's status (a trap by its text), then the
   compiled evaluator against the reference. *)

let status_t = Alcotest.testable Runtime.Interp.pp_status ( = )

let generic_case name ~decls ~body status =
  t name (fun () ->
      let src = Printf.sprintf "program p\n implicit none\n%s\n%s\nend program p\n" decls body in
      let st = build src in
      let ref_out = interp st in
      Alcotest.check status_t "reference status" status ref_out.Runtime.Interp.status;
      check_equiv "compiled agrees" ref_out (lower_run st))

let arrays =
  " real(kind=8), dimension(3) :: a\n real(kind=4), dimension(3) :: a4\n\
  \ integer, dimension(3) :: ia\n real(kind=8), dimension(0) :: none\n\
  \ real(kind=8) :: x\n integer :: i\n\
  \ do i = 1, 3\n  a(i) = dble(i)\n  a4(i) = real(i)\n  ia(i) = 4 - i\n end do"

let generic_tests =
  let trap m = Runtime.Interp.Runtime_error m in
  [
    generic_case "huge(maxval(a)) finishes" ~decls:arrays
      ~body:" x = huge(maxval(a))\n print *, 'x', x" Runtime.Interp.Finished;
    generic_case "epsilon(sum(a4)) finishes" ~decls:arrays
      ~body:" x = epsilon(sum(a4))\n print *, 'x', x" Runtime.Interp.Finished;
    generic_case "a(maxval(ia)) finishes" ~decls:arrays
      ~body:" x = a(maxval(ia))\n print *, 'x', x" Runtime.Interp.Finished;
    generic_case "maxval of a zero-extent array traps" ~decls:arrays
      ~body:" x = maxval(none)\n print *, 'x', x" (trap "maxval of empty array");
    generic_case "mod(sum(ia), 0) traps" ~decls:arrays
      ~body:" i = mod(sum(ia), 0)\n print *, 'i', i" (trap "mod with zero divisor");
    generic_case "sum(ia) ** (-1) traps" ~decls:arrays
      ~body:" i = sum(ia) ** (-1)\n print *, 'i', i" (trap "negative integer exponent");
  ]

(* ------------------------------------------------------------------ *)
(* Allocation per loop iteration, host-speed independent: minor words
   of [Compile.run] at two trip counts, differenced so that the run's
   fixed set-up cancels. *)

let words_per_iter body =
  let src n =
    Printf.sprintf
      "module m\n implicit none\ncontains\n\
      \ real(kind=8) function flux4(q_im2, q_im1, q_i, q_ip1, ua)\n\
      \  real(kind=8), intent(in) :: q_im2, q_im1, q_i, q_ip1, ua\n\
      \  flux4 = ua * (7.0d0 * (q_i + q_im1) - (q_ip1 + q_im2)) / 12.0d0\n\
      \ end function flux4\n\
      \ subroutine k(a, b, n)\n  integer :: n, i, j, im1, ip1, ip2\n\
      \  real(kind=8), dimension(n) :: a, b\n  real(kind=8) :: x, ue\n\
      \  x = 0.5d0\n  ue = 0.25d0\n  j = 0\n\
      \  do i = 2, n - 2\n   im1 = i - 1\n   ip1 = i + 1\n   ip2 = i + 2\n%s\n  end do\n\
      \ end subroutine k\nend module m\n\
       program p\n use m\n implicit none\n integer, parameter :: n = %d\n\
      \ real(kind=8), dimension(n) :: a, b\n integer :: i\n\
      \ do i = 1, n\n  b(i) = 1.0d0\n end do\n call k(a, b, n)\nend program p\n"
      body n
  in
  let words n =
    let code = Runtime.Compile.compile (Runtime.Lower.lower ~machine (build (src n))) in
    let before = Gc.minor_words () in
    let out = Runtime.Compile.run code in
    let after = Gc.minor_words () in
    Alcotest.(check bool) "finished" true (out.Runtime.Interp.status = Runtime.Interp.Finished);
    after -. before
  in
  (words 25_000 -. words 5_000) /. 20_000.0

let alloc_case name body ~budget =
  t name (fun () ->
      let w = words_per_iter body in
      if w > budget then Alcotest.failf "%s: %.3f words per iteration, budget %.3f" name w budget)

let alloc_tests =
  [
    alloc_case "real scalar store allocates nothing" "   x = b(i) * 0.5d0" ~budget:0.0;
    alloc_case "integer store above 4096 allocates nothing" "   j = i + 5000" ~budget:0.0;
    alloc_case "flux4-shaped call allocates nothing"
      "   a(i) = flux4(b(im1), b(i), b(ip1), b(ip2), ue)" ~budget:0.0;
    alloc_case "elemental sqrt allocates nothing" "   a(i) = sqrt(b(i))" ~budget:0.0;
    alloc_case "elemental tanh allocates nothing" "   x = tanh(x * 0.5d0 + b(i))" ~budget:0.0;
  ]

(* ------------------------------------------------------------------ *)
(* Every intrinsic of [Builtins], at both real kinds, as a scalar
   statement and inside a vectorizable loop                             *)

(* The calls of [bi] the program makes at kind [k] ("4" or "8"): real
   operands [s] and [t] of that kind, integer operand [j], and the whole
   arrays [a<k>], [b<k>] and [ia]; each with whether it is
   integer-valued. *)
let intrinsic_calls (bi : Builtins.t) ~k ~s ~t ~j =
  let call args = Printf.sprintf "%s(%s)" (Builtins.name bi) (String.concat ", " args) in
  let real args = (call args, false) and int args = (call args, true) in
  let lit = if k = "4" then "0.5" else "0.5d0" in
  match bi with
  | Abs -> [ real [ s ]; int [ j ] ]
  | Elemental _ | Inquiry _ -> [ real [ s ] ]
  | Minmax _ -> [ real [ s; t ]; real [ s; t; lit ]; int [ j; "3" ] ]
  | Mod -> [ real [ s; t ]; int [ j; "3" ] ]
  | Sign -> [ real [ s; "-" ^ t ]; int [ j; "-1" ] ]
  | Atan2 -> [ real [ s; t ] ]
  | Real -> [ real [ s ]; real [ s; "4" ]; real [ s; "8" ]; real [ j ] ]
  | Dble -> [ real [ s ]; real [ j ] ]
  | Int_conv _ -> [ int [ s ^ " * 7.5" ]; int [ "-" ^ s ^ " * 7.5" ] ]
  | Dot_product -> [ real [ "a" ^ k; "b" ^ k ] ]
  | Reduce _ -> [ real [ "a" ^ k ]; int [ "ia" ] ]
  | Size -> [ int [ "a" ^ k ]; int [ "a" ^ k; "1" ] ]

(* Each call stored to a typed scalar and printed, then computed
   elementwise in a loop of its own and printed element by element. *)
let intrinsic_program () =
  let b = Buffer.create 16384 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  let each f =
    List.iter
      (fun bi ->
        List.iter
          (fun k ->
            f k (intrinsic_calls bi ~k ~s:("x" ^ k) ~t:("y" ^ k) ~j:"j")
              (intrinsic_calls bi ~k ~s:("a" ^ k ^ "(i)") ~t:("b" ^ k ^ "(i)") ~j:"ia(i)"))
          [ "4"; "8" ])
      Builtins.all
  in
  line "module m";
  line " implicit none";
  line " integer, parameter :: n = 8";
  line " real(kind=4), dimension(n) :: a4, b4, c4";
  line " real(kind=8), dimension(n) :: a8, b8, c8";
  line " integer, dimension(n) :: ia, ic";
  line " real(kind=4) :: x4 = 0.375, y4 = 0.625, r4";
  line " real(kind=8) :: x8 = 0.375d0, y8 = 0.625d0, r8";
  line " integer :: j = 7, jr";
  line "contains";
  line " subroutine init()";
  line "  integer :: i";
  line "  do i = 1, n";
  line "   a4(i) = 0.1 * i";
  line "   b4(i) = 0.95 - 0.1 * i";
  line "   a8(i) = 0.1d0 * i";
  line "   b8(i) = 0.95d0 - 0.1d0 * i";
  line "   ia(i) = 3 * i - 10";
  line "  end do";
  line " end subroutine init";
  line " subroutine scalars()";
  each (fun k uses _ ->
      List.iter
        (fun (e, is_int) ->
          let r = if is_int then "jr" else "r" ^ k in
          line "  %s = %s" r e;
          line "  print *, '%s', %s" e r)
        uses);
  line " end subroutine scalars";
  line " subroutine loops()";
  line "  integer :: i";
  each (fun k _ uses ->
      List.iter
        (fun (e, is_int) ->
          let c = if is_int then "ic" else "c" ^ k in
          line "  do i = 1, n";
          line "   %s(i) = %s" c e;
          line "  end do";
          line "  do i = 1, n";
          line "   print *, '%s', %s(i)" e c;
          line "  end do")
        uses);
  line " end subroutine loops";
  line "end module m";
  line "program p";
  line " use m";
  line " implicit none";
  line " call init()";
  line " call scalars()";
  line " call loops()";
  line "end program p";
  Buffer.contents b

let intrinsic_tests =
  [
    t "every intrinsic at kinds 4 and 8, scalar and vectorized: compiled and analysis match interp"
      (fun () ->
        let st = build (intrinsic_program ()) in
        List.iter
          (fun r ->
            if not (Analysis.Vectorize.vectorizable r) then
              Alcotest.failf "%a" Analysis.Vectorize.pp_report r)
          (Analysis.Vectorize.analyze ~inline_stmt_limit:machine.Runtime.Machine.inline_stmt_limit st);
        let ref_out = interp st in
        Alcotest.(check bool) "finished" true (ref_out.Runtime.Interp.status = Runtime.Interp.Finished);
        let scalar_calls =
          List.fold_left
            (fun n bi ->
              n + (2 * List.length (intrinsic_calls bi ~k:"4" ~s:"" ~t:"" ~j:"")))
            0 Builtins.all
        in
        (* one record per scalar call, n = 8 per loop *)
        Alcotest.(check int) "records" (9 * scalar_calls) (List.length ref_out.records);
        let bits records = List.map (fun (k, v) -> (k, Int64.bits_of_float v)) records in
        let fast = lower_run st in
        check_equiv "compiled" ref_out fast;
        Alcotest.(check (list (pair string int64))) "compiled records, bit for bit"
          (bits ref_out.records) (bits fast.records);
        let r = Sensitivity.Absint.analyze ~atoms:(Transform.Assignment.atoms_of_module st "m") st in
        Alcotest.(check bool) "analysis finished" true
          (r.Sensitivity.Absint.r_status = Sensitivity.Absint.Finished);
        Alcotest.(check (list (pair string int64))) "analysis series, bit for bit"
          (bits ref_out.records)
          (bits
             (List.map
                (fun (s : Sensitivity.Absint.sample) ->
                  (s.Sensitivity.Absint.s_key, s.Sensitivity.Absint.s_value))
                r.Sensitivity.Absint.r_samples)));
  ]

let () =
  Alcotest.run "lower"
    [
      ("slots", slot_tests); ("equivalence", equiv_tests); ("cache", cache_tests);
      ("backends", backend_tests); ("byref", byref_tests); ("generic", generic_tests);
      ("alloc", alloc_tests); ("intrinsics", intrinsic_tests);
    ]
