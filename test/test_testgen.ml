(* Testgen tests: the generator only produces well-typed programs whose
   canonical text is an unparse fixpoint, the case stream is
   deterministic in (seed, index), the oracles catch seeded corruptions,
   the minimizer shrinks while preserving the failure, and corpus
   save/load round-trips. *)

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* The tentpole property: every generated case passes every oracle.
   This is the in-tree slice of `prose fuzz`, on a case stream of its
   own: cases 0..39 at [property_seed], the same on every run, so a
   failure is a defect and never a draw. `prose fuzz --seed 1217
   --cases 40` replays it; CI's fuzz gates run seeds 42 and 7.          *)

let property_seed = 1217

let all_oracles_pass () =
  let failures =
    List.concat_map
      (fun index ->
        let c = Testgen.Gen.case_at ~seed:property_seed ~index in
        List.map
          (fun (v : Testgen.Oracle.violation) ->
            Printf.sprintf "seed=%d case=%d oracle=%s: %s\n  lowered: %s" property_seed index
              (Testgen.Oracle.name v.Testgen.Oracle.oracle)
              v.Testgen.Oracle.detail
              (String.concat " " c.Testgen.Gen.lowered))
          (Testgen.Oracle.check ~ids:Testgen.Oracle.all c))
      (List.init 40 Fun.id)
  in
  if failures <> [] then Alcotest.fail (String.concat "\n" failures)

(* ------------------------------------------------------------------ *)

let determinism_tests =
  [
    t "case stream is deterministic in (seed, index)" (fun () ->
        List.iter
          (fun i ->
            let a = Testgen.Gen.case_at ~seed:42 ~index:i in
            let b = Testgen.Gen.case_at ~seed:42 ~index:i in
            Alcotest.(check string) "same source" a.Testgen.Gen.source b.Testgen.Gen.source;
            Alcotest.(check (list string))
              "same assignment" a.Testgen.Gen.lowered b.Testgen.Gen.lowered)
          [ 0; 1; 5; 17 ]);
    t "different indices give different programs" (fun () ->
        let a = Testgen.Gen.case_at ~seed:42 ~index:0 in
        let b = Testgen.Gen.case_at ~seed:42 ~index:1 in
        Alcotest.(check bool) "distinct" false
          (String.equal a.Testgen.Gen.source b.Testgen.Gen.source));
    t "generated source is canonical (unparse fixpoint by construction)" (fun () ->
        let c = Testgen.Gen.case_at ~seed:7 ~index:3 in
        let t1 = Fortran.Unparse.program (Fortran.Parser.parse ~file:"c.f90" c.Testgen.Gen.source) in
        Alcotest.(check string) "fixpoint" c.Testgen.Gen.source t1);
  ]

(* ------------------------------------------------------------------ *)
(* Negative controls: each oracle must catch a seeded corruption, and
   the minimizer must shrink the witness without losing the failure.   *)

let corrupt_with_undeclared (c : Testgen.Gen.case) =
  let needle = "  print *, 'chk'" in
  let src = c.Testgen.Gen.source in
  let rec find i =
    if i + String.length needle > String.length src then
      Alcotest.fail "fixture has no chk print"
    else if String.equal (String.sub src i (String.length needle)) needle then i
    else find (i + 1)
  in
  let i = find 0 in
  {
    c with
    Testgen.Gen.source =
      String.sub src 0 i ^ "  zz_undeclared = 1\n" ^ String.sub src i (String.length src - i);
  }

let oracle_tests =
  [
    t "roundtrip oracle flags non-canonical text" (fun () ->
        let c = Testgen.Gen.case_at ~seed:42 ~index:11 in
        let c' = { c with Testgen.Gen.source = c.Testgen.Gen.source ^ "\n" } in
        match Testgen.Oracle.check ~ids:[ Testgen.Oracle.Roundtrip ] c' with
        | [ { Testgen.Oracle.oracle = Testgen.Oracle.Roundtrip; _ } ] -> ()
        | _ -> Alcotest.fail "expected exactly one roundtrip violation");
    t "typecheck oracle reports the frontend diagnostic" (fun () ->
        let c' = corrupt_with_undeclared (Testgen.Gen.case_at ~seed:42 ~index:11) in
        match Testgen.Oracle.check ~ids:[ Testgen.Oracle.Typecheck ] c' with
        | [ { Testgen.Oracle.oracle = Testgen.Oracle.Typecheck; detail } ] ->
          Alcotest.(check bool) "names the variable" true
            (let sub = "zz_undeclared" in
             let rec has i =
               i + String.length sub <= String.length detail
               && (String.equal (String.sub detail i (String.length sub)) sub || has (i + 1))
             in
             has 0)
        | _ -> Alcotest.fail "expected exactly one typecheck violation");
    t "oracle name round-trips" (fun () ->
        List.iter
          (fun id ->
            Alcotest.(check bool) "of_name (name id) = id" true
              (Testgen.Oracle.of_name (Testgen.Oracle.name id) = Some id))
          Testgen.Oracle.all);
    t "minimizer shrinks a failing case and keeps it failing" (fun () ->
        let ids = [ Testgen.Oracle.Typecheck ] in
        let c' = corrupt_with_undeclared (Testgen.Gen.case_at ~seed:42 ~index:11) in
        let m = Testgen.Minimize.minimize ~ids c' in
        Alcotest.(check bool) "still fails" true (Testgen.Oracle.check ~ids m <> []);
        let lines s = List.length (String.split_on_char '\n' s) in
        Alcotest.(check bool) "no larger" true
          (lines m.Testgen.Gen.source <= lines c'.Testgen.Gen.source);
        (* the corruption is one statement in an otherwise healthy
           program: ddmin + pruning must get below a dozen lines *)
        Alcotest.(check bool) "aggressively shrunk" true (lines m.Testgen.Gen.source <= 12));
  ]

(* ------------------------------------------------------------------ *)

let corpus_tests =
  [
    t "corpus save/load round-trips" (fun () ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "prose_corpus_%d" (Unix.getpid ()))
        in
        let entry =
          {
            Testgen.Corpus.name = "fz_test_s1_c2";
            case = Testgen.Gen.case_at ~seed:1 ~index:2;
            oracle = "compiled";
            origin = "seed=1 case=2";
          }
        in
        let path = Testgen.Corpus.save ~dir entry in
        Alcotest.(check bool) ".f90 written" true (Sys.file_exists path);
        (match Testgen.Corpus.load ~dir with
        | [ e ] ->
          Alcotest.(check string) "name" entry.Testgen.Corpus.name e.Testgen.Corpus.name;
          Alcotest.(check string) "oracle" "compiled" e.Testgen.Corpus.oracle;
          Alcotest.(check string) "origin" "seed=1 case=2" e.Testgen.Corpus.origin;
          Alcotest.(check string) "source"
            entry.Testgen.Corpus.case.Testgen.Gen.source
            e.Testgen.Corpus.case.Testgen.Gen.source;
          Alcotest.(check (list string))
            "lowered" entry.Testgen.Corpus.case.Testgen.Gen.lowered
            e.Testgen.Corpus.case.Testgen.Gen.lowered
        | es -> Alcotest.failf "expected one entry, got %d" (List.length es));
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir);
    t "loading an absent directory is an empty corpus" (fun () ->
        Alcotest.(check int) "empty" 0
          (List.length (Testgen.Corpus.load ~dir:"no_such_corpus_dir")));
  ]

let () =
  Alcotest.run "testgen"
    [
      ("property", [ t "generated cases pass all five oracles" all_oracles_pass ]);
      ("determinism", determinism_tests);
      ("oracles", oracle_tests);
      ("corpus", corpus_tests);
    ]
