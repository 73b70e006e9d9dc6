(* Metrics tests: statistics, the correctness metric, Eq.-1 speedup. *)

let t name f = Alcotest.test_case name `Quick f
let feq = Alcotest.float 1e-12

let stats_tests =
  [
    t "mean" (fun () -> Alcotest.(check feq) "2" 2.0 (Metrics.Stats.mean [ 1.0; 2.0; 3.0 ]));
    t "mean of empty" (fun () -> Alcotest.(check feq) "0" 0.0 (Metrics.Stats.mean []));
    t "median odd" (fun () ->
        Alcotest.(check feq) "3" 3.0 (Metrics.Stats.median [ 5.0; 1.0; 3.0 ]));
    t "median even averages the middle pair" (fun () ->
        Alcotest.(check feq) "2.5" 2.5 (Metrics.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]));
    t "stddev" (fun () ->
        Alcotest.(check feq) "2" 2.0 (Metrics.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]));
    t "rel_stddev" (fun () ->
        Alcotest.(check feq) "0.4" 0.4
          (Metrics.Stats.rel_stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]));
    t "percentile endpoints" (fun () ->
        let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
        Alcotest.(check feq) "p0" 10.0 (Metrics.Stats.percentile 0.0 xs);
        Alcotest.(check feq) "p100" 40.0 (Metrics.Stats.percentile 100.0 xs);
        Alcotest.(check feq) "p50" 25.0 (Metrics.Stats.percentile 50.0 xs));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"median lies within [min, max]" ~count:200
         QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (float_bound_exclusive 100.0))
         (fun xs ->
           let m = Metrics.Stats.median xs in
           m >= Metrics.Stats.minimum xs && m <= Metrics.Stats.maximum xs));
  ]

let error_tests =
  [
    t "relative error basic" (fun () ->
        Alcotest.(check feq) "0.1" 0.1 (Metrics.Error.rel_error ~baseline:10.0 9.0));
    t "zero baseline falls back to absolute" (fun () ->
        Alcotest.(check feq) "2" 2.0 (Metrics.Error.rel_error ~baseline:0.0 2.0));
    t "NaN is infinitely wrong" (fun () ->
        Alcotest.(check bool) "inf" true
          (Metrics.Error.rel_error ~baseline:1.0 Float.nan = infinity));
    t "l2 norm" (fun () -> Alcotest.(check feq) "5" 5.0 (Metrics.Error.l2 [ 3.0; 4.0 ]));
    t "series error of identical series is zero" (fun () ->
        Alcotest.(check feq) "0" 0.0
          (Metrics.Error.series_rel_error_l2 ~baseline:[ 1.0; 2.0 ] [ 1.0; 2.0 ]));
    t "series error accumulates per-step errors" (fun () ->
        Alcotest.(check feq) "l2 of (0.1, 0.1)" (Metrics.Error.l2 [ 0.1; 0.1 ])
          (Metrics.Error.series_rel_error_l2 ~baseline:[ 1.0; 2.0 ] [ 1.1; 2.2 ]));
    t "short variant series is infinite error" (fun () ->
        Alcotest.(check bool) "inf" true
          (Metrics.Error.series_rel_error_l2 ~baseline:[ 1.0; 2.0; 3.0 ] [ 1.0 ] = infinity));
    t "longer variant series compares the prefix" (fun () ->
        Alcotest.(check feq) "0" 0.0
          (Metrics.Error.series_rel_error_l2 ~baseline:[ 1.0 ] [ 1.0; 99.0 ]));
    t "within handles NaN" (fun () ->
        Alcotest.(check bool) "nan fails" false (Metrics.Error.within ~threshold:1.0 Float.nan);
        Alcotest.(check bool) "under passes" true (Metrics.Error.within ~threshold:1.0 0.5));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"l2 dominates max component" ~count:200
         QCheck.(small_list (float_bound_exclusive 10.0))
         (fun xs ->
           let l2 = Metrics.Error.l2 xs in
           List.for_all (fun x -> l2 >= Float.abs x -. 1e-12) xs));
  ]

let speedup_tests =
  [
    t "median over median" (fun () ->
        Alcotest.(check feq) "2" 2.0
          (Metrics.Speedup.of_times ~baseline:[ 10.0; 12.0; 11.0 ] ~variant:[ 5.0; 6.0; 5.5 ]));
    t "empty variant is zero" (fun () ->
        Alcotest.(check feq) "0" 0.0 (Metrics.Speedup.of_times ~baseline:[ 1.0 ] ~variant:[]));
    t "outlier-tolerant" (fun () ->
        (* one pathological baseline run does not swing the metric *)
        let s = Metrics.Speedup.of_times ~baseline:[ 10.0; 10.0; 500.0 ] ~variant:[ 10.0 ] in
        Alcotest.(check feq) "1" 1.0 s);
    t "choose_n from relative std" (fun () ->
        Alcotest.(check int) "quiet" 1 (Metrics.Speedup.choose_n ~rel_std:0.01);
        Alcotest.(check int) "noisy" 7 (Metrics.Speedup.choose_n ~rel_std:0.09));
  ]

let linreg_tests =
  [
    t "recovers an exact linear relation" (fun () ->
        let features = List.init 12 (fun i -> [| float_of_int i; float_of_int (i * i) |]) in
        let targets = List.map (fun f -> 3.0 +. (2.0 *. f.(0)) -. (0.5 *. f.(1))) features in
        match Metrics.Linreg.fit ~features ~targets with
        | None -> Alcotest.fail "fit failed"
        | Some m ->
          Alcotest.(check (float 1e-3)) "r2 = 1" 1.0
            (Metrics.Linreg.r_squared m ~features ~targets);
          Alcotest.(check (float 1e-3)) "predict" (3.0 +. 20.0 -. 50.0)
            (Metrics.Linreg.predict m [| 10.0; 100.0 |]));
    t "too few samples yields None" (fun () ->
        Alcotest.(check bool) "none" true
          (Metrics.Linreg.fit ~features:[ [| 1.0; 2.0 |] ] ~targets:[ 3.0 ] = None));
    t "constant feature tolerated via ridge" (fun () ->
        let features = List.init 10 (fun i -> [| float_of_int i; 7.0 |]) in
        let targets = List.map (fun f -> 1.0 +. f.(0)) features in
        match Metrics.Linreg.fit ~features ~targets with
        | None -> Alcotest.fail "fit failed on constant column"
        | Some m ->
          Alcotest.(check bool) "r2 high" true
            (Metrics.Linreg.r_squared m ~features ~targets > 0.99));
    t "r_squared can be negative on garbage models" (fun () ->
        let features = List.init 8 (fun i -> [| float_of_int i |]) in
        let targets = List.map (fun f -> 5.0 *. f.(0)) features in
        let m = Option.get (Metrics.Linreg.fit ~features ~targets) in
        (* evaluate against anti-correlated targets *)
        let bad_targets = List.map (fun f -> -5.0 *. f.(0)) features in
        Alcotest.(check bool) "negative" true
          (Metrics.Linreg.r_squared m ~features ~targets:bad_targets < 0.0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"exact linear data is fit exactly" ~count:100
         QCheck.(triple (float_bound_exclusive 5.0) (float_bound_exclusive 5.0)
                   (list_of_size (QCheck.Gen.int_range 6 20) (float_bound_exclusive 50.0)))
         (fun (w0, w1, xs) ->
           let features = List.map (fun x -> [| x |]) xs in
           let targets = List.map (fun x -> w0 +. (w1 *. x)) xs in
           match Metrics.Linreg.fit ~features ~targets with
           | None -> List.length (List.sort_uniq compare xs) <= 1
           | Some m -> Metrics.Linreg.r_squared m ~features ~targets > 0.999));
  ]

let () =
  Alcotest.run "metrics"
    [ ("stats", stats_tests); ("error", error_tests); ("speedup", speedup_tests);
      ("linreg", linreg_tests) ]
