(* End-to-end experiment tests: the campaigns reproduce the paper's
   qualitative results (the artifact-appendix checklists) and the report
   renderers produce sane output. These run full-size campaigns and take
   tens of seconds. *)

let t name f = Alcotest.test_case name `Slow f

let funarc = lazy (Core.Experiments.funarc_campaign ())
let mpas = lazy (Core.Experiments.hotspot_campaign "mpas")
let adcirc = lazy (Core.Experiments.hotspot_campaign "adcirc")
let mom6 = lazy (Core.Experiments.hotspot_campaign "mom6")
let mpas_whole = lazy (Core.Experiments.whole_model_campaign ())

let assert_checks name checks =
  let failed = List.filter (fun (c : Core.Checks.check) -> not c.Core.Checks.ok) checks in
  if failed <> [] then
    Alcotest.failf "%s failed checks:\n%s" name (Core.Checks.render failed)

let checklist_tests =
  [
    t "funarc reproduces the Sec. II-B walkthrough" (fun () ->
        assert_checks "funarc" (Core.Checks.funarc (Lazy.force funarc)));
    t "MPAS-A hotspot campaign matches the artifact checklist" (fun () ->
        assert_checks "mpas" (Core.Checks.mpas_hotspot (Lazy.force mpas)));
    t "ADCIRC hotspot campaign matches the artifact checklist" (fun () ->
        assert_checks "adcirc" (Core.Checks.adcirc_hotspot (Lazy.force adcirc)));
    t "MOM6 hotspot campaign matches the artifact checklist" (fun () ->
        assert_checks "mom6" (Core.Checks.mom6_hotspot (Lazy.force mom6)));
    t "whole-model MPAS-A campaign matches the artifact checklist" (fun () ->
        assert_checks "mpas-whole" (Core.Checks.mpas_whole_model (Lazy.force mpas_whole)));
  ]

let shape_tests =
  [
    t "Table II orderings: MPAS wins, MOM6 errors dominate" (fun () ->
        let s c = (Lazy.force c).Core.Tuner.summary in
        Alcotest.(check bool) "mpas best speedup highest" true
          ((s mpas).Search.Variant.best_speedup > (s adcirc).Search.Variant.best_speedup
          && (s mpas).Search.Variant.best_speedup > (s mom6).Search.Variant.best_speedup);
        Alcotest.(check bool) "mom6 error class largest" true
          ((s mom6).Search.Variant.error_pct >= (s adcirc).Search.Variant.error_pct
          && (s mom6).Search.Variant.error_pct > (s mpas).Search.Variant.error_pct));
    t "Table I orderings: hotspot shares follow the paper" (fun () ->
        let share c =
          let p = (Lazy.force c).Core.Tuner.prepared in
          p.Core.Tuner.baseline_hotspot /. p.Core.Tuner.baseline_cost
        in
        Alcotest.(check bool) "mpas >= adcirc >= mom6" true
          (share mpas >= share adcirc && share adcirc >= share mom6));
    t "hotspot-guided beats whole-model-guided for MPAS-A" (fun () ->
        Alcotest.(check bool) "fig5 vs fig7" true
          ((Lazy.force mpas).Core.Tuner.summary.Search.Variant.best_speedup
          > (Lazy.force mpas_whole).Core.Tuner.summary.Search.Variant.best_speedup));
    t "every campaign found a 1-minimal variant or hit its budget" (fun () ->
        List.iter
          (fun c ->
            match (Lazy.force c).Core.Tuner.minimal with
            | Some _ -> ()
            | None -> Alcotest.fail "expected a delta-debug result")
          [ mpas; adcirc; mom6; mpas_whole ]);
    t "MOM6 search truncates like the paper's 12-hour limit" (fun () ->
        match (Lazy.force mom6).Core.Tuner.minimal with
        | Some r -> Alcotest.(check bool) "truncated" false r.Search.Delta_debug.finished
        | None -> Alcotest.fail "expected a result");
  ]

let report_tests =
  [
    t "tables render with every model row" (fun () ->
        let campaigns = [ Lazy.force mpas; Lazy.force adcirc; Lazy.force mom6 ] in
        let t1 = Core.Report.table1 campaigns in
        let t2 = Core.Report.table2 campaigns in
        List.iter
          (fun needle ->
            let contains s sub =
              let n = String.length sub in
              let rec go i =
                i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) (needle ^ " in tables") true
              (contains t1 needle && contains t2 needle))
          [ "MPAS-A"; "ADCIRC"; "MOM6" ]);
    t "figures render non-trivially" (fun () ->
        let lengthy s = String.length s > 200 in
        Alcotest.(check bool) "fig2" true (lengthy (Core.Report.figure2 (Lazy.force funarc)));
        Alcotest.(check bool) "fig5" true (lengthy (Core.Report.figure5 (Lazy.force mpas)));
        Alcotest.(check bool) "fig6" true (lengthy (Core.Report.figure6 (Lazy.force adcirc)));
        Alcotest.(check bool) "fig7" true (lengthy (Core.Report.figure7 (Lazy.force mpas_whole))));
    t "figure 3 picks a within-budget frontier variant" (fun () ->
        let c = Lazy.force funarc in
        let s = Core.Report.figure3 c ~error_budget:c.Core.Tuner.prepared.Core.Tuner.threshold in
        let contains sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "has a diff" true (contains "+ real(kind=4)");
        (* the paper's chosen variant keeps the accumulator s1 in 64 bits *)
        Alcotest.(check bool) "does not lower s1" true (not (contains "+ real(kind=4) :: s1")));
    t "scatter clamps weird inputs" (fun () ->
        let s =
          Core.Report.scatter ~log_y:true ~xlabel:"x" ~ylabel:"y"
            [ (1.0, 0.0, 'o'); (nan, 1.0, 'x'); (2.0, 1.0, 'o') ]
        in
        Alcotest.(check bool) "renders" true (String.length s > 0));
    t "ablation: static filter rejects variants for free" (fun () ->
        let a =
          Core.Experiments.ablation_static_filter
            ~config:{ Core.Config.default with Core.Config.max_variants = Some 40 } ()
        in
        let filtered =
          List.filter
            (fun (r : Search.Variant.record) ->
              r.Search.Variant.meas.Search.Variant.detail = "static-filter")
            a.Core.Experiments.treated_campaign.Core.Tuner.records
        in
        (* the filter fires on this search, and filtered variants consume no
           simulated cluster run time *)
        Alcotest.(check bool) "filter fires" true (filtered <> []);
        List.iter
          (fun (r : Search.Variant.record) ->
            Alcotest.(check (Alcotest.float 1e-9)) "zero dynamic cost" 0.0
              r.Search.Variant.meas.Search.Variant.model_time)
          filtered;
        (* and the campaign's books charge them nothing either: its hours
           are those of the dynamically evaluated records alone *)
        let c = a.Core.Experiments.treated_campaign in
        let p = c.Core.Tuner.prepared in
        let cluster = Core.Cluster.for_model p.Core.Tuner.model in
        let dynamic_seconds =
          List.fold_left
            (fun acc (r : Search.Variant.record) ->
              if List.memq r filtered then acc
              else
                acc
                +. Core.Cluster.variant_seconds cluster ~baseline_cost:p.Core.Tuner.baseline_cost
                     ~variant_cost:r.Search.Variant.meas.Search.Variant.model_time)
            0.0 c.Core.Tuner.records
        in
        Alcotest.(check (Alcotest.float 0.0)) "hours of the dynamic records alone"
          (dynamic_seconds /. float_of_int cluster.Core.Cluster.nodes /. 3600.0)
          c.Core.Tuner.simulated_hours);
    t "ablation: no-SIMD machine kills the MPAS speedup" (fun () ->
        let a =
          Core.Experiments.ablation_no_simd
            ~config:{ Core.Config.default with Core.Config.max_variants = Some 40 } ()
        in
        Alcotest.(check bool) "scalar machine finds less" true
          (a.Core.Experiments.treated_campaign.Core.Tuner.summary.Search.Variant.best_speedup
          < a.Core.Experiments.baseline_campaign.Core.Tuner.summary.Search.Variant.best_speedup));
  ]

let () =
  Alcotest.run "experiments"
    [ ("checklists", checklist_tests); ("shapes", shape_tests); ("reports", report_tests) ]
