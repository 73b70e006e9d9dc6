(* Tuner tests: preparation, classification of variant outcomes, speedup
   modes, static filtering, cluster accounting. Uses small workloads. *)

let t name f = Alcotest.test_case name `Quick f

let small_mpas =
  { Models.Registry.mpas with
    Models.Registry.source = Models.Mpas.source ~p:Models.Mpas.small () }

let small_adcirc =
  { Models.Registry.adcirc with
    Models.Registry.source = Models.Adcirc.source ~p:Models.Adcirc.small () }

let small_funarc =
  { Models.Registry.funarc with Models.Registry.source = Models.Funarc.source ~n:200 () }

let prepare_tests =
  [
    t "prepare profiles the baseline" (fun () ->
        let p = Core.Tuner.prepare small_mpas in
        Alcotest.(check bool) "cost" true (p.Core.Tuner.baseline_cost > 0.0);
        Alcotest.(check bool) "hotspot below total" true
          (p.Core.Tuner.baseline_hotspot < p.Core.Tuner.baseline_cost);
        Alcotest.(check bool) "metric" true (p.Core.Tuner.baseline_metric <> []);
        Alcotest.(check bool) "budget is 3x" true
          (Float.abs (p.Core.Tuner.budget -. (3.0 *. p.Core.Tuner.baseline_cost)) < 1e-6));
    t "eq1 n follows the model's noise" (fun () ->
        let p_quiet = Core.Tuner.prepare small_mpas in
        Alcotest.(check int) "n=1 at 1%" 1 p_quiet.Core.Tuner.eq1_n;
        let noisy = { small_mpas with Models.Registry.noise_rel_std = 0.09 } in
        let p_noisy = Core.Tuner.prepare noisy in
        Alcotest.(check int) "n=7 at 9%" 7 p_noisy.Core.Tuner.eq1_n);
    t "noise-adjusted perf floor" (fun () ->
        let noisy = { small_mpas with Models.Registry.noise_rel_std = 0.09 } in
        let p = Core.Tuner.prepare noisy in
        Alcotest.(check bool) "below configured floor" true (p.Core.Tuner.perf_floor < 0.95));
    t "threshold derived from the supported 32-bit build" (fun () ->
        let p = Core.Tuner.prepare small_mpas in
        Alcotest.(check bool) "finite positive" true
          (Float.is_finite p.Core.Tuner.threshold && p.Core.Tuner.threshold > 0.0));
    t "ensemble matches configured size" (fun () ->
        let p = Core.Tuner.prepare small_mpas in
        Alcotest.(check int) "10 runs" 10 (List.length p.Core.Tuner.baseline_times));
  ]

let eval_tests =
  [
    t "original assignment is a passing parity variant" (fun () ->
        let p = Core.Tuner.prepare small_funarc in
        let m = Core.Tuner.evaluate p (Transform.Assignment.original p.Core.Tuner.atoms) in
        Alcotest.(check string) "pass" "pass" (Search.Variant.status_to_string m.Search.Variant.status);
        Alcotest.(check bool) "error zero" true (m.Search.Variant.rel_error = 0.0);
        Alcotest.(check bool) "speedup near 1" true
          (m.Search.Variant.speedup > 0.9 && m.Search.Variant.speedup < 1.1));
    t "uniform32 measurement carries speedup and error" (fun () ->
        let p = Core.Tuner.prepare small_funarc in
        let m = Core.Tuner.uniform32_measurement p in
        Alcotest.(check bool) "speedup > 1" true (m.Search.Variant.speedup > 1.0);
        Alcotest.(check bool) "error > 0" true (m.Search.Variant.rel_error > 0.0));
    t "timeouts classified when the budget shrinks" (fun () ->
        (* a model whose variants exceed 0.5x the baseline time: everything
           (even parity) times out *)
        let strangled = { small_funarc with Models.Registry.timeout_factor = 0.5 } in
        let p = Core.Tuner.prepare strangled in
        let m = Core.Tuner.evaluate p (Transform.Assignment.original p.Core.Tuner.atoms) in
        Alcotest.(check string) "timeout" "timeout"
          (Search.Variant.status_to_string m.Search.Variant.status);
        Alcotest.(check (Alcotest.float 1e-9)) "no speedup" 0.0 m.Search.Variant.speedup);
    t "runtime errors classified" (fun () ->
        let small_mom6 =
          { Models.Registry.mom6 with
            Models.Registry.source = Models.Mom6.source ~p:Models.Mom6.small () }
        in
        let p = Core.Tuner.prepare small_mom6 in
        let m =
          Core.Tuner.evaluate p (Transform.Assignment.uniform p.Core.Tuner.atoms Fortran.Ast.K4)
        in
        Alcotest.(check string) "error" "error"
          (Search.Variant.status_to_string m.Search.Variant.status));
    t "whole-model mode measures model time" (fun () ->
        let config = { Core.Config.default with Core.Config.mode = Core.Config.Whole_model_guided } in
        let p_whole = Core.Tuner.prepare ~config small_mpas in
        let p_hot = Core.Tuner.prepare small_mpas in
        let asg = Transform.Assignment.uniform p_hot.Core.Tuner.atoms Fortran.Ast.K4 in
        let m_whole = Core.Tuner.evaluate p_whole asg in
        let m_hot = Core.Tuner.evaluate p_hot asg in
        (* hotspot-guided sees the speedup; whole-model-guided sees the
           boundary casting penalty *)
        Alcotest.(check bool) "hotspot faster" true
          (m_hot.Search.Variant.speedup > m_whole.Search.Variant.speedup));
    t "evaluate never raises on transformed garbage" (fun () ->
        (* lowering everything in ADCIRC can only yield pass/fail/error,
           never an exception *)
        let p = Core.Tuner.prepare small_adcirc in
        let m =
          Core.Tuner.evaluate p (Transform.Assignment.uniform p.Core.Tuner.atoms Fortran.Ast.K4)
        in
        ignore m.Search.Variant.status);
    t "static filter rejects without running" (fun () ->
        let config = { Core.Config.default with Core.Config.static_filter = true;
                       static_penalty_budget = 0.0 } in
        let p = Core.Tuner.prepare ~config small_mpas in
        let m =
          Core.Tuner.evaluate p (Transform.Assignment.uniform p.Core.Tuner.atoms Fortran.Ast.K4)
        in
        Alcotest.(check string) "filtered" "static-filter" m.Search.Variant.detail;
        Alcotest.(check (Alcotest.float 1e-9)) "no cluster cost" 0.0 m.Search.Variant.model_time);
  ]

let cluster_tests =
  [
    t "paper-faithful constants per model" (fun () ->
        let c = Core.Cluster.for_model Models.Registry.mpas in
        Alcotest.(check int) "20 nodes" 20 c.Core.Cluster.nodes;
        Alcotest.(check (Alcotest.float 1e-9)) "12h" 12.0 c.Core.Cluster.job_hours;
        Alcotest.(check (Alcotest.float 1e-9)) "90s baseline" 90.0 c.Core.Cluster.baseline_wall_s);
    t "variant seconds scale with modeled cost" (fun () ->
        let c = Core.Cluster.for_model Models.Registry.mpas in
        let fast = Core.Cluster.variant_seconds c ~baseline_cost:100.0 ~variant_cost:100.0 in
        let slow = Core.Cluster.variant_seconds c ~baseline_cost:100.0 ~variant_cost:300.0 in
        Alcotest.(check (Alcotest.float 1e-9)) "3x run part" 180.0 (slow -. fast));
    t "campaign hours split across nodes" (fun () ->
        let c = Core.Cluster.for_model Models.Registry.mpas in
        let one = Core.Cluster.campaign_hours c ~baseline_cost:1.0 ~variant_costs:[ 1.0 ] in
        let twenty =
          Core.Cluster.campaign_hours c ~baseline_cost:1.0
            ~variant_costs:(List.init 20 (fun _ -> 1.0))
        in
        Alcotest.(check (Alcotest.float 1e-9)) "20 variants = 20x one" (one *. 20.0) twenty);
    t "over_budget" (fun () ->
        let c = Core.Cluster.for_model Models.Registry.mom6 in
        Alcotest.(check bool) "13h over" true (Core.Cluster.over_budget c 13.0);
        Alcotest.(check bool) "11h under" false (Core.Cluster.over_budget c 11.0);
        Alcotest.(check bool) "exactly 12h is within budget" false
          (Core.Cluster.over_budget c c.Core.Cluster.job_hours));
    t "degenerate inputs: no variants, no baseline" (fun () ->
        let c = Core.Cluster.for_model Models.Registry.mpas in
        Alcotest.(check (Alcotest.float 1e-12)) "empty campaign costs nothing" 0.0
          (Core.Cluster.campaign_hours c ~baseline_cost:2.0 ~variant_costs:[]);
        (* a zero/negative baseline cost can't scale model time to wall
           seconds: only the fixed overhead remains *)
        Alcotest.(check (Alcotest.float 1e-9)) "zero baseline" c.Core.Cluster.per_variant_overhead_s
          (Core.Cluster.variant_seconds c ~baseline_cost:0.0 ~variant_cost:50.0);
        Alcotest.(check (Alcotest.float 1e-9)) "negative baseline"
          c.Core.Cluster.per_variant_overhead_s
          (Core.Cluster.variant_seconds c ~baseline_cost:(-1.0) ~variant_cost:50.0));
  ]

let campaign_tests =
  [
    t "brute force campaign on funarc subset" (fun () ->
        let m = small_funarc in
        let campaign = Core.Tuner.run_brute_force m in
        Alcotest.(check int) "256 variants" 256 campaign.Core.Tuner.summary.Search.Variant.total;
        Alcotest.(check bool) "frontier non-empty" true
          (Search.Variant.frontier campaign.Core.Tuner.records <> []));
    t "delta-debug campaign respects max_variants" (fun () ->
        let config = { Core.Config.default with Core.Config.max_variants = Some 10 } in
        let campaign = Core.Tuner.run_delta_debug ~config small_mpas in
        Alcotest.(check bool) "at most 10" true
          (campaign.Core.Tuner.summary.Search.Variant.total <= 10));
    t "campaign carries simulated cluster hours" (fun () ->
        let config = { Core.Config.default with Core.Config.max_variants = Some 8 } in
        let campaign = Core.Tuner.run_delta_debug ~config small_mpas in
        Alcotest.(check bool) "positive hours" true (campaign.Core.Tuner.simulated_hours > 0.0));
    t "workers=4 campaign bit-identical to sequential (mpas)" (fun () ->
        let config = { Core.Config.default with Core.Config.max_variants = Some 20 } in
        let c_seq = Core.Tuner.run_delta_debug ~config ~workers:0 small_mpas in
        let c_par = Core.Tuner.run_delta_debug ~config ~workers:4 small_mpas in
        Alcotest.(check bool) "identical records" true
          (c_seq.Core.Tuner.records = c_par.Core.Tuner.records);
        Alcotest.(check bool) "identical minimal" true
          (c_seq.Core.Tuner.minimal = c_par.Core.Tuner.minimal);
        Alcotest.(check bool) "identical summary" true
          (c_seq.Core.Tuner.summary = c_par.Core.Tuner.summary);
        Alcotest.(check (Alcotest.float 0.0)) "identical simulated hours"
          c_seq.Core.Tuner.simulated_hours c_par.Core.Tuner.simulated_hours);
    t "workers=4 campaign bit-identical to sequential (funarc)" (fun () ->
        let c_seq = Core.Tuner.run_delta_debug ~workers:0 small_funarc in
        let c_par = Core.Tuner.run_delta_debug ~workers:4 small_funarc in
        Alcotest.(check bool) "identical records" true
          (c_seq.Core.Tuner.records = c_par.Core.Tuner.records);
        Alcotest.(check bool) "identical minimal" true
          (c_seq.Core.Tuner.minimal = c_par.Core.Tuner.minimal));
    t "workers=1 journaled campaign leaks nothing of its scheduler" (fun () ->
        (* the one-shard substrate of a non-sharded parallel campaign
           shows up only in the journal header's requested workers *)
        Harness.with_dir2 @@ fun d0 d1 ->
        let config = { Core.Config.default with Core.Config.max_variants = Some 20 } in
        let c_seq = Core.Tuner.run_delta_debug ~config ~workers:0 ~journal:d0 small_mpas in
        let c_par = Core.Tuner.run_delta_debug ~config ~workers:1 ~journal:d1 small_mpas in
        Alcotest.(check bool) "no sched stats" true (c_par.Core.Tuner.sched = None);
        let header_and_records dir =
          let lines = String.split_on_char '\n' (Harness.slurp (Persist.Journal.file ~dir)) in
          match List.filter (fun l -> l <> "") lines with
          | header :: records -> (Persist.Json.parse header, records)
          | [] -> Alcotest.fail "empty journal"
        in
        let h_seq, r_seq = header_and_records d0 and h_par, r_par = header_and_records d1 in
        let workers h = Option.bind (Persist.Json.member "workers" h) Persist.Json.to_int in
        Alcotest.(check (option int)) "sequential header" (Some 0) (workers h_seq);
        Alcotest.(check (option int)) "parallel header" (Some 1) (workers h_par);
        Alcotest.(check int) "one line per record" (List.length c_seq.Core.Tuner.records)
          (List.length r_seq);
        Alcotest.(check (list string)) "identical record lines" r_seq r_par;
        Alcotest.(check bool) "identical summary" true
          (compare c_seq.Core.Tuner.summary c_par.Core.Tuner.summary = 0);
        Alcotest.(check bool) "identical backend" true
          (compare c_seq.Core.Tuner.backend c_par.Core.Tuner.backend = 0));
    t "workers=3 hierarchical bit-identical to sequential" (fun () ->
        let config = { Core.Config.default with Core.Config.max_variants = Some 30 } in
        let c_seq = Core.Tuner.run_hierarchical ~config ~workers:0 small_mpas in
        let c_par = Core.Tuner.run_hierarchical ~config ~workers:3 small_mpas in
        Alcotest.(check bool) "identical records" true
          (c_seq.Core.Tuner.records = c_par.Core.Tuner.records);
        Alcotest.(check bool) "identical minimal" true
          (c_seq.Core.Tuner.minimal = c_par.Core.Tuner.minimal));
    t "batch-reuse fires iff the space has inert atoms (BENCH reuse_hits=0)" (fun () ->
        (* The table is keyed by the masked signature, and the trace
           already dedups identical signatures upstream, so it only pays
           off when the mask blanks some atom: one of an unreachable
           procedure, or an inert real (no def, no use, no initializer).
           funarc has none, so every variant runs and reuse_hits stays 0
           with reuse_misses equal to the dynamic evaluation count; of
           the registry models only mom6 has one (its declared, never
           used mom_continuity_ppm::duc_w, pinned below). Pin both sides
           so a regression in either direction is caught. *)
        let live = Core.Tuner.run_brute_force small_funarc in
        Alcotest.(check int) "live space: no effective-program repeats" 0
          live.Core.Tuner.backend.Core.Tuner.reuse_hits;
        Alcotest.(check bool) "live space: the batcher is reached" true
          (live.Core.Tuner.backend.Core.Tuner.reuse_misses > 0);
        (* the same model with a never-referenced spare real in the
           search space: variants differing only in the spare's kind are
           effectively identical, and brute force provably enumerates
           such pairs (ddmin's trajectory need not — one more reason the
           bench ddmin campaigns sit at zero) *)
        let spares =
          let base = small_funarc in
          let marker = "real(kind=8) :: s1, h, t1, t2, dppi\n" in
          let insert = "    real(kind=8) :: spare\n" in
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
        in
        let c = Core.Tuner.run_brute_force spares in
        Alcotest.(check bool) "inert atom: the reuse table serves repeats" true
          (c.Core.Tuner.backend.Core.Tuner.reuse_hits > 0));
    t "mom6's backend counters are pinned at rank and hierarchical" (fun () ->
        (* the only registered campaigns where the table hits, through
           the inert duc_w; the summary's "backend" object, byte for byte *)
        let backend c =
          List.find
            (String.starts_with ~prefix:"  \"backend\":")
            (String.split_on_char '\n' (Core.Export.summary_json c))
        in
        let mom6 = Models.Registry.find "mom6" in
        let rank =
          Core.Tuner.run_delta_debug
            ~config:{ Core.Config.default with Core.Config.predict = Core.Config.Predict_rank }
            ~workers:0 mom6
        in
        Alcotest.(check string) "rank"
          "  \"backend\": {\"compiled_procs\": 811, \"compile_hits\": 1016, \"reuse_hits\": 2, \
           \"reuse_misses\": 148},"
          (backend rank);
        let hier = Core.Tuner.run_hierarchical ~workers:0 mom6 in
        Alcotest.(check string) "hierarchical"
          "  \"backend\": {\"compiled_procs\": 754, \"compile_hits\": 898, \"reuse_hits\": 8, \
           \"reuse_misses\": 142},"
          (backend hier));
    t "same seed reproduces the campaign" (fun () ->
        let config = { Core.Config.default with Core.Config.max_variants = Some 12 } in
        let c1 = Core.Tuner.run_delta_debug ~config small_mpas in
        let c2 = Core.Tuner.run_delta_debug ~config small_mpas in
        let sigs c =
          List.map
            (fun (r : Search.Variant.record) -> Transform.Assignment.signature r.Search.Variant.asg)
            c.Core.Tuner.records
        in
        Alcotest.(check (list string)) "same exploration" (sigs c1) (sigs c2));
  ]

let extension_tests =
  [
    t "hierarchical campaign finds a valid 1-minimal variant" (fun () ->
        let config = { Core.Config.default with Core.Config.max_variants = Some 40 } in
        let c = Core.Tuner.run_hierarchical ~config small_mpas in
        match c.Core.Tuner.minimal with
        | Some r ->
          (* the reported minimal variant must satisfy the oracle *)
          let m = Core.Tuner.evaluate c.Core.Tuner.prepared r.Search.Delta_debug.minimal in
          Alcotest.(check bool) "accepted" true
            (Search.Delta_debug.accepted
               { Search.Delta_debug.error_threshold = c.Core.Tuner.prepared.Core.Tuner.threshold;
                 perf_floor = c.Core.Tuner.prepared.Core.Tuner.perf_floor }
               m)
        | None -> Alcotest.fail "expected a result");
    t "flow groups partition the atom set" (fun () ->
        let small_mom6 =
          { Models.Registry.mom6 with
            Models.Registry.source = Models.Mom6.source ~p:Models.Mom6.small () }
        in
        let p = Core.Tuner.prepare small_mom6 in
        let groups = Core.Tuner.flow_groups p in
        let flat = List.concat groups in
        Alcotest.(check int) "same size" (List.length p.Core.Tuner.atoms) (List.length flat);
        List.iter
          (fun a -> Alcotest.(check bool) "member" true (List.memq a flat))
          p.Core.Tuner.atoms;
        (* whole-array parameter passing couples atoms into one group:
           zonal_mass_flux's column buffer feeds zonal_flux_adjust's dummy *)
        let group_of id =
          List.find
            (fun g -> List.exists (fun a -> Transform.Assignment.atom_id a = id) g)
            groups
        in
        let g = group_of "zonal_flux_adjust/ucol" in
        Alcotest.(check bool) "coupled with its actual" true
          (List.exists
             (fun a -> Transform.Assignment.atom_id a = "zonal_mass_flux/ucol_w")
             g));
    t "CSV export has one row per variant" (fun () ->
        let config = { Core.Config.default with Core.Config.max_variants = Some 8 } in
        let c = Core.Tuner.run_delta_debug ~config small_mpas in
        let csv = Core.Export.variants_csv c in
        let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
        Alcotest.(check int) "rows" (c.Core.Tuner.summary.Search.Variant.total + 1)
          (List.length lines));
    t "CSV fields are RFC-4180 quoted" (fun () ->
        Alcotest.(check string) "plain passes through" "pass" (Core.Export.csv_field "pass");
        Alcotest.(check string) "comma quoted" "\"a,b\"" (Core.Export.csv_field "a,b");
        Alcotest.(check string) "quote doubled" "\"say \"\"hi\"\"\""
          (Core.Export.csv_field "say \"hi\"");
        Alcotest.(check string) "newline quoted" "\"a\nb\"" (Core.Export.csv_field "a\nb");
        (* a record whose status/signature would break a naive CSV writer *)
        let p = Core.Tuner.prepare small_funarc in
        let asg = Transform.Assignment.uniform p.Core.Tuner.atoms Fortran.Ast.K4 in
        let m = Core.Tuner.evaluate p asg in
        let r = { Search.Variant.index = 1; asg; meas = m } in
        let csv = Core.Export.variants_csv_records [ r ] in
        Alcotest.(check int) "two lines" 2
          (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv))));
    t "JSON export is well-formed enough" (fun () ->
        let config = { Core.Config.default with Core.Config.max_variants = Some 6 } in
        let c = Core.Tuner.run_delta_debug ~config small_mpas in
        let j = Core.Export.summary_json c in
        let contains sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length j && (String.sub j i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "model key" true (contains "\"model\": \"mpas\"");
        Alcotest.(check bool) "minimal key" true (contains "\"minimal\"");
        Alcotest.(check bool) "trace stats key" true (contains "\"trace\": {\"hits\": ");
        Alcotest.(check bool) "fresh-eval counter matches" true
          (contains
             (Printf.sprintf "\"misses\": %d"
                c.Core.Tuner.trace_stats.Search.Trace.misses)));
    t "predictor fits the funarc space with useful held-out accuracy" (fun () ->
        let c = Core.Tuner.run_brute_force small_funarc in
        match Core.Predictor.holdout_report c.Core.Tuner.prepared c.Core.Tuner.records with
        | Some (train_r2, test_r2, n) ->
          Alcotest.(check bool) "train fit" true (train_r2 > 0.4);
          Alcotest.(check bool) "held-out better than the mean" true (test_r2 > 0.2);
          Alcotest.(check bool) "held-out size" true (n > 50)
        | None -> Alcotest.fail "fit failed");
    t "predictor features are static and finite" (fun () ->
        let p = Core.Tuner.prepare small_mpas in
        let f =
          Core.Predictor.features p (Transform.Assignment.uniform p.Core.Tuner.atoms Fortran.Ast.K4)
        in
        Alcotest.(check int) "arity" (List.length Core.Predictor.feature_names) (Array.length f);
        Array.iter (fun v -> Alcotest.(check bool) "finite" true (Float.is_finite v)) f);
  ]

let () =
  Alcotest.run "tuner"
    [
      ("prepare", prepare_tests);
      ("evaluate", eval_tests);
      ("cluster", cluster_tests);
      ("campaigns", campaign_tests);
      ("extensions", extension_tests);
    ]
