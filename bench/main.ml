(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, prints the artifact-appendix validation checks, runs
   the Sec.-V ablations, and finishes with Bechamel micro-benchmarks of the
   pipeline stages behind each table/figure.

   Usage:
     main.exe                 run everything
     main.exe --table 1       only Table I (and II with --table 2)
     main.exe --figure 5      only that figure (2, 3, 5, 6, 7)
     main.exe --checks        only the validation checklists
     main.exe --ablation      only the ablations
     main.exe --bechamel      only the micro-benchmarks
     main.exe --quick         small workloads everywhere (CI mode)
     main.exe --workers N     evaluation helper domains beside the
                              submitting one (0 = sequential; default:
                              cores - 1); results are identical across
                              N, only wall clock changes
     main.exe --seed N        base seed for the injected run-to-run noise
                              (default 42); printed in the header and in
                              any regression-guard failure so every run
                              is reproducible
     main.exe --json PATH     write per-campaign wall clock, evaluation
                              counts, per-evaluation mean/max ms and
                              summaries as JSON (forces the five
                              campaigns)
     main.exe --check-against PATH
                              compare per-campaign wall clock and
                              per-evaluation mean against a committed
                              baseline JSON and exit non-zero on a >2x
                              regression of either (forces the campaigns)
     main.exe --kill-resume   journal determinism check: run a campaign
                              uninterrupted, run it again with an
                              injected preemption ("kill"), resume from
                              the journal, and require record-for-record
                              and summary-identical results with zero
                              re-evaluations of the journaled prefix
     main.exe --shards S      run the sharded campaigns (mpas_whole,
                              mpas_joint) on the work-stealing shard
                              scheduler with S simulated node-shards;
                              results are identical, only the simulated
                              makespan accounting is added
     main.exe --predict       predictive-search comparison: every
                              delta-debug campaign (five models +
                              mpas_joint) at --predict off/rank;
                              requires rank's minimal set bit-identical
                              to off's everywhere and >=25% fewer
                              dynamic evaluations to the minimal set
                              on >=3 campaigns; emitted into --json as
                              the "predict" section
     main.exe --scaling       shards x workers scaling curve on the
                              whole-model campaign: run the same search
                              at (1,0) (2,2) (2,4) (4,4), require every
                              point bit-identical in records and summary,
                              require >= 2x simulated-makespan improvement
                              at 4x4 over 1x0, and emit the curve into
                              the --json trajectory
     main.exe --fleet         cross-campaign dedup check: K=3 identical
                              campaigns multiplexed through the service
                              scheduler with the shared evaluation memo;
                              requires every job's journal (shared
                              provenance lines stripped), minimal set and
                              summary (trace line stripped) byte-identical
                              to a solo run, and >= 40% fewer fleet-wide
                              fresh evaluations than 3 solo runs; emitted
                              into --json as the "fleet" section          *)

let pf = Printf.printf

type selection = {
  mutable tables : int list;
  mutable figures : int list;
  mutable checks : bool;
  mutable ablation : bool;
  mutable bechamel : bool;
  mutable all : bool;
  mutable quick : bool;
  mutable workers : int option;
  mutable seed : int;
  mutable json : string option;
  mutable check_against : string option;
  mutable kill_resume : bool;
  mutable shards : int option;
  mutable scaling : bool;
  mutable predict_check : bool;
  mutable fleet : bool;
}

let parse_args () =
  let sel =
    { tables = []; figures = []; checks = false; ablation = false; bechamel = false; all = true;
      quick = false; workers = None; seed = Core.Config.default.Core.Config.seed;
      json = None; check_against = None; kill_resume = false; shards = None; scaling = false;
      predict_check = false; fleet = false }
  in
  let rec go = function
    | [] -> ()
    | "--table" :: n :: rest ->
      sel.tables <- int_of_string n :: sel.tables;
      sel.all <- false;
      go rest
    | "--figure" :: n :: rest ->
      sel.figures <- int_of_string n :: sel.figures;
      sel.all <- false;
      go rest
    | "--checks" :: rest ->
      sel.checks <- true;
      sel.all <- false;
      go rest
    | "--ablation" :: rest ->
      sel.ablation <- true;
      sel.all <- false;
      go rest
    | "--bechamel" :: rest ->
      sel.bechamel <- true;
      sel.all <- false;
      go rest
    | "--quick" :: rest ->
      sel.quick <- true;
      go rest
    | "--workers" :: n :: rest ->
      sel.workers <- Some (int_of_string n);
      go rest
    | "--seed" :: n :: rest ->
      sel.seed <- int_of_string n;
      go rest
    | "--json" :: path :: rest ->
      sel.json <- Some path;
      sel.all <- false;  (* `--json` alone = the five campaigns, no extras *)
      go rest
    | "--check-against" :: path :: rest ->
      sel.check_against <- Some path;
      sel.all <- false;
      go rest
    | "--kill-resume" :: rest ->
      sel.kill_resume <- true;
      sel.all <- false;
      go rest
    | "--shards" :: n :: rest ->
      sel.shards <- Some (int_of_string n);
      go rest
    | "--scaling" :: rest ->
      sel.scaling <- true;
      sel.all <- false;
      go rest
    | "--predict" :: rest ->
      sel.predict_check <- true;
      sel.all <- false;
      go rest
    | "--fleet" :: rest ->
      sel.fleet <- true;
      sel.all <- false;
      go rest
    | arg :: _ -> failwith ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  sel

let want_table sel n = sel.all || List.mem n sel.tables
let want_figure sel n = sel.all || List.mem n sel.figures

(* ------------------------------------------------------------------ *)
(* Bench-regression guard: compare per-campaign wall clock and
   per-evaluation mean against a committed BENCH_*.json baseline.      *)

(* The (name, (wall_seconds, eval_ms_mean)) entries of a
   [Core.Export.bench_json] baseline's "campaigns" array, plus the names
   of entries without a numeric wall clock (they predate the bench_json
   format or are damaged, and are skipped rather than aborting the whole
   guard). eval_ms_mean is optional so baselines recorded before it
   existed still load, and other fields are ignored, so baselines gain
   new ones (e.g. a "fleet" section) without breaking older readers. An
   unreadable or unparseable file yields no entries. *)
let baseline_walls path =
  let module J = Persist.Json in
  let skip_guard why =
    pf "bench-regression guard: cannot read baseline %s (%s); skipping the guard\n%!" path why;
    []
  in
  let campaigns =
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | doc -> Option.value ~default:[] (Option.bind (J.member "campaigns" doc) J.to_list)
    | exception Sys_error msg -> skip_guard msg
    | exception J.Parse_error msg -> skip_guard msg
  in
  let entries, malformed =
    List.fold_left
      (fun (entries, malformed) c ->
        let num key = Option.bind (J.member key c) J.to_float in
        match (Option.bind (J.member "name" c) J.to_str, num "wall_seconds") with
        | Some name, Some wall -> ((name, (wall, num "eval_ms_mean")) :: entries, malformed)
        | Some name, None -> (entries, name :: malformed)
        | None, _ -> (entries, malformed))
      ([], []) campaigns
  in
  (List.rev entries, List.rev malformed)

let check_against ~seed path entries =
  let baseline, malformed = baseline_walls path in
  if malformed <> [] then
    pf "bench-regression guard: skipping malformed baseline entries: %s\n%!"
      (String.concat ", " malformed);
  if baseline = [] then
    pf
      "bench-regression guard: no parseable campaign entries in %s (baseline predates the \
       bench_json format?); skipping the guard\n%!"
      path
  else begin
    let skipped_missing = ref [] and skipped_eval = ref [] in
    let slowdowns =
      List.concat_map
        (fun (name, wall, (c : Core.Tuner.campaign)) ->
          match List.assoc_opt name baseline with
          | None ->
            skipped_missing := name :: !skipped_missing;
            []
          | Some (base_wall, base_eval) ->
            let wall_bad =
              if base_wall > 0.0 && wall > 2.0 *. base_wall then
                [ Printf.sprintf "  %s: %.2fs vs baseline %.2fs (%.1fx slower)" name wall
                    base_wall (wall /. base_wall) ]
              else []
            in
            let eval_bad =
              let ms = c.Core.Tuner.eval_ms_mean in
              match base_eval with
              | None ->
                skipped_eval := name :: !skipped_eval;
                []
              | Some base when base > 0.0 && ms > 2.0 *. base ->
                [ Printf.sprintf "  %s: eval_ms_mean %.3fms vs baseline %.3fms (%.1fx slower)"
                    name ms base (ms /. base) ]
              | Some _ -> []
            in
            wall_bad @ eval_bad)
        entries
    in
    if !skipped_missing <> [] then
      pf "bench-regression guard: campaigns not in the baseline, skipped: %s\n%!"
        (String.concat ", " (List.rev !skipped_missing));
    if !skipped_eval <> [] then
      pf
        "bench-regression guard: baseline predates eval_ms_mean, per-evaluation check \
         skipped for: %s\n%!"
        (String.concat ", " (List.rev !skipped_eval));
    if slowdowns = [] then
      pf "bench-regression guard: all compared campaigns within 2x of %s\n%!" path
    else begin
      pf "bench-regression guard FAILED against %s (seed=%d):\n%s\n%!" path seed
        (String.concat "\n" slowdowns);
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* The campaigns (computed lazily so partial selections stay cheap)    *)

let wall_clocks : (string, float) Hashtbl.t = Hashtbl.create 8

let timed ?key label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Option.iter (fun k -> Hashtbl.replace wall_clocks k dt) key;
  pf "  [%s: %.1fs]\n%!" label dt;
  r

let rec main () =
  let sel = parse_args () in
  let config =
    let c =
      if sel.quick then { Core.Config.default with Core.Config.max_variants = Some 40 }
      else Core.Config.default
    in
    { c with Core.Config.seed = sel.seed }
  in
  let workers = sel.workers in
  let funarc =
    lazy (timed ~key:"funarc" "funarc brute force" (fun () -> Core.Experiments.funarc_campaign ~config ()))
  in
  let mpas =
    lazy
      (timed ~key:"mpas" "MPAS-A search" (fun () ->
           Core.Experiments.hotspot_campaign ~config ?workers "mpas"))
  in
  let adcirc =
    lazy
      (timed ~key:"adcirc" "ADCIRC search" (fun () ->
           Core.Experiments.hotspot_campaign ~config ?workers "adcirc"))
  in
  let mom6 =
    lazy
      (timed ~key:"mom6" "MOM6 search" (fun () ->
           Core.Experiments.hotspot_campaign ~config ?workers "mom6"))
  in
  let shards = sel.shards in
  let mpas_whole =
    lazy
      (timed ~key:"mpas_whole" "MPAS-A whole-model search" (fun () ->
           Core.Experiments.whole_model_campaign ~config ?workers ?shards ()))
  in
  let mpas_joint =
    lazy
      (timed ~key:"mpas_joint" "MPAS-A joint multi-hotspot search" (fun () ->
           Core.Experiments.joint_campaign ~config ?workers ?shards ()))
  in
  let hotspot_campaigns () = [ Lazy.force mpas; Lazy.force adcirc; Lazy.force mom6 ] in

  pf "prose-ml benchmark harness — reproduction of the SC'24 FPPT case study\n";
  pf "=======================================================================\n";
  pf "seed %d\n\n" sel.seed;

  if want_table sel 1 then begin
    pf "%s\n" (Core.Report.table1 (hotspot_campaigns ()));
    List.iter (fun c -> pf "%s" (Core.Report.campaign_header c)) (hotspot_campaigns ());
    pf "\n"
  end;
  if want_table sel 2 then begin
    pf "%s\n" (Core.Report.table2 (hotspot_campaigns ()))
  end;
  if want_figure sel 2 then pf "%s\n" (Core.Report.figure2 (Lazy.force funarc));
  if want_figure sel 3 then
    pf "%s\n"
      (Core.Report.figure3 (Lazy.force funarc)
         ~error_budget:
           (match Models.Registry.funarc.Models.Registry.threshold with
           | Models.Registry.Fixed f -> f
           | Models.Registry.From_uniform32 _ -> 4.0e-4));
  if want_figure sel 5 then
    List.iter (fun c -> pf "%s\n" (Core.Report.figure5 c)) (hotspot_campaigns ());
  if want_figure sel 6 then
    List.iter (fun c -> pf "%s\n" (Core.Report.figure6 c)) (hotspot_campaigns ());
  if want_figure sel 7 then pf "%s\n" (Core.Report.figure7 (Lazy.force mpas_whole));

  if sel.all || sel.checks then begin
    pf "VALIDATION CHECKS (paper artifact appendix criteria)\n";
    pf "funarc (Sec. II-B):\n%s" (Core.Checks.render (Core.Checks.funarc (Lazy.force funarc)));
    pf "MPAS-A + Sec. IV-B:\n%s"
      (Core.Checks.render (Core.Checks.mpas_hotspot (Lazy.force mpas)));
    pf "ADCIRC + Sec. IV-B:\n%s"
      (Core.Checks.render (Core.Checks.adcirc_hotspot (Lazy.force adcirc)));
    pf "MOM6 + Sec. IV-B:\n%s"
      (Core.Checks.render (Core.Checks.mom6_hotspot (Lazy.force mom6)));
    pf "MPAS-A + Sec. IV-C:\n%s\n"
      (Core.Checks.render (Core.Checks.mpas_whole_model (Lazy.force mpas_whole)))
  end;

  if sel.all || sel.ablation then begin
    pf "%s\n"
      (Core.Experiments.render_ablation (timed "ablation: static filter" (fun () ->
           Core.Experiments.ablation_static_filter ~config ())));
    pf "%s\n"
      (Core.Experiments.render_ablation (timed "ablation: no SIMD" (fun () ->
           Core.Experiments.ablation_no_simd ~config ())));
    pf "%s\n"
      (Core.Experiments.render_ablation (timed "ablation: search strategy" (fun () ->
           Core.Experiments.ablation_search ~config ())));
    pf "%s\n"
      (Core.Experiments.render_ablation (timed "ablation: clustered search" (fun () ->
           Core.Experiments.ablation_hierarchical ~config ())));
    (* the [42]-style static performance predictor, trained on each
       campaign's own exploration: plenty of samples on the funarc
       brute-force space, sample-starved on a 21-variant search — which is
       exactly the premise of learning-based variant filtering *)
    (* the Sec.-I contrast: a hotspot-dominated proxy app tunes trivially *)
    (let c = timed "contrast: LULESH proxy app" (fun () ->
         Core.Tuner.run_delta_debug ~config Models.Registry.lulesh)
     in
     let s = c.Core.Tuner.summary in
     pf
       "CONTRAST CASE (Sec. I): LULESH proxy app — %d variants, pass %.0f%%, best %.2fx, \
        hotspot %.0f%% of CPU\n\
       \  The canonical FPPT cycle succeeds immediately on hotspot-dominated mini-apps;\n\
       \  the pathologies of Table II only appear at weather/climate-model structure.\n\n"
       s.Search.Variant.total s.Search.Variant.pass_pct s.Search.Variant.best_speedup
       (100.0
       *. c.Core.Tuner.prepared.Core.Tuner.baseline_hotspot
       /. c.Core.Tuner.prepared.Core.Tuner.baseline_cost));
    pf "ABLATION: static speedup prediction (Wang & Rubio-Gonzalez direction, Sec. V)\n";
    pf "  features: %s\n" (String.concat ", " Core.Predictor.feature_names);
    List.iter
      (fun c ->
        let name =
          (Lazy.force c).Core.Tuner.prepared.Core.Tuner.model.Models.Registry.title
        in
        match
          Core.Predictor.holdout_report (Lazy.force c).Core.Tuner.prepared
            (Lazy.force c).Core.Tuner.records
        with
        | Some (train_r2, test_r2, n_test) ->
          pf "  %-8s train R^2 %5.2f, held-out R^2 %5.2f (%d variants held out)\n" name train_r2
            test_r2 n_test
        | None -> pf "  %-8s too few samples to fit\n" name)
      [ funarc; mpas; mom6 ];
    pf "\n"
  end;

  if sel.all || sel.bechamel then bechamel_suite ();
  if sel.kill_resume then kill_resume_suite ~config ?workers ();
  let scaling = if sel.scaling then Some (scaling_suite ~config ()) else None in
  let predict =
    if sel.predict_check || sel.json <> None then
      Some (predict_suite ~config ?workers ())
    else None
  in
  let fleet = if sel.fleet || sel.json <> None then Some (fleet_suite ()) else None in

  (* perf trajectory: per-campaign wall clock + evaluation counts (forces
     the six campaigns, so `--json` or `--check-against` alone is a
     meaningful selection) *)
  if sel.json <> None || sel.check_against <> None then begin
    let effective =
      match sel.workers with Some w -> w | None -> Core.Tuner.default_workers ()
    in
    let entries =
      List.map
        (fun (key, c) ->
          let c = Lazy.force c in
          (key, Option.value ~default:0.0 (Hashtbl.find_opt wall_clocks key), c))
        [ ("funarc", funarc); ("mpas", mpas); ("adcirc", adcirc); ("mom6", mom6);
          ("mpas_whole", mpas_whole); ("mpas_joint", mpas_joint) ]
    in
    Option.iter
      (fun path ->
        Core.Export.write_file ~path
          (Core.Export.bench_json ?scaling ?predict ?fleet ~workers:effective entries);
        pf "wrote %s\n%!" path)
      sel.json;
    Option.iter (fun path -> check_against ~seed:sel.seed path entries) sel.check_against
  end

(* ------------------------------------------------------------------ *)
(* Kill-and-resume determinism check: the journal's headline invariant.
   An uninterrupted campaign and one preempted mid-search ("killed" with
   its journal intact) then resumed must agree record for record and in
   the summary, with the journaled prefix served entirely from cache.   *)

and kill_resume_suite ~config ?workers () =
  pf "KILL-AND-RESUME DETERMINISM CHECK\n";
  let failures = ref 0 in
  let key_of (r : Search.Variant.record) =
    (r.Search.Variant.index, Transform.Assignment.signature r.Search.Variant.asg,
     r.Search.Variant.meas)
  in
  let fresh_dir =
    let n = ref 0 in
    fun () ->
      incr n;
      Printf.sprintf "%s/prose_kill_resume_%d_%d" (Filename.get_temp_dir_name ())
        (Unix.getpid ()) !n
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  let check name ~boundary
      (run :
        ?journal:string * Core.Cluster.Faults.spec ->
        ?resume:string ->
        unit ->
        Core.Tuner.campaign) =
    let base = timed (name ^ " uninterrupted") (fun () -> run ?journal:None ?resume:None ()) in
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let faults =
      { Core.Cluster.Faults.none with Core.Cluster.Faults.preempt_at_hours = Some boundary }
    in
    let killed =
      timed (name ^ " preempted") (fun () -> run ~journal:(dir, faults) ?resume:None ())
    in
    if not killed.Core.Tuner.interrupted then begin
      pf "  FAIL %s: the preemption boundary (%.3f h) never fired\n" name boundary;
      incr failures
    end
    else begin
      let resumed = timed (name ^ " resumed") (fun () -> run ?journal:None ~resume:dir ()) in
      let ok_records =
        compare (List.map key_of base.Core.Tuner.records)
          (List.map key_of resumed.Core.Tuner.records)
        = 0
      in
      let ok_summary = compare base.Core.Tuner.summary resumed.Core.Tuner.summary = 0 in
      let ok_hours =
        compare base.Core.Tuner.simulated_hours resumed.Core.Tuner.simulated_hours = 0
      in
      let ok_fresh =
        resumed.Core.Tuner.trace_stats.Search.Trace.misses
        = List.length resumed.Core.Tuner.records - resumed.Core.Tuner.preloaded
      in
      if ok_records && ok_summary && ok_hours && ok_fresh then
        pf "  OK   %s: %d records (%d journaled before the kill, %d fresh after resume)\n" name
          (List.length resumed.Core.Tuner.records)
          resumed.Core.Tuner.preloaded
          resumed.Core.Tuner.trace_stats.Search.Trace.misses
      else begin
        pf "  FAIL %s: records %b, summary %b, hours %b, zero-reeval %b\n" name ok_records
          ok_summary ok_hours ok_fresh;
        incr failures
      end
    end
  in
  check "funarc brute force" ~boundary:0.05 (fun ?journal ?resume () ->
      match resume with
      | Some dir -> Core.Tuner.resume ~config ~journal:dir ()
      | None -> (
        match journal with
        | Some (dir, faults) -> Core.Tuner.run_brute_force ~config ~journal:dir ~faults Models.Registry.funarc
        | None -> Core.Tuner.run_brute_force ~config Models.Registry.funarc));
  check "MPAS-A delta debug" ~boundary:0.05 (fun ?journal ?resume () ->
      match resume with
      | Some dir -> Core.Tuner.resume ~config ?workers ~journal:dir ()
      | None -> (
        match journal with
        | Some (dir, faults) ->
          Core.Tuner.run_delta_debug ~config ?workers ~journal:dir ~faults Models.Registry.mpas
        | None -> Core.Tuner.run_delta_debug ~config ?workers Models.Registry.mpas));
  if !failures > 0 then begin
    pf "kill-and-resume check FAILED (%d)\n%!" !failures;
    exit 1
  end
  else pf "kill-and-resume check passed\n%!"

(* ------------------------------------------------------------------ *)
(* Predictive-search comparison: every delta-debug campaign at --predict
   off / rank.  rank must reproduce off's minimal set bit for bit
   everywhere (it only reorders the trajectory) and reach it with
   >= 25% fewer dynamic evaluations on at least 3 of the 6 campaigns. *)

and predict_suite ~config ?workers () =
  pf "PREDICTIVE SEARCH COMPARISON (static error-amplification steering, lib/sensitivity)\n";
  (* the suite runs at its own fixed bench seed and with the variant
     budget lifted: the savings figures are part of the published
     comparison, so they must not drift with the CLI --seed (which keeps
     steering the rest of the harness), and the longest off-mode
     trajectory must not be truncated mid-search *)
  let config =
    { config with Core.Config.seed = 99; max_variants = Some 100_000 }
  in
  let is_static (r : Search.Variant.record) =
    let d = r.Search.Variant.meas.Search.Variant.detail in
    String.length d >= 6 && String.sub d 0 6 = "static"
  in
  let dynamic_evals c =
    List.length (List.filter (fun r -> not (is_static r)) c.Core.Tuner.records)
  in
  let minimal_sig (c : Core.Tuner.campaign) =
    Option.map
      (fun m -> Transform.Assignment.signature m.Search.Delta_debug.minimal)
      c.Core.Tuner.minimal
  in
  (* dynamic evaluations spent before the search first lands on the
     variant it will declare minimal (statically filtered records are
     free) *)
  let evals_to_minimal (c : Core.Tuner.campaign) =
    match minimal_sig c with
    | None -> dynamic_evals c
    | Some target ->
      let rec go n = function
        | [] -> n
        | (r : Search.Variant.record) :: rest ->
          let n = if is_static r then n else n + 1 in
          if Transform.Assignment.signature r.Search.Variant.asg = target then n else go n rest
      in
      go 0 c.Core.Tuner.records
  in
  let runners =
    [
      ("funarc", fun cfg -> Core.Tuner.run_delta_debug ~config:cfg Models.Registry.funarc);
      ("mpas", fun cfg -> Core.Experiments.hotspot_campaign ~config:cfg ?workers "mpas");
      ("adcirc", fun cfg -> Core.Experiments.hotspot_campaign ~config:cfg ?workers "adcirc");
      ("mom6", fun cfg -> Core.Experiments.hotspot_campaign ~config:cfg ?workers "mom6");
      ("lulesh", fun cfg -> Core.Experiments.hotspot_campaign ~config:cfg ?workers "lulesh");
      ("mpas_joint", fun cfg -> Core.Experiments.joint_campaign ~config:cfg ?workers ());
    ]
  in
  let failures = ref 0 in
  let improved = ref 0 in
  let points =
    List.concat_map
      (fun (name, run) ->
        let mode m = { config with Core.Config.predict = m } in
        let off = timed (name ^ " predict=off") (fun () -> run (mode Core.Config.Predict_off)) in
        let rank =
          timed (name ^ " predict=rank") (fun () -> run (mode Core.Config.Predict_rank))
        in
        let off_sig = minimal_sig off in
        let point m (c : Core.Tuner.campaign) =
          {
            Core.Export.pr_campaign = name;
            pr_mode = m;
            pr_evals_to_minimal = evals_to_minimal c;
            pr_dynamic_evals = dynamic_evals c;
            pr_sim_hours = c.Core.Tuner.simulated_hours;
            pr_sim_hours_saved = off.Core.Tuner.simulated_hours -. c.Core.Tuner.simulated_hours;
            pr_minimal_identical = minimal_sig c = off_sig;
          }
        in
        let p_off = point "off" off and p_rank = point "rank" rank in
        List.iter
          (fun p ->
            pf "  %-10s %-5s %3d evals to minimal / %3d dynamic, %7.3f sim h (saved %7.3f), \
                minimal %s\n"
              name p.Core.Export.pr_mode p.Core.Export.pr_evals_to_minimal
              p.Core.Export.pr_dynamic_evals p.Core.Export.pr_sim_hours
              p.Core.Export.pr_sim_hours_saved
              (if p.Core.Export.pr_minimal_identical then "identical" else "DIFFERENT"))
          [ p_off; p_rank ];
        if not p_rank.Core.Export.pr_minimal_identical then begin
          pf "  FAIL %s: rank's minimal set differs from off's\n" name;
          incr failures
        end;
        if
          float_of_int p_rank.Core.Export.pr_evals_to_minimal
          <= 0.75 *. float_of_int p_off.Core.Export.pr_evals_to_minimal
        then incr improved;
        [ p_off; p_rank ])
      runners
  in
  pf "  rank saved >=25%% of evaluations-to-minimal on %d of %d campaigns\n" !improved
    (List.length runners);
  if !improved < 3 then begin
    pf "  FAIL: expected >=25%% savings on at least 3 campaigns\n";
    incr failures
  end;
  if !failures > 0 then begin
    pf "predictive-search check FAILED (%d)\n%!" !failures;
    exit 1
  end
  else pf "predictive-search check passed\n%!";
  points

(* ------------------------------------------------------------------ *)
(* Shard-scheduler scaling curve: the same whole-model campaign at
   several shards x workers points.  Every point must agree record for
   record and summary-bit-identically with the sequential (1, 0) point
   — sharding is an execution strategy, not part of the experiment —
   and the simulated work-stealing makespan at 4x4 must beat the
   sequential makespan by at least 2x.                                 *)

and scaling_suite ~config () =
  pf "SHARD-SCHEDULER SCALING CURVE (mpas whole-model, simulated cluster makespan)\n";
  let grid = [ (1, 0); (2, 2); (2, 4); (4, 4) ] in
  let key_of (r : Search.Variant.record) =
    (r.Search.Variant.index, Transform.Assignment.signature r.Search.Variant.asg,
     r.Search.Variant.meas)
  in
  let runs =
    List.map
      (fun (s, w) ->
        let c =
          timed (Printf.sprintf "mpas_whole shards=%d workers=%d" s w) (fun () ->
              Core.Experiments.whole_model_campaign ~config ~workers:w ~shards:s ())
        in
        ((s, w), c))
      grid
  in
  let base = snd (List.hd runs) in
  let base_summary = Core.Export.summary_json base in
  let base_keys = List.map key_of base.Core.Tuner.records in
  let failures = ref 0 in
  let sim_of (c : Core.Tuner.campaign) =
    match c.Core.Tuner.sched with
    | Some s -> s.Core.Tuner.sched_sim_hours
    | None -> nan
  in
  let base_sim = sim_of base in
  List.iter
    (fun ((s, w), (c : Core.Tuner.campaign)) ->
      let ok_records = List.map key_of c.Core.Tuner.records = base_keys in
      let ok_summary = Core.Export.summary_json c = base_summary in
      let sim = sim_of c in
      let speedup = base_sim /. sim in
      let st = Option.get c.Core.Tuner.sched in
      pf "  %dx%d: %2d slots, simulated %.3f h (%.2fx vs 1x0), %d steals, %d rounds, %d+%d evals\n"
        s w st.Core.Tuner.sched_slots sim speedup st.Core.Tuner.sched_steals
        st.Core.Tuner.sched_rounds st.Core.Tuner.sched_batched st.Core.Tuner.sched_serial;
      if not (ok_records && ok_summary) then begin
        pf "  FAIL %dx%d: records identical %b, summary identical %b\n" s w ok_records ok_summary;
        incr failures
      end;
      if (s, w) = (4, 4) && not (speedup >= 2.0) then begin
        pf "  FAIL 4x4: simulated speedup %.2fx < 2x over the sequential 1x0 point\n" speedup;
        incr failures
      end)
    runs;
  if !failures > 0 then begin
    pf "scaling check FAILED (%d)\n%!" !failures;
    exit 1
  end
  else pf "scaling check passed: every point bit-identical, >= 2x simulated speedup at 4x4\n%!";
  List.filter_map (fun (_, (c : Core.Tuner.campaign)) -> c.Core.Tuner.sched) runs

(* ------------------------------------------------------------------ *)
(* Fleet-dedup check: K identical campaigns multiplexed through the
   service scheduler with the cross-campaign evaluation memo.  Each
   job's journal (shared provenance lines stripped), minimal set and
   summary (trace line stripped) must be byte-identical to a solo run
   of the same campaign, and the fleet-wide count of fresh dynamic
   evaluations must undercut K solo runs by at least 40% — the memo
   turns the duplicated work into journaled, provenance-annotated
   replays.                                                            *)

and fleet_suite () =
  pf "FLEET DEDUP CHECK (shared cross-campaign evaluation memo)\n";
  let k = 3 in
  (* the suite runs at the jobs' own spec-derived config (the memo keys
     on the config digest), so the CLI --seed steering the rest of the
     harness does not move these published numbers *)
  let spec =
    {
      Service.Job.sp_model = "funarc";
      sp_algo = "delta_debug";
      sp_seed = 42;
      sp_workers = 0;
      sp_max_variants = None;
      sp_whole_model = false;
      sp_quota_hours = None;
      sp_faults = None;
      sp_tenant = "bench";
      sp_priority = 1;
    }
  in
  let config = Service.Job.config_of_spec spec in
  let tmp =
    Printf.sprintf "%s/prose_fleet_%d" (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let rec rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then rm_rf p else Sys.remove p)
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  rm_rf tmp;
  Unix.mkdir tmp 0o755;
  Fun.protect ~finally:(fun () -> if Sys.getenv_opt "PROSE_FLEET_KEEP" = None then rm_rf tmp) @@ fun () ->
  let slurp path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let strip sub s =
    String.split_on_char '\n' s
    |> List.filter (fun l ->
           let n = String.length sub and m = String.length l in
           let rec at i = i + n <= m && (String.sub l i n = sub || at (i + 1)) in
           not (at 0))
    |> String.concat "\n"
  in
  (* solo baseline (journaled): all K jobs are identical, so one solo run
     stands in for all three. It runs at the jobs' worker count, which the
     journal header records — the host's default would make the header
     differ on any machine with spare cores. *)
  let solo_dir = Filename.concat tmp "solo" in
  Unix.mkdir solo_dir 0o755;
  let solo =
    timed "funarc solo (journaled)" (fun () ->
        Core.Tuner.run_delta_debug ~config ~workers:spec.Service.Job.sp_workers
          ~journal:solo_dir Models.Registry.funarc)
  in
  let solo_misses = solo.Core.Tuner.trace_stats.Search.Trace.misses in
  let solo_journal = slurp (Persist.Journal.file ~dir:solo_dir) in
  let solo_summary = strip "\"trace\"" (Core.Export.summary_json solo) in
  let solo_minimal =
    Option.map (fun r -> Service.Sched.minimal_text solo r) solo.Core.Tuner.minimal
  in
  (* the fleet: K identical jobs, round-robin slices, shared memo *)
  let root = Filename.concat tmp "fleet" in
  Unix.mkdir root 0o755;
  let store = Service.Store.open_ ~root in
  let memo = Service.Memo.create () in
  let sched = Service.Sched.create ~slice_records:8 ~memo ~find_model:Models.Registry.find store in
  let ids =
    List.init k (fun _ ->
        match Service.Store.submit store ~find_model:Models.Registry.find spec with
        | Ok j -> j.Service.Job.id
        | Error m -> failwith ("fleet submit rejected: " ^ m))
  in
  let fleet_misses = ref 0 and fleet_shared = ref 0 in
  timed "funarc fleet (3 jobs, shared memo)" (fun () ->
      let rec go () =
        match Service.Sched.step sched with
        | Service.Sched.Idle -> ()
        | Service.Sched.Sliced { si_fresh; si_shared; _ } ->
          fleet_misses := !fleet_misses + si_fresh;
          fleet_shared := !fleet_shared + si_shared;
          go ()
      in
      go ());
  let failures = ref 0 in
  let identical =
    List.for_all
      (fun id ->
        let dir = Service.Store.campaign_dir store id in
        let journal = strip "\"kind\":\"shared\"" (slurp (Persist.Journal.file ~dir)) in
        let summary = strip "\"trace\"" (slurp (Service.Store.summary_file store id)) in
        let minimal =
          let p = Service.Store.minimal_file store id in
          if Sys.file_exists p then Some (slurp p) else None
        in
        let ok =
          journal = solo_journal && summary = solo_summary && minimal = solo_minimal
        in
        if not ok then
          pf "  FAIL %s: journal identical %b, summary identical %b, minimal identical %b\n" id
            (journal = solo_journal) (summary = solo_summary) (minimal = solo_minimal);
        ok)
      ids
  in
  if not identical then incr failures;
  let solo_fleet = k * solo_misses in
  let saved_pct =
    if solo_fleet = 0 then 0.0
    else 100.0 *. (1.0 -. (float_of_int !fleet_misses /. float_of_int solo_fleet))
  in
  pf "  %d jobs: %d fresh evaluations fleet-wide vs %d for %d solo runs (%d memo-shared, \
      %.0f%% saved)\n"
    k !fleet_misses solo_fleet k !fleet_shared saved_pct;
  if saved_pct < 40.0 then begin
    pf "  FAIL: expected >= 40%% fewer fresh evaluations than %d solo runs\n" k;
    incr failures
  end;
  if !failures > 0 then begin
    pf "fleet-dedup check FAILED (%d)\n%!" !failures;
    exit 1
  end
  else pf "fleet-dedup check passed: every job byte-identical to solo, %.0f%% saved\n%!" saved_pct;
  [
    {
      Core.Export.fl_jobs = k;
      fl_solo_misses = solo_fleet;
      fl_fleet_misses = !fleet_misses;
      fl_fleet_shared = !fleet_shared;
      fl_saved_pct = saved_pct;
      fl_identical = identical;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure, measuring the
   pipeline stage that regenerates it, on small workloads.             *)

and bechamel_suite () =
  let open Bechamel in
  pf "BECHAMEL MICRO-BENCHMARKS (pipeline stages behind each table/figure)\n";
  (* small-model fixtures *)
  let small_mpas =
    { Models.Registry.mpas with Models.Registry.source = Models.Mpas.source ~p:Models.Mpas.small () }
  in
  let small_adcirc =
    { Models.Registry.adcirc with
      Models.Registry.source = Models.Adcirc.source ~p:Models.Adcirc.small () }
  in
  let small_mom6 =
    { Models.Registry.mom6 with Models.Registry.source = Models.Mom6.source ~p:Models.Mom6.small () }
  in
  let funarc_small =
    { Models.Registry.funarc with Models.Registry.source = Models.Funarc.source ~n:100 () }
  in
  let prep m = Core.Tuner.prepare m in
  let p_funarc = prep funarc_small in
  let p_mpas = prep small_mpas in
  let p_adcirc = prep small_adcirc in
  let p_mom6 = prep small_mom6 in
  let lowered_half (p : Core.Tuner.prepared) =
    let atoms = p.Core.Tuner.atoms in
    let half = List.filteri (fun i _ -> i mod 2 = 0) atoms in
    Transform.Assignment.of_lowered atoms ~lowered:half
  in
  let prog_mpas = Fortran.Symtab.program p_mpas.Core.Tuner.st in
  let text_mpas = Fortran.Unparse.program prog_mpas in
  let tests =
    [
      (* Table I: profiling a baseline run with GPTL-style timers *)
      Test.make ~name:"table1/baseline-profile-mpas"
        (Staged.stage (fun () -> ignore (Runtime.Interp.run p_mpas.Core.Tuner.st)));
      (* Table II: one full variant evaluation per model *)
      Test.make ~name:"table2/variant-eval-mpas"
        (Staged.stage (fun () -> ignore (Core.Tuner.evaluate p_mpas (lowered_half p_mpas))));
      Test.make ~name:"table2/variant-eval-adcirc"
        (Staged.stage (fun () -> ignore (Core.Tuner.evaluate p_adcirc (lowered_half p_adcirc))));
      Test.make ~name:"table2/variant-eval-mom6"
        (Staged.stage (fun () -> ignore (Core.Tuner.evaluate p_mom6 (lowered_half p_mom6))));
      (* Figure 2: one funarc brute-force point *)
      Test.make ~name:"figure2/variant-eval-funarc"
        (Staged.stage (fun () -> ignore (Core.Tuner.evaluate p_funarc (lowered_half p_funarc))));
      (* Figure 3: transformation + wrapper insertion + diff *)
      Test.make ~name:"figure3/transform-and-diff"
        (Staged.stage (fun () ->
             let asg = lowered_half p_funarc in
             let prog' = Transform.Rewrite.apply p_funarc.Core.Tuner.st asg in
             let w = Transform.Wrappers.insert prog' in
             ignore (Transform.Diff.declarations p_funarc.Core.Tuner.st asg);
             ignore w));
      (* Figures 5/7: the search step (one delta-debug oracle call) *)
      Test.make ~name:"figure5/oracle-call-mpas"
        (Staged.stage (fun () ->
             ignore
               (Search.Delta_debug.accepted
                  { Search.Delta_debug.error_threshold = p_mpas.Core.Tuner.threshold;
                    perf_floor = 0.95 }
                  (Core.Tuner.evaluate p_mpas (lowered_half p_mpas)))));
      (* Figure 6: per-procedure timer attribution *)
      Test.make ~name:"figure6/timer-snapshot"
        (Staged.stage (fun () ->
             let out = Runtime.Interp.run p_adcirc.Core.Tuner.st in
             ignore (Runtime.Timers.inclusive_of out.Runtime.Interp.timers "jcg")));
      (* frontend stages used everywhere *)
      Test.make ~name:"frontend/parse-mpas"
        (Staged.stage (fun () -> ignore (Fortran.Parser.parse ~file:"b.f90" text_mpas)));
      Test.make ~name:"frontend/typecheck-mpas"
        (Staged.stage (fun () -> Fortran.Typecheck.check_program p_mpas.Core.Tuner.st));
      Test.make ~name:"analysis/vectorize-mpas"
        (Staged.stage (fun () -> ignore (Analysis.Vectorize.analyze p_mpas.Core.Tuner.st)));
      Test.make ~name:"analysis/flowgraph-mpas"
        (Staged.stage (fun () -> ignore (Analysis.Flowgraph.build p_mpas.Core.Tuner.st)));
    ]
  in
  let grouped = Test.make_grouped ~name:"prose" ~fmt:"%s/%s" tests in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      pf "  %-40s %12.0f ns/run\n" name ns)
    (List.sort compare rows)

let () = main ()
