(* Durable-campaign tests: the JSON codec, the write-ahead journal (torn
   tails, bit-identical replay), atomic snapshots, and the headline
   invariant — a campaign interrupted at an arbitrary journaled prefix and
   resumed is record-for-record and summary-bit-identical to one that was
   never interrupted, with zero re-evaluation of the journaled prefix. *)

let t name f = Alcotest.test_case name `Quick f

let small_funarc =
  { Models.Registry.funarc with Models.Registry.source = Models.Funarc.source ~n:200 () }

(* keep the funarc brute-force space small: the budget truncates the 2^n
   enumeration, and preloaded records count toward it on resume *)
let funarc_config = { Core.Config.default with Core.Config.max_variants = Some 48 }

let with_dir = Harness.with_dir
let with_dir2 = Harness.with_dir2

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let json_tests =
  [
    t "escape_string covers the C0 controls" (fun () ->
        Alcotest.(check string) "two-char escapes" {|a\"b\\c\nd\re\tf|}
          (Persist.Json.escape_string "a\"b\\c\nd\re\tf");
        Alcotest.(check string) "backspace and formfeed" {|\b\f|}
          (Persist.Json.escape_string "\b\012");
        Alcotest.(check string) "bare controls as \\u00XX" {|\u0000x\u0001\u001f|}
          (Persist.Json.escape_string "\x00x\x01\x1f"));
    t "values round-trip through to_string/parse" (fun () ->
        let v =
          Persist.Json.Obj
            [
              ("s", Persist.Json.Str "quote \" slash \\ ctrl \x02\r\n\t end");
              ("n", Persist.Json.Num 42.0);
              ("f", Persist.Json.Num 0.15625);
              ("b", Persist.Json.Bool true);
              ("z", Persist.Json.Null);
              ("a", Persist.Json.Arr [ Persist.Json.Num 1.0; Persist.Json.Str "x" ]);
            ]
        in
        Alcotest.(check bool) "round-trip" true
          (compare (Persist.Json.parse (Persist.Json.to_string v)) v = 0));
    t "parse rejects malformed input" (fun () ->
        let rejects s =
          match Persist.Json.parse s with
          | _ -> Alcotest.failf "accepted %S" s
          | exception Persist.Json.Parse_error _ -> ()
        in
        rejects "{";
        rejects "[1,]";
        rejects "1 2";
        rejects "\"unterminated");
    t "hex floats are bit-exact" (fun () ->
        List.iter
          (fun x ->
            let back = Persist.Json.of_hex_float (Persist.Json.hex_float x) in
            Alcotest.(check int64)
              (Printf.sprintf "bits of %h" x)
              (Int64.bits_of_float x) (Int64.bits_of_float back))
          [ 0.0; -0.0; 1.0; 0.1; -3.14159e300; 4.9e-324; infinity; neg_infinity ];
        (* nan round-trips as *a* nan (the payload is not preserved:
           [float_of_string "nan"] yields the canonical quiet nan) *)
        Alcotest.(check bool)
          "nan stays nan" true
          (Float.is_nan (Persist.Json.of_hex_float (Persist.Json.hex_float nan))));
  ]

(* ------------------------------------------------------------------ *)
(* Journal + snapshot files                                            *)

let header =
  {
    Persist.Journal.version = 1;
    model = "funarc";
    algo = "brute_force";
    seed = 42;
    config_digest = "cafe";
    workers = 0;
    atoms = 4;
    caps = [ "shared" ];
  }

let weird_meas =
  {
    Search.Variant.status = Search.Variant.Error;
    speedup = -0.0;
    rel_error = infinity;
    hotspot_time = nan;
    model_time = 0x1.fffffffffffffp-3;
    proc_stats = [ ("p \"q\"", 4.9e-324, 3); ("r\n", neg_infinity, 0) ];
    casting_share = 0.1;
    detail = "comma, \"quote\" and\nnewline\ttab";
  }

let entry i signature meas =
  { Persist.Journal.e_index = i; e_signature = signature; e_meas = meas; e_score = None; e_bound = None }

let journal_tests =
  [
    t "entries replay bit-identically (inf/nan/denormal floats)" (fun () ->
        with_dir (fun dir ->
            let w = Persist.Journal.create ~dir header in
            let es =
              [ entry 1 "4488" weird_meas;
                entry 2 "8888"
                  { weird_meas with Search.Variant.status = Search.Variant.Pass; detail = "" } ]
            in
            List.iter (Persist.Journal.append w) es;
            Persist.Journal.close w;
            let loaded = Persist.Journal.load ~dir in
            Alcotest.(check bool) "header" true (compare loaded.Persist.Journal.l_header header = 0);
            Alcotest.(check bool) "not torn" false loaded.Persist.Journal.l_torn;
            (* [compare] treats nan = nan but 0.0 = -0.0: check the sign
               bit explicitly on top of structural equality *)
            Alcotest.(check bool) "entries" true
              (compare loaded.Persist.Journal.l_entries es = 0);
            let m = (List.hd loaded.Persist.Journal.l_entries).Persist.Journal.e_meas in
            Alcotest.(check int64) "-0.0 speedup bits"
              (Int64.bits_of_float (-0.0))
              (Int64.bits_of_float m.Search.Variant.speedup);
            Alcotest.(check int64) "model_time bits"
              (Int64.bits_of_float weird_meas.Search.Variant.model_time)
              (Int64.bits_of_float m.Search.Variant.model_time)));
    t "a torn tail is dropped and reopen truncates it" (fun () ->
        with_dir (fun dir ->
            let w = Persist.Journal.create ~dir header in
            Persist.Journal.append w (entry 1 "4488" weird_meas);
            Persist.Journal.append w (entry 2 "8888" weird_meas);
            Persist.Journal.close w;
            let path = Persist.Journal.file ~dir in
            let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
            output_string oc "{\"kind\": \"record\", \"index\": 3, \"sig";
            close_out oc;
            let loaded = Persist.Journal.load ~dir in
            Alcotest.(check bool) "torn" true loaded.Persist.Journal.l_torn;
            Alcotest.(check int) "two complete entries" 2
              (List.length loaded.Persist.Journal.l_entries);
            let loaded', w' = Persist.Journal.reopen ~dir () in
            Alcotest.(check int) "reopen sees both" 2
              (List.length loaded'.Persist.Journal.l_entries);
            Persist.Journal.append w' (entry 3 "4444" weird_meas);
            Persist.Journal.close w';
            let final = Persist.Journal.load ~dir in
            Alcotest.(check bool) "tail healed" false final.Persist.Journal.l_torn;
            Alcotest.(check int) "three entries" 3 (List.length final.Persist.Journal.l_entries)));
    t "create refuses an existing journal" (fun () ->
        with_dir (fun dir ->
            let w = Persist.Journal.create ~dir header in
            Persist.Journal.close w;
            match Persist.Journal.create ~dir header with
            | _ -> Alcotest.fail "second create succeeded"
            | exception Sys_error _ -> ()));
    t "load raises Corrupt on mid-file damage and bad headers" (fun () ->
        with_dir (fun dir ->
            match Persist.Journal.load ~dir with
            | _ -> Alcotest.fail "loaded a missing journal"
            | exception Persist.Journal.Corrupt _ -> ());
        with_dir (fun dir ->
            let w = Persist.Journal.create ~dir header in
            Persist.Journal.append w (entry 1 "4488" weird_meas);
            Persist.Journal.append w (entry 2 "8888" weird_meas);
            Persist.Journal.close w;
            let path = Persist.Journal.file ~dir in
            let ic = open_in_bin path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            (* corrupt the FIRST record line: not a torn tail, must raise *)
            let i = String.index s '\n' + 1 in
            let s' = String.mapi (fun j c -> if j = i then '!' else c) s in
            let oc = open_out_bin path in
            output_string oc s';
            close_out oc;
            match Persist.Journal.load ~dir with
            | _ -> Alcotest.fail "loaded a corrupt journal"
            | exception Persist.Journal.Corrupt _ -> ()));
    t "snapshot round-trips atomically" (fun () ->
        with_dir (fun dir ->
            Alcotest.(check bool) "absent -> None" true (Persist.Snapshot.read ~dir = None);
            let s =
              {
                Persist.Snapshot.s_records = 17;
                s_hours = 0.125;
                s_best_speedup = 1.4375;
                s_lost_seconds = 42.5;
                s_preemptions = 2;
                s_finished = false;
              }
            in
            Persist.Snapshot.write ~dir s;
            Alcotest.(check bool) "round-trip" true
              (compare (Persist.Snapshot.read ~dir) (Some s) = 0);
            Alcotest.(check bool) "no temp left behind" false
              (Sys.file_exists (Persist.Snapshot.file ~dir ^ ".tmp"))));
    t "atomic writes are exact, leave no .tmp and replace a stale one" (fun () ->
        with_dir (fun root ->
            let dir = Filename.concat (Filename.concat root "a") "b" in
            Persist.Durable.mkdir_p dir;
            Persist.Durable.mkdir_p dir;
            Alcotest.(check bool) "nested directories created" true (Sys.is_directory dir);
            let path = Filename.concat dir "state.json" in
            let tmp = path ^ ".tmp" in
            Persist.Durable.atomic_write ~path "first\n";
            Alcotest.(check string) "content exact" "first\n" (Harness.slurp path);
            Alcotest.(check bool) "no .tmp left" false (Sys.file_exists tmp);
            (* a writer that crashed before its rename left a longer .tmp *)
            let oc = open_out_bin tmp in
            output_string oc (String.make 4096 'x');
            close_out oc;
            Persist.Durable.atomic_write ~path "{\"second\": true}";
            Alcotest.(check string) "stale .tmp replaced, content exact" "{\"second\": true}"
              (Harness.slurp path);
            Alcotest.(check bool) "no .tmp left after the stale one" false (Sys.file_exists tmp)));
    t "assignment signatures round-trip through of_signature" (fun () ->
        let p = Core.Tuner.prepare small_funarc in
        let atoms = p.Core.Tuner.atoms in
        let half = List.filteri (fun i _ -> i mod 2 = 0) atoms in
        let asg = Transform.Assignment.of_lowered atoms ~lowered:half in
        let s = Transform.Assignment.signature asg in
        let back = Transform.Assignment.of_signature atoms s in
        Alcotest.(check string) "signature preserved" s (Transform.Assignment.signature back);
        Alcotest.(check bool) "assignments equal" true (compare back asg = 0);
        Alcotest.check_raises "wrong length rejected"
          (Invalid_argument "Assignment.of_signature: 2-char signature over 8 atoms")
          (fun () -> ignore (Transform.Assignment.of_signature atoms "48")));
  ]

(* ------------------------------------------------------------------ *)
(* Campaign-level resume determinism                                   *)

let check_same_campaign = Harness.check_same_campaign
let check_no_reeval = Harness.check_no_reeval
let truncate_journal = Harness.truncate_journal

let resume_tests =
  let kill_resume_dd workers frac () =
    with_dir2 (fun dir_base dir_kill ->
        (* funarc's dd journals ~16 records, so cutting at any interior
           fraction leaves both a replayed prefix and fresh work *)
        let config = Core.Config.default in
        let base =
          Core.Tuner.run_delta_debug ~config ~workers ~journal:dir_base small_funarc
        in
        (* the journaled uninterrupted run doubles as the kill victim:
           copy-by-rerun into dir_kill, then tear its journal *)
        let _ : Core.Tuner.campaign =
          Core.Tuner.run_delta_debug ~config ~workers ~journal:dir_kill small_funarc
        in
        truncate_journal dir_kill frac;
        let resumed =
          Core.Tuner.resume ~config ~workers ~model:small_funarc ~journal:dir_kill ()
        in
        let name = Printf.sprintf "dd workers=%d frac=%.2f" workers frac in
        Alcotest.(check bool) (name ^ ": something was replayed") true
          (resumed.Core.Tuner.preloaded > 0);
        Alcotest.(check bool) (name ^ ": something was fresh") true
          (resumed.Core.Tuner.trace_stats.Search.Trace.misses > 0);
        check_same_campaign name base resumed;
        check_no_reeval name resumed)
  in
  [
    t "kill at a journaled prefix + resume = uninterrupted (sequential)"
      (kill_resume_dd 0 0.43);
    t "kill at a journaled prefix + resume = uninterrupted (4 workers)"
      (kill_resume_dd 4 0.61);
    t "resume of a finished journal re-evaluates nothing" (fun () ->
        with_dir (fun dir ->
            let base =
              Core.Tuner.run_brute_force ~config:funarc_config ~journal:dir small_funarc
            in
            let resumed =
              Core.Tuner.resume ~config:funarc_config ~model:small_funarc ~journal:dir ()
            in
            Alcotest.(check int) "everything preloaded"
              (List.length base.Core.Tuner.records)
              resumed.Core.Tuner.preloaded;
            Alcotest.(check int) "zero fresh evaluations" 0
              resumed.Core.Tuner.trace_stats.Search.Trace.misses;
            check_same_campaign "finished resume" base resumed));
    t "record lines are byte-identical for workers 0 and 4" (fun () ->
        with_dir2 (fun d0 d4 ->
            let config = Core.Config.default in
            let _ : Core.Tuner.campaign =
              Core.Tuner.run_delta_debug ~config ~workers:0 ~journal:d0 small_funarc
            in
            let _ : Core.Tuner.campaign =
              Core.Tuner.run_delta_debug ~config ~workers:4 ~journal:d4 small_funarc
            in
            let lines d =
              let ic = open_in_bin (Persist.Journal.file ~dir:d) in
              let s = really_input_string ic (in_channel_length ic) in
              close_in ic;
              match String.split_on_char '\n' s with
              | _header :: records -> records
              | [] -> []
            in
            Alcotest.(check (list string)) "record lines" (lines d0) (lines d4)));
    t "resume refuses a mismatched configuration" (fun () ->
        with_dir (fun dir ->
            let _ : Core.Tuner.campaign =
              Core.Tuner.run_brute_force ~config:funarc_config ~journal:dir small_funarc
            in
            let other = { funarc_config with Core.Config.static_filter = true } in
            match Core.Tuner.resume ~config:other ~model:small_funarc ~journal:dir () with
            | _ -> Alcotest.fail "resumed under a different configuration"
            | exception Core.Tuner.Resume_mismatch _ -> ()));
    t "run_prepared refuses a journal of another space and commits nothing" (fun () ->
        with_dir (fun dir ->
            let p = Core.Tuner.prepare ~config:funarc_config small_funarc in
            let brute q =
              Core.Tuner.run_prepared ~algo:Core.Tuner.Brute_force_algo ~journal:dir q
            in
            let base = brute p in
            truncate_journal dir 0.5;
            let journal = Harness.slurp (Persist.Journal.file ~dir) in
            let snapshot = Harness.slurp (Persist.Snapshot.file ~dir) in
            let refuses name run =
              (match run () with
              | _ -> Alcotest.failf "%s: continued the journal" name
              | exception Core.Tuner.Resume_mismatch _ -> ());
              Alcotest.(check string) (name ^ ": journal untouched, torn tail included") journal
                (Harness.slurp (Persist.Journal.file ~dir));
              Alcotest.(check string) (name ^ ": snapshot untouched") snapshot
                (Harness.slurp (Persist.Snapshot.file ~dir))
            in
            let prepare_with ?(config = funarc_config) model () =
              brute (Core.Tuner.prepare ~config model)
            in
            refuses "another model"
              (prepare_with { small_funarc with Models.Registry.name = "funarc_copy" });
            refuses "another config digest"
              (prepare_with ~config:{ funarc_config with Core.Config.static_filter = true }
                 small_funarc);
            let first = List.hd p.Core.Tuner.atoms in
            refuses "another atom count"
              (prepare_with
                 {
                   small_funarc with
                   Models.Registry.exclude_atoms =
                     first.Transform.Assignment.a_name
                     :: small_funarc.Models.Registry.exclude_atoms;
                 });
            refuses "another algorithm" (fun () ->
                Core.Tuner.run_prepared ~algo:Core.Tuner.Delta_debug_algo ~journal:dir p);
            (* the prepared it was started over continues it *)
            let resumed = brute p in
            check_same_campaign "matching prepared" base resumed;
            check_no_reeval "matching prepared" resumed));
    t "one prepared serves many campaigns, each on fresh caches" (fun () ->
        with_dir2 (fun solo_dir dir ->
            let solo =
              Core.Tuner.run_brute_force ~config:funarc_config ~journal:solo_dir small_funarc
            in
            let p = Core.Tuner.prepare ~config:funarc_config small_funarc in
            for i = 1 to 2 do
              let d = Filename.concat dir (string_of_int i) in
              let c = Core.Tuner.run_prepared ~algo:Core.Tuner.Brute_force_algo ~journal:d p in
              Alcotest.(check string) "journal byte-identical to solo"
                (Harness.slurp (Persist.Journal.file ~dir:solo_dir))
                (Harness.slurp (Persist.Journal.file ~dir:d));
              Alcotest.(check string) "summary identical to solo"
                (Core.Export.summary_json solo) (Core.Export.summary_json c);
              Alcotest.(check bool) "caches are the campaign's own" true
                (c.Core.Tuner.prepared.Core.Tuner.cache != p.Core.Tuner.cache
                && c.Core.Tuner.prepared.Core.Tuner.ccache != p.Core.Tuner.ccache)
            done));
    t "resume adopts the journal's seed" (fun () ->
        with_dir (fun dir ->
            let seeded = { funarc_config with Core.Config.seed = 7 } in
            let base = Core.Tuner.run_brute_force ~config:seeded ~journal:dir small_funarc in
            truncate_journal dir 0.5;
            (* offered config has the default seed; the journal's seed 7 wins *)
            let resumed =
              Core.Tuner.resume ~config:funarc_config ~model:small_funarc ~journal:dir ()
            in
            Alcotest.(check int) "seed adopted" 7
              resumed.Core.Tuner.prepared.Core.Tuner.config.Core.Config.seed;
            check_same_campaign "seed adoption" base resumed;
            check_no_reeval "seed adoption" resumed))
  ]

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

(* probabilities high enough that, over ~48 variants, some losses are
   certain at this seed (a lost variant needs max_retries + 1 = 2
   consecutive failed rolls) *)
let fault_spec =
  {
    Core.Cluster.Faults.fault_seed = 7;
    transient_prob = 0.40;
    node_failure_prob = 0.25;
    max_retries = 1;
    preempt_at_hours = None;
  }

let fault_tests =
  [
    t "fault-injected campaigns are deterministic at a fixed seed" (fun () ->
        with_dir2 (fun da db ->
            let run dir =
              Core.Tuner.run_brute_force ~config:funarc_config ~journal:dir ~faults:fault_spec
                small_funarc
            in
            let a = run da and b = run db in
            check_same_campaign "fault replay" a b;
            Alcotest.(check bool) "identical loss accounting" true
              (compare a.Core.Tuner.fault_stats b.Core.Tuner.fault_stats = 0);
            let losses =
              List.filter
                (fun (r : Search.Variant.record) ->
                  String.length r.Search.Variant.meas.Search.Variant.detail >= 6
                  && String.sub r.Search.Variant.meas.Search.Variant.detail 0 6 = "fault:")
                a.Core.Tuner.records
            in
            Alcotest.(check bool) "some variants were lost to faults" true (losses <> []);
            match a.Core.Tuner.fault_stats with
            | None -> Alcotest.fail "no fault stats"
            | Some fs ->
              Alcotest.(check int) "losses match stats"
                (fs.Core.Cluster.Faults.transient_losses + fs.Core.Cluster.Faults.node_losses)
                (List.length losses);
              Alcotest.(check bool) "lost node-seconds accounted" true
                (fs.Core.Cluster.Faults.lost_node_seconds > 0.0)));
    t "a preemption chain resumed cleanly equals the uninterrupted run" (fun () ->
        with_dir (fun dir ->
            let base = Core.Tuner.run_brute_force ~config:funarc_config small_funarc in
            let preempt h =
              { Core.Cluster.Faults.none with Core.Cluster.Faults.preempt_at_hours = Some h }
            in
            let killed =
              Core.Tuner.run_brute_force ~config:funarc_config ~journal:dir
                ~faults:(preempt 0.01) small_funarc
            in
            Alcotest.(check bool) "first boundary fired" true killed.Core.Tuner.interrupted;
            Alcotest.(check bool) "progress was journaled" true
              (killed.Core.Tuner.records <> []);
            (match killed.Core.Tuner.fault_stats with
            | Some fs -> Alcotest.(check int) "one preemption" 1 fs.Core.Cluster.Faults.preemptions
            | None -> Alcotest.fail "no fault stats");
            (* second job: same journal, later boundary — more progress *)
            let killed2 =
              Core.Tuner.resume ~config:funarc_config ~faults:(preempt 0.04)
                ~model:small_funarc ~journal:dir ()
            in
            Alcotest.(check bool) "second boundary fired" true killed2.Core.Tuner.interrupted;
            Alcotest.(check bool) "the chain advanced" true
              (List.length killed2.Core.Tuner.records > List.length killed.Core.Tuner.records);
            check_no_reeval "second job" killed2;
            (* final job: no boundary — runs to completion *)
            let finished =
              Core.Tuner.resume ~config:funarc_config ~model:small_funarc ~journal:dir ()
            in
            Alcotest.(check bool) "finished" false finished.Core.Tuner.interrupted;
            check_same_campaign "preemption chain" base finished;
            check_no_reeval "final job" finished));
    t "campaign edge cases: empty hours, degenerate baseline, exact boundary" (fun () ->
        let c = Core.Cluster.for_model Models.Registry.mpas in
        Alcotest.(check (Alcotest.float 1e-12)) "no variants, no hours" 0.0
          (Core.Cluster.campaign_hours c ~baseline_cost:1.0 ~variant_costs:[]);
        Alcotest.(check (Alcotest.float 1e-9)) "zero baseline: overhead only"
          c.Core.Cluster.per_variant_overhead_s
          (Core.Cluster.variant_seconds c ~baseline_cost:0.0 ~variant_cost:123.0);
        Alcotest.(check (Alcotest.float 1e-9)) "negative baseline: overhead only"
          c.Core.Cluster.per_variant_overhead_s
          (Core.Cluster.variant_seconds c ~baseline_cost:(-5.0) ~variant_cost:123.0);
        Alcotest.(check bool) "exactly 12h is within budget" false
          (Core.Cluster.over_budget c 12.0);
        Alcotest.(check bool) "just over 12h is over" true
          (Core.Cluster.over_budget c (12.0 +. 1e-9)));
  ]

let () =
  Alcotest.run "persist"
    [
      ("json", json_tests);
      ("journal", journal_tests);
      ("resume", resume_tests);
      ("faults", fault_tests);
    ]
