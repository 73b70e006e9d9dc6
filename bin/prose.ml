(* prose — automated, performance-guided floating-point precision tuning
   for the bundled weather/climate model proxies.

   Subcommands:
     prose models               list the registered tuning targets
     prose source MODEL         print a model's Fortran source
     prose tune MODEL [...]     run a tuning campaign and report
     prose reduce MODEL         taint-based program reduction (Sec. III-C)
     prose report               regenerate every table/figure/checklist
     prose serve                multiplex queued campaigns over one scheduler
     prose submit MODEL [...]   queue a campaign with the service
     prose watch JOB            stream a job's status events
     prose jobs ls|show|cancel  inspect the service queue                  *)

open Cmdliner

let pf = Printf.printf

(* ------------------------------------------------------------------ *)

let model_conv =
  let parse s =
    match Models.Registry.find (String.lowercase_ascii s) with
    | m -> Ok m
    | exception Not_found ->
      Error (`Msg (Printf.sprintf "unknown model %S (try: funarc, mpas, adcirc, mom6)" s))
  in
  Arg.conv (parse, fun ppf (m : Models.Registry.t) -> Format.pp_print_string ppf m.name)

let model_arg =
  Arg.(required & pos 0 (some model_conv) None & info [] ~docv:"MODEL" ~doc:"Tuning target.")

(* ------------------------------------------------------------------ *)

let models_cmd =
  let doc = "List the registered tuning targets" in
  let run () =
    List.iter
      (fun (m : Models.Registry.t) ->
        pf "%-8s %-10s target %s: %s\n" m.name m.title m.target_module m.description)
      ((Models.Registry.funarc :: Models.Registry.all) @ [ Models.Registry.mpas_joint ])
  in
  Cmd.v (Cmd.info "models" ~doc) Term.(const run $ const ())

let source_cmd =
  let doc = "Print a model's Fortran source" in
  let run (m : Models.Registry.t) = print_string m.source in
  Cmd.v (Cmd.info "source" ~doc) Term.(const run $ model_arg)

(* ------------------------------------------------------------------ *)

let seed_doc = "Base seed for the injected run-to-run noise."
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:seed_doc)

let max_variants_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-variants" ] ~doc:"Override the model's dynamic-evaluation budget.")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Helper domains for parallel variant evaluation, beside the submitting domain, \
           which evaluates too (default: cores - 1; 0 = sequential). Without \
           $(b,--shards), N >= 1 runs every speculative batch on a one-shard scheduler \
           of N + 1 slots, with helpers capped by the spare cores. Results are identical \
           for every N; only wall clock changes.")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Run the campaign on the work-stealing shard scheduler: each speculative \
           wave (one candidate per slot, from the one the search asks for) is \
           block-partitioned over $(i,S) simulated node-shards of $(b,--workers) slots \
           each, and shards that drain early steal from their neighbours. Records, the \
           minimal set and the summary are bit-identical at every shards x workers \
           point; the deterministic simulated makespan is reported separately.")

let whole_model_arg =
  Arg.(
    value & flag
    & info [ "whole-model" ]
        ~doc:"Guide the search by whole-model time instead of hotspot CPU time (Sec. IV-C).")

let static_filter_arg =
  Arg.(
    value & flag
    & info [ "static-filter" ]
        ~doc:"Enable the Sec.-V static pre-filter (vectorization report + casting penalty).")

let brute_arg =
  Arg.(value & flag & info [ "brute-force" ] ~doc:"Exhaustive 2^n search instead of delta debugging.")

let predict_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("off", Core.Config.Predict_off); ("rank", Core.Config.Predict_rank) ])
        Core.Config.Predict_off
    & info [ "predict" ] ~docv:"MODE"
        ~doc:
          "Steer the search with the static error-amplification analysis (lib/sensitivity). \
           $(b,rank) reorders delta-debugging candidates by predicted score (pass-probability \
           x payoff) so promising subsets are tried first; on every registered campaign it \
           reaches the 1-minimal variant $(b,off) finds. Every variant still runs against the \
           threshold: the static bound is a first-order upper bound, which cannot prove that a \
           variant fails. Falls back to the unpredicted search when the analysis cannot vouch \
           for the program.")

let verify_roundtrip_arg =
  Arg.(
    value & flag
    & info [ "verify-roundtrip" ]
        ~doc:
          "Check the finished campaign against the historical unparse->reparse pipeline: \
           every committed record must equal the tree-walking interpreter's measurement of \
           the reparsed variant, and a fresh compiled run of it must reproduce the \
           interpreter's whole outcome. Static-filter rejections and records lost to injected \
           faults are skipped. The campaign, its CSV and summary are those of the same command \
           without the flag; one closing line reports the check. On a mismatch, prints the \
           model, record index, signature and both outcomes and exits 1.")

let csv_arg =
  Arg.(
    value & opt (some string) None
    & info [ "csv" ] ~docv:"PATH" ~doc:"Write the per-variant data as CSV.")

let json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"PATH" ~doc:"Write the campaign summary as JSON.")

let hierarchical_arg =
  Arg.(
    value & flag
    & info [ "hierarchical" ]
        ~doc:"Cluster atoms by the FP flow graph and search groups first (Sec. V).")

let journal_arg =
  Arg.(
    value & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Make the campaign durable: append every measured variant to \
           $(i,DIR)/journal.jsonl (write-ahead, fsynced) with periodic snapshots, so a \
           killed campaign continues with $(b,--resume). Without $(b,--resume), a \
           $(i,DIR) that already holds a journal is refused (exit 2). A journal that \
           cannot be written (a full disk, a $(i,DIR) that cannot be made) stops the \
           campaign with exit 1 and $(b,prose tune: journal) $(i,DIR)$(b,:) and the \
           reason; when $(i,DIR) holds a journal by then, $(b,--resume) continues it.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Continue the journaled campaign in $(b,--journal) $(i,DIR): replay every \
           journaled record into the evaluation cache (zero re-evaluations) and finish \
           the search. The result is identical to an uninterrupted run. The journal names \
           the search and its seed: $(b,--brute-force), $(b,--hierarchical) or \
           $(b,--seed) naming another is refused (exit 1) before anything is written.")

let faults_term =
  let fault_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"N" ~doc:"Seed for the deterministic fault injection.")
  in
  let fault_transient_arg =
    Arg.(
      value & opt float 0.0
      & info [ "fault-transient" ] ~docv:"P"
          ~doc:"Per-attempt probability of a spurious transient variant failure.")
  in
  let fault_node_arg =
    Arg.(
      value & opt float 0.0
      & info [ "fault-node" ] ~docv:"P"
          ~doc:"Per-attempt probability that the node dies mid-variant.")
  in
  let fault_retries_arg =
    Arg.(
      value & opt int 2
      & info [ "fault-retries" ] ~docv:"N"
          ~doc:"Extra attempts before a faulted variant is declared lost.")
  in
  let preempt_arg =
    Arg.(
      value & opt (some float) None
      & info [ "preempt-hours" ] ~docv:"H"
          ~doc:
            "Preempt the campaign once its simulated cluster hours reach $(i,H) (the \
             paper's 12-hour job boundary). The journal stays consistent; continue with \
             $(b,--resume).")
  in
  let mk fault_seed transient_prob node_failure_prob max_retries preempt_at_hours =
    let spec =
      {
        Core.Cluster.Faults.fault_seed;
        transient_prob;
        node_failure_prob;
        max_retries;
        preempt_at_hours;
      }
    in
    if Core.Cluster.Faults.active spec then Some spec else None
  in
  Term.(
    const mk $ fault_seed_arg $ fault_transient_arg $ fault_node_arg $ fault_retries_arg
    $ preempt_arg)

let tune_cmd =
  let doc = "Run a precision-tuning campaign on a model" in
  (* absent is not 42: a resumed campaign takes its journal's seed *)
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"INT"
          ~doc:
            (seed_doc
           ^ " Default 42. With $(b,--resume) the journal's seed is used, and a different one \
              is refused."))
  in
  let run m seed max_variants whole static predict brute hierarchical csv json workers shards
      verify journal resume faults =
    let config =
      {
        Core.Config.default with
        Core.Config.seed = Option.value seed ~default:Core.Config.default.Core.Config.seed;
        max_variants;
        static_filter = static;
        predict;
        mode = (if whole then Core.Config.Whole_model_guided else Core.Config.Hotspot_guided);
      }
    in
    (* fault bookkeeping and preemption happen in the journal's commit
       sink; without a journal the flags would silently do nothing useful *)
    if faults <> None && journal = None then begin
      prerr_endline "prose tune: fault injection (--fault-*/--preempt-hours) requires --journal DIR";
      exit 2
    end;
    (* a journal write that fails is named, not an internal error; the
       records that reached the disk resume like a killed campaign's *)
    let journaled f =
      match journal with
      | None -> f ()
      | Some dir -> (
        let fail reason =
          prerr_endline (Printf.sprintf "prose tune: journal %s: %s" dir reason);
          if Sys.file_exists (Persist.Journal.file ~dir) then
            prerr_endline
              ("prose tune: " ^ dir ^ " holds the journal so far; continue it with --resume");
          exit 1
        in
        try f () with
        | Sys_error m -> fail m
        | Unix.Unix_error (e, fn, arg) -> fail (Persist.Durable.unix_error_message e fn arg))
    in
    let campaign =
      journaled @@ fun () ->
      if resume then begin
        match journal with
        | None ->
          prerr_endline "prose tune: --resume requires --journal DIR";
          exit 2
        | Some dir -> (
          (* a search flag or seed, when given, must be the journal's *)
          let algo =
            if brute then Some Core.Tuner.Brute_force_algo
            else if hierarchical then Some Core.Tuner.Hierarchical_algo
            else None
          in
          try
            Core.Tuner.resume ~config ?algo ?seed ?workers ?shards ?faults ~model:m ~journal:dir ()
          with
          | Core.Tuner.Resume_mismatch msg | Persist.Journal.Corrupt msg ->
            prerr_endline ("prose tune: " ^ msg);
            exit 1)
      end
      else begin
        (* a fresh campaign never continues a journal behind the user's
           back: that takes --resume *)
        Option.iter
          (fun dir ->
            if Sys.file_exists (Persist.Journal.file ~dir) then begin
              prerr_endline
                ("prose tune: " ^ dir ^ " already holds a journal; continue it with --resume");
              exit 2
            end)
          journal;
        let algo =
          if brute then Core.Tuner.Brute_force_algo
          else if hierarchical then Core.Tuner.Hierarchical_algo
          else Core.Tuner.Delta_debug_algo
        in
        Core.Tuner.run ?workers ?shards ?journal ?faults ~algo (Core.Tuner.prepare ~config m)
      end
    in
    (* checked before anything is printed or written: a campaign that
       fails the check reports the mismatch and nothing else *)
    let verified =
      if not verify then None
      else
        match Core.Tuner.verify campaign with
        | Ok checked -> Some checked
        | Error msg ->
          prerr_endline ("prose tune: " ^ msg);
          exit 1
    in
    print_string (Core.Report.campaign_header campaign);
    print_newline ();
    print_string (Core.Report.table2 [ campaign ]);
    print_newline ();
    print_string (Core.Report.figure5 campaign);
    print_newline ();
    print_string (Core.Report.figure6 campaign);
    let ts = campaign.Core.Tuner.trace_stats in
    pf "\ntrace: %d cache hits, %d fresh evaluations, %d live entries, %d journaled appends\n"
      ts.Search.Trace.hits ts.Search.Trace.misses ts.Search.Trace.live ts.Search.Trace.appends;
    let bs = Core.Tuner.backend_stats campaign in
    pf
      "backend: %d procedures compiled, %d compile-cache hits, %d batch-reuse hits, %d \
       batch-reuse misses\n"
      bs.Core.Tuner.compiled_procs bs.Core.Tuner.compile_hits bs.Core.Tuner.reuse_hits
      bs.Core.Tuner.reuse_misses;
    Option.iter
      (fun (ss : Core.Tuner.sched_stats) ->
        pf
          "sched: %d shards x %d workers (%d slots), simulated makespan %.3f h, %d steals, \
           %d rounds, %d batched + %d serial evaluations\n"
          ss.Core.Tuner.sched_shards ss.Core.Tuner.sched_workers ss.Core.Tuner.sched_slots
          ss.Core.Tuner.sched_sim_hours ss.Core.Tuner.sched_steals ss.Core.Tuner.sched_rounds
          ss.Core.Tuner.sched_batched ss.Core.Tuner.sched_serial)
      campaign.Core.Tuner.sched;
    (match config.Core.Config.predict with
    | Core.Config.Predict_off -> ()
    | Core.Config.Predict_rank ->
      pf "predict: rank, %s\n"
        (match campaign.Core.Tuner.prepared.Core.Tuner.scorer with
        | Some _ -> "scorer engaged"
        | None -> "analysis declined — unpredicted search"));
    if campaign.Core.Tuner.preloaded > 0 then
      pf "resume: %d records replayed from the journal\n" campaign.Core.Tuner.preloaded;
    Option.iter
      (fun (fs : Core.Cluster.Faults.stats) ->
        pf
          "faults: %d retried attempts, %d transient losses, %d node losses, %.0f \
           node-seconds lost, %d preemptions\n"
          fs.Core.Cluster.Faults.retried_attempts fs.Core.Cluster.Faults.transient_losses
          fs.Core.Cluster.Faults.node_losses fs.Core.Cluster.Faults.lost_node_seconds
          fs.Core.Cluster.Faults.preemptions)
      campaign.Core.Tuner.fault_stats;
    if campaign.Core.Tuner.interrupted then
      pf "campaign INTERRUPTED by preemption — continue with: prose tune %s --journal %s --resume\n"
        m.Models.Registry.name
        (Option.value ~default:"DIR" journal);
    Option.iter
      (fun path -> Core.Export.write_file ~path (Core.Export.variants_csv campaign))
      csv;
    Option.iter
      (fun path -> Core.Export.write_file ~path (Core.Export.summary_json campaign))
      json;
    (match campaign.Core.Tuner.minimal with
    | Some r when r.Search.Delta_debug.high_set <> [] ->
      pf "\n1-minimal variant (declaration diff against the original):\n%s"
        (Transform.Diff.declarations campaign.Core.Tuner.prepared.Core.Tuner.st
           r.Search.Delta_debug.minimal)
    | Some _ | None -> ());
    Option.iter
      (fun checked ->
        pf
          "verify-roundtrip: %d records match the unparse->reparse reference, %d skipped \
           (static-filter or lost to faults)\n"
          checked
          (List.length campaign.Core.Tuner.records - checked))
      verified
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(
      const run $ model_arg $ seed_arg $ max_variants_arg $ whole_model_arg $ static_filter_arg
      $ predict_arg $ brute_arg $ hierarchical_arg $ csv_arg $ json_arg $ workers_arg
      $ shards_arg $ verify_roundtrip_arg $ journal_arg $ resume_arg $ faults_term)

(* ------------------------------------------------------------------ *)
(* prose campaign ls|show|replay — inspect durable campaign journals.  *)

let dir_arg =
  Arg.(
    required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Campaign journal directory.")

let is_campaign_dir d = Sys.file_exists (Filename.concat d "journal.jsonl")

let load_or_die dir =
  match Persist.Journal.load ~dir with
  | loaded -> loaded
  | exception Persist.Journal.Corrupt msg ->
    prerr_endline ("prose campaign: " ^ msg);
    exit 1
  | exception Sys_error msg ->
    prerr_endline ("prose campaign: " ^ msg);
    exit 1

let status_counts entries =
  let pass = ref 0 and fail = ref 0 and timeout = ref 0 and error = ref 0 in
  List.iter
    (fun (e : Persist.Journal.entry) ->
      match e.Persist.Journal.e_meas.Search.Variant.status with
      | Search.Variant.Pass -> incr pass
      | Search.Variant.Fail -> incr fail
      | Search.Variant.Timeout -> incr timeout
      | Search.Variant.Error -> incr error)
    entries;
  (!pass, !fail, !timeout, !error)

let campaign_ls_cmd =
  let doc = "List campaign journals under a directory" in
  let run root =
    (* a listing must survive whatever else lives under the root: service
       job state, foreign files, broken symlinks, even a corrupt journal
       gets a note instead of killing the whole listing *)
    let dirs =
      if is_campaign_dir root then [ root ]
      else if (try Sys.is_directory root with Sys_error _ -> false) then
        Persist.Journal.find_campaigns ~root ()
      else begin
        prerr_endline ("prose campaign: no such directory " ^ root);
        exit 1
      end
    in
    let display dir =
      if dir = root then "."
      else
        let prefix = root ^ Filename.dir_sep in
        let n = String.length prefix in
        if String.length dir > n && String.sub dir 0 n = prefix then
          String.sub dir n (String.length dir - n)
        else dir
    in
    if dirs = [] then pf "no campaign journals under %s\n" root
    else
      List.iter
        (fun dir ->
          match Persist.Journal.load ~dir with
          | exception Persist.Journal.Corrupt msg ->
            pf "%-24s (unreadable: %s)\n" (display dir) msg
          | exception Sys_error msg -> pf "%-24s (unreadable: %s)\n" (display dir) msg
          | loaded ->
            let h = loaded.Persist.Journal.l_header in
            let n = List.length loaded.Persist.Journal.l_entries in
            let state =
              match Persist.Snapshot.read ~dir with
              | Some s when s.Persist.Snapshot.s_finished -> "finished"
              | Some _ | None -> "in progress"
            in
            pf "%-24s %-8s %-12s seed %-6d %4d records  %s%s\n" (display dir)
              h.Persist.Journal.model h.Persist.Journal.algo h.Persist.Journal.seed n state
              (if loaded.Persist.Journal.l_torn then "  (torn tail)" else ""))
        dirs
  in
  Cmd.v (Cmd.info "ls" ~doc) Term.(const run $ dir_arg)

let campaign_show_cmd =
  let doc = "Show one campaign journal: header, snapshot, outcome counts" in
  let run dir =
    let loaded = load_or_die dir in
    let h = loaded.Persist.Journal.l_header in
    pf "journal : %s\n" (Persist.Journal.file ~dir);
    pf "version : %d\n" h.Persist.Journal.version;
    pf "model   : %s\n" h.Persist.Journal.model;
    pf "algo    : %s\n" h.Persist.Journal.algo;
    pf "seed    : %d\n" h.Persist.Journal.seed;
    pf "config  : %s\n" h.Persist.Journal.config_digest;
    pf "workers : %d\n" h.Persist.Journal.workers;
    pf "atoms   : %d\n" h.Persist.Journal.atoms;
    if h.Persist.Journal.caps <> [] then
      pf "caps    : %s\n" (String.concat ", " h.Persist.Journal.caps);
    if loaded.Persist.Journal.l_shared <> [] then
      pf "shared  : %d record(s) attributed to the fleet memo\n"
        (List.length loaded.Persist.Journal.l_shared);
    let pass, fail, timeout, error = status_counts loaded.Persist.Journal.l_entries in
    pf "records : %d (%d pass, %d fail, %d timeout, %d error)%s\n"
      (List.length loaded.Persist.Journal.l_entries)
      pass fail timeout error
      (if loaded.Persist.Journal.l_torn then "  -- torn tail dropped" else "");
    (* prediction bookkeeping: absent entirely for journals written before
       the score fields existed *)
    let scored =
      List.filter_map (fun (e : Persist.Journal.entry) -> e.Persist.Journal.e_score)
        loaded.Persist.Journal.l_entries
    in
    if scored <> [] then
      pf "predict : %d scored record(s), mean score %.4f\n" (List.length scored)
        (List.fold_left ( +. ) 0.0 scored /. float_of_int (List.length scored));
    match Persist.Snapshot.read ~dir with
    | None -> pf "snapshot: none\n"
    | Some s ->
      pf "snapshot: %d records, %.3f simulated hours, best speedup %.4f, %s\n"
        s.Persist.Snapshot.s_records s.Persist.Snapshot.s_hours
        s.Persist.Snapshot.s_best_speedup
        (if s.Persist.Snapshot.s_finished then "finished" else "in progress");
      if s.Persist.Snapshot.s_preemptions > 0 || s.Persist.Snapshot.s_lost_seconds > 0.0 then
        pf "faults  : %.0f node-seconds lost, %d preemption(s)\n"
          s.Persist.Snapshot.s_lost_seconds s.Persist.Snapshot.s_preemptions
  in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ dir_arg)

let campaign_replay_cmd =
  let doc = "Reconstruct a campaign's records and summary from its journal" in
  let run dir csv =
    let loaded = load_or_die dir in
    let h = loaded.Persist.Journal.l_header in
    let m =
      match Models.Registry.find h.Persist.Journal.model with
      | m -> m
      | exception Not_found ->
        prerr_endline ("prose campaign: journal is for unknown model " ^ h.Persist.Journal.model);
        exit 1
    in
    let prog = Fortran.Parser.parse ~file:(m.Models.Registry.name ^ ".f90") m.source in
    let st = Fortran.Symtab.build prog in
    let atoms =
      Transform.Assignment.atoms_of_target st ~module_:m.target_module
        ~procs:(Some m.target_procs) ~exclude:m.exclude_atoms
    in
    if List.length atoms <> h.Persist.Journal.atoms then begin
      prerr_endline
        (Printf.sprintf "prose campaign: model %s has %d FP atoms but the journal recorded %d"
           m.Models.Registry.name (List.length atoms) h.Persist.Journal.atoms);
      exit 1
    end;
    let records =
      List.map (Persist.Journal.record_of_entry atoms) loaded.Persist.Journal.l_entries
    in
    (* journaled prediction fields ride along into the CSV; journals
       written before the columns existed yield empty cells *)
    let annots : (int, float option * float option) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (e : Persist.Journal.entry) ->
        Hashtbl.replace annots e.Persist.Journal.e_index
          (e.Persist.Journal.e_score, e.Persist.Journal.e_bound))
      loaded.Persist.Journal.l_entries;
    let annot (r : Search.Variant.record) =
      Option.value ~default:(None, None) (Hashtbl.find_opt annots r.Search.Variant.index)
    in
    let s = Search.Variant.summarize records in
    pf "%s %s campaign: %d records replayed%s\n" h.Persist.Journal.model h.Persist.Journal.algo
      s.Search.Variant.total
      (if loaded.Persist.Journal.l_torn then " (torn tail dropped)" else "");
    pf "pass %.1f%%  fail %.1f%%  timeout %.1f%%  error %.1f%%  best speedup %.4f\n"
      s.Search.Variant.pass_pct s.Search.Variant.fail_pct s.Search.Variant.timeout_pct
      s.Search.Variant.error_pct s.Search.Variant.best_speedup;
    Option.iter
      (fun path -> Core.Export.write_file ~path (Core.Export.variants_csv_records ~annot records))
      csv
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ dir_arg $ csv_arg)

let campaign_cmd =
  let doc = "Inspect durable campaign journals" in
  Cmd.group (Cmd.info "campaign" ~doc)
    [ campaign_ls_cmd; campaign_show_cmd; campaign_replay_cmd ]

(* ------------------------------------------------------------------ *)
(* prose serve / submit / watch / jobs — the multiplexing campaign
   service. The CLI talks to a running server over ROOT/prose.sock and
   falls back to the on-disk store (submit queues, watch/jobs read)
   when no server is listening. *)

let root_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "root" ] ~docv:"DIR"
        ~doc:"Service root directory (holds the socket, job state and campaign journals).")

let job_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB" ~doc:"Job id, e.g. j001.")

let open_store root =
  if try Sys.is_directory root with Sys_error _ -> false then Service.Store.open_ ~root
  else begin
    prerr_endline ("prose: no such directory " ^ root);
    exit 1
  end

let job_line (j : Service.Job.t) =
  let { Service.Job.id; spec; state; records; hours; best_speedup; shared } = j in
  let extra = match state with Service.Job.Failed msg -> "  (" ^ msg ^ ")" | _ -> "" in
  let extra = (if shared > 0 then Printf.sprintf "  %d memo-shared" shared else "") ^ extra in
  Printf.sprintf "%-6s %-8s %-12s %-8s %5d records %10.4f h  best %.3fx%s" id
    spec.Service.Job.sp_model spec.Service.Job.sp_algo (Service.Job.state_name state) records
    hours best_speedup extra

let serve_cmd =
  let doc = "Serve tuning campaigns from a job queue (SIGTERM drains)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the campaign service on $(b,--root): admitted jobs are multiplexed over one \
         shared evaluation scheduler in fair round-robin time slices, each slice a journaled \
         run/resume segment. Every job's journal, minimal set and summary are byte-identical \
         to the same campaign run solo with $(b,prose tune). SIGTERM/SIGINT drain: the \
         in-flight slice pauses at its next durable record and a restarted server resumes \
         every job bit-identically with zero re-evaluation.";
    ]
  in
  let slots_arg =
    Arg.(
      value & opt int 0
      & info [ "slots" ] ~docv:"N"
          ~doc:
            "Helper domains of the one-shard evaluation scheduler lent to every job slice \
             with a positive worker count, beside the server's own domain, which \
             evaluates too; capped by the spare cores (0 = strictly sequential). Job \
             results never depend on it.")
  in
  let slice_arg =
    Arg.(
      value & opt int 8
      & info [ "slice" ] ~docv:"K"
          ~doc:"Fresh durable records per scheduler time slice (>= 1).")
  in
  let run root slots slice =
    match Service.Server.run ~slice_records:slice ~log:(fun m -> pf "%s\n%!" m) ~root ~slots () with
    | Ok () -> ()
    | Error msg ->
      prerr_endline ("prose serve: " ^ msg);
      exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const run $ root_arg $ slots_arg $ slice_arg)

let submit_cmd =
  let doc = "Submit a tuning campaign to the service queue" in
  let submit_model_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"MODEL" ~doc:"Tuning target (validated at admission).")
  in
  let sworkers_arg =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker count recorded in the job's journal header, exactly as a solo $(b,prose \
             tune --workers N) run's would be. Results are identical for every N; the \
             server's $(b,--slots) bounds actual parallelism.")
  in
  let quota_arg =
    Arg.(
      value & opt (some float) None
      & info [ "quota" ] ~docv:"H"
          ~doc:
            "Per-job budget in simulated cluster hours (fault losses included). The job goes \
             terminal at the first durable record whose accumulated hours reach the quota — \
             the same stopping record a preemption at that boundary produces.")
  in
  let tenant_arg =
    Arg.(value & opt string "default" & info [ "tenant" ] ~doc:"Accounting label for the job.")
  in
  let priority_arg =
    Arg.(
      value & opt int 1
      & info [ "priority" ] ~docv:"W"
          ~doc:
            "Scheduling weight (>= 1): the job claims up to $(docv) consecutive time slices \
             per round-robin turn. Results never depend on it.")
  in
  let run root model seed max_variants whole brute hierarchical workers quota tenant priority
      faults =
    let spec =
      {
        Service.Job.sp_model = String.lowercase_ascii model;
        sp_algo =
          (if brute then "brute_force" else if hierarchical then "hierarchical" else "delta_debug");
        sp_seed = seed;
        sp_workers = workers;
        sp_max_variants = max_variants;
        sp_whole_model = whole;
        sp_quota_hours = quota;
        sp_faults = faults;
        sp_tenant = tenant;
        sp_priority = priority;
      }
    in
    match Service.Proto.roundtrip ~root (Service.Proto.Submit spec) with
    | Some (Ok resp) ->
      let id =
        match Option.bind (Persist.Json.member "job" resp) (fun j ->
            match Service.Job.of_json j with
            | Ok job -> Some job.Service.Job.id
            | Error _ -> None)
        with
        | Some id -> id
        | None -> "?"
      in
      pf "submitted %s\n" id
    | Some (Error msg) ->
      prerr_endline ("prose submit: " ^ msg);
      exit 1
    | None -> (
      (* no server listening: admit straight into the store; a later
         server picks the job up from its Queued state *)
      let store = open_store root in
      match Service.Store.submit store ~find_model:Models.Registry.find spec with
      | Ok j ->
        pf "queued %s (no server running; start one with: prose serve --root %s)\n"
          j.Service.Job.id root
      | Error msg ->
        prerr_endline ("prose submit: rejected: " ^ msg);
        exit 1)
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const run $ root_arg $ submit_model_arg $ seed_arg $ max_variants_arg $ whole_model_arg
      $ brute_arg $ hierarchical_arg $ sworkers_arg $ quota_arg $ tenant_arg $ priority_arg
      $ faults_term)

let watch_cmd =
  let doc = "Stream a job's status events until it completes" in
  let exit_for = function Service.Job.Done -> exit 0 | _ -> exit 1 in
  let fallback root id =
    let store = open_store root in
    match Service.Store.load store id with
    | None ->
      prerr_endline ("prose watch: no such job " ^ id);
      exit 1
    | Some j ->
      pf "%s\n" (job_line j);
      if Service.Job.terminal j.Service.Job.state then exit_for j.Service.Job.state
      else begin
        prerr_endline
          ("prose watch: no server running; start one with: prose serve --root " ^ root);
        exit 3
      end
  in
  let run root id =
    let session =
      Service.Proto.with_client ~root (fun (ic, oc) ->
          Service.Proto.send oc (Service.Proto.request_json (Service.Proto.Watch id));
          match Service.Proto.recv ic with
          | None -> `Lost
          | Some resp when not (Service.Proto.is_ok resp) ->
            `Refused (Service.Proto.error_of resp)
          | Some _ ->
            let rec loop () =
              match Service.Proto.recv ic with
              | None -> `Lost (* server drained mid-watch; re-read the store *)
              | Some line -> (
                match Service.Proto.event_of_json line with
                | None -> loop ()
                | Some ev ->
                  let { Service.Sched.ev_job; ev_state; ev_records; ev_hours; ev_best;
                        ev_shared; ev_detail } =
                    ev
                  in
                  pf "%-6s %-8s %5d records %10.4f h  best %.3fx%s%s\n%!" ev_job
                    (Service.Job.state_name ev_state)
                    ev_records ev_hours ev_best
                    (if ev_shared > 0 then Printf.sprintf "  %d memo-shared" ev_shared else "")
                    (if ev_detail = "" then "" else "  [" ^ ev_detail ^ "]");
                  if Service.Job.terminal ev_state then `Terminal ev_state else loop ())
            in
            loop ())
    in
    match session with
    | None | Some `Lost -> fallback root id
    | Some (`Refused msg) ->
      prerr_endline ("prose watch: " ^ msg);
      exit 1
    | Some (`Terminal st) -> exit_for st
  in
  Cmd.v (Cmd.info "watch" ~doc) Term.(const run $ root_arg $ job_arg)

let jobs_cmd =
  let doc = "List, inspect and cancel service jobs" in
  let ls_cmd =
    let run root =
      let store = open_store root in
      match Service.Store.list store with
      | [] -> pf "no jobs under %s\n" root
      | jobs -> List.iter (fun j -> pf "%s\n" (job_line j)) jobs
    in
    Cmd.v (Cmd.info "ls" ~doc:"List all jobs") Term.(const run $ root_arg)
  in
  let show_cmd =
    let run root id =
      let store = open_store root in
      match Service.Store.load store id with
      | None ->
        prerr_endline ("prose jobs: no such job " ^ id);
        exit 1
      | Some j ->
        let { Service.Job.sp_model; sp_algo; sp_seed; sp_workers; sp_max_variants;
              sp_whole_model; sp_quota_hours; sp_faults; sp_tenant; sp_priority } =
          j.Service.Job.spec
        in
        pf "%s\n" (job_line j);
        pf "  model %s  algo %s  seed %d  workers %d  tenant %s  priority %d\n" sp_model
          sp_algo sp_seed sp_workers sp_tenant sp_priority;
        if j.Service.Job.shared > 0 then
          pf "  fleet dedup: %d of %d records served by the shared memo (%.0f%%)\n"
            j.Service.Job.shared j.Service.Job.records
            (100.0 *. float_of_int j.Service.Job.shared
            /. float_of_int (max 1 j.Service.Job.records));
        pf "  budget: %s variants, %s cluster-hours quota\n"
          (match sp_max_variants with Some n -> string_of_int n | None -> "model default")
          (match sp_quota_hours with Some h -> Printf.sprintf "%.3f" h | None -> "unlimited");
        pf "  guidance: %s\n" (if sp_whole_model then "whole-model" else "hotspot");
        Option.iter
          (fun (f : Core.Cluster.Faults.spec) ->
            pf "  faults: seed %d, transient %.3f, node %.3f, %d retries\n"
              f.Core.Cluster.Faults.fault_seed f.Core.Cluster.Faults.transient_prob
              f.Core.Cluster.Faults.node_failure_prob f.Core.Cluster.Faults.max_retries)
          sp_faults;
        let dir = Service.Store.campaign_dir store id in
        if Sys.file_exists (Persist.Journal.file ~dir) then pf "  journal: %s\n" dir;
        let published p = if Sys.file_exists p then pf "  published: %s\n" p in
        published (Service.Store.summary_file store id);
        published (Service.Store.minimal_file store id)
    in
    Cmd.v (Cmd.info "show" ~doc:"Show one job's spec, progress and artifacts")
      Term.(const run $ root_arg $ job_arg)
  in
  let cancel_cmd =
    let run root id =
      match Service.Proto.roundtrip ~root (Service.Proto.Cancel id) with
      | Some (Ok _) -> pf "cancelled %s\n" id
      | Some (Error msg) ->
        prerr_endline ("prose jobs: " ^ msg);
        exit 1
      | None -> (
        match Service.Store.cancel (open_store root) id with
        | Ok _ -> pf "cancelled %s (no server running)\n" id
        | Error msg ->
          prerr_endline ("prose jobs: " ^ msg);
          exit 1)
    in
    Cmd.v (Cmd.info "cancel" ~doc:"Terminal-state a runnable job")
      Term.(const run $ root_arg $ job_arg)
  in
  Cmd.group (Cmd.info "jobs" ~doc) [ ls_cmd; show_cmd; cancel_cmd ]

(* ------------------------------------------------------------------ *)

let reduce_cmd =
  let doc = "Show the taint-based program reduction for a model's search space" in
  let run (m : Models.Registry.t) =
    let prog = Fortran.Parser.parse ~file:(m.name ^ ".f90") m.source in
    let st = Fortran.Symtab.build prog in
    let atoms =
      Transform.Assignment.atoms_of_target st ~module_:m.target_module
        ~procs:(Some m.target_procs) ~exclude:m.exclude_atoms
    in
    let targets =
      List.map (fun a -> (a.Transform.Assignment.a_scope, a.Transform.Assignment.a_name)) atoms
    in
    let reduced, stats = Analysis.Taint.reduce st ~targets in
    pf "! reduction: %s\n" (Format.asprintf "%a" Analysis.Taint.pp_stats stats);
    print_string (Fortran.Unparse.program reduced)
  in
  Cmd.v (Cmd.info "reduce" ~doc) Term.(const run $ model_arg)

let analyze_cmd =
  let doc = "Static analyses of a model: vectorization report, flow graph, static cost" in
  let run (m : Models.Registry.t) =
    let prog = Fortran.Parser.parse ~file:(m.name ^ ".f90") m.source in
    let st = Fortran.Symtab.build prog in
    pf "== vectorization report ==\n";
    List.iter
      (fun r -> Format.printf "  %a@." Analysis.Vectorize.pp_report r)
      (Analysis.Vectorize.analyze st);
    let g = Analysis.Flowgraph.build st in
    pf "\n== interprocedural FP flow graph ==\n";
    pf "  %d nodes, %d parameter-passing edges, %d kind violations\n"
      (List.length (Analysis.Flowgraph.nodes g))
      (List.length (Analysis.Flowgraph.edges g))
      (List.length (Analysis.Flowgraph.violations g));
    List.iter (fun e -> Format.printf "  %a@." Analysis.Flowgraph.pp_edge e)
      (Analysis.Flowgraph.edges g);
    let v = Analysis.Static_cost.evaluate st in
    pf "\n== static cost ==\n  vector loops %d, casting penalty %.0f\n"
      v.Analysis.Static_cost.vector_loops v.Analysis.Static_cost.penalty;
    let p = Core.Tuner.prepare m in
    pf "\n== flow-graph clusters (hierarchical search groups) ==\n";
    List.iter
      (fun group ->
        pf "  { %s }\n"
          (String.concat ", " (List.map Transform.Assignment.atom_id group)))
      (Core.Tuner.flow_groups p)
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ model_arg)

let fuzz_cmd =
  let doc = "Differentially test the pipeline on random well-typed programs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates random well-typed Fortran programs with random precision \
         assignments and checks pipeline invariants on each: unparse/parse \
         fixpoint ($(b,roundtrip)), typecheck stability ($(b,typecheck)), \
         assignment application and wrapper repair ($(b,rewrite)), bit-identical \
         outcomes between the tree-walking interpreter on the unparse/reparse \
         round trip and the compiled evaluator on the direct lowering \
         ($(b,compiled)), and soundness of the static error bounds \
         ($(b,sensitivity)). Counterexamples are minimized \
         with ddmin and written to the corpus directory as a replayable \
         $(i,.f90) + assignment pair; $(b,dune runtest) replays the corpus.";
    ]
  in
  let oracle_names =
    String.concat ", " (List.map Testgen.Oracle.name Testgen.Oracle.all)
  in
  let oracle_conv =
    let parse s =
      match Testgen.Oracle.of_name s with
      | Some id -> Ok id
      | None ->
        Error (`Msg (Printf.sprintf "unknown oracle %S (expected one of: %s)" s oracle_names))
    in
    Arg.conv (parse, fun ppf id -> Format.pp_print_string ppf (Testgen.Oracle.name id))
  in
  let cases_arg =
    Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let fuzz_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "Base seed. Case $(i,i) is generated deterministically from (seed, $(i,i)), so \
             any reported failure replays exactly from the seed printed with it.")
  in
  let oracle_filter_arg =
    Arg.(
      value & opt_all oracle_conv []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Run only the named oracle(s): %s. Repeatable; default: all."
               oracle_names))
  in
  let corpus_arg =
    Arg.(
      value & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Directory for minimized counterexamples.")
  in
  let run cases seed oracles corpus =
    let ids = match oracles with [] -> Testgen.Oracle.all | ids -> ids in
    let failures = ref 0 in
    for i = 0 to cases - 1 do
      let case = Testgen.Gen.case_at ~seed ~index:i in
      match Testgen.Oracle.check ~ids case with
      | [] -> ()
      | (first :: _) as vs ->
        incr failures;
        List.iter
          (fun (v : Testgen.Oracle.violation) ->
            pf "FAIL seed=%d case=%d oracle=%s: %s\n%!" seed i
              (Testgen.Oracle.name v.Testgen.Oracle.oracle)
              v.Testgen.Oracle.detail)
          vs;
        let minimized = Testgen.Minimize.minimize ~ids case in
        let oracle = Testgen.Oracle.name first.Testgen.Oracle.oracle in
        let entry =
          {
            Testgen.Corpus.name = Printf.sprintf "fz_%s_s%d_c%d" oracle seed i;
            case = minimized;
            oracle;
            origin = Printf.sprintf "seed=%d case=%d" seed i;
          }
        in
        let path = Testgen.Corpus.save ~dir:corpus entry in
        pf "  minimized: %d source line(s), %d lowered atom(s) -> %s\n%!"
          (List.length (String.split_on_char '\n' minimized.Testgen.Gen.source))
          (List.length minimized.Testgen.Gen.lowered)
          path
    done;
    pf "fuzz: %d/%d cases passed (seed=%d, oracles: %s)\n" (cases - !failures) cases seed
      (String.concat ", " (List.map Testgen.Oracle.name ids));
    if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~man)
    Term.(const run $ cases_arg $ fuzz_seed_arg $ oracle_filter_arg $ corpus_arg)

let report_cmd =
  let doc = "Run every campaign and print all tables, figures and validation checks" in
  let run seed workers =
    let config = { Core.Config.default with Core.Config.seed } in
    let suite = Core.Experiments.run_suite ~config ?workers () in
    let hotspots = [ suite.Core.Experiments.mpas; suite.Core.Experiments.adcirc; suite.Core.Experiments.mom6 ] in
    print_string (Core.Report.table1 hotspots);
    print_newline ();
    print_string (Core.Report.table2 hotspots);
    print_newline ();
    print_string (Core.Report.figure2 suite.Core.Experiments.funarc);
    print_string
      (Core.Report.figure3 suite.Core.Experiments.funarc
         ~error_budget:suite.Core.Experiments.funarc.Core.Tuner.prepared.Core.Tuner.threshold);
    List.iter (fun c -> print_string (Core.Report.figure5 c)) hotspots;
    List.iter (fun c -> print_string (Core.Report.figure6 c)) hotspots;
    print_string (Core.Report.figure7 suite.Core.Experiments.mpas_whole);
    pf "\nVALIDATION CHECKS\n";
    pf "funarc:\n%s" (Core.Checks.render (Core.Checks.funarc suite.Core.Experiments.funarc));
    pf "MPAS-A:\n%s" (Core.Checks.render (Core.Checks.mpas_hotspot suite.Core.Experiments.mpas));
    pf "ADCIRC:\n%s" (Core.Checks.render (Core.Checks.adcirc_hotspot suite.Core.Experiments.adcirc));
    pf "MOM6:\n%s" (Core.Checks.render (Core.Checks.mom6_hotspot suite.Core.Experiments.mom6));
    pf "MPAS-A (whole-model):\n%s"
      (Core.Checks.render (Core.Checks.mpas_whole_model suite.Core.Experiments.mpas_whole))
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ seed_arg $ workers_arg)

let () =
  let doc = "automated performance-guided floating-point precision tuning" in
  let info = Cmd.info "prose" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            models_cmd;
            source_cmd;
            tune_cmd;
            campaign_cmd;
            serve_cmd;
            submit_cmd;
            watch_cmd;
            jobs_cmd;
            analyze_cmd;
            reduce_cmd;
            fuzz_cmd;
            report_cmd;
          ]))
