(* One repetition of one benchmark workload, run in this process.

     perfbench run WORKLOAD SEED OUTDIR     untraced; end-to-end figures
     perfbench setup WORKLOAD SEED OUTDIR   the workload's set-up alone
     perfbench trace WORKLOAD SEED OUTDIR   traced; per-layer ledger
     perfbench serve ROOT STATSFILE         the service_fleet server child
     perfbench kernel                       seconds of the host-speed kernel

   Each mode prints one JSON object as its last stdout line; perfbench/run.py
   starts one process per repetition, checks the outputs and aggregates.
   Everything a repetition writes stays under OUTDIR. *)

open Ledger
module J = Persist.Json

let num f = J.Num f
let int n = J.Num (float_of_int n)
let ms s = 1e3 *. s

(* ------------------------------------------------------------------ *)
(* Workloads.                                                          *)

(* Evaluations a joint campaign may commit. The first 40 follow the same
   trajectory on every seed tried (24 seeds; 62 live evaluations at workers
   1). Past that, the work depends on the seed: ddmin needs 165 to 339
   evaluations to reach its 1-minimal variant, and at a budget of 160 the
   live evaluations at workers 1 range from 187 to 264. *)
let joint_budget = 40

type camp = {
  label : string;
  model : Models.Registry.t;
  config : Core.Config.t;
  workers : int;
}

let campaigns ~workload ~seed =
  let base = { Core.Config.default with Core.Config.seed } in
  let joint workers =
    [ { label = "mpas_joint"; model = Models.Registry.mpas_joint; workers;
        config =
          { base with Core.Config.mode = Core.Config.Whole_model_guided;
                      max_variants = Some joint_budget } } ]
  in
  match workload with
  | "joint_solo" -> joint 0
  | "joint_parallel" -> joint 1
  | "table2_rank" ->
    List.map
      (fun (m : Models.Registry.t) ->
        { label = m.Models.Registry.name; model = m; workers = 0;
          config = { base with Core.Config.predict = Core.Config.Predict_rank } })
      [ Models.Registry.mpas; Models.Registry.adcirc; Models.Registry.mom6 ]
  | w -> invalid_arg ("unknown workload " ^ w)

(* Three identical adcirc jobs from tenant A share one evaluation space;
   tenant B's mom6 and mpas jobs run at weight 2. *)
let fleet_specs ~seed =
  let spec model tenant priority =
    { Service.Job.sp_model = model; sp_algo = "delta_debug"; sp_seed = seed; sp_workers = 0;
      sp_max_variants = None; sp_whole_model = false; sp_quota_hours = None;
      sp_faults = None; sp_tenant = tenant; sp_priority = priority }
  in
  [ spec "adcirc" "A" 1; spec "adcirc" "A" 1; spec "adcirc" "A" 1; spec "mom6" "B" 2;
    spec "mpas" "B" 2 ]

let admit store ~seed =
  List.map
    (fun spec ->
      match Service.Store.submit store ~find_model:Models.Registry.find spec with
      | Ok j -> (j.Service.Job.id, spec)
      | Error m -> failwith ("admission refused: " ^ m))
    (fleet_specs ~seed)

(* ------------------------------------------------------------------ *)
(* Output checks: what each repetition observed.                       *)

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt
let md5 s = Digest.to_hex (Digest.string s)

let drop_lines_containing sub s =
  let n = String.length sub in
  let contains l =
    let rec at i = i + n <= String.length l && (String.sub l i n = sub || at (i + 1)) in
    at 0
  in
  String.concat "\n" (List.filter (fun l -> not (contains l)) (String.split_on_char '\n' s))

let summary_digest text = md5 (drop_lines_containing "\"trace\"" text)

(* Journal record lines, without the header (whose workers field is the
   only line that differs between worker counts). *)
let records_digest dir =
  match String.index_opt (read_file (Persist.Journal.file ~dir)) '\n' with
  | Some i ->
    let s = read_file (Persist.Journal.file ~dir) in
    md5 (String.sub s (i + 1) (String.length s - i - 1))
  | None -> md5 ""

let is_static (r : Search.Variant.record) =
  let d = r.Search.Variant.meas.Search.Variant.detail in
  String.length d >= 6 && String.sub d 0 6 = "static"

let minimal_signature (c : Core.Tuner.campaign) =
  match c.Core.Tuner.minimal with
  | Some r -> Transform.Assignment.signature r.Search.Delta_debug.minimal
  | None -> ""

(* Dynamic evaluations up to and including the first commit of the variant
   the search declares minimal. *)
let evals_to_minimal (c : Core.Tuner.campaign) =
  let target = minimal_signature c in
  let rec go n = function
    | [] -> n
    | (r : Search.Variant.record) :: rest ->
      let n = if is_static r then n else n + 1 in
      if Transform.Assignment.signature r.Search.Variant.asg = target then n else go n rest
  in
  go 0 c.Core.Tuner.records

(* ------------------------------------------------------------------ *)
(* Campaign workloads.                                                 *)

type ran = {
  c : camp;
  camp : Core.Tuner.campaign;
  jdir : string;
  setup : float;
  wall : float;
  live : int;  (* evaluations run, speculative ones included *)
  minor_words : float;
  major : int;
  cpu_main : float;  (* main-thread CPU seconds during the call *)
  cpu_helpers : float;  (* other threads' CPU seconds during the call *)
}

(* Through the public runner, with a [?checkpoint] that marks the end of
   set-up and a never-hitting [?memo] pair that counts live evaluations. *)
let run_campaign ~dir ~traced c =
  let jdir = Filename.concat dir c.label in
  let live = Atomic.make 0 in
  let memo =
    { Core.Tuner.memo_find = (fun ~signature:_ -> None);
      memo_publish = (fun ~signature:_ _ -> Atomic.incr live) }
  in
  let setup_end = ref nan and setup_span = ref None and cpu_last = ref (0.0, 0.0) in
  let checkpoint (_ : Core.Tuner.progress) =
    if Float.is_nan !setup_end then begin
      setup_end := now ();
      Option.iter leave !setup_span
    end;
    if traced then cpu_last := thread_cpu ()
  in
  let call () =
    if traced then setup_span := Some (enter "core.setup");
    Core.Tuner.run_delta_debug ~config:c.config ~workers:c.workers ~journal:jdir ~checkpoint
      ~memo c.model
  in
  let cpu0 = if traced then thread_cpu () else (0.0, 0.0) in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let camp = if traced then span ~owner:c.label "core.campaign" call else call () in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  {
    c; camp; jdir; setup = !setup_end -. t0; wall = t1 -. t0; live = Atomic.get live;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    cpu_main = fst !cpu_last -. fst cpu0;
    cpu_helpers = snd !cpu_last -. snd cpu0;
  }

(* Set-up alone: the runner call up to its first checkpoint, which pauses
   the campaign before any evaluation. *)
let campaign_setup ~dir c =
  let t = ref nan in
  let checkpoint (_ : Core.Tuner.progress) =
    t := now ();
    raise Core.Tuner.Paused
  in
  let t0 = now () in
  ignore
    (Core.Tuner.run_delta_debug ~config:c.config ~workers:c.workers
       ~journal:(Filename.concat dir c.label) ~checkpoint c.model);
  !t -. t0

let observed_campaign r =
  ( r.c.label,
    J.Obj
      [ ("minimal", J.Str (minimal_signature r.camp));
        ("summary_md5", J.Str (summary_digest (Core.Export.summary_json r.camp)));
        ("records_md5", J.Str (records_digest r.jdir)) ] )

let campaign_rep ~workload ~seed ~dir =
  let rs = List.map (run_campaign ~dir ~traced:false) (campaigns ~workload ~seed) in
  let sumf f = sum (List.map f rs) and sumi f = List.fold_left (fun a r -> a + f r) 0 rs in
  (* Allocation repeated to the word in every joint_solo repetition
     measured (over 130 processes). On table2_rank it differed by up to 812
     words of 1.6e9 between repetitions of one seed in 2 of 10 runs, and at
     workers 1 another domain allocates too, so it is guarded only here. *)
  let exact_words = workload = "joint_solo" in
  let minor_words = ("gc.minor_words", num (sumf (fun r -> r.minor_words))) in
  J.Obj
    [ ("metrics",
       J.Obj
         [ ("setup_s", num (sumf (fun r -> r.setup)));
           ("wall_s", num (sumf (fun r -> r.wall)));
           ("peak_rss_mb", num (peak_rss_mb ()));
           ("sim_hours", num (sumf (fun r -> r.camp.Core.Tuner.simulated_hours)));
           ("fresh_evals",
            int (sumi (fun r -> r.camp.Core.Tuner.trace_stats.Search.Trace.misses))) ]);
      ("counts",
       J.Obj
         ([ ("sim_hours", J.Str (J.hex_float (sumf (fun r -> r.camp.Core.Tuner.simulated_hours))));
            ("fresh_evals", int (sumi (fun r -> r.camp.Core.Tuner.trace_stats.Search.Trace.misses)));
            ("evals_to_minimal", int (sumi (fun r -> evals_to_minimal r.camp)));
            ("speculate.live_evals", int (sumi (fun r -> r.live))) ]
         @ if exact_words then [ minor_words ] else []));
      ("info",
       J.Obj
         ((("gc.major_collections", int (sumi (fun r -> r.major)))
          :: if exact_words then [] else [ minor_words ])));
      ("observed", J.Obj (List.map observed_campaign rs));
      ("attempted", int (List.length rs)) ]

(* ------------------------------------------------------------------ *)
(* The evaluation pipeline, replayed from outside the tuner.           *)

(* One committed assignment through every front-end phase and the
   compiled backend, with the campaign-lived caches; returns the modeled
   cost the record must carry bit for bit. *)
let replay_eval (p : Core.Tuner.prepared) ~lcache ~ccache asg =
  let machine = p.Core.Tuner.config.Core.Config.machine in
  match
    let prog = span "transform.rewrite" (fun () -> Transform.Rewrite.apply p.Core.Tuner.st asg) in
    let w = span "transform.wrappers" (fun () -> Transform.Wrappers.insert prog) in
    let st = span "fortran.symtab" (fun () -> Fortran.Symtab.build w.Transform.Wrappers.program) in
    span "fortran.typecheck" (fun () -> Fortran.Typecheck.check_program st);
    (st, w)
  with
  | exception (Fortran.Typecheck.Error _ | Fortran.Symtab.Error _) -> 0.0
  | st, w ->
    let ir =
      span "runtime.lower" (fun () ->
          Runtime.Lower.lower ~cache:lcache ~machine
            ~wrapper_owner:(Transform.Wrappers.owner_fn w) st)
    in
    let code = span "runtime.compile" (fun () -> Runtime.Compile.compile ~cache:ccache ir) in
    let out = span "runtime.run" (fun () -> Runtime.Compile.run ~budget:p.Core.Tuner.budget code) in
    out.Runtime.Interp.cost

type replay_stats = {
  mutable words : float list;
  mutable compile_hits : int;
  mutable compile_misses : int;
}

let replay_stats = { words = []; compile_hits = 0; compile_misses = 0 }

(* Replays [records] with caches that live for the whole list. *)
let replay_records ~owner p (records : Search.Variant.record list) =
  let lcache = Runtime.Lower.Cache.create () and ccache = Runtime.Compile.Cache.create () in
  List.iter
    (fun (r : Search.Variant.record) ->
      if not (is_static r) then begin
        let w0 = Gc.minor_words () in
        let cost =
          span ~owner "core.evaluate" (fun () -> replay_eval p ~lcache ~ccache r.Search.Variant.asg)
        in
        replay_stats.words <- (Gc.minor_words () -. w0) :: replay_stats.words;
        let want = r.Search.Variant.meas.Search.Variant.model_time in
        if Int64.bits_of_float cost <> Int64.bits_of_float want then
          fail "%s record %d: replayed model time %h, journaled %h" owner r.Search.Variant.index
            cost want
      end)
    records;
  let hits, misses = Runtime.Compile.Cache.stats ccache in
  replay_stats.compile_hits <- replay_stats.compile_hits + hits;
  replay_stats.compile_misses <- replay_stats.compile_misses + misses

(* [Tuner.prepare] itself, then its phases called one by one: front end,
   the IR-walking baseline run, and the sensitivity scorer. *)
let prepare_mirror ~owner model config =
  let p = span ~owner "core.prepare" (fun () -> Core.Tuner.prepare ~config model) in
  let st =
    span ~owner "fortran.prepare_frontend" (fun () ->
        let prog = Fortran.Parser.parse ~file:"mirror.f90" model.Models.Registry.source in
        let st = Fortran.Symtab.build prog in
        Fortran.Typecheck.check_program st;
        st)
  in
  span ~owner "runtime.prepare_baseline" (fun () ->
      ignore
        (Runtime.Lower.run
           (Runtime.Lower.lower ~machine:config.Core.Config.machine st)));
  if config.Core.Config.predict <> Core.Config.Predict_off then
    span ~owner "sensitivity.prepare_scorer" (fun () ->
        ignore
          (Sensitivity.Score.create ~st ~atoms:p.Core.Tuner.atoms
             ~metric_key:model.Models.Registry.metric_key
             ~baseline_metric:p.Core.Tuner.baseline_metric ~threshold:p.Core.Tuner.threshold
             ~margin:config.Core.Config.predict_margin));
  p

let snapshot_of i =
  { Persist.Snapshot.s_records = i; s_hours = 0.0; s_best_speedup = 0.0; s_lost_seconds = 0.0;
    s_preemptions = 0; s_finished = false }

(* Re-journals a campaign's committed entries into a fresh journal (with
   the scorer's per-record work where the campaign predicted), checks the
   copy is byte-identical, then reopens it [reopens] times. *)
let replay_journal ~owner ~reopens (p : Core.Tuner.prepared) ~src ~dst =
  let loaded = Persist.Journal.load ~dir:src in
  let shared = Hashtbl.create 16 in
  List.iter
    (fun (sh : Persist.Journal.shared) -> Hashtbl.replace shared sh.Persist.Journal.sh_index sh)
    loaded.Persist.Journal.l_shared;
  let ranker =
    Option.map
      (fun sc ->
        let safe =
          List.filter
            (fun a ->
              match Sensitivity.Score.atom_bound sc a with
              | Some b -> Float.is_finite b && b <= p.Core.Tuner.threshold
              | None -> false)
            p.Core.Tuner.atoms
        in
        Sensitivity.Rank.create ~st:p.Core.Tuner.st ~atoms:p.Core.Tuner.atoms ~safe
          ~perf_floor:p.Core.Tuner.perf_floor)
      p.Core.Tuner.scorer
  in
  let w = Persist.Journal.create ~dir:dst loaded.Persist.Journal.l_header in
  List.iter
    (fun (e : Persist.Journal.entry) ->
      let asg = Transform.Assignment.of_signature p.Core.Tuner.atoms e.Persist.Journal.e_signature in
      (match p.Core.Tuner.scorer with
      | Some sc ->
        let score, bound =
          span ~owner "sensitivity.record" (fun () ->
              (Sensitivity.Score.score sc asg, Sensitivity.Score.static_bound sc asg))
        in
        if Some score <> e.Persist.Journal.e_score || Some bound <> e.Persist.Journal.e_bound then
          fail "%s record %d: rescored entry differs from the journal" owner e.Persist.Journal.e_index
      | None -> ());
      Option.iter
        (fun rk ->
          let m = e.Persist.Journal.e_meas in
          let err_ok =
            (m.Search.Variant.status = Search.Variant.Pass
             && m.Search.Variant.rel_error <= p.Core.Tuner.threshold)
            || m.Search.Variant.status = Search.Variant.Timeout
          in
          let perf_ok =
            m.Search.Variant.status <> Search.Variant.Timeout
            && m.Search.Variant.speedup >= p.Core.Tuner.perf_floor
          in
          span ~owner "sensitivity.rank_observe" (fun () ->
              Sensitivity.Rank.observe rk asg
                { Sensitivity.Rank.err_ok; perf_ok; speedup = m.Search.Variant.speedup }))
        ranker;
      span ~owner "persist.journal_append" (fun () -> Persist.Journal.append w e);
      Option.iter
        (fun sh -> span ~owner "persist.journal_append" (fun () -> Persist.Journal.append_shared w sh))
        (Hashtbl.find_opt shared e.Persist.Journal.e_index);
      if e.Persist.Journal.e_index mod 32 = 0 then
        span ~owner "persist.snapshot_write" (fun () ->
            Persist.Snapshot.write ~dir:dst (snapshot_of e.Persist.Journal.e_index)))
    loaded.Persist.Journal.l_entries;
  span ~owner "persist.snapshot_write" (fun () ->
      Persist.Snapshot.write ~dir:dst (snapshot_of (List.length loaded.Persist.Journal.l_entries)));
  Persist.Journal.close w;
  if read_file (Persist.Journal.file ~dir:src) <> read_file (Persist.Journal.file ~dir:dst) then
    fail "%s: re-journaled copy differs from the campaign journal" owner;
  for _ = 1 to reopens do
    span ~owner "persist.journal_reopen" (fun () ->
        let _, w = Persist.Journal.reopen ~dir:dst () in
        Persist.Journal.close w)
  done;
  List.length loaded.Persist.Journal.l_entries

let mean_ms name = ms (mean (durations name))
let p_ms p name = ms (percentile p (durations name))

(* Per-layer figures every traced workload reports; the workload fills in
   the rest. *)
let common_layer_metrics () =
  let hits = replay_stats.compile_hits and misses = replay_stats.compile_misses in
  let rows = ledger () in
  let self layer =
    match List.find_opt (fun r -> r.layer = layer) rows with Some r -> ms r.self | None -> 0.0
  in
  [ ("prepare.ms", num (mean_ms "core.prepare"));
    ("prepare.frontend_ms", num (mean_ms "fortran.prepare_frontend"));
    ("prepare.baseline_ms", num (mean_ms "runtime.prepare_baseline"));
    ("prepare.scorer_ms", num (mean_ms "sensitivity.prepare_scorer"));
    ("evaluate.count", int (List.length (durations "core.evaluate")));
    ("evaluate.ms_p50", num (p_ms 0.5 "core.evaluate"));
    ("evaluate.ms_p90", num (p_ms 0.9 "core.evaluate"));
    ("evaluate.minor_words_p50", num (percentile 0.5 replay_stats.words));
    ("transform.rewrite_ms", num (mean_ms "transform.rewrite"));
    ("transform.wrappers_ms", num (mean_ms "transform.wrappers"));
    ("fortran.symtab_ms", num (mean_ms "fortran.symtab"));
    ("fortran.typecheck_ms", num (mean_ms "fortran.typecheck"));
    ("runtime.lower_ms", num (mean_ms "runtime.lower"));
    ("runtime.compile_ms", num (mean_ms "runtime.compile"));
    ("runtime.run_ms", num (mean_ms "runtime.run"));
    ("runtime.compile_hit_ratio",
     num (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)));
    ("runtime.compiled_procs", int misses);
    ("journal.append_ms_p50", num (p_ms 0.5 "persist.journal_append"));
    ("snapshot.write_ms_p50", num (p_ms 0.5 "persist.snapshot_write"));
    ("journal.reopen_ms_p50", num (p_ms 0.5 "persist.journal_reopen"));
    ("sensitivity.record_ms_p50", num (p_ms 0.5 "sensitivity.record"));
    ("rank.observe_ms_p50", num (p_ms 0.5 "sensitivity.rank_observe"));
    ("store.update_ms_p50", num (p_ms 0.5 "service.store_update")) ]
  @ List.map
      (fun l -> ("self." ^ l ^ "_ms", num (self l)))
      [ "core"; "transform"; "fortran"; "runtime"; "persist"; "sensitivity"; "service" ]

let write_ledger ~out ~t0 ~t1 =
  write_spans ~path:(Filename.concat out "spans.jsonl") ~t0;
  write_table ~path:(Filename.concat out "ledger.txt") ~wall:(t1 -. t0) (ledger ())

let campaign_trace ~workload ~seed ~dir =
  let t0 = now () in
  let rs = List.map (run_campaign ~dir ~traced:true) (campaigns ~workload ~seed) in
  let appends = ref 0 in
  List.iter
    (fun r ->
      let owner = r.c.label in
      ignore (prepare_mirror ~owner r.c.model r.c.config);
      replay_records ~owner r.camp.Core.Tuner.prepared r.camp.Core.Tuner.records;
      appends :=
        !appends
        + replay_journal ~owner ~reopens:3 r.camp.Core.Tuner.prepared ~src:r.jdir
            ~dst:(r.jdir ^ ".replay"))
    rs;
  let t1 = now () in
  let sumi f = List.fold_left (fun a r -> a + f r) 0 rs and sumf f = sum (List.map f rs) in
  let ts f = sumi (fun r -> f r.camp.Core.Tuner.trace_stats) in
  let misses = ts (fun s -> s.Search.Trace.misses) and live = sumi (fun r -> r.live) in
  let runner_wall = sumf (fun r -> r.wall) in
  let parallel = List.exists (fun r -> r.c.workers > 0) rs in
  ( t0, t1,
    [ ("trace.hits", int (ts (fun s -> s.Search.Trace.hits)));
      ("trace.misses", int misses);
      ("trace.shared", int (ts (fun s -> s.Search.Trace.shared)));
      ("speculate.live_evals", int live);
      ("speculate.useful_ratio", num (float_of_int misses /. float_of_int (max 1 live)));
      ("pool.busy_ratio",
       num (if parallel then sumf (fun r -> r.cpu_helpers) /. runner_wall else 0.0));
      ("pool.submit_wait_ms", num (ms (runner_wall -. sumf (fun r -> r.cpu_main))));
      ("journal.appends", int !appends);
      ("sched.slices", int 0); ("sched.slice_ms_p50", num 0.0); ("sched.slice_ms_p90", num 0.0);
      ("sched.slice_setup_ms_p50", num 0.0); ("sched.setup_share", num 0.0);
      ("sched.job_turnaround_s", num 0.0); ("server.events", int 0);
      ("memo.finds", int 0); ("memo.hits", int 0);
      ("gc.minor_words", num (sumf (fun r -> r.minor_words)));
      ("gc.major_collections", int (sumi (fun r -> r.major)));
      ("search.evals_to_minimal", int (sumi (fun r -> evals_to_minimal r.camp)));
      ("ledger.workload_wall_s", num runner_wall) ],
    J.Obj (List.map observed_campaign rs) )

(* ------------------------------------------------------------------ *)
(* The service workload.                                               *)

(* The signature on minimal.txt's first line, "signature <sig>". *)
let job_minimal store id =
  let path = Service.Store.minimal_file store id in
  match String.split_on_char '\n' (if Sys.file_exists path then read_file path else "") with
  | first :: _ when String.length first > 10 -> String.sub first 10 (String.length first - 10)
  | _ -> ""

let job_observed store (id, (spec : Service.Job.spec)) =
  let dir = Service.Store.campaign_dir store id in
  let journal = drop_lines_containing "\"kind\":\"shared\"" (read_file (Persist.Journal.file ~dir)) in
  let summary = read_file (Service.Store.summary_file store id) in
  (id, spec.Service.Job.sp_model, journal, summary, job_minimal store id)

(* Checks every job finished and the three adcirc jobs agree byte for
   byte; returns the per-job observations. *)
let fleet_observed store jobs =
  List.iter
    (fun (id, _) ->
      match Service.Store.load store id with
      | Some j when j.Service.Job.state = Service.Job.Done -> ()
      | Some j -> fail "%s ended %s" id (Service.Job.state_name j.Service.Job.state)
      | None -> fail "%s has no state" id)
    jobs;
  let obs = List.map (job_observed store) jobs in
  (match List.filter (fun (_, m, _, _, _) -> m = "adcirc") obs with
  | (id0, _, j0, s0, m0) :: rest ->
    List.iter
      (fun (id, _, j, s, m) ->
        if j <> j0 then fail "%s journal differs from %s (shared lines stripped)" id id0;
        if drop_lines_containing "\"trace\"" s <> drop_lines_containing "\"trace\"" s0 then
          fail "%s summary differs from %s" id id0;
        if m <> m0 then fail "%s minimal variant differs from %s" id id0)
      rest
  | [] -> ());
  J.Obj
    (List.map
       (fun (id, model, journal, summary, minimal) ->
         ( id,
           J.Obj
             [ ("model", J.Str model); ("minimal", J.Str minimal);
               ("summary_md5", J.Str (summary_digest summary));
               ("journal_md5", J.Str (md5 journal)) ] ))
       obs)

type job_books = { hours : float; fresh : int; to_minimal : int }

let job_books store (id, _) =
  let dir = Service.Store.campaign_dir store id in
  let l = Persist.Journal.load ~dir in
  let hours = match Service.Store.load store id with Some j -> j.Service.Job.hours | None -> 0.0 in
  let minimal = job_minimal store id in
  let rec first_index = function
    | [] -> List.length l.Persist.Journal.l_entries
    | (e : Persist.Journal.entry) :: rest ->
      if e.Persist.Journal.e_signature = minimal then e.Persist.Journal.e_index else first_index rest
  in
  { hours;
    fresh = List.length l.Persist.Journal.l_entries - List.length l.Persist.Journal.l_shared;
    to_minimal = first_index l.Persist.Journal.l_entries }

(* A line-buffered client connection on a raw socket, so one select covers
   the watch stream and the outstanding request. *)
type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable eof : bool }

let connect root =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX (Service.Proto.socket_file ~root)) with
  | () -> Some { fd; buf = Buffer.create 4096; eof = false }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* [false] when the server has already closed the connection. *)
let send c req =
  let line = J.to_string (Service.Proto.request_json req) ^ "\n" in
  match Unix.write_substring c.fd line 0 (String.length line) with
  | n -> n = String.length line
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

let chunk = Bytes.create 65536

(* Reads what is available and returns the complete lines. *)
let read_lines c =
  (match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.eof <- true
  | n -> Buffer.add_subbytes c.buf chunk 0 n
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true);
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
    List.filter (( <> ) "") (String.split_on_char '\n' (String.sub s 0 i))

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* The first connection the server's socket accepts: the end of set-up. *)
let rec wait_connect ~root ~deadline =
  match connect root with
  | Some c -> c
  | None ->
    if now () > deadline then failwith "server never accepted a connection";
    Unix.sleepf 0.001;
    wait_connect ~root ~deadline

let terminal = function "done" | "failed" -> true | _ -> false

(* One closed-loop client with no think time: one outstanding show/jobs
   request, issued again as soon as the last one is answered, plus one watch
   stream, moved to the next unfinished job whenever the watched one ends.
   Returns when every job is terminal: (ready time, done time, request
   latencies in ms, requests). *)
let drive_client ~root ~ids ~deadline =
  let states = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace states id "queued") ids;
  let note_job j =
    match (J.member "id" j, J.member "state" j) with
    | Some (J.Str id), Some (J.Str st) -> Hashtbl.replace states id st
    | _ -> ()
  in
  let all_done () = List.for_all (fun id -> terminal (Hashtbl.find states id)) ids in
  let w0 = wait_connect ~root ~deadline in
  let ready = now () in
  if not (send w0 (Service.Proto.Watch (List.hd ids))) then fail "watch refused";
  let watch = ref (Some w0) in
  let request = ref None in
  let latencies = ref [] and attempted = ref 0 in
  let turn = ref 0 in
  let open_request () =
    let req =
      if !turn mod 2 = 0 then Service.Proto.Jobs
      else Service.Proto.Show (List.nth ids ((!turn / 2) mod List.length ids))
    in
    incr turn;
    incr attempted;
    let t = now () in
    match connect root with
    | Some c when send c req -> request := Some (c, t)
    | Some c ->
      close_conn c;
      fail "request refused"
    | None -> fail "request refused"
  in
  let open_watch () =
    match List.find_opt (fun id -> not (terminal (Hashtbl.find states id))) ids with
    | None -> ()
    | Some id -> (
      match connect root with
      | Some c when send c (Service.Proto.Watch id) -> watch := Some c
      | Some c ->
        close_conn c;
        fail "watch refused"
      | None -> fail "watch refused")
  in
  while not (all_done ()) do
    if now () > deadline then failwith "fleet did not finish in time";
    if !request = None then open_request ();
    if !watch = None then open_watch ();
    let fds =
      Option.to_list (Option.map (fun c -> c.fd) !watch)
      @ Option.to_list (Option.map (fun (c, _) -> c.fd) !request)
    in
    let readable, _, _ = try Unix.select fds [] [] 1.0 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []) in
    (match !request with
    | Some (c, t) when List.mem c.fd readable ->
      let lines = read_lines c in
      if lines <> [] || c.eof then begin
        close_conn c;
        request := None;
        match lines with
        | line :: _ -> (
          latencies := ms (now () -. t) :: !latencies;
          match J.parse line with
          | resp when Service.Proto.is_ok resp ->
            Option.iter note_job (J.member "job" resp);
            Option.iter (List.iter note_job) (Option.bind (J.member "jobs" resp) J.to_list)
          | _ -> fail "request answered with an error: %s" line
          | exception J.Parse_error m -> fail "unparsable response: %s" m)
        | [] -> fail "request closed without an answer"
      end
    | _ -> ());
    match !watch with
    | Some c when List.mem c.fd readable ->
      List.iter
        (fun line ->
          match J.parse line with
          | v -> (
            match (J.member "event" v, J.member "job" v) with
            | Some _, _ -> (
              match (J.member "job" v, J.member "state" v) with
              | Some (J.Str id), Some (J.Str st) -> Hashtbl.replace states id st
              | _ -> ())
            | None, Some j -> note_job j
            | None, None -> ())
          | exception J.Parse_error _ -> fail "unparsable watch line")
        (read_lines c);
      if c.eof then begin
        close_conn c;
        watch := None
      end
    | _ -> ()
  done;
  let finished = now () in
  Option.iter close_conn !watch;
  Option.iter (fun (c, _) -> close_conn c) !request;
  (ready, finished, List.rev !latencies, !attempted)

let stats_file dir = Filename.concat dir "server.json"

(* Admits the fleet, starts the server child and runs [f] against it; the
   server is stopped with SIGTERM and waited for whatever [f] does. Returns
   the time admission began, the store, the jobs and [f]'s result. *)
let with_fleet ~seed ~dir f =
  let root = Filename.concat dir "fleet" in
  let t0 = now () in
  let store = Service.Store.open_ ~root in
  let jobs = admit store ~seed in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve"; root; stats_file dir |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () -> f ~root ~jobs ~deadline:(t0 +. 150.0))
  in
  (t0, store, jobs, result)

let service_setup ~seed ~dir =
  let t0, _, _, ready =
    with_fleet ~seed ~dir (fun ~root ~jobs:_ ~deadline ->
        close_conn (wait_connect ~root ~deadline);
        now ())
  in
  ready -. t0

let service_rep ~seed ~dir =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t0, store, jobs, (ready, finished, latencies, requests) =
    with_fleet ~seed ~dir (fun ~root ~jobs ~deadline ->
        drive_client ~root ~ids:(List.map fst jobs) ~deadline)
  in
  let server = J.parse (read_file (stats_file dir)) in
  let field k = Option.value ~default:0.0 (Option.bind (J.member k server) J.to_float) in
  let books = List.map (job_books store) jobs in
  let hours = sum (List.map (fun b -> b.hours) books) in
  let fresh = List.fold_left (fun a b -> a + b.fresh) 0 books in
  if int_of_float (field "fresh") <> fresh then
    fail "server counted %d fresh evaluations, journals hold %d" (int_of_float (field "fresh")) fresh;
  J.Obj
    [ ("metrics",
       J.Obj
         [ ("setup_s", num (ready -. t0)); ("wall_s", num (finished -. ready));
           ("peak_rss_mb", num (field "peak_rss_mb")); ("sim_hours", num hours);
           ("fresh_evals", int fresh) ]);
      ("counts",
       J.Obj
         [ ("sim_hours", J.Str (J.hex_float hours)); ("fresh_evals", int fresh);
           ("evals_to_minimal", int (List.fold_left (fun a b -> a + b.to_minimal) 0 books));
           ("sched.slices", num (field "slices")); ("memo.hits", num (field "shared")) ]);
      ("info",
       J.Obj
         [ ("request_p50_ms", num (percentile 0.5 latencies));
           ("request_p75_ms", num (percentile 0.75 latencies));
           ("requests", int (List.length latencies));
           ("gc.minor_words", num (field "minor_words"));
           ("gc.major_collections", num (field "major_collections")) ]);
      ("observed", fleet_observed store jobs);
      ("attempted", int (List.length jobs + requests)) ]

(* The server child: Service.Server.run until SIGTERM, then its own peak
   RSS, GC counters and the slice counts its log reported. *)
let serve ~root ~stats_file =
  let slices = ref 0 and fresh = ref 0 and shared = ref 0 in
  let log line =
    try
      Scanf.sscanf line "slice %_s@: +%_d records (%d fresh, %d memo-shared)" (fun f s ->
          incr slices;
          fresh := !fresh + f;
          shared := !shared + s)
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
  in
  let g0 = Gc.quick_stat () in
  match Service.Server.run ~log ~root ~slots:0 () with
  | Error m ->
    prerr_endline m;
    exit 2
  | Ok () ->
    let g1 = Gc.quick_stat () in
    Core.Export.write_file ~path:stats_file
      (J.to_string
         (J.Obj
            [ ("peak_rss_mb", num (peak_rss_mb ()));
              ("minor_words", num (g1.Gc.minor_words -. g0.Gc.minor_words));
              ("major_collections", int (g1.Gc.major_collections - g0.Gc.major_collections));
              ("slices", int !slices); ("fresh", int !fresh); ("shared", int !shared) ]))

type slice = {
  job : string;
  new_records : int;  (* records committed beyond the resumed prefix *)
  fresh : int;
  shared : int;
  slice_ms : float;
  setup_ms : float;  (* Sched.step start to the slice's first progress event *)
}

(* In-process: the same admitted jobs driven through Sched.step, with
   spans around each step, slice progress from [~on_event], then every
   slice's fresh records replayed with caches as cold as the slice's. *)
let service_trace ~seed ~dir =
  let t0 = now () in
  let root = Filename.concat dir "fleet" in
  let store = Service.Store.open_ ~root in
  let jobs = span "service.admit" (fun () -> admit store ~seed) in
  let memo = Service.Memo.create () in
  let events = ref 0 and setup = ref None and turnaround = Hashtbl.create 8 in
  let loop_start = ref nan in
  let on_event (ev : Service.Sched.event) =
    incr events;
    Option.iter leave !setup;
    setup := None;
    if Service.Job.terminal ev.Service.Sched.ev_state && not (Hashtbl.mem turnaround ev.Service.Sched.ev_job)
    then Hashtbl.replace turnaround ev.Service.Sched.ev_job (now () -. !loop_start)
  in
  let sched = Service.Sched.create ~memo ~on_event store in
  let slices = ref [] in
  let g0 = Gc.quick_stat () in
  loop_start := now ();
  let rec loop () =
    let step = enter "service.step" in
    let s = enter "service.slice_setup" in
    setup := Some s;
    let r = Service.Sched.step sched in
    leave s;
    leave step;
    match r with
    | Service.Sched.Idle -> ()
    | Service.Sched.Sliced { si_job; si_new_records; si_fresh; si_shared; _ } ->
      step.owner <- si_job;
      s.owner <- si_job;
      slices :=
        { job = si_job; new_records = si_new_records; fresh = si_fresh; shared = si_shared;
          slice_ms = ms (dur step); setup_ms = ms (dur s) }
        :: !slices;
      loop ()
  in
  loop ();
  let loop_wall = now () -. !loop_start in
  let g1 = Gc.quick_stat () in
  let slices = List.rev !slices in
  let setups = List.map (fun sl -> sl.setup_ms) slices in
  let observed = fleet_observed store jobs in
  (* replay: one prepare per model, each slice's fresh records with fresh caches *)
  let prepared = Hashtbl.create 4 in
  List.iter
    (fun (id, (spec : Service.Job.spec)) ->
      if not (Hashtbl.mem prepared spec.Service.Job.sp_model) then
        Hashtbl.replace prepared spec.Service.Job.sp_model
          (prepare_mirror ~owner:id (Models.Registry.find spec.Service.Job.sp_model)
             (Service.Job.config_of_spec spec)))
    jobs;
  let done_records = Hashtbl.create 8 in
  let appends = ref 0 in
  List.iter
    (fun (id, (spec : Service.Job.spec)) ->
      let p = Hashtbl.find prepared spec.Service.Job.sp_model in
      let l = Persist.Journal.load ~dir:(Service.Store.campaign_dir store id) in
      let shared = List.map (fun sh -> sh.Persist.Journal.sh_index) l.Persist.Journal.l_shared in
      let records =
        List.filter_map
          (fun (e : Persist.Journal.entry) ->
            if List.mem e.Persist.Journal.e_index shared then None
            else
              Some
                { Search.Variant.index = e.Persist.Journal.e_index;
                  asg = Transform.Assignment.of_signature p.Core.Tuner.atoms e.Persist.Journal.e_signature;
                  meas = e.Persist.Journal.e_meas })
          l.Persist.Journal.l_entries
      in
      Hashtbl.replace done_records id 0;
      let job_slices = List.filter (fun sl -> sl.job = id) slices in
      List.iter
        (fun sl ->
          let lo = Hashtbl.find done_records id and n = sl.new_records in
          Hashtbl.replace done_records id (lo + n);
          replay_records ~owner:id p
            (List.filter
               (fun (r : Search.Variant.record) ->
                 r.Search.Variant.index > lo && r.Search.Variant.index <= lo + n)
               records))
        job_slices;
      appends :=
        !appends
        + replay_journal ~owner:id ~reopens:(List.length job_slices) p
            ~src:(Service.Store.campaign_dir store id)
            ~dst:(Filename.concat dir (id ^ ".replay"));
      match Service.Store.load store id with
      | Some j ->
        for _ = 1 to 3 do
          span ~owner:id "service.store_update" (fun () -> Service.Store.update store j)
        done
      | None -> ())
    jobs;
  let t1 = now () in
  let mstats = Service.Memo.stats memo in
  let fresh = List.fold_left (fun a sl -> a + sl.fresh) 0 slices in
  let slice_ms = List.map (fun sl -> sl.slice_ms) slices in
  ( t0, t1,
    [ ("trace.hits", int 0);
      ("trace.misses", int fresh);
      ("trace.shared", int (List.fold_left (fun a sl -> a + sl.shared) 0 slices));
      ("speculate.live_evals", int mstats.Service.Memo.publishes);
      ("speculate.useful_ratio",
       num (float_of_int fresh /. float_of_int (max 1 mstats.Service.Memo.publishes)));
      ("pool.busy_ratio", num 0.0);
      ("pool.submit_wait_ms", num 0.0);
      ("journal.appends", int !appends);
      ("sched.slices", int (List.length slices));
      ("sched.slice_ms_p50", num (percentile 0.5 slice_ms));
      ("sched.slice_ms_p90", num (percentile 0.9 slice_ms));
      ("sched.slice_setup_ms_p50", num (percentile 0.5 setups));
      ("sched.setup_share", num (sum setups /. sum slice_ms));
      ("sched.job_turnaround_s",
       num (percentile 0.5 (Hashtbl.fold (fun _ t acc -> t :: acc) turnaround [])));
      ("server.events", int !events);
      ("memo.finds", int mstats.Service.Memo.finds);
      ("memo.hits", int mstats.Service.Memo.hits);
      ("gc.minor_words", num (g1.Gc.minor_words -. g0.Gc.minor_words));
      ("gc.major_collections", int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("search.evals_to_minimal",
       int (List.fold_left (fun a b -> a + b.to_minimal) 0 (List.map (job_books store) jobs)));
      ("ledger.workload_wall_s", num loop_wall) ],
    observed )

(* ------------------------------------------------------------------ *)
(* Host speed.                                                         *)

(* A fixed allocation-bound loop, timed after a warm-up: short-lived
   tuples and list cells through the minor heap, as the tuner's
   evaluations allocate boxed values. The host's memory speed drifts over
   minutes, and the tuner's wall time with it; this loop slows with them,
   where a compute-only loop barely moves. run.py runs it between the
   repetitions to refer their set-up and wall times to one host speed. *)
let kernel () =
  let round () = List.length (List.rev (List.init 10_000 (fun i -> (i, i + 1)))) in
  for _ = 1 to 20 do
    ignore (Sys.opaque_identity (round ()))
  done;
  let t0 = now () in
  for _ = 1 to 160 do
    ignore (Sys.opaque_identity (round ()))
  done;
  now () -. t0

(* ------------------------------------------------------------------ *)

let trace ~workload ~seed ~dir =
  let t0, t1, metrics, observed =
    if workload = "service_fleet" then service_trace ~seed ~dir
    else campaign_trace ~workload ~seed ~dir
  in
  write_ledger ~out:dir ~t0 ~t1;
  J.Obj
    [ ("metrics",
       J.Obj
         (metrics @ common_layer_metrics ()
         @ [ ("ledger.coverage", num (coverage ~t0 ~t1)); ("ledger.traced_wall_s", num (t1 -. t0)) ]));
      ("observed", observed);
      ("attempted", int (if workload = "service_fleet" then 5 else List.length (campaigns ~workload ~seed))) ]

let () =
  match Array.to_list Sys.argv with
  | [ _; "serve"; root; stats_file ] -> serve ~root ~stats_file
  | [ _; "kernel" ] -> print_endline (J.to_string (J.Obj [ ("kernel_s", num (kernel ())) ]))
  | [ _; mode; workload; seed; out ] when List.mem mode [ "run"; "trace"; "setup" ] ->
    let seed = int_of_string seed in
    (* paths relative to OUTDIR keep the server's socket path short, however
       deep the checkout lies *)
    Sys.chdir out;
    let dir = Filename.current_dir_name in
    let result =
      match (mode, workload) with
      | "run", "service_fleet" -> service_rep ~seed ~dir
      | "run", _ -> campaign_rep ~workload ~seed ~dir
      | "setup", "service_fleet" -> J.Obj [ ("setup_s", num (service_setup ~seed ~dir)) ]
      | "setup", _ ->
        J.Obj
          [ ("setup_s",
             num (sum (List.map (campaign_setup ~dir) (campaigns ~workload ~seed)))) ]
      | _ -> trace ~workload ~seed ~dir
    in
    let fields = match result with J.Obj f -> f | _ -> [] in
    print_endline
      (J.to_string
         (J.Obj
            (fields
            @ [ ("failures", J.Arr (List.rev_map (fun s -> J.Str s) !failures)) ])))
  | _ ->
    prerr_endline
      "usage: perfbench (run|trace|setup) WORKLOAD SEED OUTDIR | perfbench serve ROOT STATSFILE \
       | perfbench kernel";
    exit 2
