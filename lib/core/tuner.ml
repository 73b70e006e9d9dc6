open Search

(* Per-campaign evaluation wall-clock accounting, shared by every domain
   that evaluates a batch. *)
type eval_stats = {
  es_lock : Mutex.t;
  mutable es_count : int;
  mutable es_total : float;  (* seconds *)
  mutable es_max : float;
}

let eval_stats_create () =
  { es_lock = Mutex.create (); es_count = 0; es_total = 0.0; es_max = 0.0 }

let eval_stats_note s dt =
  Mutex.lock s.es_lock;
  s.es_count <- s.es_count + 1;
  s.es_total <- s.es_total +. dt;
  if dt > s.es_max then s.es_max <- dt;
  Mutex.unlock s.es_lock

let eval_stats_read s =
  Mutex.lock s.es_lock;
  let r = (s.es_count, s.es_total, s.es_max) in
  Mutex.unlock s.es_lock;
  r

type raw = {
  r_outcome : Runtime.Interp.outcome option;  (* None = transformation failed *)
  r_detail : string;
  r_hotspot : float;
  r_model_time : float;
  r_rel_error : float;  (* infinity unless the run finished *)
}

(* Batch-reuse table: raw outcomes shared between variants of the
   prepared search space whose masked signatures agree. Only atoms change
   kind between such variants, so two of them transform into programs
   whose reachable code is declaration-for-declaration identical exactly
   when they agree on every atom the mask leaves in, and the raw outcome
   — a pure function of that code under the fixed machine, budget and
   wrapper redirection — is bit-identical whoever computes it first.
   First-write-wins under the mutex, so records do not depend on the
   worker count. *)
type share = {
  sh_lock : Mutex.t;
  sh_tbl : (string, raw) Hashtbl.t;
  sh_masked : int list;  (* signature positions of masked atoms *)
}

(* The mask is fixed by the baseline program: the atoms whose kind
   cannot change the outcome or the charged cost (Assignment.inert). *)
let share_create st atoms =
  let inert = Transform.Assignment.inert st atoms in
  {
    sh_lock = Mutex.create ();
    sh_tbl = Hashtbl.create 256;
    sh_masked = List.filter (fun i -> inert.(i)) (List.init (Array.length inert) Fun.id);
  }

type prepared = {
  model : Models.Registry.t;
  config : Config.t;
  st : Fortran.Symtab.t;
  atoms : Transform.Assignment.atom list;
  baseline_cost : float;
  baseline_hotspot : float;
  baseline_metric : float list;
  baseline_timers : Runtime.Timers.entry list;
  baseline_times : float list;
  threshold : float;
  eq1_n : int;
  perf_floor : float;  (* noise-adjusted acceptance floor *)
  budget : float;
  baseline_static : Analysis.Static_cost.verdict;
  scorer : Sensitivity.Score.t option;
      (* the error-amplification scorer steering rank; None when
         predict is off or the mirror analysis declined to vouch for
         itself (fell back to the unpredicted search) *)
  cache : Runtime.Lower.Cache.t;  (* per-procedure lowering cache *)
  ccache : Runtime.Compile.Cache.t;  (* compiled-procedure cache *)
  share : share option;  (* batch-reuse table; None under verify_roundtrip *)
  eval_stats : eval_stats;
}

(* The table's key for [asg]: its signature with every masked atom's
   position blanked. [None] without a table, or off the prepared search
   space (say, prepare's whole-program uniform-32 run): such variants
   are evaluated directly. *)
let share_key p asg =
  match p.share with
  | Some sh when Transform.Assignment.atoms asg == p.atoms ->
    let key = Bytes.of_string (Transform.Assignment.signature asg) in
    List.iter (fun i -> Bytes.set key i '-') sh.sh_masked;
    Some (sh, Bytes.unsafe_to_string key)
  | Some _ | None -> None

let hotspot_time_of procs timers =
  List.fold_left (fun acc p -> acc +. Runtime.Timers.exclusive_of timers p) 0.0 procs

let hotspot_time p timers = hotspot_time_of p.model.Models.Registry.target_procs timers

(* ------------------------------------------------------------------ *)
(* One trip through transformation + dynamic evaluation.               *)

let score_outcome p (out : Runtime.Interp.outcome) : raw =
  let module R = Runtime.Interp in
  let hotspot = hotspot_time p out.R.timers in
  let rel_error =
    match out.R.status with
    | R.Finished ->
      let series = R.series out p.model.Models.Registry.metric_key in
      if series = [] then infinity
      else Metrics.Error.series_rel_error_l2 ~baseline:p.baseline_metric series
    | R.Stopped _ | R.Runtime_error _ | R.Timed_out -> infinity
  in
  {
    r_outcome = Some out;
    r_detail = Format.asprintf "%a" R.pp_status out.R.status;
    r_hotspot = hotspot;
    r_model_time = out.R.cost;
    r_rel_error = rel_error;
  }

let failed_raw detail =
  { r_outcome = None; r_detail = detail; r_hotspot = 0.0; r_model_time = 0.0;
    r_rel_error = infinity }

(* The historical pipeline: unparse the transformed program, reparse the
   text, rebuild the symbol table, typecheck, tree-walk. Kept as the
   [verify_roundtrip] oracle for the fast path. *)
let roundtrip_raw p asg : raw =
  match
    let prog' = Transform.Rewrite.apply p.st asg in
    let w = Transform.Wrappers.insert prog' in
    let text = Fortran.Unparse.program w.Transform.Wrappers.program in
    let prog'' = Fortran.Parser.parse ~file:(p.model.Models.Registry.name ^ "_variant.f90") text in
    let st' = Fortran.Symtab.build prog'' in
    Fortran.Typecheck.check_program st';
    (st', w)
  with
  | exception Fortran.Lexer.Error { message; _ } -> failed_raw ("lexer: " ^ message)
  | exception Fortran.Parser.Error { message; _ } -> failed_raw ("parser: " ^ message)
  | exception Fortran.Typecheck.Error { message; _ } -> failed_raw ("typecheck: " ^ message)
  | exception Fortran.Symtab.Error { message; _ } -> failed_raw ("symtab: " ^ message)
  | st', w ->
    score_outcome p
      (Runtime.Interp.run ~machine:p.config.Config.machine ~budget:p.budget
         ~wrapper_owner:(Transform.Wrappers.owner_fn w) st')

(* The fast path: rewrite and lower the AST directly — no unparse→reparse
   round trip — then compile the slot-resolved IR and run it, reusing
   lowered and compiled procedures whose precision signature is
   unchanged. *)
let direct_raw p asg : raw =
  match
    let prog' = Transform.Rewrite.apply p.st asg in
    let w = Transform.Wrappers.insert prog' in
    let st' = Fortran.Symtab.build w.Transform.Wrappers.program in
    Fortran.Typecheck.check_program st';
    (st', w)
  with
  | exception Fortran.Typecheck.Error { message; _ } -> failed_raw ("typecheck: " ^ message)
  | exception Fortran.Symtab.Error { message; _ } -> failed_raw ("symtab: " ^ message)
  | st', w ->
    let ir =
      Runtime.Lower.lower ~cache:p.cache ~machine:p.config.Config.machine
        ~wrapper_owner:(Transform.Wrappers.owner_fn w) st'
    in
    score_outcome p
      (Runtime.Compile.run ~budget:p.budget (Runtime.Compile.compile ~cache:p.ccache ir))

(* Serve the raw outcome from the batch-reuse table when an
   effectively-identical variant already ran; otherwise run and publish,
   first write wins (a racing worker adopts the published outcome, so the
   table's contents never depend on scheduling). *)
let shared_raw p asg : raw =
  match share_key p asg with
  | None -> direct_raw p asg
  | Some (sh, key) -> (
    Mutex.lock sh.sh_lock;
    match Hashtbl.find_opt sh.sh_tbl key with
    | Some raw ->
      Mutex.unlock sh.sh_lock;
      raw
    | None -> (
      Mutex.unlock sh.sh_lock;
      let raw = direct_raw p asg in
      Mutex.lock sh.sh_lock;
      match Hashtbl.find_opt sh.sh_tbl key with
      | Some winner ->
        Mutex.unlock sh.sh_lock;
        winner
      | None ->
        Hashtbl.replace sh.sh_tbl key raw;
        Mutex.unlock sh.sh_lock;
        raw))

let transform_and_run p asg : raw =
  let t0 = Unix.gettimeofday () in
  let raw = shared_raw p asg in
  eval_stats_note p.eval_stats (Unix.gettimeofday () -. t0);
  if p.config.Config.verify_roundtrip then begin
    let slow = roundtrip_raw p asg in
    if compare raw slow <> 0 then
      failwith
        (Printf.sprintf
           "verify-roundtrip: direct and round-trip outcomes differ on %s variant %s\n\
            direct:     %s cost %.17g hotspot %.17g err %.17g\n\
            round-trip: %s cost %.17g hotspot %.17g err %.17g"
           p.model.Models.Registry.name
           (Transform.Assignment.signature asg)
           raw.r_detail raw.r_model_time raw.r_hotspot raw.r_rel_error
           slow.r_detail slow.r_model_time slow.r_hotspot slow.r_rel_error)
  end;
  raw

let noisy_times p ~seed time =
  List.init p.eq1_n (fun run ->
      time *. Runtime.Noise.factor ~seed ~run ~rel_std:p.model.Models.Registry.noise_rel_std)

let measurement_of_raw p asg (raw : raw) : Variant.measurement =
  let module R = Runtime.Interp in
  let status =
    match raw.r_outcome with
    | None -> Variant.Error
    | Some out -> (
      match out.R.status with
      | R.Finished ->
        if raw.r_rel_error <= p.threshold then Variant.Pass else Variant.Fail
      | R.Timed_out -> Variant.Timeout
      | R.Stopped _ | R.Runtime_error _ -> Variant.Error)
  in
  let speedup =
    match status with
    | Variant.Pass | Variant.Fail ->
      let base_time, var_time =
        match p.config.Config.mode with
        | Config.Hotspot_guided -> (p.baseline_hotspot, raw.r_hotspot)
        | Config.Whole_model_guided -> (p.baseline_cost, raw.r_model_time)
      in
      if var_time <= 0.0 then 0.0
      else begin
        let seed = p.config.Config.seed lxor Hashtbl.hash (Transform.Assignment.signature asg) in
        Metrics.Speedup.of_times
          ~baseline:(noisy_times p ~seed:p.config.Config.seed base_time)
          ~variant:(noisy_times p ~seed var_time)
      end
    | Variant.Timeout | Variant.Error -> 0.0
  in
  let proc_stats =
    match raw.r_outcome with
    | None -> []
    | Some out ->
      List.map
        (fun (e : Runtime.Timers.entry) -> (e.Runtime.Timers.name, e.Runtime.Timers.inclusive, e.Runtime.Timers.calls))
        out.R.timers
  in
  let casting_share =
    match raw.r_outcome with
    | Some out -> Runtime.Interp.casting_share out
    | None -> 0.0
  in
  {
    Variant.status;
    speedup;
    rel_error = raw.r_rel_error;
    hotspot_time = raw.r_hotspot;
    model_time = raw.r_model_time;
    proc_stats;
    casting_share;
    detail = raw.r_detail;
  }

(* ------------------------------------------------------------------ *)

let prepare ?(config = Config.default) (model : Models.Registry.t) : prepared =
  let prog = Fortran.Parser.parse ~file:(model.name ^ ".f90") model.source in
  let st = Fortran.Symtab.build prog in
  Fortran.Typecheck.check_program st;
  let atoms =
    Transform.Assignment.atoms_of_target st ~module_:model.target_module
      ~procs:(Some model.target_procs) ~exclude:model.exclude_atoms
  in
  if atoms = [] then invalid_arg ("Tuner.prepare: no FP atoms in " ^ model.target_module);
  let cache = Runtime.Lower.Cache.create () in
  let ccache = Runtime.Compile.Cache.create () in
  (* sharing is off under verify_roundtrip: the oracle's whole point is to
     actually run both pipelines on every variant *)
  let share = if config.Config.verify_roundtrip then None else Some (share_create st atoms) in
  let out =
    Runtime.Compile.run
      (Runtime.Compile.compile ~cache:ccache
         (Runtime.Lower.lower ~cache ~machine:config.Config.machine st))
  in
  (match out.Runtime.Interp.status with
  | Runtime.Interp.Finished -> ()
  | s ->
    invalid_arg
      (Format.asprintf "Tuner.prepare: baseline %s did not finish: %a" model.name
         Runtime.Interp.pp_status s));
  let baseline_metric = Runtime.Interp.series out model.metric_key in
  if baseline_metric = [] then
    invalid_arg ("Tuner.prepare: baseline produced no '" ^ model.metric_key ^ "' series");
  let baseline_cost = out.Runtime.Interp.cost in
  let baseline_hotspot = hotspot_time_of model.target_procs out.Runtime.Interp.timers in
  let baseline_times =
    List.init config.Config.baseline_runs (fun run ->
        baseline_cost
        *. Runtime.Noise.factor ~seed:config.Config.seed ~run ~rel_std:model.noise_rel_std)
  in
  let eq1_n = Metrics.Speedup.choose_n ~rel_std:(Metrics.Stats.rel_stddev baseline_times) in
  (* Eq. 1's median-of-n tames but does not eliminate noise: a variant
     identical to the baseline still scores ~N(1, rel_std·sqrt(2/n)).
     The acceptance floor must sit below that spread or the search
     rejects parity variants spuriously. *)
  let perf_floor =
    Float.min config.Config.perf_floor
      (1.0 -. (3.0 *. model.noise_rel_std /. sqrt (float_of_int eq1_n)))
  in
  let baseline_static = Analysis.Static_cost.evaluate st in
  let partial =
    {
      model;
      config;
      st;
      atoms;
      baseline_cost;
      baseline_hotspot;
      baseline_metric;
      baseline_timers = out.Runtime.Interp.timers;
      baseline_times;
      threshold = infinity;
      eq1_n;
      perf_floor;
      budget = model.timeout_factor *. baseline_cost;
      baseline_static;
      scorer = None;
      cache;
      ccache;
      share;
      eval_stats = eval_stats_create ();
    }
  in
  let threshold =
    match model.threshold with
    | Models.Registry.Fixed f -> f
    | Models.Registry.From_uniform32 mult ->
      (* the reference is the developer-supported uniform 32-bit BUILD:
         every real declaration in the whole program at kind 4 — not just
         the hotspot's atoms. Mixed f32 hotspots inside an f64 model incur
         boundary re-rounding the consistent build does not, which is why
         the all-lowered hotspot variant can (and here does) exceed this
         threshold, making the search non-trivial, as in the paper. *)
      let whole_atoms =
        List.concat_map
          (fun u -> Transform.Assignment.atoms_of_module st (Fortran.Ast.unit_name u))
          (Fortran.Symtab.program st)
      in
      let asg32 = Transform.Assignment.uniform whole_atoms Fortran.Ast.K4 in
      let raw = transform_and_run partial asg32 in
      if Float.is_finite raw.r_rel_error && raw.r_rel_error > 0.0 then mult *. raw.r_rel_error
      else
        invalid_arg
          (Printf.sprintf
             "Tuner.prepare: cannot derive %s threshold from uniform-32 (error %g, %s)"
             model.name raw.r_rel_error raw.r_detail)
  in
  (* the scorer needs the resolved threshold (From_uniform32 models derive
     it dynamically above), so it is built last *)
  let scorer =
    match config.Config.predict with
    | Config.Predict_off -> None
    | Config.Predict_rank ->
      Sensitivity.Score.create ~st ~atoms ~metric_key:model.metric_key ~baseline_metric
        ~threshold ~margin:config.Config.predict_margin
  in
  { partial with threshold; scorer }

let statically_filtered p asg =
  p.config.Config.static_filter
  &&
  let prog' = Transform.Rewrite.apply p.st asg in
  match Fortran.Symtab.build prog' with
  | st' ->
    let v = Analysis.Static_cost.evaluate st' in
    Analysis.Static_cost.predicts_worse ~baseline:p.baseline_static ~candidate:v
      ~penalty_budget:p.config.Config.static_penalty_budget
  | exception Fortran.Symtab.Error _ -> false

let evaluate p asg : Variant.measurement =
  if statically_filtered p asg then
    {
      Variant.status = Variant.Fail;
      speedup = 0.0;
      rel_error = infinity;
      hotspot_time = 0.0;
      model_time = 0.0;  (* no dynamic run: costs nothing on the cluster *)
      proc_stats = [];
      casting_share = 0.0;
      detail = "static-filter";
    }
  else measurement_of_raw p asg (transform_and_run p asg)

let uniform32_measurement p =
  measurement_of_raw p
    (Transform.Assignment.uniform p.atoms Fortran.Ast.K4)
    (transform_and_run p (Transform.Assignment.uniform p.atoms Fortran.Ast.K4))

(* ------------------------------------------------------------------ *)

type algo = Brute_force_algo | Delta_debug_algo | Hierarchical_algo

let algo_name = function
  | Brute_force_algo -> "brute_force"
  | Delta_debug_algo -> "delta_debug"
  | Hierarchical_algo -> "hierarchical"

let algo_of_name = function
  | "brute_force" -> Some Brute_force_algo
  | "delta_debug" -> Some Delta_debug_algo
  | "hierarchical" -> Some Hierarchical_algo
  | _ -> None

type backend_stats = {
  compiled_procs : int;  (* distinct procedure bodies closure-compiled *)
  compile_hits : int;  (* compiled procedures served from the cache *)
  reuse_hits : int;  (* variants served from the batch-reuse table *)
  reuse_misses : int;  (* variants that ran and published their outcome *)
}

type sched_stats = {
  sched_shards : int;
  sched_workers : int;
  sched_slots : int;
  sched_sim_hours : float;
  sched_steals : int;
  sched_rounds : int;
  sched_batched : int;
  sched_serial : int;
}

type campaign = {
  prepared : prepared;
  records : Variant.record list;
  summary : Variant.summary;
  minimal : Search.Delta_debug.result option;
  simulated_hours : float;
  eval_ms_mean : float;
  eval_ms_max : float;
  trace_stats : Trace.stats;
  backend : backend_stats;
  sched : sched_stats option;
  preloaded : int;
  interrupted : bool;
  fault_stats : Cluster.Faults.stats option;
}

(* Static-filter rejections never reach the cluster, so no fault can
   touch them and they cost no simulated node time; every
   fault-accounting site must agree with [faulted_evaluate]. *)
let off_cluster (m : Variant.measurement) = m.Variant.detail = "static-filter"

(* The per-procedure cache keys evaluating [asg] requests from
   [Lower.Cache] and [Compile.Cache], derived statically (rewrite +
   wrapper insertion + symtab, nothing lowered or run). Empty when the
   transformed program does not build — such variants never reached the
   backends either. *)
let variant_cache_keys p asg =
  match
    let prog' = Transform.Rewrite.apply p.st asg in
    let w = Transform.Wrappers.insert prog' in
    Fortran.Symtab.build w.Transform.Wrappers.program
  with
  | exception Fortran.Symtab.Error _ -> []
  | st' -> Runtime.Lower.cache_keys st'

(* Deterministic backend diagnostics: replay the committed record stream
   — identical at every worker and shard count, and covering a resumed
   campaign's journaled prefix — charging the compile and reuse traffic
   a sequential, speculation-free run of exactly these records performs.
   The live cache counters (atomics) keep counting real work, including
   speculation later discarded, which is why they are not reported. *)
let replay_backend p records =
  let classes = Hashtbl.create 256 in
  let keys_seen = Hashtbl.create 512 in
  let rh = ref 0 and rm = ref 0 and compiled = ref 0 and chits = ref 0 in
  List.iter
    (fun (r : Variant.record) ->
      if not (off_cluster r.Variant.meas) then
        match share_key p r.Variant.asg with
        | Some (_, cls) when Hashtbl.mem classes cls -> incr rh
        | key ->
          Option.iter (fun (_, cls) -> Hashtbl.add classes cls ()) key;
          incr rm;
          List.iter
            (fun k ->
              if Hashtbl.mem keys_seen k then incr chits
              else begin
                Hashtbl.add keys_seen k ();
                incr compiled
              end)
            (variant_cache_keys p r.Variant.asg))
    records;
  {
    compiled_procs = !compiled;
    compile_hits = !chits;
    reuse_hits = (if p.share = None then 0 else !rh);
    reuse_misses = (if p.share = None then 0 else !rm);
  }

let finish_campaign ?(preloaded = 0) ?(interrupted = false) ?fault_stats ?sched p trace
    minimal =
  let records = Trace.records trace in
  let cluster = Cluster.for_model p.model in
  let simulated_hours =
    Cluster.campaign_hours cluster ~baseline_cost:p.baseline_cost
      ~variant_costs:(List.map (fun (r : Variant.record) -> r.Variant.meas.Variant.model_time) records)
  in
  let count, total, max_s = eval_stats_read p.eval_stats in
  {
    prepared = p;
    records;
    summary = Variant.summarize records;
    minimal;
    simulated_hours;
    eval_ms_mean = (if count = 0 then 0.0 else 1e3 *. total /. float_of_int count);
    eval_ms_max = 1e3 *. max_s;
    trace_stats = Trace.stats trace;
    backend = replay_backend p records;
    sched;
    preloaded;
    interrupted;
    fault_stats;
  }

let max_variants_of p =
  match p.config.Config.max_variants with
  | Some _ as v -> v
  | None -> p.model.Models.Registry.max_variants

let default_workers = Shard.default_workers

(* [workers]: None = one per spare core, 0 = sequential. [w] workers are
   [w] helper domains beside the submitting one, which evaluates too: a
   one-shard scheduler of [w + 1] slots, with no yield hook and no
   reported stats. Without a borrowed [shard] it lives for exactly one
   campaign; a caller that multiplexes several campaigns over one
   substrate lends its own, which is used whenever the effective worker
   count is positive and is never shut down here. *)
let with_one_shard ?shard workers f =
  let w = match workers with Some w -> w | None -> default_workers () in
  if w <= 0 then f None
  else
    match shard with
    | Some _ as borrowed -> f borrowed
    | None -> Shard.with_shards ~shards:1 ~workers:(w + 1) (fun sh -> f (Some sh))

(* Atoms grouped by connected components of the interprocedural FP flow
   graph: variables linked by parameter passing move together in the
   hierarchical search. *)
let flow_groups p =
  let atoms = p.atoms in
  let n = List.length atoms in
  let index = Hashtbl.create n in
  List.iteri
    (fun i (a : Transform.Assignment.atom) ->
      Hashtbl.replace index (a.Transform.Assignment.a_scope, a.Transform.Assignment.a_name) i)
    atoms;
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  let graph = Analysis.Flowgraph.build p.st in
  List.iter
    (fun (e : Analysis.Flowgraph.edge) ->
      match e.Analysis.Flowgraph.e_actual with
      | Some a -> (
        let dummy = e.Analysis.Flowgraph.e_dummy in
        match
          ( Hashtbl.find_opt index (a.Analysis.Flowgraph.n_scope, a.Analysis.Flowgraph.n_var),
            Hashtbl.find_opt index (dummy.Analysis.Flowgraph.n_scope, dummy.Analysis.Flowgraph.n_var) )
        with
        | Some i, Some j -> union i j
        | _ -> ())
      | None -> ())
    (Analysis.Flowgraph.edges graph);
  let buckets = Hashtbl.create n in
  List.iteri
    (fun i a ->
      let r = find i in
      Hashtbl.replace buckets r (a :: Option.value ~default:[] (Hashtbl.find_opt buckets r)))
    atoms;
  Hashtbl.fold (fun _ g acc -> List.rev g :: acc) buckets []
  |> List.sort (fun a b ->
         compare
           (List.map Transform.Assignment.atom_id a)
           (List.map Transform.Assignment.atom_id b))

(* ------------------------------------------------------------------ *)
(* Durable campaigns: write-ahead journal, fault injection, resume.    *)

type journal_ctx = {
  jw : Persist.Journal.writer;
  jdir : string;
  jcluster : Cluster.t;
  jbaseline_cost : float;
  jfaults : Cluster.Faults.state option;
  mutable jhours : float;  (* simulated cluster hours, incl. fault losses *)
  mutable jrecords : int;
  mutable jbest : float;
}

type progress = { pg_records : int; pg_hours : float; pg_best : float }

exception Paused

let progress_of jc = { pg_records = jc.jrecords; pg_hours = jc.jhours; pg_best = jc.jbest }

let snapshot_every = 32

let hours_of_seconds jc secs = secs /. float_of_int jc.jcluster.nodes /. 3600.0

(* Simulated cluster seconds one committed record accounts for, including
   the node time its injected-fault retries burned. *)
let record_seconds jc ~signature (m : Variant.measurement) =
  let model_time = m.Variant.model_time in
  let run = Cluster.variant_seconds jc.jcluster ~baseline_cost:jc.jbaseline_cost ~variant_cost:model_time in
  let lost =
    match jc.jfaults with
    | Some f when not (off_cluster m) ->
      Cluster.Faults.lost_seconds (Cluster.Faults.spec f) jc.jcluster
        ~baseline_cost:jc.jbaseline_cost ~signature ~model_time
    | Some _ | None -> 0.0
  in
  run +. lost

let snapshot_of_ctx jc ~finished =
  let fstats =
    match jc.jfaults with Some f -> Cluster.Faults.stats f | None -> Cluster.Faults.zero_stats
  in
  {
    Persist.Snapshot.s_records = jc.jrecords;
    s_hours = jc.jhours;
    s_best_speedup = jc.jbest;
    s_lost_seconds = fstats.Cluster.Faults.lost_node_seconds;
    s_preemptions = fstats.Cluster.Faults.preemptions;
    s_finished = finished;
  }

let note_record jc ~signature (m : Variant.measurement) =
  jc.jhours <- jc.jhours +. hours_of_seconds jc (record_seconds jc ~signature m);
  jc.jrecords <- jc.jrecords + 1;
  if m.Variant.status = Variant.Pass && m.Variant.speedup > jc.jbest then
    jc.jbest <- m.Variant.speedup

(* The trace's append sink: journal the record (write-ahead, fsynced),
   settle the cluster books, checkpoint periodically, and only then let a
   caller's checkpoint hook or a configured preemption kill the "job" —
   the record is already durable either way, so interrupting here is
   always resumable with zero re-evaluation. *)
let journal_sink ?checkpoint ?(shared_pending = fun () -> None) p jc (r : Variant.record) =
  let entry = Persist.Journal.entry_of_record r in
  let entry =
    match p.scorer with
    | Some sc ->
      {
        entry with
        Persist.Journal.e_score = Some (Sensitivity.Score.score sc r.Variant.asg);
        e_bound = Some (Sensitivity.Score.static_bound sc r.Variant.asg);
      }
    | None -> entry
  in
  Persist.Journal.append jc.jw entry;
  (* provenance for a memo-served record, staged by the trace's on_shared
     hook in the same locked critical section — written right after the
     record line so a crash between the two loses only the annotation *)
  (match shared_pending () with
  | Some sh -> Persist.Journal.append_shared jc.jw sh
  | None -> ());
  let signature = Transform.Assignment.signature r.Variant.asg in
  (match jc.jfaults with
  | Some f when not (off_cluster r.Variant.meas) ->
    ignore
      (Cluster.Faults.note_commit f jc.jcluster ~baseline_cost:jc.jbaseline_cost ~signature
         ~model_time:r.Variant.meas.Variant.model_time)
  | Some _ | None -> ());
  note_record jc ~signature r.Variant.meas;
  if jc.jrecords mod snapshot_every = 0 then
    Persist.Snapshot.write ~dir:jc.jdir (snapshot_of_ctx jc ~finished:false);
  Option.iter (fun cp -> cp (progress_of jc)) checkpoint;
  match jc.jfaults with
  | Some f -> Cluster.Faults.check_preempt f ~hours:jc.jhours
  | None -> ()

(* Variant evaluation with injected faults applied: what the search (and
   hence the trace and journal) observes. Static-filter rejections never
   reach the cluster, so no fault can touch them. *)
let apply_faults faults ~signature m =
  match faults with
  | None -> m
  | Some fspec -> if off_cluster m then m else Cluster.Faults.perturb fspec ~signature m

let faulted_evaluate p faults asg =
  apply_faults faults
    ~signature:(Transform.Assignment.signature asg)
    (evaluate p asg)

(* Fleet-wide evaluation memo hooks (the service's cross-campaign memo
   plugs in here; solo campaigns pass none). The memo stores {e pre-fault}
   measurements — a pure function of (model source, config digest,
   signature), identical whichever campaign in the space computes it —
   and each consuming campaign applies its own fault perturbation (a pure
   function of its fault spec and the signature), so a memo-served record
   is bit-identical to the one the campaign would have evaluated itself.
   [memo_find] returns the measurement plus the donor campaign's id for
   the journal's provenance annotation. *)
type memo_hooks = {
  memo_find : signature:string -> (Variant.measurement * string) option;
  memo_publish : signature:string -> Variant.measurement -> unit;
}

let execute p ~algo ?workers ?shards ?shard ?journal ?faults ?checkpoint ?memo ~preloaded () =
  let fstate = Option.map Cluster.Faults.create faults in
  let jctx =
    Option.map
      (fun (jdir, jw) ->
        {
          jw;
          jdir;
          jcluster = Cluster.for_model p.model;
          jbaseline_cost = p.baseline_cost;
          jfaults = fstate;
          jhours = 0.0;
          jrecords = 0;
          jbest = 0.0;
        })
      journal
  in
  (* the journaled prefix already consumed cluster hours: continue the
     accounting (and the preemption clock) from there *)
  Option.iter
    (fun jc ->
      List.iter
        (fun (r : Variant.record) ->
          note_record jc
            ~signature:(Transform.Assignment.signature r.Variant.asg)
            r.Variant.meas)
        preloaded)
    jctx;
  (* Fleet memo wiring. [shared_lookup] runs outside the trace lock: it
     asks the memo for a pre-fault measurement, stashes the donor id
     keyed by signature, and applies this campaign's own fault
     perturbation so the trace commits exactly what a live evaluation
     would have. [on_shared] then fires under the trace lock, immediately
     before the journal sink, staging the provenance annotation the sink
     appends right after the record line. *)
  let donor_lock = Mutex.create () in
  let donors : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let pending : Persist.Journal.shared option ref = ref None in
  let shared_lookup =
    Option.map
      (fun h asg ->
        let signature = Transform.Assignment.signature asg in
        match h.memo_find ~signature with
        | None -> None
        | Some (m, donor) ->
          Mutex.lock donor_lock;
          Hashtbl.replace donors signature donor;
          Mutex.unlock donor_lock;
          Some (apply_faults faults ~signature m))
      memo
  in
  let on_shared =
    Option.map
      (fun (_ : memo_hooks) (r : Variant.record) ->
        let signature = Transform.Assignment.signature r.Variant.asg in
        let donor =
          Mutex.lock donor_lock;
          let d = Hashtbl.find_opt donors signature in
          Mutex.unlock donor_lock;
          Option.value ~default:"" d
        in
        pending :=
          Some
            { Persist.Journal.sh_index = r.Variant.index; sh_signature = signature;
              sh_donor = donor })
      memo
  in
  let shared_pending () =
    let sh = !pending in
    pending := None;
    sh
  in
  let sink = Option.map (fun jc -> journal_sink ?checkpoint ~shared_pending p jc) jctx in
  let trace =
    Trace.create ?max_variants:(max_variants_of p) ?shared_lookup ?on_shared ?sink ()
  in
  Trace.preload trace preloaded;
  let eval =
    match memo with
    | None -> faulted_evaluate p faults
    | Some h ->
      (* publish the pre-fault measurement of every fresh evaluation;
         preloaded (journal-replayed) records are not republished — their
         stored values are post-fault *)
      fun asg ->
        let signature = Transform.Assignment.signature asg in
        let m = evaluate p asg in
        h.memo_publish ~signature m;
        apply_faults faults ~signature m
  in
  (* schedule effectively-identical candidates on one slot so the
     batch-reuse table is hit instead of raced *)
  let affinity =
    Option.map
      (fun _ asg ->
        match share_key p asg with
        | Some (_, key) -> key
        | None -> Transform.Assignment.signature asg)
      p.share
  in
  (* simulated node-seconds of one evaluation, for the shard scheduler's
     cluster clock; statically filtered variants never leave the login
     node *)
  let sched_cluster = Cluster.for_model p.model in
  let cost (m : Variant.measurement) =
    if off_cluster m then 0.0
    else
      Cluster.variant_seconds sched_cluster ~baseline_cost:p.baseline_cost
        ~variant_cost:m.Variant.model_time
  in
  let sched = ref None in
  let note_sched sh =
    let s = Shard.stats sh in
    sched :=
      Some
        {
          sched_shards = Shard.shards sh;
          sched_workers = Shard.workers sh;
          sched_slots = Shard.slots sh;
          sched_sim_hours = s.Shard.sim_seconds /. 3600.0;
          sched_steals = s.Shard.stolen;
          sched_rounds = s.Shard.rounds;
          sched_batched = s.Shard.batched;
          sched_serial = s.Shard.serial_tasks;
        }
  in
  (* [shards] runs the search on a work-stealing grid whose stats are
     harvested even when a preemption aborts the search *)
  (* between-batch yield: a second look for the checkpoint hook, so a
     multiplexing caller can pause even a stretch served entirely from
     the memo cache (which commits no fresh records and hence never
     fires the journal sink) *)
  let yield =
    match (jctx, checkpoint) with
    | Some jc, Some cp -> Some (fun () -> cp (progress_of jc))
    | _ -> None
  in
  let with_sched f =
    match shards with
    | None -> with_one_shard ?shard workers f
    | Some s ->
      let w = max 0 (match workers with Some w -> w | None -> default_workers ()) in
      Shard.with_shards ?yield ~shards:(max 1 s) ~workers:w (fun sh ->
          Fun.protect ~finally:(fun () -> note_sched sh) (fun () -> f (Some sh)))
  in
  let dd_config = { Delta_debug.error_threshold = p.threshold; perf_floor = p.perf_floor } in
  (* rank demotes predicted-fail ddmin candidates with the
     Sensitivity.Rank evidence engine. Evidence is fed from committed
     records in consumption order — identical at every worker/shard/slice
     count and under resume — so the steered trajectory is deterministic
     (DESIGN.md §13) *)
  let ranker =
    match p.scorer with
    | Some sc ->
      let safe =
        List.filter
          (fun a ->
            match Sensitivity.Score.atom_bound sc a with
            | Some b -> Float.is_finite b && b <= p.threshold
            | None -> false)
          p.atoms
      in
      let rk =
        Sensitivity.Rank.create ~st:p.st ~atoms:p.atoms ~safe ~perf_floor:p.perf_floor
      in
      Some
        {
          Delta_debug.note =
            (fun asg (m : Variant.measurement) ->
              (* error side to blame unless the run finished within the
                 threshold (a timeout says nothing about the error);
                 perf side to blame on a timeout or a sub-floor speedup *)
              let err_ok =
                (m.Variant.status = Variant.Pass && m.Variant.rel_error <= p.threshold)
                || m.Variant.status = Variant.Timeout
              in
              let perf_ok =
                m.Variant.status <> Variant.Timeout && m.Variant.speedup >= p.perf_floor
              in
              Sensitivity.Rank.observe rk asg
                { Sensitivity.Rank.err_ok; perf_ok; speedup = m.Variant.speedup });
          round = (fun () -> Sensitivity.Rank.round rk);
          demote = (fun asg -> Sensitivity.Rank.demote rk asg);
        }
    | None -> None
  in
  let interrupted = ref false in
  let minimal =
    try
      (* a journaled prefix may already exhaust a caller's quota: give the
         checkpoint one look before any fresh work is scheduled *)
      (match (jctx, checkpoint) with
      | Some jc, Some cp -> cp (progress_of jc)
      | _ -> ());
      match algo with
      | Brute_force_algo ->
        (* a budget truncates the enumeration rather than aborting the
           campaign, mirroring the delta-debug searches *)
        (try ignore (Brute_force.search ~atoms:p.atoms ~trace ~evaluate:eval ())
         with Trace.Budget_exhausted -> ());
        None
      | Delta_debug_algo ->
        Some
          (with_sched (fun shard ->
               Delta_debug.search ?shard ~cost ?affinity ?ranker ~atoms:p.atoms ~trace
                 ~evaluate:eval dd_config))
      | Hierarchical_algo ->
        Some
          (with_sched (fun shard ->
               Hierarchical.search ?shard ~cost ?affinity ?ranker ~atoms:p.atoms
                 ~groups:(flow_groups p) ~trace ~evaluate:eval dd_config))
    with Cluster.Faults.Preempted _ | Paused ->
      interrupted := true;
      None
  in
  Option.iter
    (fun jc ->
      Persist.Snapshot.write ~dir:jc.jdir (snapshot_of_ctx jc ~finished:(not !interrupted));
      Persist.Journal.close jc.jw)
    jctx;
  finish_campaign
    ~preloaded:(List.length preloaded)
    ~interrupted:!interrupted
    ?fault_stats:(Option.map Cluster.Faults.stats fstate)
    ?sched:!sched p trace minimal

let journal_header p ~algo ~workers =
  {
    Persist.Journal.version = 1;
    model = p.model.Models.Registry.name;
    algo = algo_name algo;
    seed = p.config.Config.seed;
    config_digest = Config.digest p.config;
    workers = (match workers with Some w -> w | None -> default_workers ());
    atoms = List.length p.atoms;
    (* every journal this writer produces may carry provenance lines, so
       solo and service headers stay byte-identical *)
    caps = [ "shared" ];
  }

let start_journal p ~algo ~workers dir =
  (dir, Persist.Journal.create ~dir (journal_header p ~algo ~workers))

let run_algo ~algo ?config ?workers ?shards ?journal ?faults ?checkpoint ?memo model =
  let p = prepare ?config model in
  let journal = Option.map (start_journal p ~algo ~workers) journal in
  execute p ~algo ?workers ?shards ?journal ?faults ?checkpoint ?memo ~preloaded:[] ()

let run_delta_debug ?config ?workers ?shards ?journal ?faults ?checkpoint ?memo model =
  run_algo ~algo:Delta_debug_algo ?config ?workers ?shards ?journal ?faults ?checkpoint
    ?memo model

let run_brute_force ?config ?journal ?faults ?checkpoint ?memo model =
  run_algo ~algo:Brute_force_algo ~workers:0 ?config ?journal ?faults ?checkpoint ?memo model

let run_hierarchical ?config ?workers ?shards ?journal ?faults ?checkpoint ?memo model =
  run_algo ~algo:Hierarchical_algo ?config ?workers ?shards ?journal ?faults ?checkpoint
    ?memo model

let run_random ?config ~samples model =
  let p = prepare ?config model in
  let trace = Trace.create ?max_variants:(max_variants_of p) () in
  let _records =
    Random_walk.search ~atoms:p.atoms ~trace ~evaluate:(evaluate p) ~samples
      ~seed:p.config.Config.seed ()
  in
  finish_campaign p trace None

(* ------------------------------------------------------------------ *)
(* Resume: replay the journal into the trace's memo cache, then re-run
   the (deterministic) search. The journaled prefix is served from the
   cache — zero fresh evaluations — and the search continues beyond it
   exactly as the uninterrupted campaign would have. *)

exception Resume_mismatch of string

let resume_fail fmt = Printf.ksprintf (fun s -> raise (Resume_mismatch s)) fmt

let record_of_entry atoms (e : Persist.Journal.entry) : Variant.record =
  {
    Variant.index = e.Persist.Journal.e_index;
    asg = Transform.Assignment.of_signature atoms e.Persist.Journal.e_signature;
    meas = e.Persist.Journal.e_meas;
  }

(* The journal must describe the campaign [p] and [algo] would run: the
   same model, result-affecting configuration, search space and search. *)
let check_header p ~algo (h : Persist.Journal.header) =
  if p.model.Models.Registry.name <> h.Persist.Journal.model then
    resume_fail "resume: journal is for model %S, not %S" h.Persist.Journal.model
      p.model.Models.Registry.name;
  if Config.digest p.config <> h.Persist.Journal.config_digest then
    resume_fail
      "resume: configuration digest mismatch (journal %s, offered %s) — the journaled \
       campaign ran under different tuning settings"
      h.Persist.Journal.config_digest (Config.digest p.config);
  if List.length p.atoms <> h.Persist.Journal.atoms then
    resume_fail "resume: model has %d FP atoms but the journal recorded %d"
      (List.length p.atoms) h.Persist.Journal.atoms;
  if algo_name algo <> h.Persist.Journal.algo then
    resume_fail "resume: journal runs %s, not %s" h.Persist.Journal.algo (algo_name algo)

(* Start the journaled campaign in [dir], or continue it when a journal is
   already there. The header is checked before the journal is touched. *)
let journaled ?workers ?shards ?shard ?faults ?checkpoint ?memo ~algo ~dir p =
  if Sys.file_exists (Persist.Journal.file ~dir) then begin
    let loaded, jw = Persist.Journal.reopen ~check:(check_header p ~algo) ~dir () in
    let preloaded = List.map (record_of_entry p.atoms) loaded.Persist.Journal.l_entries in
    execute p ~algo ?workers ?shards ?shard ~journal:(dir, jw) ?faults ?checkpoint ?memo
      ~preloaded ()
  end
  else
    execute p ~algo ?workers ?shards ?shard
      ~journal:(start_journal p ~algo ~workers dir)
      ?faults ?checkpoint ?memo ~preloaded:[] ()

(* The per-campaign state [prepare] allocated, afresh: caches, batch-reuse
   table and eval timing. Everything else in [p] is read-only. *)
let fresh_state p =
  {
    p with
    cache = Runtime.Lower.Cache.create ();
    ccache = Runtime.Compile.Cache.create ();
    share =
      Option.map (fun sh -> { sh with sh_lock = Mutex.create (); sh_tbl = Hashtbl.create 256 })
        p.share;
    eval_stats = eval_stats_create ();
  }

let run_prepared ?workers ?shard ?faults ?checkpoint ?memo ~algo ~journal p =
  (* brute force runs sequentially; its journals record 0 workers *)
  let workers = match algo with Brute_force_algo -> Some 0 | _ -> workers in
  journaled ?workers ?shard ?faults ?checkpoint ?memo ~algo ~dir:journal (fresh_state p)

let resume ?(config = Config.default) ?workers ?shards ?faults ?checkpoint ?memo ?model
    ~journal:dir () =
  let h = (Persist.Journal.load ~dir).Persist.Journal.l_header in
  let model =
    match model with
    | Some m -> m
    | None -> (
      match Models.Registry.find h.Persist.Journal.model with
      | m -> m
      | exception _ ->
        resume_fail "resume: journal is for unknown model %S" h.Persist.Journal.model)
  in
  let algo =
    match algo_of_name h.Persist.Journal.algo with
    | Some a -> a
    | None -> resume_fail "resume: journal has unknown algorithm %S" h.Persist.Journal.algo
  in
  (* the journal's seed is authoritative: the campaign being continued was
     run with it, and a different seed would change every measurement *)
  let config = { config with Config.seed = h.Persist.Journal.seed } in
  journaled ?workers ?shards ?faults ?checkpoint ?memo ~algo ~dir (prepare ~config model)
