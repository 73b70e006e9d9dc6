open Search

type raw = {
  r_outcome : Runtime.Interp.outcome option;  (* None = transformation failed *)
  r_detail : string;
  r_hotspot : float;
  r_model_time : float;
  r_rel_error : float;  (* infinity unless the run finished *)
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
  reuse_mask : int list;  (* signature positions the batch-reuse key blanks *)
}

(* One campaign's evaluation state: the lowering and compile caches, the
   batch-reuse table and the evaluation timer. [run] makes one per
   campaign; [prepared] holds none of it, so any number of campaigns may
   run over one prepared space.

   The batch-reuse table shares raw outcomes between variants of the
   space whose masked signatures agree. Only atoms change kind between
   such variants, so two of them transform into programs whose reachable
   code is declaration-for-declaration identical exactly when they agree
   on every atom the mask leaves in, and the raw outcome — a pure
   function of that code under the fixed machine, budget and wrapper
   redirection — is bit-identical whoever computes it first. First write
   wins under the lock, so records do not depend on the worker count. *)
type state = {
  lcache : Runtime.Lower.Cache.t;
  ccache : Runtime.Compile.Cache.t;
  lock : Mutex.t;  (* guards the table and the timer *)
  table : (string, raw) Hashtbl.t;
  mutable evals : int;
  mutable eval_s : float;  (* total evaluation wall clock *)
  mutable eval_max_s : float;
}

let state_create () =
  {
    lcache = Runtime.Lower.Cache.create ();
    ccache = Runtime.Compile.Cache.create ();
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    evals = 0;
    eval_s = 0.0;
    eval_max_s = 0.0;
  }

(* The table's key for [asg]: its signature with every masked atom's
   position blanked. [None] off the prepared search space (say, prepare's
   whole-program uniform-32 run): such variants are evaluated directly. *)
let share_key p asg =
  if Transform.Assignment.atoms asg != p.atoms then None
  else begin
    let key = Bytes.of_string (Transform.Assignment.signature asg) in
    List.iter (fun i -> Bytes.set key i '-') p.reuse_mask;
    Some (Bytes.unsafe_to_string key)
  end

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
   reference [verify] holds finished campaigns to. *)
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
let direct_raw s p asg : raw =
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
      Runtime.Lower.lower ~cache:s.lcache ~machine:p.config.Config.machine
        ~wrapper_owner:(Transform.Wrappers.owner_fn w) st'
    in
    score_outcome p
      (Runtime.Compile.run ~budget:p.budget (Runtime.Compile.compile ~cache:s.ccache ir))

(* Serve the raw outcome from the batch-reuse table when an
   effectively-identical variant already ran; otherwise run and publish,
   first write wins (a racing worker adopts the published outcome, so the
   table's contents never depend on scheduling). Every call is timed. *)
let shared_raw s p asg : raw =
  let t0 = Unix.gettimeofday () in
  let raw =
    match share_key p asg with
    | None -> direct_raw s p asg
    | Some key -> (
      match Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.table key) with
      | Some raw -> raw
      | None ->
        let raw = direct_raw s p asg in
        Mutex.protect s.lock (fun () ->
            match Hashtbl.find_opt s.table key with
            | Some winner -> winner
            | None ->
              Hashtbl.replace s.table key raw;
              raw))
  in
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.protect s.lock (fun () ->
      s.evals <- s.evals + 1;
      s.eval_s <- s.eval_s +. dt;
      if dt > s.eval_max_s then s.eval_max_s <- dt);
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
  (* the baseline and threshold runs share caches of their own, which
     die with this call: a campaign's state is [run]'s *)
  let s = state_create () in
  let out =
    Runtime.Compile.run
      (Runtime.Compile.compile ~cache:s.ccache
         (Runtime.Lower.lower ~cache:s.lcache ~machine:config.Config.machine st))
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
  (* the batch-reuse mask is fixed by the baseline program: the atoms
     whose kind cannot change the outcome or the charged cost
     (Assignment.inert) *)
  let inert = Transform.Assignment.inert st atoms in
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
      reuse_mask = List.filter (fun i -> inert.(i)) (List.init (Array.length inert) Fun.id);
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
      let raw = direct_raw s partial asg32 in
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

let evaluate_in s p asg : Variant.measurement =
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
  else measurement_of_raw p asg (shared_raw s p asg)

let evaluate p asg = evaluate_in (state_create ()) p asg

let uniform32_measurement p =
  let asg = Transform.Assignment.uniform p.atoms Fortran.Ast.K4 in
  measurement_of_raw p asg (direct_raw (state_create ()) p asg)

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
  sched : sched_stats option;
  preloaded : int;
  interrupted : bool;
  fault_stats : Cluster.Faults.stats option;
}

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
   speculation later discarded, which is why they are not reported.
   Built on demand: the replay re-derives every record's cache keys, and
   most finished campaigns (every service slice but a job's last) never
   read it. *)
let backend_stats (c : campaign) =
  let p = c.prepared in
  let classes = Hashtbl.create 256 in
  let keys_seen = Hashtbl.create 512 in
  let rh = ref 0 and rm = ref 0 and compiled = ref 0 and chits = ref 0 in
  List.iter
    (fun (r : Variant.record) ->
      if not (Cluster.off_cluster r.Variant.meas) then
        match share_key p r.Variant.asg with
        | Some cls when Hashtbl.mem classes cls -> incr rh
        | key ->
          Option.iter (fun cls -> Hashtbl.add classes cls ()) key;
          incr rm;
          List.iter
            (fun k ->
              if Hashtbl.mem keys_seen k then incr chits
              else begin
                Hashtbl.add keys_seen k ();
                incr compiled
              end)
            (variant_cache_keys p r.Variant.asg))
    c.records;
  {
    compiled_procs = !compiled;
    compile_hits = !chits;
    reuse_hits = !rh;
    reuse_misses = !rm;
  }

(* The campaign's books are the cluster's charges folded over its
   committed records, journaled prefix first; a fault-injected
   campaign's loss accounting is theirs plus the preemption that cut
   this run, if one did. *)
let finish_campaign ?(preloaded = 0) ?(interrupted = false) ?faults ?(preempted = false) ?sched
    s p trace minimal =
  let records = Trace.records trace in
  let cluster = Cluster.for_model p.model in
  let books = Cluster.books cluster ~baseline_cost:p.baseline_cost ?faults records in
  let count, total, max_s = Mutex.protect s.lock (fun () -> (s.evals, s.eval_s, s.eval_max_s)) in
  {
    prepared = p;
    records;
    summary = Variant.summarize records;
    minimal;
    simulated_hours = Cluster.simulated_hours cluster books;
    eval_ms_mean = (if count = 0 then 0.0 else 1e3 *. total /. float_of_int count);
    eval_ms_max = 1e3 *. max_s;
    trace_stats = Trace.stats trace;
    sched;
    preloaded;
    interrupted;
    fault_stats =
      Option.map
        (fun _ ->
          { books.Cluster.b_faults with Cluster.Faults.preemptions = (if preempted then 1 else 0) })
        faults;
  }

let max_variants_of p =
  match p.config.Config.max_variants with
  | Some _ as v -> v
  | None -> p.model.Models.Registry.max_variants

let default_workers = Shard.default_workers

let sched_stats_of sh =
  let s = Shard.stats sh in
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

(* The scheduler a ddmin search runs on: [w] workers are [w] helper
   domains beside the submitting one, which evaluates too, and 0 is
   sequential. In order of precedence: [shards s] is an [s × w]
   work-stealing grid whose stats land in [sched], harvested even when a
   preemption aborts the search; with no worker there is no scheduler; a
   borrowed [shard] — the substrate a caller multiplexing several
   campaigns lends — is used and never shut down here; otherwise a
   one-shard scheduler of [w + 1] slots lives for exactly this search.
   Only the grid reports stats. *)
let with_sched ?shard ?shards ~workers ~sched f =
  let w = max 0 workers in
  match (shards, shard) with
  | Some s, _ ->
    Shard.with_shards ~shards:(max 1 s) ~workers:w (fun sh ->
        Fun.protect ~finally:(fun () -> sched := Some (sched_stats_of sh)) (fun () -> f (Some sh)))
  | None, _ when w = 0 -> f None
  | None, Some _ -> f shard
  | None, None -> Shard.with_shards ~shards:1 ~workers:(w + 1) (fun sh -> f (Some sh))

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
  mutable books : Cluster.books;  (* the committed records so far, journaled prefix first *)
}

type progress = { pg_records : int; pg_hours : float; pg_best : float }

exception Paused

(* Raised from the journal sink once the books reach a fault spec's
   preemption boundary: the batch scheduler kills the job after the
   current record is durable, exactly the crash resume is built for. *)
exception Preempted

let progress_of (b : Cluster.books) =
  {
    pg_records = b.Cluster.b_records;
    pg_hours = b.Cluster.b_hours;
    pg_best = b.Cluster.b_best_speedup;
  }

let snapshot_every = 32

let snapshot_of (b : Cluster.books) ~preempted ~finished =
  {
    Persist.Snapshot.s_records = b.Cluster.b_records;
    s_hours = b.Cluster.b_hours;
    s_best_speedup = b.Cluster.b_best_speedup;
    s_lost_seconds = b.Cluster.b_faults.Cluster.Faults.lost_node_seconds;
    s_preemptions = (if preempted then 1 else 0);
    s_finished = finished;
  }

(* The trace's append sink: journal the record (write-ahead, fsynced),
   post it to the books, checkpoint periodically, and only then let a
   caller's checkpoint hook or a configured preemption kill the "job" —
   the record is already durable either way, so interrupting here is
   always resumable with zero re-evaluation. *)
let journal_sink ?checkpoint ?faults ~post p jc ~donor (r : Variant.record) =
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
  (* provenance of a memo-served record, written right after the record
     line so a crash between the two loses only the annotation *)
  Option.iter
    (fun donor ->
      Persist.Journal.append_shared jc.jw
        {
          Persist.Journal.sh_index = r.Variant.index;
          sh_signature = Transform.Assignment.signature r.Variant.asg;
          sh_donor = donor;
        })
    donor;
  jc.books <- post jc.books r;
  if jc.books.Cluster.b_records mod snapshot_every = 0 then
    Persist.Snapshot.write ~dir:jc.jdir (snapshot_of jc.books ~preempted:false ~finished:false);
  Option.iter (fun cp -> cp (progress_of jc.books)) checkpoint;
  match faults with
  | Some { Cluster.Faults.preempt_at_hours = Some boundary; _ }
    when jc.books.Cluster.b_hours >= boundary ->
    raise Preempted
  | Some _ | None -> ()

(* Variant evaluation with injected faults applied: what the search (and
   hence the trace and journal) observes. Static-filter rejections never
   reach the cluster, so no fault can touch them. *)
let apply_faults faults ~signature m =
  match faults with
  | None -> m
  | Some fspec -> if Cluster.off_cluster m then m else Cluster.Faults.perturb fspec ~signature m

(* Fleet-wide evaluation memo hooks (the service's cross-campaign memo
   plugs in here; solo campaigns pass none). The memo stores {e pre-fault}
   measurements — a pure function of (model source, config digest,
   signature), identical whichever campaign in the space computes it —
   and each consuming campaign applies its own fault perturbation (a pure
   function of its fault spec and the signature), so a memo-served record
   is bit-identical to the one the campaign would have evaluated itself.
   [memo_find] returns the measurement plus the donor campaign's id,
   which travels with the commit to the journal's provenance line. *)
type memo_hooks = {
  memo_find : signature:string -> (Variant.measurement * string) option;
  memo_publish : signature:string -> Variant.measurement -> unit;
}

exception Resume_mismatch of string

let resume_fail fmt = Printf.ksprintf (fun s -> raise (Resume_mismatch s)) fmt

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

let journal_header p ~algo ~workers =
  {
    Persist.Journal.version = 1;
    model = p.model.Models.Registry.name;
    algo = algo_name algo;
    seed = p.config.Config.seed;
    config_digest = Config.digest p.config;
    workers;
    atoms = List.length p.atoms;
    (* every journal this writer produces may carry provenance lines, so
       solo and service headers stay byte-identical *)
    caps = [ "shared" ];
  }

(* The one campaign body. A journal is started, or continued when
   [journal] already holds one: the header is checked before the journal
   is touched, and the journaled prefix is replayed into the trace's memo
   cache — zero fresh evaluations — while the (deterministic) search
   continues beyond it exactly as the uninterrupted campaign would have. *)
let run ?shard ?workers ?shards ?journal ?faults ?checkpoint ?memo ~algo p =
  if journal = None && (Option.is_some faults || Option.is_some checkpoint) then
    invalid_arg "Tuner.run: ?faults and ?checkpoint need a ?journal";
  (* brute force runs sequentially; its journals record 0 workers *)
  let workers =
    match (algo, workers) with
    | Brute_force_algo, _ -> 0
    | _, Some w -> w
    | _, None -> default_workers ()
  in
  let cluster = Cluster.for_model p.model in
  let post = Cluster.post cluster ~baseline_cost:p.baseline_cost ?faults in
  let jctx, preloaded =
    match journal with
    | None -> (None, [])
    | Some jdir ->
      let jw, preloaded =
        if Sys.file_exists (Persist.Journal.file ~dir:jdir) then
          let loaded, jw = Persist.Journal.reopen ~check:(check_header p ~algo) ~dir:jdir () in
          (jw, List.map (Persist.Journal.record_of_entry p.atoms) loaded.Persist.Journal.l_entries)
        else (Persist.Journal.create ~dir:jdir (journal_header p ~algo ~workers), [])
      in
      (* the books open with the journaled prefix: its hours count
         towards the preemption clock and its losses towards the stats *)
      (Some { jw; jdir; books = List.fold_left post Cluster.empty preloaded }, preloaded)
  in
  (* fleet memo: the lookup runs outside the trace lock and applies this
     campaign's own fault perturbation to the pre-fault measurement, so
     the trace commits exactly what a live evaluation would have; the
     donor id rides along to the journal sink *)
  let shared_lookup =
    Option.map
      (fun h asg ->
        let signature = Transform.Assignment.signature asg in
        Option.map
          (fun (m, donor) -> (apply_faults faults ~signature m, donor))
          (h.memo_find ~signature))
      memo
  in
  let sink = Option.map (fun jc -> journal_sink ?checkpoint ?faults ~post p jc) jctx in
  let trace = Trace.create ?max_variants:(max_variants_of p) ?shared_lookup ?sink () in
  Trace.preload trace preloaded;
  (* the campaign's own caches, batch-reuse table and timer *)
  let s = state_create () in
  (* the memo gets the pre-fault measurement of every live evaluation;
     preloaded (journal-replayed) records are not republished — their
     stored values are post-fault *)
  let eval asg =
    let signature = Transform.Assignment.signature asg in
    let m = evaluate_in s p asg in
    Option.iter (fun h -> h.memo_publish ~signature m) memo;
    apply_faults faults ~signature m
  in
  let sched = ref None in
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
  let interrupted = ref false and preempted = ref false in
  let minimal =
    (* the writer is closed on every way out: an error that ends the
       campaign must not leave its file open in a long-lived server *)
    Fun.protect ~finally:(fun () -> Option.iter (fun jc -> Persist.Journal.close jc.jw) jctx)
    @@ fun () ->
    let minimal =
      try
        (* a journaled prefix may already exhaust a caller's quota: give
           the checkpoint one look before any fresh work is scheduled *)
        (match (jctx, checkpoint) with
        | Some jc, Some cp -> cp (progress_of jc.books)
        | _ -> ());
        match algo with
        | Brute_force_algo ->
          (* a budget truncates the enumeration rather than aborting the
             campaign, mirroring the delta-debug searches *)
          (try ignore (Brute_force.search ~atoms:p.atoms ~trace ~evaluate:eval ())
           with Trace.Budget_exhausted -> ());
          None
        | Delta_debug_algo | Hierarchical_algo ->
          let groups = if algo = Hierarchical_algo then Some (flow_groups p) else None in
          Some
            (with_sched ?shard ?shards ~workers ~sched (fun shard ->
                 Delta_debug.search ?shard
                   ~cost:(Cluster.price cluster ~baseline_cost:p.baseline_cost)
                   ?ranker ?groups ~atoms:p.atoms ~trace
                   ~evaluate:eval dd_config))
      with
      | Paused ->
        interrupted := true;
        None
      | Preempted ->
        interrupted := true;
        preempted := true;
        None
    in
    Option.iter
      (fun jc ->
        Persist.Snapshot.write ~dir:jc.jdir
          (snapshot_of jc.books ~preempted:!preempted ~finished:(not !interrupted)))
      jctx;
    minimal
  in
  finish_campaign
    ~preloaded:(List.length preloaded)
    ~interrupted:!interrupted ?faults ~preempted:!preempted ?sched:!sched s p trace minimal

(* ------------------------------------------------------------------ *)
(* The finished campaign against the historical pipeline.              *)

let describe_measurement (m : Variant.measurement) =
  Printf.sprintf "%s (%s) speedup %.17g err %.17g cost %.17g hotspot %.17g"
    (Variant.status_to_string m.Variant.status) m.Variant.detail m.Variant.speedup
    m.Variant.rel_error m.Variant.model_time m.Variant.hotspot_time

(* Both outcomes' first difference ([Runtime.Interp.diff]); a variant
   that did not transform on one side differs by its detail. *)
let diff_raw (reference : raw) (ours : raw) =
  match (reference.r_outcome, ours.r_outcome) with
  | Some a, Some b -> Runtime.Interp.diff a b
  | _ ->
    if compare reference ours = 0 then None
    else Some (Printf.sprintf "%s vs %s" reference.r_detail ours.r_detail)

(* Every record a dynamic run produced must be the reference's
   measurement, and a compiled run on verify's own caches — never the
   batch-reuse table — must reproduce the reference's whole outcome.
   Static-filter rejections and records lost to injected faults ran
   nothing to compare. *)
let verify (c : campaign) =
  let p = c.prepared in
  let s = state_create () in
  let mismatch (r : Variant.record) what detail =
    Error
      (Printf.sprintf
         "verify-roundtrip: %s record %d (signature %s): %s differs from the unparse->reparse \
          reference\n  %s"
         p.model.Models.Registry.name r.Variant.index
         (Transform.Assignment.signature r.Variant.asg)
         what detail)
  in
  let rec go checked = function
    | [] -> Ok checked
    | (r : Variant.record) :: rest -> (
      let m = r.Variant.meas in
      if Cluster.off_cluster m || String.starts_with ~prefix:"fault: " m.Variant.detail then
        go checked rest
      else
        let reference = roundtrip_raw p r.Variant.asg in
        let expected = measurement_of_raw p r.Variant.asg reference in
        if compare m expected <> 0 then
          mismatch r "the committed measurement"
            (Printf.sprintf "committed: %s\n  reference: %s" (describe_measurement m)
               (describe_measurement expected))
        else
          match diff_raw reference (direct_raw s p r.Variant.asg) with
          | Some d -> mismatch r "a fresh compiled evaluation" ("reference vs compiled: " ^ d)
          | None -> go (checked + 1) rest)
  in
  go 0 c.records

(* ------------------------------------------------------------------ *)
(* The runners: thin constructors over [run].                          *)

let run_delta_debug ?config ?workers ?shards ?journal ?faults ?checkpoint ?memo model =
  run ?workers ?shards ?journal ?faults ?checkpoint ?memo ~algo:Delta_debug_algo
    (prepare ?config model)

let run_hierarchical ?config ?workers ?journal model =
  run ?workers ?journal ~algo:Hierarchical_algo (prepare ?config model)

let run_brute_force ?config ?journal ?faults model =
  run ?journal ?faults ~algo:Brute_force_algo (prepare ?config model)

let resume ?(config = Config.default) ?algo ?seed ?workers ?shards ?faults ?model ~journal () =
  let h = Persist.Journal.read_header ~dir:journal in
  let model =
    match model with
    | Some m -> m
    | None -> (
      match Models.Registry.find h.Persist.Journal.model with
      | m -> m
      | exception _ ->
        resume_fail "resume: journal is for unknown model %S" h.Persist.Journal.model)
  in
  let journal_algo =
    match algo_of_name h.Persist.Journal.algo with
    | Some a -> a
    | None -> resume_fail "resume: journal has unknown algorithm %S" h.Persist.Journal.algo
  in
  (* the journal's search and seed are authoritative: the campaign being
     continued was run with them, and another seed would change every
     measurement.  A caller that names either asks for that campaign, and
     continuing a different one would answer another question. *)
  Option.iter
    (fun a ->
      if a <> journal_algo then
        resume_fail "resume: journal runs %s, not %s" h.Persist.Journal.algo (algo_name a))
    algo;
  Option.iter
    (fun s ->
      if s <> h.Persist.Journal.seed then
        resume_fail "resume: journal was run with seed %d, not %d" h.Persist.Journal.seed s)
    seed;
  let config = { config with Config.seed = h.Persist.Journal.seed } in
  run ?workers ?shards ~journal ?faults ~algo:journal_algo (prepare ~config model)

let run_random ?config ~samples model =
  let p = prepare ?config model in
  let s = state_create () in
  let trace = Trace.create ?max_variants:(max_variants_of p) () in
  let _records =
    Random_walk.search ~atoms:p.atoms ~trace ~evaluate:(evaluate_in s p) ~samples
      ~seed:p.config.Config.seed ()
  in
  finish_campaign s p trace None
