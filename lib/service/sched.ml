(* The multiplexing scheduler: fair round-robin time slices over the
   runnable jobs, one slice at a time on the server's single thread.

   A slice IS a journaled run/resume segment: the job's campaign is
   started (or resumed) with a Tuner checkpoint hook that raises
   Tuner.Paused once the slice's fresh-record budget is spent, the job's
   quota is reached, or a drain was requested. Because every slice
   boundary sits on a durable record and PR 4's resume invariant makes a
   resumed campaign bit-identical to an uninterrupted one, interleaving N
   jobs this way can only change *when* their work happens — each job's
   journal, minimal set and summary are byte-identical to the same
   campaign run solo through `prose tune`. Determinism is inherited, not
   re-proven: the scheduler never touches what gets recorded.

   The one-time preprocessing (Tuner.prepare: parse, baseline profiling,
   threshold) is paid once per evaluation space, not once per slice: the
   scheduler keeps one prepared value per space while some runnable job
   maps to it, and every slice is a Tuner.run over it, which makes the
   slice's own caches. *)

type event = {
  ev_job : string;
  ev_state : Job.state;
  ev_records : int;
  ev_hours : float;
  ev_best : float;
  ev_shared : int;
  ev_detail : string;
}

type slice_result =
  | Idle
  | Sliced of {
      si_job : string;
      si_state : Job.state;
      si_fresh : int;
      si_new_records : int;
      si_shared : int;
      si_prepared : bool;
    }

(* Pure weighted-deficit round-robin cursor arithmetic, shared by the
   live scheduler and the fairness property tests. A job of weight w is
   served up to w consecutive slices per turn (its remaining credit rides
   in the cursor), then the cursor advances to the next runnable id in
   sorted wrap-around order. Weight 1 everywhere degenerates to the plain
   round robin. *)
module Fair = struct
  type cursor = { c_id : string option; c_credit : int }

  let start = { c_id = None; c_credit = 0 }

  let next ~weight ~cursor ids =
    match ids with
    | [] -> None
    | first :: _ -> (
      match cursor.c_id with
      | Some c when cursor.c_credit > 0 && List.mem c ids ->
        Some (c, { cursor with c_credit = cursor.c_credit - 1 })
      | _ ->
        let id =
          match cursor.c_id with
          | None -> first
          | Some c -> (
            match List.find_opt (fun id -> id > c) ids with
            | Some id -> id
            | None -> first)
        in
        Some (id, { c_id = Some id; c_credit = max 1 (weight id) - 1 }))

  let next_after ~cursor ids =
    Option.map fst (next ~weight:(fun _ -> 1) ~cursor:{ c_id = cursor; c_credit = 0 } ids)

  let simulate_weighted ~slices =
    let remaining = Hashtbl.create 16 in
    let weights = Hashtbl.create 16 in
    List.iter
      (fun (id, n, w) ->
        if n > 0 then Hashtbl.replace remaining id n;
        Hashtbl.replace weights id (max 1 w))
      slices;
    let weight id = match Hashtbl.find_opt weights id with Some w -> w | None -> 1 in
    let runnable () =
      List.filter_map (fun (id, _, _) -> if Hashtbl.mem remaining id then Some id else None)
        slices
      |> List.sort_uniq compare
    in
    let order = ref [] in
    let cursor = ref start in
    let rec go () =
      match next ~weight ~cursor:!cursor (runnable ()) with
      | None -> ()
      | Some (id, cursor') ->
        cursor := cursor';
        order := id :: !order;
        let n = Hashtbl.find remaining id in
        if n <= 1 then Hashtbl.remove remaining id else Hashtbl.replace remaining id (n - 1);
        go ()
    in
    go ();
    List.rev !order

  let simulate ~slices = simulate_weighted ~slices:(List.map (fun (id, n) -> (id, n, 1)) slices)
end

type t = {
  store : Store.t;
  slice_records : int;
  shard : Search.Shard.t option;
  memo : Memo.t option;  (* fleet-wide evaluation memo; None = dedup off *)
  find_model : string -> Models.Registry.t;
  on_event : event -> unit;
  prepared : (string, Core.Tuner.prepared) Hashtbl.t;
      (* keyed by Memo.space_key (model name and source, Config.digest),
         which fixes everything Tuner.prepare reads. At most one per
         space, kept while some runnable job maps to it *)
  mutable cursor : Fair.cursor;
  mutable draining : bool;
}

let create ?(slice_records = 8) ?shard ?memo ?(find_model = Models.Registry.find)
    ?(on_event = fun (_ : event) -> ()) store =
  if slice_records < 1 then invalid_arg "Sched.create: slice_records < 1";
  { store; slice_records; shard; memo; find_model; on_event; prepared = Hashtbl.create 4;
    cursor = Fair.start; draining = false }

let store t = t.store
let find_model t = t.find_model
let drain t = t.draining <- true
let draining t = t.draining

let emit t ~job ~state ~records ~hours ~best ~shared ~detail =
  t.on_event
    { ev_job = job; ev_state = state; ev_records = records; ev_hours = hours; ev_best = best;
      ev_shared = shared; ev_detail = detail }

let event_of_job (j : Job.t) ~detail =
  {
    ev_job = j.Job.id;
    ev_state = j.Job.state;
    ev_records = j.Job.records;
    ev_hours = j.Job.hours;
    ev_best = j.Job.best_speedup;
    ev_shared = j.Job.shared;
    ev_detail = detail;
  }

let minimal_text (c : Core.Tuner.campaign) (r : Search.Delta_debug.result) =
  Printf.sprintf "signature %s\nhigh %s\n%s"
    (Transform.Assignment.signature r.Search.Delta_debug.minimal)
    (String.concat " " (List.map Transform.Assignment.atom_id r.Search.Delta_debug.high_set))
    (Transform.Diff.declarations c.Core.Tuner.prepared.Core.Tuner.st r.Search.Delta_debug.minimal)

let run_slice t (job0 : Job.t) =
  let id = job0.Job.id in
  let spec = job0.Job.spec in
  let dir = Store.campaign_dir t.store id in
  let job = { job0 with Job.state = Job.Running } in
  Store.update t.store job;
  let quota_hit = ref false and drained = ref false in
  let start = ref None in
  let last =
    ref
      {
        Core.Tuner.pg_records = job.Job.records;
        pg_hours = job.Job.hours;
        pg_best = job.Job.best_speedup;
      }
  in
  (* Fires on every fresh durable record (and between batches). Order of
     the stop conditions matters: quota is checked before drain and slice
     exhaustion so a quota crossing is terminal no matter when the server
     shuts down — the stopping record must be the one an injected
     preemption at the same boundary would stop at. *)
  let checkpoint (pg : Core.Tuner.progress) =
    if !start = None then start := Some pg.Core.Tuner.pg_records;
    last := pg;
    emit t ~job:id ~state:Job.Running ~records:pg.Core.Tuner.pg_records
      ~hours:pg.Core.Tuner.pg_hours ~best:pg.Core.Tuner.pg_best ~shared:job0.Job.shared
      ~detail:"";
    (match spec.Job.sp_quota_hours with
    | Some q when pg.Core.Tuner.pg_hours >= q ->
      quota_hit := true;
      raise Core.Tuner.Paused
    | Some _ | None -> ());
    if t.draining then begin
      drained := true;
      raise Core.Tuner.Paused
    end;
    match !start with
    | Some s when pg.Core.Tuner.pg_records - s >= t.slice_records -> raise Core.Tuner.Paused
    | Some _ | None -> ()
  in
  let prepared_now = ref false in
  let finish (job : Job.t) ~detail ~fresh ~new_records ~slice_shared =
    Store.update t.store job;
    t.on_event (event_of_job job ~detail);
    Sliced
      { si_job = id; si_state = job.Job.state; si_fresh = fresh; si_new_records = new_records;
        si_shared = slice_shared; si_prepared = !prepared_now }
  in
  (* a slice that cannot go on (a disk error among them) fails its job,
     not the server *)
  let fail msg =
    finish { job with Job.state = Job.Failed msg } ~detail:"error" ~fresh:0 ~new_records:0
      ~slice_shared:0
  in
  match
    let model =
      match t.find_model spec.Job.sp_model with
      | m -> m
      | exception Not_found -> failwith ("unknown model " ^ spec.Job.sp_model)
    in
    let config = Job.config_of_spec spec in
    let faults = spec.Job.sp_faults in
    let algo =
      match Core.Tuner.algo_of_name spec.Job.sp_algo with
      | Some a -> a
      | None -> failwith ("unknown algorithm " ^ spec.Job.sp_algo)
    in
    let space = Memo.space_key ~model ~config in
    let p =
      match Hashtbl.find_opt t.prepared space with
      | Some p -> p
      | None ->
        let p = Core.Tuner.prepare ~config model in
        Hashtbl.replace t.prepared space p;
        prepared_now := true;
        p
    in
    (* one memo space per (model source, config digest): only jobs whose
       measurements are interchangeable ever share *)
    let memo =
      Option.map (fun m -> Memo.hooks m ~space ~job:id) t.memo
    in
    Core.Tuner.run ~workers:spec.Job.sp_workers ?shard:t.shard ?faults ~checkpoint ?memo ~algo
      ~journal:dir p
  with
  | campaign ->
    let pg = !last in
    let fresh = campaign.Core.Tuner.trace_stats.Search.Trace.misses in
    let slice_shared = campaign.Core.Tuner.trace_stats.Search.Trace.shared in
    let new_records =
      List.length campaign.Core.Tuner.records - campaign.Core.Tuner.preloaded
    in
    let state, detail =
      if not campaign.Core.Tuner.interrupted then begin
        Core.Export.write_file ~path:(Store.summary_file t.store id)
          (Core.Export.summary_json campaign);
        Option.iter
          (fun r ->
            Core.Export.write_file ~path:(Store.minimal_file t.store id)
              (minimal_text campaign r))
          campaign.Core.Tuner.minimal;
        (Job.Done, "finished")
      end
      else if !quota_hit then (Job.Failed "quota-exhausted", "quota-exhausted")
      else if !drained then (Job.Paused, "drained")
      else (Job.Running, "slice")
    in
    finish
      {
        job with
        Job.state;
        records = pg.Core.Tuner.pg_records;
        hours = pg.Core.Tuner.pg_hours;
        best_speedup = pg.Core.Tuner.pg_best;
        shared = job0.Job.shared + slice_shared;
      }
      ~detail ~fresh ~new_records ~slice_shared
  | exception
      ( Core.Tuner.Resume_mismatch msg
      | Persist.Journal.Corrupt msg
      | Failure msg
      | Invalid_argument msg
      | Sys_error msg ) ->
    fail msg
  | exception Unix.Unix_error (e, fn, arg) -> fail (Persist.Durable.unix_error_message e fn arg)

(* Drop every prepared value no runnable job maps to any more: a space's
   prepared lives from its first slice until its last job is terminal. *)
let evict t runnable =
  let live =
    List.filter_map
      (fun (j : Job.t) ->
        match t.find_model j.Job.spec.Job.sp_model with
        | model -> Some (Memo.space_key ~model ~config:(Job.config_of_spec j.Job.spec))
        | exception Not_found -> None)
      runnable
  in
  Hashtbl.filter_map_inplace (fun space p -> if List.mem space live then Some p else None)
    t.prepared

let step t =
  if t.draining then Idle
  else
    let runnable = List.filter (fun j -> Job.runnable j.Job.state) (Store.list t.store) in
    evict t runnable;
    let weight id =
      match List.find_opt (fun (j : Job.t) -> j.Job.id = id) runnable with
      | Some j -> j.Job.spec.Job.sp_priority
      | None -> 1
    in
    match
      Fair.next ~weight ~cursor:t.cursor (List.map (fun (j : Job.t) -> j.Job.id) runnable)
    with
    | None -> Idle
    | Some (id, cursor') -> (
      t.cursor <- cursor';
      match List.find_opt (fun (j : Job.t) -> j.Job.id = id) runnable with
      | Some job -> run_slice t job
      | None -> Idle)

let pause_all t =
  List.iter
    (fun (j : Job.t) ->
      if j.Job.state = Job.Running then begin
        let j = { j with Job.state = Job.Paused } in
        Store.update t.store j;
        t.on_event (event_of_job j ~detail:"drained")
      end)
    (Store.list t.store)

let cancel t id =
  let r = Store.cancel t.store id in
  Result.iter (fun j -> t.on_event (event_of_job j ~detail:"cancelled")) r;
  r
