type stats = {
  hits : int;
  misses : int;
  shared : int;
  live : int;
  appends : int;
}

type t = {
  mutable recs : Variant.record list;  (* reversed *)
  mutable n : int;
  cache : (string, Variant.measurement) Hashtbl.t;
  max_variants : int option;
  lock : Mutex.t;
  sink : (donor:string option -> Variant.record -> unit) option;
  shared_lookup : (Transform.Assignment.t -> (Variant.measurement * string) option) option;
  mutable hits : int;  (* evaluate calls served from cache *)
  mutable misses : int;  (* fresh evaluations committed *)
  mutable shared : int;  (* commits served by the external shared lookup *)
  mutable appends : int;  (* sink invocations *)
}

exception Budget_exhausted

let create ?max_variants ?shared_lookup ?sink () =
  {
    recs = [];
    n = 0;
    cache = Hashtbl.create 64;
    max_variants;
    lock = Mutex.create ();
    sink;
    shared_lookup;
    hits = 0;
    misses = 0;
    shared = 0;
    appends = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find_cached t asg =
  let key = Transform.Assignment.signature asg in
  locked t (fun () -> Hashtbl.find_opt t.cache key)

let check_budget t =
  match t.max_variants with
  | Some cap when t.n >= cap -> raise Budget_exhausted
  | Some _ | None -> ()

(* Commit one record under the lock. The sink fires here, after the cache
   and record list are updated but before the lock is released, so journal
   lines carry consecutive commit indices in record-list order for every
   worker count. A sink exception (e.g. a simulated job preemption)
   propagates to the caller with the commit already durable. A commit
   served by the external shared lookup carries its [donor], counts as
   [shared] rather than a miss, and hands the donor to the sink, so a
   journaling sink annotates the record's provenance atomically with its
   append. *)
let commit ?donor t key asg m =
  check_budget t;
  t.n <- t.n + 1;
  if donor = None then t.misses <- t.misses + 1 else t.shared <- t.shared + 1;
  Hashtbl.add t.cache key m;
  let r = { Variant.index = t.n; asg; meas = m } in
  t.recs <- r :: t.recs;
  (match t.sink with
  | Some f ->
    t.appends <- t.appends + 1;
    f ~donor r
  | None -> ());
  m

let evaluate t ~f asg =
  let key = Transform.Assignment.signature asg in
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt t.cache key with
        | Some _ as m ->
          t.hits <- t.hits + 1;
          m
        | None ->
          (* cache hits are free: the budget only gates fresh evaluations *)
          check_budget t;
          None)
  in
  match cached with
  | Some m -> m
  | None -> (
    (* the cross-campaign shared lookup is consulted outside the lock
       (it takes its own mutex); a hit commits as a normal record — the
       books, the budget and the sink all see it — but costs no live
       evaluation and is classified [shared], not a miss. Otherwise [f]
       runs outside the lock: concurrent callers proceed in parallel. *)
    let m, donor =
      match Option.bind t.shared_lookup (fun look -> look asg) with
      | Some (m, donor) -> (m, Some donor)
      | None -> (f asg, None)
    in
    locked t (fun () ->
        match Hashtbl.find_opt t.cache key with
        | Some m' ->
          (* another caller committed the same variant first *)
          t.hits <- t.hits + 1;
          m'
        | None -> commit ?donor t key asg m))

let preload t records =
  locked t (fun () ->
      List.iter
        (fun (r : Variant.record) ->
          let key = Transform.Assignment.signature r.Variant.asg in
          if not (Hashtbl.mem t.cache key) then begin
            t.n <- t.n + 1;
            Hashtbl.add t.cache key r.Variant.meas;
            t.recs <- { r with Variant.index = t.n } :: t.recs
          end)
        records)

let records t = locked t (fun () -> List.rev t.recs)
let count t = locked t (fun () -> t.n)

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; shared = t.shared; live = Hashtbl.length t.cache;
        appends = t.appends })
