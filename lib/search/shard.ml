(* Sharded work-stealing batch scheduler. See shard.mli for the model.

   Real execution and the simulated schedule are deliberately decoupled:
   tasks run on the submitting domain plus up to [slots - 1] helpers, as
   many as the machine has spare cores, all taking from one shared queue
   (so the batch drains as fast as the hardware allows), while the
   cluster clock comes from a pure list-scheduling simulation of the
   shard grid over the caller-supplied costs. Results are collected in
   submission order, so the commit stream the consumer produces is
   independent of both schedules. *)

let partition ~shards xs =
  if shards < 1 then invalid_arg "Shard.partition: shards < 1";
  let n = List.length xs in
  let base = n / shards and extra = n mod shards in
  let out = Array.make shards [] in
  let rec take acc k rest =
    if k = 0 then (List.rev acc, rest)
    else match rest with x :: tl -> take (x :: acc) (k - 1) tl | [] -> assert false
  in
  let rest = ref xs in
  for s = 0 to shards - 1 do
    let want = base + if s < extra then 1 else 0 in
    let part, tl = take [] want !rest in
    out.(s) <- part;
    rest := tl
  done;
  assert (!rest = []);
  out

module Sim = struct
  type outcome = {
    makespan : float;
    steals : int;
  }

  (* Deterministic list scheduling: the earliest-idle slot (ties broken
     toward the lowest slot index) takes the next task from its home
     shard, stealing cyclically when home is dry. Input order within a
     queue is preserved, so the simulation is a pure function of
     (partition, costs). *)
  let schedule ~shards ~workers ~queues =
    if Array.length queues <> shards then
      invalid_arg "Shard.Sim.schedule: queues must have one row per shard";
    let slots = if workers <= 0 then 1 else shards * workers in
    let next = Array.map (fun _ -> ref 0) queues in
    let times = Array.make slots 0.0 in
    let steals = ref 0 in
    let total = Array.fold_left (fun acc q -> acc + Array.length q) 0 queues in
    for _ = 1 to total do
      let slot = ref 0 in
      for i = 1 to slots - 1 do
        if times.(i) < times.(!slot) then slot := i
      done;
      let home = if workers <= 0 then 0 else !slot / workers in
      let rec pick k =
        if k = shards then None
        else begin
          let q = (home + k) mod shards in
          if !(next.(q)) < Array.length queues.(q) then Some (q, k) else pick (k + 1)
        end
      in
      match pick 0 with
      | None ->
        (* [total] bounds the loop by the number of tasks, so a queue
           with work always exists here *)
        assert false
      | Some (q, k) ->
        times.(!slot) <- times.(!slot) +. queues.(q).(!(next.(q)));
        incr next.(q);
        if k > 0 && workers > 0 then incr steals
    done;
    { makespan = Array.fold_left Float.max 0.0 times; steals = !steals }
end

type stats = {
  rounds : int;
  batched : int;
  stolen : int;
  serial_tasks : int;
  sim_seconds : float;
}

(* a posted batch: its tasks, handed out once each through an atomic
   cursor (one [fetch_and_add] per take, exactly once under racing
   domains) *)
type batch = { tasks : (unit -> unit) array; next : int Atomic.t }

type t = {
  n_shards : int;
  n_workers : int;
  lock : Mutex.t;
  work : Condition.t;  (* a batch was posted, or shutdown *)
  done_ : Condition.t;  (* the posted batch fully drained *)
  mutable batch : batch option;
  mutable left : int;  (* tasks of the current batch not yet finished *)
  mutable gen : int;  (* batch generation; bumps wake the runners *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
  (* driver-only statistics *)
  mutable s_rounds : int;
  mutable s_batched : int;
  mutable s_stolen : int;
  mutable s_serial : int;
  mutable s_clock : float;
}

let default_workers () = max 0 (Domain.recommended_domain_count () - 1)

let shards t = t.n_shards
let workers t = t.n_workers
let slots t = if t.n_workers = 0 then 1 else t.n_shards * t.n_workers

let run_tasks t { tasks; next } =
  let executed = ref 0 in
  let rec go () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length tasks then begin
      tasks.(i) ();
      incr executed;
      go ()
    end
  in
  go ();
  Mutex.lock t.lock;
  t.left <- t.left - !executed;
  if t.left = 0 then Condition.broadcast t.done_;
  Mutex.unlock t.lock

let rec runner_loop t seen =
  Mutex.lock t.lock;
  while (not t.stop) && t.gen = seen do
    Condition.wait t.work t.lock
  done;
  if t.stop then Mutex.unlock t.lock
  else begin
    let g = t.gen in
    let b = t.batch in
    Mutex.unlock t.lock;
    (match b with Some b -> run_tasks t b | None -> ());
    runner_loop t g
  end

let create ~shards:n_shards ~workers:n_workers () =
  if n_shards < 1 then invalid_arg "Shard.create: shards < 1";
  if n_workers < 0 then invalid_arg "Shard.create: workers < 0";
  let t =
    {
      n_shards;
      n_workers;
      lock = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      batch = None;
      left = 0;
      gen = 0;
      stop = false;
      domains = [||];
      s_rounds = 0;
      s_batched = 0;
      s_stolen = 0;
      s_serial = 0;
      s_clock = 0.0;
    }
  in
  (* The submitting domain is one of the slots, so a batch runs on at
     most [slots] domains: [slots - 1] helpers, capped by the machine's
     spare cores. Simulated slots beyond that change only the simulated
     schedule, not real execution, and zero helpers (a single-core host)
     still drain every batch on the submitter. *)
  let helpers = min (slots t - 1) (default_workers ()) in
  t.domains <- Array.init helpers (fun _ -> Domain.spawn (fun () -> runner_loop t 0));
  t

let shutdown t =
  Mutex.lock t.lock;
  let first = not t.stop in
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  if first then Array.iter Domain.join t.domains

let with_shards ~shards ~workers f =
  let t = create ~shards ~workers () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t ~cost f xs =
  if t.stop then invalid_arg "Shard.map: scheduler is shut down";
  match xs with
  | [] -> []
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let res_lock = Mutex.create () in
    let results = Array.make n None in
    let thunk i () =
      let r = match f arr.(i) with v -> Ok v | exception e -> Error e in
      Mutex.lock res_lock;
      results.(i) <- Some r;
      Mutex.unlock res_lock
    in
    let b = { tasks = Array.init n thunk; next = Atomic.make 0 } in
    if Array.length t.domains = 0 then begin
      (* no helpers: the driver is the single real runner *)
      t.left <- n;
      run_tasks t b
    end
    else begin
      Mutex.lock t.lock;
      t.batch <- Some b;
      t.left <- n;
      t.gen <- t.gen + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.lock;
      run_tasks t b;
      Mutex.lock t.lock;
      while t.left > 0 do
        Condition.wait t.done_ t.lock
      done;
      t.batch <- None;
      Mutex.unlock t.lock
    end;
    Mutex.lock res_lock;
    let collected =
      Array.map
        (function
          | Some r -> r
          | None -> assert false (* [left] reached 0: every task ran *))
        results
    in
    Mutex.unlock res_lock;
    (* first exception in submission order wins; a failed batch is not
       accounted on the simulated clock *)
    Array.iter (function Error e -> raise e | Ok _ -> ()) collected;
    let ok = Array.map (function Ok v -> v | Error _ -> assert false) collected in
    (* the simulated grid: the batch's costs, block-partitioned over the
       shards *)
    let cost_queues =
      Array.map Array.of_list (partition ~shards:t.n_shards (Array.to_list (Array.map cost ok)))
    in
    let out = Sim.schedule ~shards:t.n_shards ~workers:t.n_workers ~queues:cost_queues in
    t.s_rounds <- t.s_rounds + 1;
    t.s_batched <- t.s_batched + n;
    t.s_stolen <- t.s_stolen + out.Sim.steals;
    t.s_clock <- t.s_clock +. out.Sim.makespan;
    Array.to_list ok

let serial t c =
  t.s_serial <- t.s_serial + 1;
  t.s_clock <- t.s_clock +. c

let stats t =
  {
    rounds = t.s_rounds;
    batched = t.s_batched;
    stolen = t.s_stolen;
    serial_tasks = t.s_serial;
    sim_seconds = t.s_clock;
  }
