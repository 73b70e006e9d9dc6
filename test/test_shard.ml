(* Scheduler tests. The one-shard domain pool: submission-order
   preservation, exception propagation, reuse across batches, lifecycle
   edge cases, and the submitting domain as a slot. Then the sharded
   grid: partitioner, exactly-once execution, schedule simulation,
   determinism matrix. *)

open Search

let t name f = Alcotest.test_case name `Quick f

(* burn a little CPU so tasks do not finish in lockstep *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + (i mod 7)
  done;
  Sys.opaque_identity !acc

(* The domain pool every non-sharded parallel campaign runs on: a
   one-shard scheduler of [w + 1] slots, [w] helper domains beside the
   caller, which takes tasks too. *)
let with_one_shard w f = Shard.with_shards ~shards:1 ~workers:(w + 1) f
let run_batch sh f xs = Shard.map sh ~cost:(fun _ -> 0.0) f xs

let lifecycle_tests =
  [
    t "shutdown is idempotent" (fun () ->
        let sh = Shard.create ~shards:1 ~workers:3 () in
        Shard.shutdown sh;
        Shard.shutdown sh);
    t "map after shutdown raises" (fun () ->
        let sh = Shard.create ~shards:1 ~workers:3 () in
        Shard.shutdown sh;
        match run_batch sh (fun x -> x) [ 1 ] with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    t "default_workers is non-negative" (fun () ->
        Alcotest.(check bool) ">= 0" true (Shard.default_workers () >= 0));
  ]

let map_tests =
  [
    t "empty batch" (fun () ->
        with_one_shard 2 (fun sh ->
            Alcotest.(check (list int)) "empty" [] (run_batch sh (fun x -> x) [])));
    t "preserves submission order" (fun () ->
        with_one_shard 4 (fun sh ->
            let xs = List.init 100 (fun i -> i) in
            let ys =
              run_batch sh
                (fun i ->
                  (* later submissions do less work, so they tend to finish
                     first — order must still follow submission *)
                  ignore (spin (1000 * (100 - i)));
                  2 * i)
                xs
            in
            Alcotest.(check (list int)) "doubled in order" (List.map (fun i -> 2 * i) xs) ys));
    t "more workers than tasks" (fun () ->
        with_one_shard 8 (fun sh ->
            Alcotest.(check (list int)) "squares" [ 1; 4; 9 ]
              (run_batch sh (fun x -> x * x) [ 1; 2; 3 ])));
    t "50-task batch on one helper" (fun () ->
        with_one_shard 1 (fun sh ->
            let xs = List.init 50 (fun i -> i) in
            Alcotest.(check (list int)) "all there" xs (run_batch sh (fun x -> x) xs)));
    t "worker exception propagates" (fun () ->
        with_one_shard 3 (fun sh ->
            match run_batch sh (fun i -> if i = 5 then failwith "boom" else i) (List.init 10 Fun.id) with
            | _ -> Alcotest.fail "expected Failure"
            | exception Failure m -> Alcotest.(check string) "message" "boom" m));
    t "first exception in submission order wins" (fun () ->
        with_one_shard 4 (fun sh ->
            match
              run_batch sh
                (fun i -> if i >= 3 then failwith (Printf.sprintf "boom-%d" i) else i)
                (List.init 10 Fun.id)
            with
            | _ -> Alcotest.fail "expected Failure"
            | exception Failure m -> Alcotest.(check string) "earliest task" "boom-3" m));
    t "pool survives a failed batch" (fun () ->
        with_one_shard 2 (fun sh ->
            (try ignore (run_batch sh (fun _ -> failwith "boom") [ 1; 2; 3 ]) with Failure _ -> ());
            Alcotest.(check (list int)) "still works" [ 2; 4 ] (run_batch sh (fun x -> 2 * x) [ 1; 2 ])));
    t "reusable across many batches" (fun () ->
        with_one_shard 2 (fun sh ->
            for k = 1 to 20 do
              let xs = List.init k (fun i -> i) in
              Alcotest.(check (list int)) "batch" (List.map (fun i -> i + k) xs)
                (run_batch sh (fun i -> i + k) xs)
            done));
  ]

(* The submitting domain is one of the slots: it takes tasks beside the
   helpers instead of waiting for them. *)
let submitter_tests =
  [
    t "the submitting domain is a slot" (fun () ->
        with_one_shard 1 (fun sh ->
            let caller = Domain.self () in
            if Shard.default_workers () >= 1 then begin
              (* each task waits (at most 5 s) for the other to start, so
                 the batch completes only if two domains run it at once:
                 the lone helper and the caller *)
              let started = Array.init 2 (fun _ -> Atomic.make false) in
              let rendezvous i =
                Atomic.set started.(i) true;
                let deadline = Unix.gettimeofday () +. 5.0 in
                while not (Atomic.get started.(1 - i)) do
                  if Unix.gettimeofday () > deadline then
                    failwith (Printf.sprintf "task %d: its partner never started" i);
                  Domain.cpu_relax ()
                done;
                Domain.self ()
              in
              let ran_on = run_batch sh rendezvous [ 0; 1 ] in
              Alcotest.(check bool) "one task ran on the caller" true (List.mem caller ran_on)
            end
            else
              (* a single-core host spawns no helper: the caller runs all *)
              List.iter
                (fun d -> Alcotest.(check bool) "ran on the caller" true (d = caller))
                (run_batch sh (fun _ -> Domain.self ()) [ 0; 1 ])));
    t "a 64-task batch runs on at most slots domains" (fun () ->
        List.iter
          (fun (s, w) ->
            Shard.with_shards ~shards:s ~workers:w (fun sh ->
                let ran_on =
                  run_batch sh
                    (fun i ->
                      ignore (spin (2000 * (i mod 5)));
                      Domain.self ())
                    (List.init 64 Fun.id)
                in
                let distinct = List.length (List.sort_uniq compare ran_on) in
                if distinct > Shard.slots sh then
                  Alcotest.failf "%dx%d: %d domains for %d slots" s w distinct (Shard.slots sh)))
          [ (1, 0); (3, 0); (1, 1); (1, 2); (2, 1); (1, 3); (3, 2); (4, 4) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Shard scheduler: partitioner and deque properties, the deterministic
   schedule simulation, and the shards x workers determinism matrix.   *)

let qt = QCheck_alcotest.to_alcotest

let shard_unit_tests =
  [
    t "create refuses bad arguments" (fun () ->
        List.iter
          (fun (s, w) ->
            match Shard.create ~shards:s ~workers:w () with
            | sh ->
              Shard.shutdown sh;
              Alcotest.failf "expected Invalid_argument for %dx%d" s w
            | exception Invalid_argument _ -> ())
          [ (0, 2); (-1, 0); (2, -1) ]);
    t "slots: workers=0 is one sequential slot" (fun () ->
        Shard.with_shards ~shards:4 ~workers:0 (fun sh ->
            Alcotest.(check int) "slots" 1 (Shard.slots sh)));
    t "slots: shards x workers otherwise" (fun () ->
        Shard.with_shards ~shards:3 ~workers:2 (fun sh ->
            Alcotest.(check int) "slots" 6 (Shard.slots sh)));
    t "map preserves submission order" (fun () ->
        Shard.with_shards ~shards:3 ~workers:2 (fun sh ->
            let xs = List.init 100 Fun.id in
            let ys =
              Shard.map sh ~cost:(fun _ -> 1.0)
                (fun i ->
                  ignore (spin (1000 * (100 - i)));
                  2 * i)
                xs
            in
            Alcotest.(check (list int)) "doubled in order" (List.map (fun i -> 2 * i) xs) ys));
    t "first exception in submission order wins" (fun () ->
        Shard.with_shards ~shards:2 ~workers:2 (fun sh ->
            match
              Shard.map sh ~cost:(fun _ -> 1.0)
                (fun i -> if i >= 3 then failwith (Printf.sprintf "boom-%d" i) else i)
                (List.init 10 Fun.id)
            with
            | _ -> Alcotest.fail "expected Failure"
            | exception Failure m -> Alcotest.(check string) "earliest task" "boom-3" m));
    t "failed batch is not accounted, scheduler survives" (fun () ->
        Shard.with_shards ~shards:2 ~workers:2 (fun sh ->
            (try ignore (Shard.map sh ~cost:(fun _ -> 5.0) (fun _ -> failwith "boom") [ 1; 2 ])
             with Failure _ -> ());
            Alcotest.(check (float 1e-9)) "clock untouched" 0.0 (Shard.stats sh).Shard.sim_seconds;
            Alcotest.(check (list int)) "still works" [ 2; 4 ]
              (Shard.map sh ~cost:(fun _ -> 1.0) (fun x -> 2 * x) [ 1; 2 ])));
    t "serial evaluations advance the clock by their full cost" (fun () ->
        Shard.with_shards ~shards:4 ~workers:4 (fun sh ->
            Shard.serial sh 3.5;
            Shard.serial sh 1.5;
            let st = Shard.stats sh in
            Alcotest.(check (float 1e-9)) "sum" 5.0 st.Shard.sim_seconds;
            Alcotest.(check int) "count" 2 st.Shard.serial_tasks));
    t "map runs each task exactly once under racing domains" (fun () ->
        let n = 5000 in
        let runs = Array.init n (fun _ -> Atomic.make 0) in
        Shard.with_shards ~shards:4 ~workers:4 (fun sh ->
            for round = 1 to 3 do
              let ys =
                run_batch sh
                  (fun i ->
                    Atomic.incr runs.(i);
                    i)
                  (List.init n Fun.id)
              in
              Alcotest.(check (list int)) "in order" (List.init n Fun.id) ys;
              Array.iteri
                (fun i r ->
                  if Atomic.get r <> round then
                    Alcotest.failf "task %d ran %d times in %d batches" i (Atomic.get r) round)
                runs
            done));
  ]

let shard_partition_exactly_once =
  QCheck.Test.make ~name:"partition assigns every element exactly once, in order" ~count:300
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (shards, xs) ->
      let parts = Shard.partition ~shards xs in
      Array.length parts = shards && List.concat (Array.to_list parts) = xs)

let shard_partition_balanced =
  QCheck.Test.make ~name:"partition blocks differ by at most one element" ~count:300
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (shards, xs) ->
      let sizes = Array.map List.length (Shard.partition ~shards xs) in
      let mn = Array.fold_left min max_int sizes and mx = Array.fold_left max 0 sizes in
      mx - mn <= 1)

(* a queue grid generator: up to 5 shards of up to 8 tasks, costs in (0, 10] *)
let queues_gen =
  QCheck.(
    pair (int_range 0 4)
      (list_of_size Gen.(1 -- 5)
         (list_of_size Gen.(0 -- 8) (map (fun f -> 0.001 +. f) (float_bound_inclusive 10.0)))))

let sim_sequential_is_total =
  QCheck.Test.make ~name:"Sim: workers=0 makespan is the serial total, no steals" ~count:300
    queues_gen
    (fun (_, qs) ->
      let shards = max 1 (List.length qs) in
      let queues = Array.of_list (List.map Array.of_list qs) in
      let queues =
        if Array.length queues = shards then queues else Array.make shards [||]
      in
      let total = Array.fold_left (fun a q -> Array.fold_left ( +. ) a q) 0.0 queues in
      let o = Shard.Sim.schedule ~shards ~workers:0 ~queues in
      Float.abs (o.Shard.Sim.makespan -. total) < 1e-9 && o.Shard.Sim.steals = 0)

let sim_makespan_bounds =
  QCheck.Test.make ~name:"Sim: critical-path and work bounds hold at every grid point" ~count:300
    queues_gen
    (fun (workers, qs) ->
      let shards = max 1 (List.length qs) in
      let queues = Array.of_list (List.map Array.of_list qs) in
      QCheck.assume (Array.length queues = shards);
      let total = Array.fold_left (fun a q -> Array.fold_left ( +. ) a q) 0.0 queues in
      let longest = Array.fold_left (fun a q -> Array.fold_left max a q) 0.0 queues in
      let slots = if workers <= 0 then 1 else shards * workers in
      let o = Shard.Sim.schedule ~shards ~workers ~queues in
      let m = o.Shard.Sim.makespan in
      m >= (total /. float_of_int slots) -. 1e-9
      && m >= longest -. 1e-9
      && m <= total +. 1e-9)

let sim_single_shard_never_steals =
  QCheck.Test.make ~name:"Sim: one shard never steals" ~count:200
    QCheck.(
      pair (int_range 0 4)
        (list_of_size Gen.(0 -- 12) (map (fun f -> 0.001 +. f) (float_bound_inclusive 10.0))))
    (fun (workers, costs) ->
      let queues = [| Array.of_list costs |] in
      (Shard.Sim.schedule ~shards:1 ~workers ~queues).Shard.Sim.steals = 0)

let shard_map_order_any_grid =
  QCheck.Test.make ~name:"map keeps the commit stream in submission order at any grid point"
    ~count:25
    QCheck.(triple (int_range 1 4) (int_range 0 3) (small_list (float_bound_inclusive 5.0)))
    (fun (shards, workers, costs) ->
      Shard.with_shards ~shards ~workers (fun sh ->
          let ys = Shard.map sh ~cost:Fun.id (fun c -> c +. 1.0) costs in
          ys = List.map (fun c -> c +. 1.0) costs))

let shard_property_tests =
  [
    qt shard_partition_exactly_once;
    qt shard_partition_balanced;
    qt sim_sequential_is_total;
    qt sim_makespan_bounds;
    qt sim_single_shard_never_steals;
    qt shard_map_order_any_grid;
  ]

(* ------------------------------------------------------------------ *)
(* The shards x workers determinism matrix: one small whole-model
   campaign, identical record for record, in summary, minimal set and
   cluster hours at every {1,2,4} x {0,4} point — and identical to the
   unsharded sequential run.                                           *)

let small_mpas =
  { Models.Registry.mpas with
    Models.Registry.source = Models.Mpas.source ~p:Models.Mpas.small () }

let matrix_config =
  { Core.Config.default with
    Core.Config.max_variants = Some 12;
    mode = Core.Config.Whole_model_guided }

let record_key (r : Variant.record) =
  (r.Variant.index, Transform.Assignment.signature r.Variant.asg, r.Variant.meas)

let minimal_key (c : Core.Tuner.campaign) =
  Option.map
    (fun (r : Search.Delta_debug.result) ->
      (List.map Transform.Assignment.atom_id r.Search.Delta_debug.high_set,
       r.Search.Delta_debug.finished, r.Search.Delta_debug.evaluations))
    c.Core.Tuner.minimal

let matrix_tests =
  [
    Alcotest.test_case "records identical at every shards x workers point" `Slow (fun () ->
        let reference =
          Core.Tuner.run_delta_debug ~config:matrix_config ~workers:0 small_mpas
        in
        let ref_keys = List.map record_key reference.Core.Tuner.records in
        List.iter
          (fun (s, w) ->
            let c =
              Core.Tuner.run_delta_debug ~config:matrix_config ~workers:w ~shards:s small_mpas
            in
            let label = Printf.sprintf "shards=%d workers=%d" s w in
            Alcotest.(check int)
              (label ^ " record count") (List.length ref_keys)
              (List.length c.Core.Tuner.records);
            if List.map record_key c.Core.Tuner.records <> ref_keys then
              Alcotest.failf "%s: record stream differs from the sequential run" label;
            Alcotest.(check bool)
              (label ^ " summary") true
              (compare reference.Core.Tuner.summary c.Core.Tuner.summary = 0);
            Alcotest.(check bool)
              (label ^ " minimal") true
              (minimal_key reference = minimal_key c);
            Alcotest.(check (float 1e-9))
              (label ^ " simulated hours") reference.Core.Tuner.simulated_hours
              c.Core.Tuner.simulated_hours;
            Alcotest.(check bool)
              (label ^ " backend") true
              (compare (Core.Tuner.backend_stats reference) (Core.Tuner.backend_stats c) = 0);
            let st = Option.get c.Core.Tuner.sched in
            Alcotest.(check int) (label ^ " sched shards") s st.Core.Tuner.sched_shards;
            Alcotest.(check int) (label ^ " sched workers") w st.Core.Tuner.sched_workers;
            if st.Core.Tuner.sched_sim_hours <= 0.0 then
              Alcotest.failf "%s: simulated makespan not accounted" label)
          [ (1, 0); (2, 0); (4, 0); (1, 4); (2, 4); (4, 4) ]);
    Alcotest.test_case "sharded journal resume re-evaluates nothing" `Slow (fun () ->
        Harness.with_dir @@ fun dir ->
        let base =
          Core.Tuner.run_delta_debug ~config:matrix_config ~workers:0 small_mpas
        in
        let faults =
          { Core.Cluster.Faults.none with Core.Cluster.Faults.preempt_at_hours = Some 0.05 }
        in
        let killed =
          Core.Tuner.run_delta_debug ~config:matrix_config ~workers:4 ~shards:2 ~journal:dir
            ~faults small_mpas
        in
        Alcotest.(check bool) "preempted" true killed.Core.Tuner.interrupted;
        let resumed =
          Core.Tuner.resume ~config:matrix_config ~workers:4 ~shards:4 ~model:small_mpas
            ~journal:dir ()
        in
        if
          List.map record_key resumed.Core.Tuner.records
          <> List.map record_key base.Core.Tuner.records
        then Alcotest.fail "resumed records differ from the uninterrupted run";
        Alcotest.(check bool) "summary" true
          (compare base.Core.Tuner.summary resumed.Core.Tuner.summary = 0);
        Alcotest.(check bool) "backend" true
          (compare (Core.Tuner.backend_stats base) (Core.Tuner.backend_stats resumed) = 0);
        Alcotest.(check int) "zero re-evaluation of the journaled prefix"
          (List.length resumed.Core.Tuner.records - resumed.Core.Tuner.preloaded)
          resumed.Core.Tuner.trace_stats.Search.Trace.misses);
  ]

let () =
  Alcotest.run "shard"
    [
      ("lifecycle", lifecycle_tests);
      ("map", map_tests);
      ("submitter", submitter_tests);
      ("shard", shard_unit_tests);
      ("shard-properties", shard_property_tests);
      ("shard-matrix", matrix_tests);
    ]
