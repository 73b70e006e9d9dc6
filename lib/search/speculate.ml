(* Speculative batch evaluation shared by the batched searches.

   A ddmin round announces its candidates via [prefetch], which only
   records the fresh ones in announced order. The search then consumes
   candidates in that order through [evaluate]: a candidate with a
   parked result commits it; one without starts a wave, itself plus the
   next [slots - 1] announced candidates neither parked nor committed,
   run as one scheduler batch of raw [evaluate] calls (no trace, no
   budget) whose results are parked. Commits stay in sequential order,
   so records, budget accounting and the trajectory are identical to a
   sequential run; a round abandoned at its first acceptance wastes at
   most the rest of one wave, never the rest of the round. Parked
   results are kept across rounds (speculation wasted in one round can
   still pay off later) and dropped once committed. Only a wave's tasks
   run concurrently (the submitting domain among them); the table and
   the trace commits stay on the submitting domain.

   Each candidate of a wave is one shard task priced at its own cost, and
   an evaluation that runs alone (not announced, or nothing left to
   speculate beside it) is accounted serially, so the cluster clock
   advances exactly as if each wave had run on the simulated
   shards×workers grid. A scheduler with a single slot disables
   speculation entirely: the classic sequential trajectory, with every
   fresh evaluation accounted serially. *)

type t = {
  shard : Shard.t option;
  cost : (Variant.measurement -> float) option;
  trace : Trace.t;
  evaluate : Transform.Assignment.t -> Variant.measurement;
  results : (string, Variant.measurement) Hashtbl.t;  (* parked: run, not committed *)
  mutable announced : (string * Transform.Assignment.t) list;
      (* the round's fresh candidates in announced order, past the one the
         last wave started at *)
}

let create ?shard ?cost ~trace ~evaluate () =
  { shard; cost; trace; evaluate; results = Hashtbl.create 64; announced = [] }

let cost_of t m = match t.cost with Some c -> c m | None -> 0.0

let speculating t =
  match t.shard with Some sh when Shard.slots sh > 1 -> Some sh | Some _ | None -> None

(* neither parked nor committed *)
let unknown t key asg =
  (not (Hashtbl.mem t.results key)) && Trace.find_cached t.trace asg = None

let prefetch t asgs =
  if Option.is_some (speculating t) then begin
    let seen = Hashtbl.create 16 in
    t.announced <-
      List.filter_map
        (fun asg ->
          let key = Transform.Assignment.signature asg in
          if Hashtbl.mem seen key || not (unknown t key asg) then None
          else begin
            Hashtbl.add seen key ();
            Some (key, asg)
          end)
        asgs
  end

(* The announced candidates after [key], or [None] when [key] was not
   announced. *)
let rec after key = function
  | [] -> None
  | (k, _) :: rest -> if String.equal k key then Some rest else after key rest

(* The first [n] unknown candidates of [cands]. *)
let rec next_unknown t n = function
  | [] -> []
  | _ when n = 0 -> []
  | ((key, asg) as c) :: rest ->
    if unknown t key asg then c :: next_unknown t (n - 1) rest else next_unknown t n rest

let run_wave t sh wave =
  let evaluated = Shard.map sh ~cost:(cost_of t) (fun (_, asg) -> t.evaluate asg) wave in
  List.iter2 (fun (key, _) m -> Hashtbl.replace t.results key m) wave evaluated

(* Start a wave at the announced candidate [key]: it and the next
   [slots - 1] announced candidates neither parked nor committed run as
   one batch, and their results are parked. [false] when [key] was not
   announced or nothing is left to speculate beside it. *)
let start_wave t key asg =
  match speculating t with
  | None -> false
  | Some sh -> (
    match after key t.announced with
    | None -> false
    | Some rest -> (
      t.announced <- rest;
      match next_unknown t (Shard.slots sh - 1) rest with
      | [] -> false
      | ahead ->
        run_wave t sh ((key, asg) :: ahead);
        true))

(* A fresh evaluation outside any wave runs alone on the simulated
   cluster. *)
let alone t asg =
  let m = t.evaluate asg in
  Option.iter (fun sh -> Shard.serial sh (cost_of t m)) t.shard;
  m

let evaluate t asg =
  Trace.evaluate t.trace
    ~f:(fun asg ->
      let key = Transform.Assignment.signature asg in
      if Hashtbl.mem t.results key || start_wave t key asg then begin
        let m = Hashtbl.find t.results key in
        (* [Trace.evaluate] commits what [f] returns: no longer parked *)
        Hashtbl.remove t.results key;
        m
      end
      else alone t asg)
    asg
