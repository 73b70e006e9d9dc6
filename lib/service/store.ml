(* Durable job state under one service root:

     ROOT/jobs/<id>/job.json      the Job.t (atomic .tmp+rename writes)
     ROOT/jobs/<id>/campaign/     the job's journal directory
     ROOT/jobs/<id>/summary.json  published on completion
     ROOT/jobs/<id>/minimal.txt   published on completion (searches only)

   Every state transition rewrites job.json atomically, so a crash at any
   moment leaves either the old or the new state — never a torn file. The
   journal inside campaign/ stays the durable source of search truth;
   job.json only carries queue state and progress gauges. *)

open Persist

type t = { root : string }

let jobs_dir t = Filename.concat t.root "jobs"
let job_dir t id = Filename.concat (jobs_dir t) id
let job_file t id = Filename.concat (job_dir t id) "job.json"
let campaign_dir t id = Filename.concat (job_dir t id) "campaign"
let summary_file t id = Filename.concat (job_dir t id) "summary.json"
let minimal_file t id = Filename.concat (job_dir t id) "minimal.txt"

let open_ ~root =
  let t = { root } in
  Durable.mkdir_p (jobs_dir t);
  t

let root t = t.root

let update t (job : Job.t) =
  Durable.atomic_write ~path:(job_file t job.Job.id) (Json.to_string (Job.to_json job) ^ "\n")

let load t id =
  match open_in_bin (job_file t id) with
  | exception Sys_error _ -> None
  | ic -> (
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Job.of_json (Json.parse s) with
    | Ok j -> Some j
    | Error _ -> None
    | exception Json.Parse_error _ -> None)

(* A job id is j<N>; anything else in jobs/ is foreign and ignored, so
   the root tolerates editor droppings, lost+found, etc. *)
let id_number id =
  if String.length id >= 2 && id.[0] = 'j' then int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

let ids t =
  match Sys.readdir (jobs_dir t) with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter (fun id -> id_number id <> None && Sys.file_exists (job_file t id))
    |> List.sort compare

let list t = List.filter_map (load t) (ids t)

let next_id t =
  let max_n =
    match Sys.readdir (jobs_dir t) with
    | exception Sys_error _ -> 0
    | entries ->
      Array.fold_left
        (fun acc id -> match id_number id with Some n -> max acc n | None -> acc)
        0 entries
  in
  Printf.sprintf "j%03d" (max_n + 1)

let submit t ~find_model spec =
  match Job.validate ~find_model spec with
  | Error _ as e -> e
  | Ok () ->
    let id = next_id t in
    Durable.mkdir_p (job_dir t id);
    let job = Job.make ~id spec in
    update t job;
    Ok job
