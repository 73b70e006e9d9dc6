(* The serve loop: a single-threaded event loop alternating between
   accepting/handling client requests and running scheduler slices.

   Requests are handled between slices (a connection is one request
   line), so the campaign state is never touched concurrently; watch
   connections stay registered and receive event lines as the
   scheduler's checkpoint hook fires. SIGTERM/SIGINT set the drain flag:
   the in-flight slice pauses at its next durable record (the checkpoint
   sees the flag), every running job is marked paused, the socket is
   removed, and the process exits cleanly — a later server resumes every
   journal bit-identically. *)

open Persist

type watcher = { w_job : string; w_ic : in_channel; w_oc : out_channel }

type t = {
  store : Store.t;
  find_model : string -> Models.Registry.t;
  mutable sched : Sched.t option;  (* set right after creation (on_event ties the knot) *)
  mutable watchers : watcher list;
  mutable stop : bool;
  log : string -> unit;
}

let close_watcher w =
  close_out_noerr w.w_oc;
  close_in_noerr w.w_ic

let deliver t ev =
  let line = Json.to_string (Proto.event_json ev) ^ "\n" in
  t.watchers <-
    List.filter
      (fun w ->
        if w.w_job <> ev.Sched.ev_job then true
        else
          match
            output_string w.w_oc line;
            flush w.w_oc
          with
          | () ->
            if Job.terminal ev.Sched.ev_state then begin
              close_watcher w;
              false
            end
            else true
          | exception Sys_error _ ->
            close_watcher w;
            false)
      t.watchers

let handle t fd =
  (* a stalled or hostile client may not block the scheduler forever *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0 with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0 with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let close () =
    close_out_noerr oc;
    close_in_noerr ic
  in
  let respond j = try Proto.send oc j with Sys_error _ -> () in
  let sched = Option.get t.sched in
  match input_line ic with
  | exception (End_of_file | Sys_error _) -> close ()
  | line -> (
    match Proto.request_of_string line with
    | Error msg ->
      respond (Proto.error msg);
      close ()
    | Ok Proto.Ping ->
      respond (Proto.ok []);
      close ()
    | Ok (Proto.Submit spec) ->
      (match Store.submit t.store ~find_model:t.find_model spec with
      | Ok job ->
        t.log (Printf.sprintf "submit %s: %s %s (tenant %s)" job.Job.id spec.Job.sp_model
                 spec.Job.sp_algo spec.Job.sp_tenant);
        respond (Proto.ok [ ("job", Job.to_json job) ])
      | Error m -> respond (Proto.error ("rejected: " ^ m)));
      close ()
    | Ok Proto.Jobs ->
      respond (Proto.ok [ ("jobs", Json.Arr (List.map Job.to_json (Store.list t.store))) ]);
      close ()
    | Ok (Proto.Show id) ->
      (match Store.load t.store id with
      | Some job -> respond (Proto.ok [ ("job", Job.to_json job) ])
      | None -> respond (Proto.error ("no such job " ^ id)));
      close ()
    | Ok (Proto.Cancel id) ->
      (match Sched.cancel sched id with
      | Ok job ->
        t.log (Printf.sprintf "cancel %s" id);
        respond (Proto.ok [ ("job", Job.to_json job) ])
      | Error m -> respond (Proto.error m));
      close ()
    | Ok (Proto.Watch id) -> (
      match Store.load t.store id with
      | None ->
        respond (Proto.error ("no such job " ^ id));
        close ()
      | Some job ->
        respond (Proto.ok [ ("job", Job.to_json job) ]);
        if Job.terminal job.Job.state then begin
          (try Proto.send oc (Proto.event_json (Sched.event_of_job job ~detail:"")) with
          | Sys_error _ -> ());
          close ()
        end
        else t.watchers <- { w_job = id; w_ic = ic; w_oc = oc } :: t.watchers))

let rec accept_pending t sock =
  match Unix.select [ sock ] [] [] 0.0 with
  | [], _, _ -> ()
  | _ :: _, _, _ -> (
    match Unix.accept sock with
    | fd, _ ->
      handle t fd;
      accept_pending t sock
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let wait_activity sock =
  match Unix.select [ sock ] [] [] 0.1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run ?(slice_records = 8) ?(find_model = Models.Registry.find)
    ?(log = fun _ -> ()) ~root ~slots () =
  let store = Store.open_ ~root in
  let path = Proto.socket_file ~root in
  let stale_live =
    Sys.file_exists path
    &&
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Unix.close fd;
      true
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      false
  in
  if stale_live then Error (Printf.sprintf "a server is already listening on %s" path)
  else begin
    let t = { store; find_model; sched = None; watchers = []; stop = false; log } in
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock 16;
    (* the event loop's own domain evaluates too: [slots] helpers beside
       it, capped by the machine's spare cores *)
    let shard =
      if slots > 0 then Some (Search.Shard.create ~shards:1 ~workers:(slots + 1) ()) else None
    in
    let sched =
      Sched.create ~slice_records ?shard ~memo:(Memo.create ()) ~find_model
        ~on_event:(fun ev -> deliver t ev) store
    in
    t.sched <- Some sched;
    let on_signal =
      Sys.Signal_handle
        (fun _ ->
          t.stop <- true;
          Sched.drain sched)
    in
    Sys.set_signal Sys.sigterm on_signal;
    Sys.set_signal Sys.sigint on_signal;
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    log (Printf.sprintf "serving %s (%d evaluation slots, %d records per slice)" root slots
           slice_records);
    Fun.protect
      ~finally:(fun () ->
        List.iter close_watcher t.watchers;
        t.watchers <- [];
        (try Unix.close sock with Unix.Unix_error _ -> ());
        (try Sys.remove path with Sys_error _ -> ());
        Option.iter Search.Shard.shutdown shard)
      (fun () ->
        while not t.stop do
          accept_pending t sock;
          if not t.stop then begin
            match Sched.step sched with
            | Sched.Sliced { si_job; si_state; si_fresh; si_new_records; si_shared; si_prepared }
              ->
              log
                (Printf.sprintf "slice %s: +%d records (%d fresh, %d memo-shared) -> %s%s"
                   si_job si_new_records si_fresh si_shared (Job.state_name si_state)
                   (if si_prepared then ", prepared" else ""))
            | Sched.Idle -> wait_activity sock
          end
        done;
        (* drain: the in-flight slice already paused at a durable record *)
        Sched.pause_all sched;
        log "drained; all running jobs paused");
    Ok ()
  end
