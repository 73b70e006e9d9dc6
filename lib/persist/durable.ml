(* Durable file-system primitives shared by the journal, the snapshot and
   the service's job store.

   A rename or a new directory entry is only durable once the directory
   holding it is fsynced: without that, a crash right after the rename
   can surface the old file (or no file at all) even though the new
   contents were fsynced. Every create and rename here therefore ends
   with an fsync of the parent directory. *)

let unix_error_message e fn arg =
  Printf.sprintf "%s%s: %s" fn (if arg = "" then "" else " " ^ arg) (Unix.error_message e)

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* a file system that cannot sync directories says so with EINVAL;
         there is nothing stronger to do on it *)
      try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    mkdir_p parent;
    match Unix.mkdir dir 0o755 with
    | () -> fsync_dir parent
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let atomic_write ~path text =
  let tmp = path ^ ".tmp" in
  (* truncates whatever a crashed writer left at [tmp] *)
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc text;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)
