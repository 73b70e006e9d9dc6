(** Durable file-system primitives: the one copy of directory creation
    and atomic replacement that the journal, the snapshot and the
    service's job store share.

    A new directory entry (a created directory, a created file, a
    rename) survives a crash only once its parent directory is fsynced;
    every operation here ends with that fsync. *)

val unix_error_message : Unix.error -> string -> string -> string
(** [unix_error_message e fn arg] names a [Unix.Unix_error (e, fn, arg)]
    the way a failed campaign reports it: ["fn arg: reason"], or
    ["fn: reason"] when [arg] is empty (["fsync: Input/output error"]). *)

val fsync_dir : string -> unit
(** Fsync a directory, making the entries created or renamed in it
    durable. A file system that cannot sync directories ([EINVAL]) is
    tolerated; any other error raises [Unix.Unix_error]. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents (mode [0o755]), fsyncing
    the parent of each directory it creates. A directory that already
    exists, or appears concurrently, is left alone. *)

val atomic_write : path:string -> string -> unit
(** Replace [path] with exactly [text]: write [path ^ ".tmp"] (truncating
    any stale one a crashed writer left), fsync it, rename it over
    [path], then fsync the parent directory. A crash at any point leaves
    the old contents or the new ones, never a torn file, and once the
    call returns the new contents survive a crash. *)
