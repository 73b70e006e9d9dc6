type header = {
  version : int;
  model : string;
  algo : string;
  seed : int;
  config_digest : string;
  workers : int;
  atoms : int;
  caps : string list;  (* optional-line capabilities, e.g. "shared" *)
}

type entry = {
  e_index : int;
  e_signature : string;
  e_meas : Search.Variant.measurement;
  e_score : float option;  (* predicted score at commit time (predict runs) *)
  e_bound : float option;  (* static error bound (predict runs) *)
}

(* Provenance annotation for one cross-campaign shared record: the line
   immediately after a record line may attribute that record's measurement
   to the fleet memo entry published by [sh_donor]. Annotations carry no
   measurement data — stripping every "shared" line recovers the solo
   journal byte for byte. *)
type shared = {
  sh_index : int;  (* commit index of the record line being annotated *)
  sh_signature : string;
  sh_donor : string;  (* donor job id that published the measurement *)
}

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let current_version = 1

let file ~dir = Filename.concat dir "journal.jsonl"

let entry_of_record (r : Search.Variant.record) =
  {
    e_index = r.Search.Variant.index;
    e_signature = Transform.Assignment.signature r.Search.Variant.asg;
    e_meas = r.Search.Variant.meas;
    e_score = None;
    e_bound = None;
  }

let record_of_entry atoms e =
  {
    Search.Variant.index = e.e_index;
    asg = Transform.Assignment.of_signature atoms e.e_signature;
    meas = e.e_meas;
  }

(* ------------------------------------------------------------------ *)
(* Line codecs                                                         *)

let header_json h =
  Json.Obj
    [
      ("kind", Json.Str "header");
      ("version", Json.Num (float_of_int h.version));
      ("model", Json.Str h.model);
      ("algo", Json.Str h.algo);
      ("seed", Json.Num (float_of_int h.seed));
      ("config", Json.Str h.config_digest);
      ("workers", Json.Num (float_of_int h.workers));
      ("atoms", Json.Num (float_of_int h.atoms));
      ("caps", Json.Arr (List.map (fun c -> Json.Str c) h.caps));
    ]

let hex = Json.hex_float

let entry_json e =
  let m = e.e_meas in
  let fields =
    [
      ("kind", Json.Str "record");
      ("index", Json.Num (float_of_int e.e_index));
      ("sig", Json.Str e.e_signature);
      ("status", Json.Str (Search.Variant.status_to_string m.Search.Variant.status));
      ("speedup", Json.Str (hex m.Search.Variant.speedup));
      ("rel_error", Json.Str (hex m.Search.Variant.rel_error));
      ("hotspot_time", Json.Str (hex m.Search.Variant.hotspot_time));
      ("model_time", Json.Str (hex m.Search.Variant.model_time));
      ( "proc_stats",
        Json.Arr
          (List.map
             (fun (name, inclusive, calls) ->
               Json.Arr
                 [ Json.Str name; Json.Str (hex inclusive); Json.Num (float_of_int calls) ])
             m.Search.Variant.proc_stats) );
      ("casting_share", Json.Str (hex m.Search.Variant.casting_share));
      ("detail", Json.Str m.Search.Variant.detail);
    ]
    (* score/bound are appended only when present, so journals written
       without prediction are byte-identical to pre-PR-9 ones *)
    @ (match e.e_score with Some s -> [ ("score", Json.Str (hex s)) ] | None -> [])
    @ (match e.e_bound with Some b -> [ ("bound", Json.Str (hex b)) ] | None -> [])
  in
  Json.Obj fields

let shared_json sh =
  Json.Obj
    [
      ("kind", Json.Str "shared");
      ("index", Json.Num (float_of_int sh.sh_index));
      ("sig", Json.Str sh.sh_signature);
      ("donor", Json.Str sh.sh_donor);
    ]

let need what = function Some v -> v | None -> corrupt "missing or ill-typed %s" what

let get_str j k = need k Option.(bind (Json.member k j) Json.to_str)
let get_int j k = need k Option.(bind (Json.member k j) Json.to_int)
let get_hex j k = Json.of_hex_float (get_str j k)

let header_of_json j =
  {
    version = get_int j "version";
    model = get_str j "model";
    algo = get_str j "algo";
    seed = get_int j "seed";
    config_digest = get_str j "config";
    workers = get_int j "workers";
    atoms = get_int j "atoms";
    (* absent on pre-PR-10 journals: no optional line kinds allowed *)
    caps =
      (match Json.member "caps" j with
      | None | Some Json.Null -> []
      | Some v ->
        List.map
          (fun c -> need "cap" (Json.to_str c))
          (need "caps" (Json.to_list v)));
  }

let shared_of_json j =
  { sh_index = get_int j "index"; sh_signature = get_str j "sig"; sh_donor = get_str j "donor" }

let entry_of_json j =
  let status =
    match Search.Variant.status_of_string (get_str j "status") with
    | Some s -> s
    | None -> corrupt "unknown status %S" (get_str j "status")
  in
  let proc_stats =
    List.map
      (fun row ->
        match Json.to_list row with
        | Some [ name; inclusive; calls ] ->
          ( need "proc name" (Json.to_str name),
            Json.of_hex_float (need "proc inclusive" (Json.to_str inclusive)),
            need "proc calls" (Json.to_int calls) )
        | Some _ | None -> corrupt "bad proc_stats row")
      (need "proc_stats" Option.(bind (Json.member "proc_stats" j) Json.to_list))
  in
  {
    e_index = get_int j "index";
    e_signature = get_str j "sig";
    e_meas =
      {
        Search.Variant.status;
        speedup = get_hex j "speedup";
        rel_error = get_hex j "rel_error";
        hotspot_time = get_hex j "hotspot_time";
        model_time = get_hex j "model_time";
        proc_stats;
        casting_share = get_hex j "casting_share";
        detail = get_str j "detail";
      };
    (* absent on pre-PR-9 journals and unpredicted runs: parse as None *)
    e_score = Option.map Json.of_hex_float Option.(bind (Json.member "score" j) Json.to_str);
    e_bound = Option.map Json.of_hex_float Option.(bind (Json.member "bound" j) Json.to_str);
  }

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

type writer = out_channel

let write_line oc json =
  output_string oc (Json.to_string json);
  output_char oc '\n';
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let create ~dir h =
  Durable.mkdir_p dir;
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_excl ] 0o644 (file ~dir) in
  (try
     write_line oc (header_json { h with version = current_version });
     (* the new journal's directory entry must outlive a crash too *)
     Durable.fsync_dir dir
   with e ->
     close_out_noerr oc;
     raise e);
  oc

let append w e = write_line w (entry_json e)
let append_shared w sh = write_line w (shared_json sh)

let close = close_out_noerr

(* ------------------------------------------------------------------ *)
(* Loader                                                              *)

type loaded = {
  l_header : header;
  l_entries : entry list;
  l_shared : shared list;
  l_valid_bytes : int;
  l_torn : bool;
}

let read_all path =
  let ic = try open_in_bin path with Sys_error m -> corrupt "%s" m in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let no_header ~dir = corrupt "journal %s has no header line" (file ~dir)

let header_of_line ~dir line =
  let h =
    match Json.parse line with
    | j when Json.member "kind" j = Some (Json.Str "header") -> header_of_json j
    | _ -> corrupt "journal %s: first line is not a header" (file ~dir)
    | exception Json.Parse_error m -> corrupt "journal %s header: %s" (file ~dir) m
  in
  if h.version <> current_version then
    corrupt "journal %s: version %d (supported: %d)" (file ~dir) h.version current_version;
  h

let read_header ~dir =
  let ic = try open_in_bin (file ~dir) with Sys_error m -> corrupt "%s" m in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match input_line ic with
      (* a line without its newline is torn, as in [load] *)
      | line when pos_in ic > String.length line -> header_of_line ~dir line
      | _ -> no_header ~dir
      | exception End_of_file -> no_header ~dir)

let load ~dir =
  let s = read_all (file ~dir) in
  let n = String.length s in
  (* split into complete (newline-terminated) lines, tracking offsets *)
  let rec lines from acc =
    if from >= n then (List.rev acc, from)
    else
      match String.index_from_opt s from '\n' with
      | None -> (List.rev acc, from)  (* torn tail: no terminating newline *)
      | Some nl -> lines (nl + 1) ((String.sub s from (nl - from), nl + 1) :: acc)
  in
  let complete, _end_of_complete = lines 0 [] in
  match complete with
  | [] -> no_header ~dir
  | (hline, hend) :: rest ->
    let h = header_of_line ~dir hline in
    (* records: a crash can only tear the FINAL line, so an unparsable last
       line is tolerated (it becomes the torn region that [reopen] truncates);
       damage anywhere earlier means the file was edited or the disk lied,
       and silently dropping the suffix would resume from the wrong state *)
    let rec records acc shacc valid = function
      | [] -> (List.rev acc, List.rev shacc, valid)
      | (line, lend) :: tl -> (
        let damaged () =
          if tl = [] then (List.rev acc, List.rev shacc, valid)
          else corrupt "journal %s: damaged record line mid-file (offset %d)" (file ~dir) valid
        in
        match Json.parse line with
        | j when Json.member "kind" j = Some (Json.Str "record") -> (
          match entry_of_json j with
          | e ->
            if String.length e.e_signature <> h.atoms then
              corrupt "journal %s: record %d signature length %d (expected %d)" (file ~dir)
                e.e_index
                (String.length e.e_signature)
                h.atoms;
            records (e :: acc) shacc lend tl
          | exception Corrupt _ -> damaged ())
        (* provenance annotations: only legal when the header declared the
           "shared" capability — in any other journal an unexpected kind
           is damage, exactly as before *)
        | j when Json.member "kind" j = Some (Json.Str "shared") && List.mem "shared" h.caps
          -> (
          match shared_of_json j with
          | sh ->
            if String.length sh.sh_signature <> h.atoms then
              corrupt "journal %s: shared %d signature length %d (expected %d)" (file ~dir)
                sh.sh_index
                (String.length sh.sh_signature)
                h.atoms;
            records acc (sh :: shacc) lend tl
          | exception Corrupt _ -> damaged ())
        | _ -> damaged ()
        | exception Json.Parse_error _ -> damaged ())
    in
    let entries, shares, valid = records [] [] hend rest in
    { l_header = h; l_entries = entries; l_shared = shares; l_valid_bytes = valid;
      l_torn = valid < n }

(* Campaign discovery: every directory under [root] (bounded depth)
   holding a journal.jsonl, in deterministic depth-first lexicographic
   order. Foreign files, broken symlinks and unreadable directories are
   skipped silently — a service root interleaves job state files with
   campaign dirs, and listing must tolerate all of it. *)
let find_campaigns ~root () =
  let out = ref [] in
  let rec go depth dir =
    if Sys.file_exists (file ~dir) then out := dir :: !out
    else if depth < 3 then
      match Sys.readdir dir with
      | exception Sys_error _ -> ()
      | entries ->
        Array.sort compare entries;
        Array.iter
          (fun e ->
            let sub = Filename.concat dir e in
            let is_dir = try Sys.is_directory sub with Sys_error _ -> false in
            if is_dir then go (depth + 1) sub)
          entries
  in
  go 0 root;
  List.rev !out

let reopen ?(check = fun (_ : header) -> ()) ~dir () =
  let l = load ~dir in
  check l.l_header;
  let path = file ~dir in
  if l.l_torn then begin
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.ftruncate fd l.l_valid_bytes)
  end;
  (l, open_out_gen [ Open_wronly; Open_append ] 0o644 path)
