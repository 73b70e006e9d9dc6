(* Spans, percentiles and process counters for the benchmark.

   Spans are recorded only by the benchmark's own code, around calls into
   the program's public functions and inside its public hooks, and only
   from the main domain (hooks that run on pool domains use atomics). They
   stay in memory and are written out when the traced run ends. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;  (* "<layer>.<what>" *)
  parent : int;  (* 0 for a root span *)
  mutable owner : string;  (* campaign or job id *)
  t0 : float;
  mutable t1 : float;
}

let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 1

let enter ?owner name =
  let parent, inherited =
    match !stack with s :: _ -> (s.id, s.owner) | [] -> (0, "")
  in
  let s =
    { id = !next_id; name; parent; owner = Option.value owner ~default:inherited;
      t0 = now (); t1 = nan }
  in
  incr next_id;
  spans := s :: !spans;
  stack := s :: !stack;
  s

let leave s =
  if Float.is_nan s.t1 then begin
    s.t1 <- now ();
    let rec pop = function [] -> [] | x :: rest -> if x == s then rest else pop rest in
    stack := pop !stack
  end

let span ?owner name f =
  let s = enter ?owner name in
  Fun.protect ~finally:(fun () -> leave s) f

let dur s = s.t1 -. s.t0
let closed () = List.filter (fun s -> not (Float.is_nan s.t1)) !spans
let durations name = List.filter_map (fun s -> if s.name = name then Some (dur s) else None) (closed ())

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

type row = { layer : string; calls : int; busy : float; self : float }

(* Self time is a span's duration minus its children's (children of one
   span never overlap: they all run on the main domain). Busy time counts
   a layer's outermost spans only, so nested spans of one layer are not
   counted twice. *)
let ledger () =
  let all = closed () in
  let by_id = Hashtbl.create 1024 and child_time = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    all;
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let layer = layer_of s.name in
      let r =
        Option.value (Hashtbl.find_opt rows layer)
          ~default:{ layer; calls = 0; busy = 0.0; self = 0.0 }
      in
      let outermost =
        match Hashtbl.find_opt by_id s.parent with
        | Some p -> layer_of p.name <> layer
        | None -> true
      in
      let own = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      Hashtbl.replace rows layer
        { r with calls = r.calls + 1; busy = (if outermost then r.busy +. dur s else r.busy);
                 self = r.self +. own })
    all;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows [] |> List.sort compare

(* Share of [t0, t1] covered by root spans. *)
let coverage ~t0 ~t1 =
  let roots = List.filter (fun s -> s.parent = 0) (closed ()) in
  List.fold_left (fun acc s -> acc +. dur s) 0.0 roots /. (t1 -. t0)

let write_spans ~path ~t0 =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Persist.Json.to_string
           (Persist.Json.Obj
              [ ("id", Num (float_of_int s.id)); ("name", Str s.name);
                ("parent", Num (float_of_int s.parent)); ("owner", Str s.owner);
                ("start_s", Num (s.t0 -. t0)); ("end_s", Num (s.t1 -. t0)) ]));
      output_char oc '\n')
    (List.rev (closed ()));
  close_out oc

let write_table ~path ~wall rows =
  let oc = open_out path in
  Printf.fprintf oc "%-12s %8s %12s %12s %8s\n" "layer" "calls" "busy_ms" "self_ms" "share";
  List.iter
    (fun r ->
      Printf.fprintf oc "%-12s %8d %12.3f %12.3f %8.4f\n" r.layer r.calls (1e3 *. r.busy)
        (1e3 *. r.self) (r.self /. wall))
    rows;
  close_out oc

(* Linear interpolation between closest ranks; 0 for no samples. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i + 1 < n then a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i))) else a.(n - 1)

let mean xs =
  match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Reads to end of file ([/proc] files have no length to seek to). *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  match line with
  | Some l -> Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith "no VmHWM in /proc/self/status"

(* CPU seconds (user + system) of this process's main thread and of all its
   other threads (OCaml domains are threads), from /proc/self/task. Linux
   reports them in clock ticks of 1/100 s. *)
let thread_cpu () =
  let pid = string_of_int (Unix.getpid ()) in
  Array.fold_left
    (fun (main, others) tid ->
      match read_file (Printf.sprintf "/proc/self/task/%s/stat" tid) with
      | exception Sys_error _ -> (main, others)
      | stat ->
        (* fields 14 and 15 are utime and stime; the fields after the
           parenthesised command name start at field 3 *)
        let close = String.rindex stat ')' in
        let f =
          Array.of_list
            (String.split_on_char ' ' (String.sub stat (close + 2) (String.length stat - close - 2)))
        in
        let secs = (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0 in
        if tid = pid then (main +. secs, others) else (main, others +. secs))
    (0.0, 0.0)
    (Sys.readdir "/proc/self/task")
