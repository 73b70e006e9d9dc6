type t = {
  s_records : int;
  s_hours : float;
  s_best_speedup : float;
  s_lost_seconds : float;
  s_preemptions : int;
  s_finished : bool;
}

let file ~dir = Filename.concat dir "snapshot.json"

let to_json s =
  Json.Obj
    [
      ("records", Json.Num (float_of_int s.s_records));
      ("hours", Json.Str (Json.hex_float s.s_hours));
      ("best_speedup", Json.Str (Json.hex_float s.s_best_speedup));
      ("lost_seconds", Json.Str (Json.hex_float s.s_lost_seconds));
      ("preemptions", Json.Num (float_of_int s.s_preemptions));
      ("finished", Json.Bool s.s_finished);
    ]

let of_json j =
  let open Option in
  bind (bind (Json.member "records" j) Json.to_int) (fun s_records ->
      bind (bind (Json.member "hours" j) Json.to_str) (fun hours ->
          bind (bind (Json.member "best_speedup" j) Json.to_str) (fun best ->
              bind (bind (Json.member "lost_seconds" j) Json.to_str) (fun lost ->
                  bind (bind (Json.member "preemptions" j) Json.to_int) (fun s_preemptions ->
                      bind (bind (Json.member "finished" j) Json.to_bool) (fun s_finished ->
                          some
                            {
                              s_records;
                              s_hours = Json.of_hex_float hours;
                              s_best_speedup = Json.of_hex_float best;
                              s_lost_seconds = Json.of_hex_float lost;
                              s_preemptions;
                              s_finished;
                            }))))))

let write ~dir s =
  Durable.mkdir_p dir;
  Durable.atomic_write ~path:(file ~dir) (Json.to_string (to_json s) ^ "\n")

let read ~dir =
  match open_in_bin (file ~dir) with
  | exception Sys_error _ -> None
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (match of_json (Json.parse s) with
    | v -> v
    | exception Json.Parse_error _ -> None)
