open Search

(* RFC 4180: quote a field if it holds a comma, a double quote or a line
   break; double embedded quotes. Plain fields pass through unquoted. *)
let csv_field s =
  let needs_quoting =
    String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s
  in
  if not needs_quoting then s
  else begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

(* predicted_score / static_bound cells stay empty when the campaign ran
   without prediction (or the journal predates the columns) *)
let opt_cell = function
  | None -> ""
  | Some v -> Printf.sprintf "%.6g" v

let variants_csv_records ?(annot = fun (_ : Variant.record) -> (None, None)) records =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "index,pct_32bit,status,speedup,rel_error,hotspot_time,model_time,casting_share,\
     predicted_score,static_bound,signature\n";
  List.iter
    (fun (r : Variant.record) ->
      let m = r.Variant.meas in
      let score, bound = annot r in
      Buffer.add_string b
        (Printf.sprintf "%d,%.4f,%s,%.6g,%.6g,%.6g,%.6g,%.4f,%s,%s,%s\n" r.Variant.index
           (100.0 *. Variant.fraction_lowered r)
           (csv_field (Variant.status_to_string m.Variant.status))
           m.Variant.speedup m.Variant.rel_error m.Variant.hotspot_time m.Variant.model_time
           m.Variant.casting_share (opt_cell score) (opt_cell bound)
           (csv_field (Transform.Assignment.signature r.Variant.asg))))
    records;
  Buffer.contents b

let variants_csv (c : Tuner.campaign) =
  let annot =
    match c.Tuner.prepared.Tuner.scorer with
    | None -> fun _ -> (None, None)
    | Some sc ->
      fun (r : Variant.record) ->
        ( Some (Sensitivity.Score.score sc r.Variant.asg),
          Some (Sensitivity.Score.static_bound sc r.Variant.asg) )
  in
  variants_csv_records ~annot c.Tuner.records

(* One escaping for every JSON we emit — shared with the campaign
   journal's encoder, covering \r, \t and the rest of the C0 controls. *)
let json_escape = Persist.Json.escape_string

let jfloat v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let summary_json (c : Tuner.campaign) =
  let p = c.Tuner.prepared in
  let m = p.Tuner.model in
  let s = c.Tuner.summary in
  let minimal =
    match c.Tuner.minimal with
    | None -> "null"
    | Some r ->
      Printf.sprintf
        {|{"high_atoms": [%s], "finished": %b, "evaluations": %d}|}
        (String.concat ", "
           (List.map
              (fun a -> "\"" ^ json_escape (Transform.Assignment.atom_id a) ^ "\"")
              r.Search.Delta_debug.high_set))
        r.Search.Delta_debug.finished r.Search.Delta_debug.evaluations
  in
  Printf.sprintf
    {|{
  "model": "%s",
  "target_module": "%s",
  "atoms": %d,
  "threshold": %s,
  "eq1_n": %d,
  "baseline_cost": %s,
  "baseline_hotspot": %s,
  "variants": %d,
  "pass_pct": %s,
  "fail_pct": %s,
  "timeout_pct": %s,
  "error_pct": %s,
  "best_speedup": %s,
  "simulated_hours": %s,
  "trace": {"hits": %d, "misses": %d, "shared": %d, "live": %d, "appends": %d, "preloaded": %d, "interrupted": %b},
  "backend": {"compiled_procs": %d, "compile_hits": %d, "reuse_hits": %d, "reuse_misses": %d},
  "minimal": %s
}
|}
    (json_escape m.Models.Registry.name)
    (json_escape m.Models.Registry.target_module)
    (List.length p.Tuner.atoms) (jfloat p.Tuner.threshold) p.Tuner.eq1_n
    (jfloat p.Tuner.baseline_cost) (jfloat p.Tuner.baseline_hotspot) s.Variant.total
    (jfloat s.Variant.pass_pct) (jfloat s.Variant.fail_pct) (jfloat s.Variant.timeout_pct)
    (jfloat s.Variant.error_pct) (jfloat s.Variant.best_speedup) (jfloat c.Tuner.simulated_hours)
    c.Tuner.trace_stats.Trace.hits c.Tuner.trace_stats.Trace.misses
    c.Tuner.trace_stats.Trace.shared
    c.Tuner.trace_stats.Trace.live c.Tuner.trace_stats.Trace.appends
    c.Tuner.preloaded c.Tuner.interrupted
    c.Tuner.backend.Tuner.compiled_procs c.Tuner.backend.Tuner.compile_hits
    c.Tuner.backend.Tuner.reuse_hits c.Tuner.backend.Tuner.reuse_misses
    minimal

let sched_json (s : Tuner.sched_stats) =
  Printf.sprintf
    "{\"shards\": %d, \"workers\": %d, \"slots\": %d, \"sim_hours\": %s, \"steals\": %d, \
     \"rounds\": %d, \"batched\": %d, \"serial\": %d}"
    s.Tuner.sched_shards s.Tuner.sched_workers s.Tuner.sched_slots
    (jfloat s.Tuner.sched_sim_hours) s.Tuner.sched_steals s.Tuner.sched_rounds
    s.Tuner.sched_batched s.Tuner.sched_serial

type predict_point = {
  pr_campaign : string;
  pr_mode : string;
  pr_evals_to_minimal : int;
  pr_dynamic_evals : int;
  pr_sim_hours : float;
  pr_sim_hours_saved : float;
  pr_minimal_identical : bool;
}

let predict_point_json p =
  Printf.sprintf
    "    {\"campaign\": \"%s\", \"mode\": \"%s\", \"evals_to_minimal\": %d, \
     \"dynamic_evals\": %d, \"sim_hours\": %s, \"sim_hours_saved\": %s, \
     \"minimal_identical\": %b}"
    (json_escape p.pr_campaign) (json_escape p.pr_mode) p.pr_evals_to_minimal
    p.pr_dynamic_evals (jfloat p.pr_sim_hours) (jfloat p.pr_sim_hours_saved)
    p.pr_minimal_identical

type fleet_point = {
  fl_jobs : int;
  fl_solo_misses : int;
  fl_fleet_misses : int;
  fl_fleet_shared : int;
  fl_saved_pct : float;
  fl_identical : bool;
}

let fleet_point_json f =
  Printf.sprintf
    "    {\"jobs\": %d, \"solo_misses\": %d, \"fleet_misses\": %d, \"fleet_shared\": %d, \
     \"saved_pct\": %s, \"identical\": %b}"
    f.fl_jobs f.fl_solo_misses f.fl_fleet_misses f.fl_fleet_shared (jfloat f.fl_saved_pct)
    f.fl_identical

let bench_json ?scaling ?predict ?fleet ~workers entries =
  let entry (name, wall_seconds, c) =
    let summary = String.trim (summary_json c) in
    Printf.sprintf
      "    {\"name\": \"%s\", \"wall_seconds\": %s, \"evaluations\": %d, \"eval_ms_mean\": %s, \
       \"eval_ms_max\": %s, \"summary\": %s}"
      (json_escape name) (jfloat wall_seconds)
      (List.length c.Tuner.records)
      (jfloat c.Tuner.eval_ms_mean) (jfloat c.Tuner.eval_ms_max)
      summary
  in
  let scaling_section =
    match scaling with
    | None | Some [] -> ""
    | Some points ->
      Printf.sprintf ",\n  \"scaling\": [\n%s\n  ]"
        (String.concat ",\n"
           (List.map (fun s -> "    " ^ sched_json s) points))
  in
  let predict_section =
    match predict with
    | None | Some [] -> ""
    | Some points ->
      Printf.sprintf ",\n  \"predict\": [\n%s\n  ]"
        (String.concat ",\n" (List.map predict_point_json points))
  in
  let fleet_section =
    match fleet with
    | None | Some [] -> ""
    | Some points ->
      Printf.sprintf ",\n  \"fleet\": [\n%s\n  ]"
        (String.concat ",\n" (List.map fleet_point_json points))
  in
  Printf.sprintf "{\n  \"workers\": %d,\n  \"campaigns\": [\n%s\n  ]%s%s%s\n}\n" workers
    (String.concat ",\n" (List.map entry entries))
    scaling_section predict_section fleet_section

let write_file ~path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)
