(** Campaign data export — the artifact's machine-readable outputs.

    The paper's artifact ships raw per-variant data from which its plots
    are rebuilt; these renderers produce the same data as CSV (one row per
    explored variant) and a compact JSON summary. *)

val csv_field : string -> string
(** RFC-4180 field encoding: quoted (with embedded quotes doubled) when
    the value holds a comma, quote or line break, unchanged otherwise. *)

val variants_csv : Tuner.campaign -> string
(** Header plus one row per variant: index, %32-bit, status, Eq.-1
    speedup, relative error, hotspot/model times, casting share, the
    predicted score and sound static error bound (empty unless the
    campaign ran with [--predict]), and the precision signature (one
    character per atom, '4' or '8'). The status and signature fields go
    through {!csv_field}. *)

val variants_csv_records :
  ?annot:(Search.Variant.record -> float option * float option) ->
  Search.Variant.record list ->
  string
(** {!variants_csv} over a bare record list — what [prose campaign
    replay] renders straight from a journal. [annot] supplies the
    (predicted_score, static_bound) cells per record (e.g. from the
    journal's own score fields); both default to empty, as for journals
    written before the columns existed. *)

val summary_json : Tuner.campaign -> string
(** Model, search-space size, threshold, Table-II row, 1-minimal variant,
    simulated cluster hours, memo-cache traffic ({!Search.Trace.stats}
    under ["trace"], with the resume bookkeeping), as a JSON object. *)

(** One campaign × predict-mode measurement of the bench predictive-search
    comparison: dynamic evaluations spent reaching the minimal set, total
    dynamic evaluations, simulated cluster hours (and the saving vs the
    [off] mode of the same campaign), and whether the minimal set is
    bit-identical to the [off] run's. *)
type predict_point = {
  pr_campaign : string;
  pr_mode : string;  (** ["off"] or ["rank"] *)
  pr_evals_to_minimal : int;
  pr_dynamic_evals : int;
  pr_sim_hours : float;
  pr_sim_hours_saved : float;
  pr_minimal_identical : bool;
}

(** One fleet-dedup measurement ([bench --fleet]): K identical-model
    service campaigns over the shared evaluation memo vs K solo runs —
    fleet-wide fresh evaluations ([trace.misses]) on both sides, the
    memo-served record count, the saving percentage, and whether every
    per-job journal (modulo provenance lines) and trace-stripped summary
    was byte-identical to its solo counterpart. *)
type fleet_point = {
  fl_jobs : int;
  fl_solo_misses : int;
  fl_fleet_misses : int;
  fl_fleet_shared : int;
  fl_saved_pct : float;
  fl_identical : bool;
}

val bench_json :
  ?scaling:Tuner.sched_stats list ->
  ?predict:predict_point list ->
  ?fleet:fleet_point list ->
  workers:int ->
  (string * float * Tuner.campaign) list ->
  string
(** The bench harness's perf-trajectory record ([BENCH_*.json]): worker
    count plus, per campaign, its label, measured wall-clock seconds,
    number of dynamic evaluations, the mean and max wall-clock
    milliseconds per evaluation, and the full {!summary_json} object.
    [scaling] appends the shard scheduler's workers x shards curve
    ([bench --scaling]): one object per grid point with the simulated
    makespan and steal/batch accounting. [fleet] appends the
    cross-campaign dedup measurements ([bench --fleet]). *)

val write_file : path:string -> string -> unit
