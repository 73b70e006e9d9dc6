open Search

type check = {
  name : string;
  value : string;
  ok : bool;
}

let mk name fmt ok = { name; value = fmt; ok }
let fnum v = Printf.sprintf "%.3g" v

let best (c : Tuner.campaign) = c.Tuner.summary.Variant.best_speedup

let proc_speedups c proc = Report.per_proc_per_call_speedups c ~proc

(* ------------------------------------------------------------------ *)

let funarc (c : Tuner.campaign) =
  let records = c.Tuner.records in
  let n = List.length records in
  let worse_both =
    List.length
      (List.filter
         (fun (r : Variant.record) ->
           r.Variant.meas.Variant.speedup > 0.0
           && r.Variant.meas.Variant.speedup < 1.0
           && r.Variant.meas.Variant.rel_error > 0.0)
         records)
  in
  let frontier = Variant.frontier records in
  let uniform32_err =
    List.fold_left
      (fun acc (r : Variant.record) ->
        if Transform.Assignment.count_at r.Variant.asg Fortran.Ast.K8 = 0 then
          r.Variant.meas.Variant.rel_error
        else acc)
      nan records
  in
  let good_frontier =
    List.exists
      (fun (r : Variant.record) ->
        Transform.Assignment.fraction_lowered r.Variant.asg >= 0.5
        && r.Variant.meas.Variant.rel_error < uniform32_err
        && r.Variant.meas.Variant.speedup >= 1.25)
      frontier
  in
  [
    mk "2^8 = 256 variants explored" (string_of_int n) (n = 256);
    mk "frontier reaches >= 1.3x" (fnum (best c)) (best c >= 1.3);
    mk "majority-lowered frontier variant beats uniform-32 error at >=1.25x"
      (Printf.sprintf "uniform32 err %.3g" uniform32_err)
      good_frontier;
    mk "substantial share worse on both axes (casting overhead)"
      (Printf.sprintf "%.0f%%" (100.0 *. float_of_int worse_both /. float_of_int (max 1 n)))
      (float_of_int worse_both /. float_of_int (max 1 n) >= 0.25);
  ]

let mpas_hotspot (c : Tuner.campaign) =
  let low_bucket = Report.speedups_in_bucket c ~lo:0.0 ~hi:30.0 in
  let high_pass = Report.passing_speedups_in_bucket c ~lo:89.0 ~hi:100.0 in
  let flux_min =
    Float.min
      (Metrics.Stats.minimum (proc_speedups c "flux4"))
      (Metrics.Stats.minimum (proc_speedups c "flux3"))
  in
  let dyn_uniq = Report.unique_proc_variants c ~proc:"atm_compute_dyn_tend_work" in
  let rec_uniq = Report.unique_proc_variants c ~proc:"atm_recover_large_step_variables_work" in
  [
    mk "best speedup substantial (paper ~1.9x)" (fnum (best c)) (best c >= 1.35);
    mk "<=30% 32-bit variants not faster than baseline"
      (Printf.sprintf "max %.2f" (Metrics.Stats.maximum low_bucket))
      (low_bucket = [] || Metrics.Stats.maximum low_bucket <= 1.05);
    mk ">=90% 32-bit passing variants are the fastest"
      (Printf.sprintf "max %.2f" (Metrics.Stats.maximum high_pass))
      (high_pass <> [] && Metrics.Stats.maximum high_pass >= 1.35)
      ;
    mk "dyn_tend explored more than the quickly-settled recover routine"
      (Printf.sprintf "%d vs %d" dyn_uniq rec_uniq)
      (dyn_uniq >= rec_uniq);
    mk "flux variants with critical per-call slowdown (paper 0.03-0.1x)" (fnum flux_min)
      (flux_min <= 0.2);
    mk "no runtime errors (paper 0%)"
      (Printf.sprintf "%.1f%%" c.Tuner.summary.Variant.error_pct)
      (c.Tuner.summary.Variant.error_pct <= 5.0);
  ]

let adcirc_hotspot (c : Tuner.campaign) =
  let jcg = proc_speedups c "jcg" in
  let pjac = proc_speedups c "pjac" in
  let peror = proc_speedups c "peror" in
  [
    mk "best speedup minimal (paper ~1.1x)" (fnum (best c)) (best c >= 0.9 && best c <= 1.3);
    mk "peror insensitive to precision (allreduce-bound)"
      (Printf.sprintf "median %.2f" (Metrics.Stats.median peror))
      (peror <> [] && Metrics.Stats.median peror >= 0.6 && Metrics.Stats.median peror <= 1.4);
    mk "pjac gains little (loop-carried dependence)"
      (Printf.sprintf "median %.2f" (Metrics.Stats.median pjac))
      (pjac <> [] && Metrics.Stats.median pjac >= 0.5 && Metrics.Stats.median pjac <= 1.6);
    mk "jcg bimodal: fast-but-wrong variants exist"
      (Printf.sprintf "max %.2f" (Metrics.Stats.maximum jcg))
      (jcg <> [] && Metrics.Stats.maximum jcg >= 1.3);
    mk "jcg bimodal: full-length variants exist"
      (Printf.sprintf "min %.2f" (Metrics.Stats.minimum jcg))
      (jcg <> [] && Metrics.Stats.minimum jcg <= 1.0);
    mk "runtime-error class present (paper 29.7%)"
      (Printf.sprintf "%.1f%%" c.Tuner.summary.Variant.error_pct)
      (c.Tuner.summary.Variant.error_pct > 0.0);
  ]

let mom6_hotspot (c : Tuner.campaign) =
  let adjust = proc_speedups c "zonal_flux_adjust" in
  let truncated =
    match c.Tuner.minimal with
    | Some r -> not r.Search.Delta_debug.finished
    | None -> false
  in
  [
    mk "best speedup negligible (paper 1.04x)" (fnum (best c)) (best c <= 1.2);
    mk "runtime errors dominate (paper 51.7%)"
      (Printf.sprintf "%.1f%%" c.Tuner.summary.Variant.error_pct)
      (c.Tuner.summary.Variant.error_pct >= 30.0);
    mk "flux_adjust variants with 10-100x convergence blowup (paper 0.01-0.1x/call)"
      (fnum (Metrics.Stats.minimum adjust))
      (adjust <> [] && Metrics.Stats.minimum adjust <= 0.15);
    mk "search truncated by the 12-hour budget" (string_of_bool truncated) truncated;
    (let max_cast =
       List.fold_left
         (fun acc (r : Variant.record) -> Float.max acc r.Variant.meas.Variant.casting_share)
         0.0 c.Tuner.records
     in
     (* the paper's variant 58 spends 40 % of CPU on casting; our layer
        arrays are an order of magnitude smaller, so the share scales down *)
     mk "variants with heavy array-boundary casting (paper: 40% of CPU)"
       (Printf.sprintf "max %.0f%%" (100.0 *. max_cast))
       (max_cast >= 0.15));
  ]

let mpas_whole_model (c : Tuner.campaign) =
  let heavy = Report.speedups_in_bucket c ~lo:89.0 ~hi:100.0 in
  let light = Report.speedups_in_bucket c ~lo:0.0 ~hi:50.0 in
  [
    mk "best whole-model speedup ~1x or below (paper <1.1x)" (fnum (best c)) (best c <= 1.1);
    mk ">=90% 32-bit variants markedly slower (paper <0.6x)"
      (Printf.sprintf "median %.2f" (Metrics.Stats.median heavy))
      (heavy <> [] && Metrics.Stats.median heavy <= 0.85);
    mk "<=50% 32-bit variants near baseline (paper 0.8-1x)"
      (Printf.sprintf "median %.2f" (Metrics.Stats.median light))
      (light = [] || Metrics.Stats.median light >= 0.55);
  ]

let render checks =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "  [%s] %-68s %s\n" (if c.ok then "ok" else "!!") c.name c.value)
       checks)
