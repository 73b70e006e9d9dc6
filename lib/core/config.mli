(** Tuning-campaign configuration.

    Collects the choices Fig. 1 asks the user for, beyond what the model
    registry already fixes (workload, correctness metric, threshold). *)

type mode =
  | Hotspot_guided
      (** the searches of Sec. IV-B: Eq.-1 speedup over the hotspot's CPU
          time (exclusive time of the targeted procedures) *)
  | Whole_model_guided
      (** the Sec. IV-C search: speedup over the whole model's time *)

type predict =
  | Predict_off  (** the unpredicted search (pre-PR-9 behaviour) *)
  | Predict_rank
      (** reorder ddmin partitions/complements by the static score so
          promising variants are tried first; the minimal set is
          bit-identical to [Predict_off], only the exploration order (and
          hence evaluations-to-minimal) changes. Every variant still runs
          against the threshold: a first-order upper bound on the error
          cannot prove a failure, so no variant is skipped on its bound *)

type t = {
  machine : Runtime.Machine.t;
  mode : mode;
  perf_floor : float;
      (** delta-debug acceptance floor on speedup; [0.95] tolerates Eq.-1
          noise around parity, matching "not less performant than the
          baseline" *)
  seed : int;  (** base seed for the injected run-to-run noise *)
  baseline_runs : int;  (** baseline ensemble size used to pick Eq.-1's n (10) *)
  static_filter : bool;
      (** enable the Sec.-V static pre-filter (vectorization report +
          casting-penalty cost model) before dynamic evaluation *)
  static_penalty_budget : float;  (** casting-penalty budget for the filter *)
  max_variants : int option;  (** overrides the model's default budget *)
  predict : predict;  (** sensitivity-guided search steering (off by default) *)
  predict_margin : float;
      (** no effect on the search: it only enters the [Predict_rank]
          digest (as [|margin:%h], 1e6 by default), which is kept byte for
          byte so existing rank journals keep resuming *)
}

val default : t
(** [Hotspot_guided], default machine, floor 0.95, seed 42, no static
    filter. *)

val digest : t -> string
(** Hex digest over the configuration (machine, mode, floor, seed,
    baseline runs, static filter + budget, variant budget, predict mode
    and margin). The campaign journal header stores it, and resume
    refuses a journal whose digest disagrees with the offered
    configuration. Every field enters it, so two configurations with one
    digest prepare the same evaluation space. [predict]/[predict_margin]
    are appended only when predict is [Predict_rank], the one mode that
    reads the margin, so pre-PR-9 journals keep their digests. *)
