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
          hence evaluations-to-minimal) changes *)
  | Predict_prune
      (** [Predict_rank] plus: skip dynamic evaluation of variants whose
          finite static error bound already exceeds
          [predict_margin × threshold], journaling them as [static:] loss
          records *)

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
      (** soundness slack for [Predict_prune]: only variants whose static
          bound exceeds margin × threshold are skipped. The default (1e6)
          is deliberately enormous: the worst-case rounding model
          accumulates linearly where real errors random-walk, so sound
          bounds overshoot observed error by ~sqrt(ops) — measured up to
          ~1.2e5× threshold on passing funarc variants — and pruning must
          never skip a variant that would pass. Lower it explicitly to
          trade safety for pruning. *)
  proc_cache : bool;
      (** reuse lowered procedures across variants keyed by precision
          signature ({!Runtime.Lower.Cache}); on by default, off gives
          every evaluation a fresh lowering (results are identical) *)
  verify_roundtrip : bool;
      (** run every variant through both the direct-AST fast path and the
          unparse→reparse slow path and fail loudly if any outcome bit
          differs; the fast path's correctness oracle (off by default —
          it restores the old per-variant cost, and then some) *)
  batch_reuse : bool;
      (** share whole-run outcomes between variants whose effective
          precision assignment is identical on the reachable program (the
          raw outcome is a pure function of that signature); on by
          default, off recomputes every variant (results are identical) *)
}

val default : t
(** [Hotspot_guided], default machine, floor 0.95, seed 42, no static
    filter. *)

val digest : t -> string
(** Hex digest over the result-affecting fields (machine, mode, floor,
    seed, baseline runs, static filter + budget, variant budget). The
    campaign journal header stores it, and resume refuses a journal whose
    digest disagrees with the offered configuration. [proc_cache],
    [verify_roundtrip] and [batch_reuse] are excluded: they
    change how variants are evaluated, never what the results are.
    [predict]/[predict_margin] are appended only when predict is not
    [Predict_off], so pre-PR-9 journals keep their digests. *)
