(** Deterministic run-to-run performance jitter.

    Real model executions on a shared supercomputer show run-to-run
    variance (1 % relative standard deviation for MPAS-A and ADCIRC, 9 %
    for MOM6 in the paper, Sec. IV-A); the paper's Eq. 1 takes the median
    of [n] runs to tolerate it. The cost model is deterministic, so the
    jitter is injected here: a multiplicative log-normal-ish factor drawn
    from a hash of (seed, run index), reproducible across processes. *)

val factor : seed:int -> run:int -> rel_std:float -> float
(** Multiplicative noise factor, mean ≈ 1, relative standard deviation
    ≈ [rel_std], clamped to [0.5, 2.0]. [rel_std = 0.] returns [1.]. *)
