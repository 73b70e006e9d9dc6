(** Validation criteria from the paper's Artifact Appendix.

    The paper's artifact cannot be validated bit-for-bit ("because of the
    inherent non-determinism of a performance-guided search, one cannot
    expect bit-for-bit reproducibility. Instead, the results of each
    experiment should be validated by visual inspection of generated
    plots, ensuring that they possess the following properties"). Each
    check below encodes one of those properties as a predicate over a
    campaign; the test suite asserts the load-bearing ones and the
    benchmark prints all of them. *)

type check = {
  name : string;
  value : string;  (** the measured quantity, rendered *)
  ok : bool;
}

val mpas_hotspot : Tuner.campaign -> check list
(** Best speedup high; ≤30 %-lowered variants not faster than baseline;
    ≥90 %-lowered passing variants fastest; dyn-tend/flux procedures
    explored with many more unique variants than the quickly-settled work
    routines; flux variants with large per-call slowdowns. *)

val adcirc_hotspot : Tuner.campaign -> check list
(** Best speedup modest (~1.1×); peror/pjac insensitive to precision;
    jcg iteration counts bimodal (fast-wrong vs full-length). *)

val mom6_hotspot : Tuner.campaign -> check list
(** Best speedup negligible; runtime errors dominate the failure classes;
    flux-adjust variants with order-of-magnitude per-call slowdowns;
    search truncated by the variant budget. *)

val mpas_whole_model : Tuner.campaign -> check list
(** Best speedup ≈ 1 or below; heavily-lowered variants markedly slower —
    the two Fig.-7 clusters. *)

val funarc : Tuner.campaign -> check list
(** 2⁸ variants explored; frontier reaches ≥1.3×; a majority-lowered
    frontier variant has less error than uniform 32-bit; a substantial
    share of variants is worse than the original on both axes. *)

val render : check list -> string
