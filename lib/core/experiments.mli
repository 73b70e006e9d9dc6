(** The four tuning campaigns of the case study, plus the Sec.-V
    ablations, packaged for the benchmark harness and the CLI.

    Experiment index (see DESIGN.md §3):
    - E1/E2: funarc brute force → Figures 2 and 3;
    - E3/E4: Table I and Table II rows from the three hotspot campaigns;
    - E5/E6: Figures 5 and 6 per model;
    - E7: the whole-model-guided MPAS-A search → Figure 7;
    - E8: ablations — static variant filtering (Sec. V) and a no-SIMD
      machine (criterion 1). *)

type suite = {
  funarc : Tuner.campaign;
  mpas : Tuner.campaign;
  adcirc : Tuner.campaign;
  mom6 : Tuner.campaign;
  mpas_whole : Tuner.campaign;
  whole_model_joint : Tuner.campaign;
}

val run_suite : ?config:Config.t -> ?workers:int -> ?shards:int -> unit -> suite
(** Runs everything (minutes of CPU). The same [config] seeds every
    campaign, so a suite is reproducible. [workers] (default: one per
    spare core; [0] = sequential) parallelizes each delta-debug
    campaign's variant evaluations without changing any result — see
    {!Tuner.run}. [shards] runs the two whole-model
    campaigns on the {!Search.Shard} work-stealing scheduler, again
    without changing any result. *)

val funarc_campaign : ?config:Config.t -> unit -> Tuner.campaign
val hotspot_campaign : ?config:Config.t -> ?workers:int -> string -> Tuner.campaign
(** By model name ("mpas", "adcirc", "mom6"). *)

val whole_model_campaign :
  ?config:Config.t -> ?workers:int -> ?shards:int -> unit -> Tuner.campaign
(** MPAS-A guided by whole-model time (Sec. IV-C). *)

val joint_campaign :
  ?config:Config.t -> ?workers:int -> ?shards:int -> unit -> Tuner.campaign
(** The joint multi-hotspot campaign ({!Models.Registry.mpas_joint}):
    whole-model-guided search over every [atm_time_integration]
    procedure including the [atm_srk3] driver, so cross-procedure
    boundary casts are tuned rather than fixed. The scenario the shard
    scheduler targets. *)

type ablation = {
  label : string;
  baseline_campaign : Tuner.campaign;  (** the reference configuration *)
  treated_campaign : Tuner.campaign;  (** with the studied change applied *)
  narrative : string;
}

val ablation_static_filter : ?config:Config.t -> unit -> ablation
(** MPAS-A with and without the Sec.-V static pre-filter: how many
    dynamic evaluations the filter saves and what it costs in outcome. *)

val ablation_no_simd : ?config:Config.t -> unit -> ablation
(** MPAS-A on a machine without SIMD: criterion (1)'s contribution to
    reduced-precision speedup disappears. *)

val ablation_search : ?config:Config.t -> unit -> ablation
(** Delta debugging vs random sampling at an equal variant budget. *)

val ablation_hierarchical : ?config:Config.t -> unit -> ablation
(** Flat delta debugging vs the flow-graph-clustered hierarchical search
    on MOM6 (the largest search space): evaluations spent and outcome. *)

val render_ablation : ablation -> string
