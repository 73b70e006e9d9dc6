type suite = {
  funarc : Tuner.campaign;
  mpas : Tuner.campaign;
  adcirc : Tuner.campaign;
  mom6 : Tuner.campaign;
  mpas_whole : Tuner.campaign;
  whole_model_joint : Tuner.campaign;
}

let funarc_campaign ?config () = Tuner.run_brute_force ?config Models.Registry.funarc

let hotspot_campaign ?config ?workers name =
  Tuner.run_delta_debug ?config ?workers (Models.Registry.find name)

let whole_model_campaign ?(config = Config.default) ?workers ?shards () =
  Tuner.run_delta_debug
    ~config:{ config with Config.mode = Config.Whole_model_guided }
    ?workers ?shards Models.Registry.mpas

let joint_campaign ?(config = Config.default) ?workers ?shards () =
  Tuner.run_delta_debug
    ~config:{ config with Config.mode = Config.Whole_model_guided }
    ?workers ?shards Models.Registry.mpas_joint

let run_suite ?config ?workers ?shards () =
  {
    funarc = funarc_campaign ?config ();
    mpas = hotspot_campaign ?config ?workers "mpas";
    adcirc = hotspot_campaign ?config ?workers "adcirc";
    mom6 = hotspot_campaign ?config ?workers "mom6";
    mpas_whole = whole_model_campaign ?config ?workers ?shards ();
    whole_model_joint = joint_campaign ?config ?workers ?shards ();
  }

type ablation = {
  label : string;
  baseline_campaign : Tuner.campaign;
  treated_campaign : Tuner.campaign;
  narrative : string;
}

let ablation_static_filter ?(config = Config.default) () =
  let base = Tuner.run_delta_debug ~config Models.Registry.mpas in
  let treated =
    Tuner.run_delta_debug ~config:{ config with Config.static_filter = true }
      Models.Registry.mpas
  in
  {
    label = "static variant filtering (Sec. V) on MPAS-A";
    baseline_campaign = base;
    treated_campaign = treated;
    narrative =
      "The Sec.-V recommendation: before dynamic evaluation, reject variants that \
       vectorize fewer loops than the baseline or whose flow-graph casting penalty \
       exceeds a budget. Filtered variants cost no cluster time: they are counted \
       as failures without execution, and the simulated hours charge only the \
       variants that ran.";
  }

let ablation_no_simd ?(config = Config.default) () =
  let base = Tuner.run_delta_debug ~config Models.Registry.mpas in
  let treated =
    Tuner.run_delta_debug
      ~config:{ config with Config.machine = Runtime.Machine.scalar }
      Models.Registry.mpas
  in
  {
    label = "no-SIMD machine (criterion 1 ablated) on MPAS-A";
    baseline_campaign = base;
    treated_campaign = treated;
    narrative =
      "Criterion (1): reduced precision pays off mainly through wider vectors. On a \
       machine without SIMD the same search finds only the residual gains (cheaper \
       division/intrinsics and memory traffic).";
  }

let ablation_search ?(config = Config.default) () =
  let base = Tuner.run_delta_debug ~config Models.Registry.mpas in
  let budget =
    match base.Tuner.records with rs -> List.length rs
  in
  let treated =
    Tuner.run_random ~config:{ config with Config.max_variants = Some budget } ~samples:(4 * budget)
      Models.Registry.mpas
  in
  {
    label = "delta debugging vs random sampling at equal budget (MPAS-A)";
    baseline_campaign = base;
    treated_campaign = treated;
    narrative =
      "The canonical delta-debugging strategy against naive random subsets, both \
       allowed the same number of dynamic evaluations.";
  }

let ablation_hierarchical ?(config = Config.default) () =
  let base = Tuner.run_delta_debug ~config Models.Registry.mom6 in
  let treated = Tuner.run_hierarchical ~config Models.Registry.mom6 in
  {
    label = "flat delta debugging vs flow-graph-clustered search (MOM6)";
    baseline_campaign = base;
    treated_campaign = treated;
    narrative =
      "Sec. V: clustering variables by the interprocedural FP flow graph lets the \
       search move parameter-passing-coupled variables together, avoiding the \
       wrapper-overhead pathology mid-search and shrinking the effective space \
       (HiFPTuner's community structure, Yao & Xue's manual clusters).";
  }

let render_ablation a =
  let line label (c : Tuner.campaign) =
    let s = c.Tuner.summary in
    Printf.sprintf
      "  %-10s %4d variants, pass %5.1f%%, best %.2fx, simulated %.1f h%s\n" label
      s.Search.Variant.total s.Search.Variant.pass_pct s.Search.Variant.best_speedup
      c.Tuner.simulated_hours
      (match c.Tuner.minimal with
      | Some r ->
        Printf.sprintf ", 1-minimal keeps %d atoms" (List.length r.Search.Delta_debug.high_set)
      | None -> "")
  in
  Printf.sprintf "ABLATION: %s\n%s%s%s\n" a.label (line "baseline" a.baseline_campaign)
    (line "treated" a.treated_campaign) ("  " ^ a.narrative)
