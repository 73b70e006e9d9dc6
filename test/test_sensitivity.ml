(* Predictive-search tests: the error-amplification scorer, the
   evidence-driven rank engine, scheduler/resume determinism of the
   steered trajectories, the holdout split's scheduling invariance, and
   the CSV/journal prediction columns. *)

let t name f = Alcotest.test_case name `Quick f

let small_funarc =
  { Models.Registry.funarc with Models.Registry.source = Models.Funarc.source ~n:200 () }

let small_mpas =
  { Models.Registry.mpas with
    Models.Registry.source = Models.Mpas.source ~p:Models.Mpas.small () }

let with_predict mode config = { config with Core.Config.predict = mode }

let signatures (c : Core.Tuner.campaign) =
  List.map
    (fun (r : Search.Variant.record) ->
      ( r.Search.Variant.index,
        Transform.Assignment.signature r.Search.Variant.asg,
        Search.Variant.status_to_string r.Search.Variant.meas.Search.Variant.status ))
    c.Core.Tuner.records

let minimal_sig (c : Core.Tuner.campaign) =
  Option.map
    (fun m -> Transform.Assignment.signature m.Search.Delta_debug.minimal)
    c.Core.Tuner.minimal

(* ------------------------------------------------------------------ *)
(* Scorer                                                              *)

let scorer_tests =
  [
    t "scorer engages on funarc" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        let p = Core.Tuner.prepare ~config small_funarc in
        match p.Core.Tuner.scorer with
        | None -> Alcotest.fail "the mirror analysis declined funarc"
        | Some sc ->
          Alcotest.(check (float 0.0))
            "nothing lowered, nothing bounded" 0.0
            (Sensitivity.Score.static_bound sc
               (Transform.Assignment.original p.Core.Tuner.atoms));
          List.iter
            (fun a ->
              match Sensitivity.Score.atom_bound sc a with
              | None -> Alcotest.fail "demotable atom without a bound"
              | Some b ->
                Alcotest.(check bool) "bound is non-negative" true (b >= 0.0 || b <> b))
            p.Core.Tuner.atoms);
    t "scorer is off when predict is off" (fun () ->
        let p = Core.Tuner.prepare small_funarc in
        Alcotest.(check bool) "no scorer" true (p.Core.Tuner.scorer = None));
  ]

(* ------------------------------------------------------------------ *)
(* Mirror output bits                                                  *)

(* Every bit the mirror computes on a registered model, in one digest:
   status, step count, poisoned flags, every sample key, value and error
   entry, and the scorer's per-atom bound and amplification, floats in
   [%h].  The constants were recorded before the error maps changed
   representation; any drift in an entry, in the support of a map (an
   absent entry is not an explicit zero), or in the step count shows. *)
let mirror_digest (model : Models.Registry.t) =
  let st =
    Fortran.Symtab.build
      (Fortran.Parser.parse ~file:(model.Models.Registry.name ^ ".f90")
         model.Models.Registry.source)
  in
  Fortran.Typecheck.check_program st;
  let atoms =
    Transform.Assignment.atoms_of_target st ~module_:model.Models.Registry.target_module
      ~procs:(Some model.Models.Registry.target_procs)
      ~exclude:model.Models.Registry.exclude_atoms
  in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.bprintf buf fmt in
  let r = Sensitivity.Absint.analyze ~atoms st in
  (match r.Sensitivity.Absint.r_status with
  | Sensitivity.Absint.Finished -> pf "finished"
  | Sensitivity.Absint.Stopped m -> pf "stopped %S" m
  | Sensitivity.Absint.Runtime_error m -> pf "error %S" m);
  pf " steps=%d poisoned=" r.Sensitivity.Absint.r_steps;
  Array.iter (fun b -> pf "%c" (if b then '1' else '0')) r.Sensitivity.Absint.r_poisoned;
  pf "\n";
  List.iter
    (fun (s : Sensitivity.Absint.sample) ->
      pf "%s %h" s.Sensitivity.Absint.s_key s.Sensitivity.Absint.s_value;
      Sensitivity.Errvec.iter (fun a e -> pf " %d:%h" a e) s.Sensitivity.Absint.s_err;
      pf "\n")
    r.Sensitivity.Absint.r_samples;
  let out = Runtime.Lower.run (Runtime.Lower.lower ~machine:Runtime.Machine.default st) in
  let baseline_metric = Runtime.Interp.series out model.Models.Registry.metric_key in
  (match
     Sensitivity.Score.create ~st ~atoms ~metric_key:model.Models.Registry.metric_key
       ~baseline_metric ~threshold:1e-3 ~margin:1e6
   with
  | None -> pf "no scorer\n"
  | Some sc ->
    let opt = function Some x -> Printf.sprintf "%h" x | None -> "-" in
    List.iter
      (fun a ->
        pf "%s %s %s\n" (Transform.Assignment.atom_id a)
          (opt (Sensitivity.Score.atom_bound sc a))
          (opt (Sensitivity.Score.atom_amp sc a)))
      atoms);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let mirror_bits_tests =
  List.map
    (fun (name, expected) ->
      t (Printf.sprintf "pinned on %s" name) (fun () ->
          Alcotest.(check string) "digest" expected
            (mirror_digest (Models.Registry.find name))))
    [
      ("funarc", "90672d9eedf3a2a102df8fa8d57bede0");
      ("mpas", "06d6eca804c5d33b0c759a334fe99844");
      ("adcirc", "a221fa7cbe02c9655a4a1ca8ee5e0c62");
      ("mom6", "1626efef6dfa9d2fc3c2fcf96b661d28");
      ("lulesh", "c273b6d155b3473609f9c3b9980b2711");
      ("mpas_joint", "39d770a3e9f523b14b15336c7d141c28");
    ]

(* ------------------------------------------------------------------ *)
(* Error vectors against a tree-map reference                          *)

(* The reference is the error algebra as a sparse [float Map.Make(Int).t]
   with [merge]/[mapi]/[add]: the representation the vectors replaced. *)
module R = Map.Make (Int)

let r_get a m = Option.value ~default:0.0 (R.find_opt a m)
let r_put a e m = if e = 0.0 then m else R.add a e m

let r_merge f ex ey =
  R.merge (fun _ a b -> Some (f (Option.value ~default:0.0 a) (Option.value ~default:0.0 b))) ex ey

let r_round_entry poisoned ~eps a v e =
  let sub = if eps = Sensitivity.Errvec.eps32 then 0x1p-149 else 0x1p-1074 in
  let cap = if eps = Sensitivity.Errvec.eps32 then Runtime.Fp32.max_finite else max_float in
  let m = Float.abs v +. e in
  let round = if m = 0.0 then 0.0 else Float.max (2.0 *. eps *. m) sub in
  let e' = (e *. (1.0 +. (2.0 *. eps))) +. round in
  if (not (Float.is_finite e')) || Float.abs v +. e' >= cap then begin
    poisoned.(a) <- true;
    if Float.is_finite e' then e' else Float.abs v +. cap
  end
  else e'

let r_round poisoned ~f32 ~taint v err =
  let e32 = Sensitivity.Errvec.eps32 in
  if f32 then R.mapi (fun a e -> r_round_entry poisoned ~eps:e32 a v e) err
  else
    let err = R.mapi (fun a e -> r_round_entry poisoned ~eps:epsilon_float a v e) err in
    List.fold_left
      (fun err a -> r_put a (r_round_entry poisoned ~eps:e32 a v (r_get a err)) err)
      err taint

let r_div poisoned x y ex ey =
  let merged =
    r_merge
      (fun ex ey ->
        let ay = Float.abs y in
        let denom = ay -. ey in
        let num = (ay *. ex) +. (Float.abs x *. ey) +. (ex *. ey) in
        if denom <= 0.0 then num /. Float.max (ay *. ay) 1e-300 else num /. (ay *. denom))
      ex ey
  in
  R.iter (fun a e -> if e > 0.0 && Float.abs y -. e <= 0.0 then poisoned.(a) <- true) ey;
  merged

let r_mul x y ex ey =
  r_merge (fun ex ey -> (Float.abs y *. ex) +. (Float.abs x *. ey) +. (ex *. ey)) ex ey

(* x ** n strength-reduced one vector at a time, the formulation
   [Errvec.pow] fuses: one product-rule vector per multiplication from the
   exact 1.0, then for n < 0 the quotient rule of 1 / x ** |n| *)
let r_pow poisoned x n e =
  let rec go (acc, ea) i = if i = 0 then (acc, ea) else go (acc *. x, r_mul acc x ea e) (i - 1) in
  let v, ea = go (1.0, R.empty) (abs n) in
  if n < 0 then r_div poisoned 1.0 v R.empty ea else ea

(* the elemental intrinsics' rules, keyed by the intrinsic, as a
   per-entry closure answering [None] where the demoted run may trap: the
   formulation [Errvec.elemental] fuses *)
let r_elemental poisoned (fn : Fortran.Builtins.elemental) x err =
  let f = Runtime.Walk.elemental fn in
  let lip e =
    if e = 0.0 then Some 0.0
    else
      match fn with
      | Sin | Cos -> Some (Float.min e 2.0)
      | Atan -> Some (Float.min e Float.pi)
      | Tanh -> Some (Float.min e 2.0)
      | Sqrt ->
        if x -. e < 0.0 then None
        else if x -. e = 0.0 then Some (sqrt e)
        else Some (Float.min (e /. (2.0 *. sqrt (x -. e))) (sqrt e))
      | Exp ->
        let hi = exp (x +. e) in
        if Float.is_finite hi then Some (hi -. exp x) else None
      | Log -> if x -. e <= 0.0 then None else Some (log (x /. (x -. e)))
      | Log10 -> if x -. e <= 0.0 then None else Some (log (x /. (x -. e)) /. log 10.0)
      | Tan ->
        let m = Float.abs (cos x) -. e in
        if m <= 0.0 then None else Some (e /. (m *. m))
      | Asin | Acos ->
        let t = Float.abs x +. e in
        if t >= 1.0 then None else Some (Float.min (e /. sqrt (1.0 -. (t *. t))) Float.pi)
      | Sinh | Cosh ->
        let t = Float.abs x +. e in
        if t > 700.0 then None else Some (e *. cosh t)
      | Aint | Anint -> if f (x -. e) = f (x +. e) then Some 0.0 else Some (e +. 1.0)
  in
  R.mapi
    (fun a e ->
      match lip e with
      | Some e' -> e'
      | None ->
        poisoned.(a) <- true;
        Float.abs (f x) +. e +. 1.0)
    err

let elementals : (Fortran.Builtins.elemental * Sensitivity.Errvec.elemental) list =
  [
    (Sin, Sin_cos); (Cos, Sin_cos); (Atan, Atan); (Tanh, Tanh); (Sqrt, Sqrt); (Exp, Exp);
    (Log, Log); (Log10, Log10); (Tan, Tan); (Asin, Asin_acos); (Acos, Asin_acos);
    (Sinh, Sinh_cosh); (Cosh, Sinh_cosh); (Aint, Aint); (Anint, Anint);
  ]

(* the rounding update an operation ends with: baseline kind, result, and
   kind taint *)
type rounding = { f32 : bool; v : float; taint : int list }

type ev_op =
  | Add of rounding
  | Mul of float * float * rounding
  | Div of float * float * rounding
  | Pow of float * int * rounding
  | Elemental of Fortran.Builtins.elemental * float * rounding
  | Max
  | Map
  | Put of int * float
  | Round of rounding
  | Round_one of int * float

let n_keys = 12

let ev_gen =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (3, return 0.0);
        (4, float_bound_inclusive 2.0);
        (1, map (fun x -> x *. 1e-310) (float_bound_inclusive 1.0));
        (1, map (fun x -> x *. 3.4e38) (float_bound_inclusive 1.0));
        (1, return 1e308);
      ]
  in
  let scalar = oneof [ value; map Float.neg value; return (-0.0) ] in
  let keys = map (List.sort_uniq compare) (list_size (int_bound 8) (int_bound (n_keys - 1))) in
  let rounding = map3 (fun f32 v taint -> { f32; v; taint }) bool scalar keys in
  let related kx =
    keys >>= fun kr ->
    oneofl
      [
        kx;
        List.filteri (fun i _ -> i mod 2 = 0) kx;
        List.sort_uniq compare (kx @ kr);
        List.filter (fun k -> not (List.mem k kx)) kr;
        kr;
      ]
  in
  let bindings ks = flatten_l (List.map (fun k -> map (fun v -> (k, v)) value) ks) in
  let op =
    frequency
      [
        (2, map (fun r -> Add r) rounding);
        (2, map3 (fun x y r -> Mul (x, y, r)) scalar scalar rounding);
        (2, map3 (fun x y r -> Div (x, y, r)) scalar scalar rounding);
        ( 1,
          map3 (fun x n r -> Pow (x, n, r)) scalar (oneofl [ -4; -3; -2; -1; 1; 2; 3; 4 ]) rounding );
        ( 2,
          map3 (fun f x r -> Elemental (f, x, r)) (oneofl (List.map fst elementals)) scalar rounding );
        (1, return Max);
        (1, return Map);
        (1, map2 (fun a e -> Put (a, e)) (int_bound (n_keys - 1)) value);
        (3, map (fun r -> Round r) rounding);
        (1, map2 (fun a v -> Round_one (a, v)) (int_bound (n_keys - 1)) scalar);
      ]
  in
  keys >>= fun kx ->
  related kx >>= fun ky ->
  map3 (fun bx by ops -> (bx, by, ops)) (bindings kx) (bindings ky) (list_size (int_range 1 6) op)

(* Every kernel against the reference, bit for bit in values, support and
   poisoned flags.  A fused operation equals the rounding update applied
   after its rule's merge, as the analysis computed it in two steps. *)
let ev_property =
  QCheck.Test.make ~name:"kernels match a tree-map reference" ~count:2000
    (QCheck.make ev_gen)
    (fun (bx, by, ops) ->
      let module V = Sensitivity.Errvec in
      let bits_of l = List.map (fun (a, e) -> (a, Int64.bits_of_float e)) l in
      let same v m = bits_of (V.to_list v) = bits_of (R.bindings m) in
      let pv = Array.make n_keys false and pr = Array.make n_keys false in
      let y = V.of_list by and ry = R.of_seq (List.to_seq by) in
      let rounded { f32; v; taint } merged = r_round pr ~f32 ~taint v merged in
      let step (x, rx) op =
        match op with
        | Add ({ f32; v; taint } as r) ->
          ( V.add ~poisoned:pv ~f32 ~taint:(Array.of_list taint) v x y,
            rounded r (r_merge ( +. ) rx ry) )
        | Mul (a, b, ({ f32; v; taint } as r)) ->
          ( V.mul ~poisoned:pv ~f32 ~taint:(Array.of_list taint) ~x:a ~y:b v x y,
            rounded r (r_mul a b rx ry) )
        | Div (a, b, ({ f32; v; taint } as r)) ->
          ( V.div ~poisoned:pv ~f32 ~taint:(Array.of_list taint) ~x:a ~y:b v x y,
            rounded r (r_div pr a b rx ry) )
        | Pow (a, n, ({ f32; v; taint } as r)) ->
          ( V.pow ~poisoned:pv ~f32 ~taint:(Array.of_list taint) ~x:a n v x,
            rounded r (r_pow pr a n rx) )
        | Elemental (name, a, ({ f32; v; taint } as r)) ->
          let fx = Runtime.Walk.elemental name a in
          ( V.elemental ~poisoned:pv ~f32 ~taint:(Array.of_list taint) (List.assoc name elementals)
              ~x:a ~fx v x,
            rounded r (r_elemental pr name a rx) )
        | Max -> (V.union Float.max x y, r_merge Float.max rx ry)
        | Map ->
          let f e = if e > 1.0 then 0.0 else e *. 3.0 in
          (V.map f x, R.map f rx)
        | Put (a, e) -> (V.put a e x, r_put a e rx)
        | Round ({ f32; v; taint } as r) ->
          (V.round ~poisoned:pv ~f32 ~taint:(Array.of_list taint) v x, rounded r rx)
        | Round_one (a, v) ->
          ( V.round_one ~poisoned:pv a v x,
            r_put a (r_round_entry pr ~eps:V.eps32 a v (r_get a rx)) rx )
      in
      let x0 = (V.of_list bx, R.of_seq (List.to_seq bx)) in
      same (fst x0) (snd x0)
      && same y ry
      && fst
           (List.fold_left
              (fun (ok, st) op ->
                let (x, rx) as st = step st op in
                (ok && same x rx && pv = pr, st))
              (true, x0) ops))

let errvec_tests =
  [
    QCheck_alcotest.to_alcotest ev_property;
    t "explicit zeros vs absent entries" (fun () ->
        let module V = Sensitivity.Errvec in
        let poisoned = Array.make 4 false in
        let x = V.of_list [ (1, 0.0) ] in
        Alcotest.(check (list int)) "a kept zero" [ 1 ] (List.map fst (V.to_list (V.put 1 0.0 x)));
        Alcotest.(check (list int)) "put drops a fresh zero" [ 1 ]
          (List.map fst (V.to_list (V.put 2 0.0 x)));
        let r = V.round ~poisoned ~f32:false ~taint:[| 3 |] 1.0 x in
        Alcotest.(check bool) "an explicit zero grows a bound" true (V.get 1 r > 0.0);
        Alcotest.(check (list int)) "taint adds its entry" [ 1; 3 ] (List.map fst (V.to_list r));
        let r0 = V.round ~poisoned ~f32:false ~taint:[| 3 |] 0.0 V.empty in
        Alcotest.(check int) "at v = 0 a taint-only entry stays absent" 0 (V.length r0));
  ]

(* ------------------------------------------------------------------ *)
(* Why the mirror declined                                             *)

let mirror_of src =
  let st = Fortran.Symtab.build (Fortran.Parser.parse src) in
  let atoms = Transform.Assignment.atoms_of_module st "m" in
  (st, Sensitivity.Absint.analyze ~atoms st)

let status_tests =
  [
    t "trap text is the interpreter's" (fun () ->
        let st, r =
          mirror_of
            "module m\n implicit none\ncontains\n subroutine fill(v, n)\n  integer :: n, i\n  \
             real(kind=8), dimension(3) :: v\n  do i = 1, n\n   v(i) = 1.0d0\n  end do\n end \
             subroutine fill\nend module m\nprogram p\n use m\n implicit none\n real(kind=8), \
             dimension(3) :: a\n print *, 'v', 2.0d0\n call fill(a, 5)\n print *, 'v', a(1)\nend \
             program p\n"
        in
        let out = Runtime.Interp.run st in
        match (out.Runtime.Interp.status, r.Sensitivity.Absint.r_status) with
        | Runtime.Interp.Runtime_error m, Sensitivity.Absint.Runtime_error m' ->
          Alcotest.(check string) "same trap message" m m';
          Alcotest.(check int) "samples up to the trap" 1
            (List.length r.Sensitivity.Absint.r_samples)
        | _ -> Alcotest.fail "expected a runtime error from both");
    t "by-value kind mismatch names dummy" (fun () ->
        let _, r =
          mirror_of
            "module m\n implicit none\ncontains\n subroutine s(a)\n  real(kind=8), intent(in) :: \
             a\n  print *, 'v', a\n end subroutine s\nend module m\nprogram p\n use m\n implicit \
             none\n real(kind=4) :: x\n x = 1.0\n call s(x * 2.0)\nend program p\n"
        in
        Alcotest.(check string) "message"
          "real(kind=4) value passed to real(kind=8) dummy a of s — wrapper required"
          (match r.Sensitivity.Absint.r_status with
          | Sensitivity.Absint.Runtime_error m -> m
          | _ -> "no runtime error"));
    t "the step limit has its own message" (fun () ->
        let model = Models.Registry.funarc in
        let st = Fortran.Symtab.build (Fortran.Parser.parse model.Models.Registry.source) in
        let atoms = Transform.Assignment.atoms_of_module st model.Models.Registry.target_module in
        let r = Sensitivity.Absint.analyze ~max_steps:1000 ~atoms st in
        Alcotest.(check bool) "step limit" true
          (r.Sensitivity.Absint.r_status
          = Sensitivity.Absint.Runtime_error "analysis step limit (1000) exceeded"));
  ]

(* ------------------------------------------------------------------ *)
(* The evidence engine                                                 *)

let rank_engine_tests =
  let mk () =
    let p = Core.Tuner.prepare small_funarc in
    let rk =
      Sensitivity.Rank.create ~st:p.Core.Tuner.st ~atoms:p.Core.Tuner.atoms ~safe:[]
        ~perf_floor:p.Core.Tuner.perf_floor
    in
    (p.Core.Tuner.atoms, rk)
  in
  let lower atoms sel =
    Transform.Assignment.of_lowered atoms
      ~lowered:(List.filteri (fun i _ -> List.mem i sel) atoms)
  in
  let efail = { Sensitivity.Rank.err_ok = false; perf_ok = true; speedup = 1.1 } in
  let pass = { Sensitivity.Rank.err_ok = true; perf_ok = true; speedup = 1.1 } in
  [
    t "no evidence, no demotion" (fun () ->
        let atoms, rk = mk () in
        Sensitivity.Rank.round rk;
        Alcotest.(check bool) "kept" false (Sensitivity.Rank.demote rk (lower atoms [ 0; 1 ])));
    t "an error failure dominates its supersets" (fun () ->
        let atoms, rk = mk () in
        Sensitivity.Rank.observe rk (lower atoms [ 0 ]) efail;
        Sensitivity.Rank.round rk;
        Alcotest.(check bool) "superset demoted" true
          (Sensitivity.Rank.demote rk (lower atoms [ 0; 1 ]));
        Alcotest.(check bool) "disjoint kept" false
          (Sensitivity.Rank.demote rk (lower atoms [ 1; 2 ])));
    t "pass evidence shrinks the culprit core" (fun () ->
        let atoms, rk = mk () in
        Sensitivity.Rank.observe rk (lower atoms [ 1 ]) pass;
        Sensitivity.Rank.observe rk (lower atoms [ 0; 1 ]) efail;
        Sensitivity.Rank.round rk;
        (* atom 1 passed alone, so the {0,1} failure's core is {0} *)
        Alcotest.(check bool) "core superset demoted" true
          (Sensitivity.Rank.demote rk (lower atoms [ 0; 2 ]));
        Alcotest.(check bool) "the innocent atom alone is kept" false
          (Sensitivity.Rank.demote rk (lower atoms [ 1 ])));
    t "an emptied core falls back to full-set dominance" (fun () ->
        let atoms, rk = mk () in
        Sensitivity.Rank.observe rk (lower atoms [ 0; 1 ]) pass;
        (* the OR-model is now inconsistent for a failure inside {0}:
           subtraction would empty the core and predict everything fails *)
        Sensitivity.Rank.observe rk (lower atoms [ 0 ]) efail;
        Sensitivity.Rank.round rk;
        Alcotest.(check bool) "superset of the full set demoted" true
          (Sensitivity.Rank.demote rk (lower atoms [ 0; 2 ]));
        Alcotest.(check bool) "unrelated candidate kept" false
          (Sensitivity.Rank.demote rk (lower atoms [ 2 ])));
    t "observe deduplicates by signature" (fun () ->
        let atoms, rk = mk () in
        let asg = lower atoms [ 0 ] in
        Sensitivity.Rank.observe rk asg pass;
        (* a replayed contradictory outcome for the same signature is
           ignored: committed evidence is immutable *)
        Sensitivity.Rank.observe rk asg efail;
        Sensitivity.Rank.round rk;
        Alcotest.(check bool) "still kept" false
          (Sensitivity.Rank.demote rk (lower atoms [ 0; 1 ])));
    t "features are finite and match the predictor's names" (fun () ->
        let p = Core.Tuner.prepare small_funarc in
        let f =
          Sensitivity.Rank.features ~st:p.Core.Tuner.st
            (Transform.Assignment.uniform p.Core.Tuner.atoms Fortran.Ast.K4)
        in
        Alcotest.(check int) "arity" (List.length Sensitivity.Rank.feature_names)
          (Array.length f);
        Array.iter (fun v -> Alcotest.(check bool) "finite" true (Float.is_finite v)) f);
  ]

(* ------------------------------------------------------------------ *)
(* Steered campaigns: identity of the minimal set, determinism         *)

let campaign_tests =
  [
    t "rank reaches the same minimal set as off" (fun () ->
        let off = Core.Tuner.run_delta_debug small_funarc in
        let rank =
          Core.Tuner.run_delta_debug
            ~config:(with_predict Core.Config.Predict_rank Core.Config.default)
            small_funarc
        in
        Alcotest.(check bool) "identical minimal" true (minimal_sig off = minimal_sig rank));
    t "rank trajectory is identical across workers and shards" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        let seq = Core.Tuner.run_delta_debug ~config ~workers:0 small_mpas in
        let pooled = Core.Tuner.run_delta_debug ~config ~workers:4 small_mpas in
        let sharded = Core.Tuner.run_delta_debug ~config ~shards:2 ~workers:2 small_mpas in
        Alcotest.(check bool) "workers=4 record-identical" true
          (signatures seq = signatures pooled);
        Alcotest.(check bool) "shards=2 record-identical" true
          (signatures seq = signatures sharded);
        Alcotest.(check bool) "same minimal" true
          (minimal_sig seq = minimal_sig pooled && minimal_sig seq = minimal_sig sharded));
    t "a resumed rank campaign replays without re-evaluating" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        Harness.with_dir (fun dir ->
            let full =
              Core.Tuner.run_delta_debug ~config ~workers:0 ~journal:dir small_funarc
            in
            let resumed =
              Core.Tuner.resume ~config ~workers:0 ~model:small_funarc ~journal:dir ()
            in
            Alcotest.(check int) "whole prefix preloaded"
              (List.length full.Core.Tuner.records)
              resumed.Core.Tuner.preloaded;
            Alcotest.(check int) "zero fresh evaluations" 0
              resumed.Core.Tuner.trace_stats.Search.Trace.misses;
            Alcotest.(check bool) "record-identical" true
              (signatures full = signatures resumed);
            Alcotest.(check bool) "same minimal" true
              (minimal_sig full = minimal_sig resumed)));
    t "a journal of the removed prune mode resumes under neither off nor rank" (fun () ->
        (* Config.digest's canonical string, rebuilt here: rank's suffix
           must stay byte for byte, and the prune suffix it replaced must
           never match a digest the tuner still mints *)
        let c = Core.Config.default in
        let digest suffix =
          Digest.to_hex
            (Digest.string
               (String.concat "|"
                  [
                    Digest.to_hex (Digest.string (Marshal.to_string c.Core.Config.machine []));
                    "hotspot";
                    Printf.sprintf "%h" c.Core.Config.perf_floor;
                    string_of_int c.Core.Config.seed;
                    string_of_int c.Core.Config.baseline_runs;
                    string_of_bool c.Core.Config.static_filter;
                    Printf.sprintf "%h" c.Core.Config.static_penalty_budget;
                    "-";
                  ]
               ^ Printf.sprintf suffix c.Core.Config.predict_margin))
        in
        let rank = with_predict Core.Config.Predict_rank c in
        Alcotest.(check string) "rank digest unchanged" (digest "|predict:rank|margin:%h")
          (Core.Config.digest rank);
        let prune_digest = digest "|predict:prune|margin:%h" in
        Harness.with_dir2 (fun src dir ->
            ignore (Core.Tuner.run_delta_debug ~config:rank ~workers:0 ~journal:src small_funarc);
            (* the same records under the header a prune campaign wrote *)
            let loaded = Persist.Journal.load ~dir:src in
            let jw =
              Persist.Journal.create ~dir
                { loaded.Persist.Journal.l_header with
                  Persist.Journal.config_digest = prune_digest }
            in
            List.iter (Persist.Journal.append jw) loaded.Persist.Journal.l_entries;
            Persist.Journal.close jw;
            let path = Persist.Journal.file ~dir in
            let old = Harness.slurp path in
            List.iter
              (fun (name, config) ->
                (match Core.Tuner.resume ~config ~workers:0 ~model:small_funarc ~journal:dir () with
                | _ -> Alcotest.failf "%s resumed a prune journal" name
                | exception Core.Tuner.Resume_mismatch _ -> ());
                Alcotest.(check string) (name ^ ": journal bytes unchanged") old
                  (Harness.slurp path))
              [ ("off", c); ("rank", rank) ]));
  ]

(* ------------------------------------------------------------------ *)
(* Holdout split: committed order, not arrival order                   *)

let holdout_tests =
  [
    t "holdout split is invariant under record arrival order" (fun () ->
        let c = Core.Tuner.run_brute_force small_funarc in
        let p = c.Core.Tuner.prepared in
        let bits = Int64.bits_of_float in
        let report records =
          match Core.Predictor.holdout_report p records with
          | Some (tr, te, n) -> (bits tr, bits te, n)
          | None -> Alcotest.fail "fit failed"
        in
        (* a sharded run lists the same committed records in a different
           arrival order; the split must not notice *)
        Alcotest.(check bool) "reversed arrival, bit-identical report" true
          (report c.Core.Tuner.records = report (List.rev c.Core.Tuner.records));
        let shuffled =
          let tagged =
            List.mapi (fun i r -> ((i * 7919) mod 101, i, r)) c.Core.Tuner.records
          in
          List.map (fun (_, _, r) -> r) (List.sort compare tagged)
        in
        Alcotest.(check bool) "shuffled arrival, bit-identical report" true
          (report c.Core.Tuner.records = report shuffled));
  ]

(* ------------------------------------------------------------------ *)
(* Export columns and journal fields                                   *)

(* minimal RFC-4180 reader: split one CSV line into fields, honouring
   quoted fields and doubled quotes *)
let split_csv_line line =
  let buf = Buffer.create 16 in
  let fields = ref [] in
  let n = String.length line in
  let rec go i in_quotes =
    if i >= n then fields := Buffer.contents buf :: !fields
    else
      match line.[i] with
      | '"' when in_quotes ->
        if i + 1 < n && line.[i + 1] = '"' then begin
          Buffer.add_char buf '"';
          go (i + 2) true
        end
        else go (i + 1) false
      | '"' -> go (i + 1) true
      | ',' when not in_quotes ->
        fields := Buffer.contents buf :: !fields;
        Buffer.clear buf;
        go (i + 1) false
      | c ->
        Buffer.add_char buf c;
        go (i + 1) in_quotes
  in
  go 0 false;
  List.rev !fields

let export_tests =
  [
    t "variants CSV carries the prediction columns" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        let c = Core.Tuner.run_delta_debug ~config small_funarc in
        let lines =
          List.filter (fun l -> l <> "")
            (String.split_on_char '\n' (Core.Export.variants_csv c))
        in
        let header = split_csv_line (List.hd lines) in
        Alcotest.(check bool) "predicted_score column" true
          (List.mem "predicted_score" header);
        Alcotest.(check bool) "static_bound column" true (List.mem "static_bound" header);
        let score_at = ref (-1) and bound_at = ref (-1) in
        List.iteri
          (fun i h ->
            if h = "predicted_score" then score_at := i;
            if h = "static_bound" then bound_at := i)
          header;
        List.iter
          (fun row ->
            let cells = split_csv_line row in
            Alcotest.(check int) "full width" (List.length header) (List.length cells);
            (* a predicted campaign fills both cells on every row *)
            Alcotest.(check bool) "score cell filled" true
              (List.nth cells !score_at <> "");
            Alcotest.(check bool) "bound cell filled" true
              (List.nth cells !bound_at <> ""))
          (List.tl lines));
    t "unpredicted records export empty prediction cells" (fun () ->
        let p = Core.Tuner.prepare small_funarc in
        let asg = Transform.Assignment.uniform p.Core.Tuner.atoms Fortran.Ast.K4 in
        let r = { Search.Variant.index = 1; asg; meas = Core.Tuner.evaluate p asg } in
        let csv = Core.Export.variants_csv_records [ r ] in
        let row = split_csv_line (List.nth (String.split_on_char '\n' csv) 1) in
        let header = split_csv_line (List.hd (String.split_on_char '\n' csv)) in
        let cell name =
          let at = ref (-1) in
          List.iteri (fun i h -> if h = name then at := i) header;
          List.nth row !at
        in
        Alcotest.(check string) "empty score" "" (cell "predicted_score");
        Alcotest.(check string) "empty bound" "" (cell "static_bound"));
    t "RFC-4180 fields round-trip through the splitter" (fun () ->
        List.iter
          (fun s ->
            let line =
              String.concat "," [ Core.Export.csv_field s; "x"; Core.Export.csv_field s ]
            in
            Alcotest.(check (list string)) "round trip" [ s; "x"; s ] (split_csv_line line))
          [ "plain"; "with,comma"; "say \"hi\""; "line\nbreak"; "tail\r"; "" ]);
    t "journal score fields round-trip and stay absent when off" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        let dir = Filename.temp_file "sens_journal" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        Fun.protect
          ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
          (fun () ->
            let c = Core.Tuner.run_delta_debug ~config ~workers:0 ~journal:dir small_funarc in
            let loaded = Persist.Journal.load ~dir in
            Alcotest.(check int) "every record journaled"
              (List.length c.Core.Tuner.records)
              (List.length loaded.Persist.Journal.l_entries);
            List.iter
              (fun (e : Persist.Journal.entry) ->
                Alcotest.(check bool) "score present" true (e.Persist.Journal.e_score <> None);
                Alcotest.(check bool) "bound present" true (e.Persist.Journal.e_bound <> None))
              loaded.Persist.Journal.l_entries;
            (* an unpredicted journal of the same model writes no score
               fields at all — pre-PR-9 journals parse the same way *)
            let dir_off = dir ^ "_off" in
            Unix.mkdir dir_off 0o755;
            Fun.protect
              ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir_off)))
              (fun () ->
                ignore (Core.Tuner.run_delta_debug ~workers:0 ~journal:dir_off small_funarc);
                let ic = open_in (Persist.Journal.file ~dir:dir_off) in
                let contents =
                  Fun.protect
                    ~finally:(fun () -> close_in ic)
                    (fun () -> really_input_string ic (in_channel_length ic))
                in
                Alcotest.(check bool) "no score field on disk" false
                  (let rec contains i =
                     i + 7 <= String.length contents
                     && (String.sub contents i 7 = "\"score\"" || contains (i + 1))
                   in
                   contains 0);
                let off = Persist.Journal.load ~dir:dir_off in
                List.iter
                  (fun (e : Persist.Journal.entry) ->
                    Alcotest.(check bool) "parses as None" true
                      (e.Persist.Journal.e_score = None && e.Persist.Journal.e_bound = None))
                  off.Persist.Journal.l_entries)));
  ]

let () =
  Alcotest.run "sensitivity"
    [
      ("scorer", scorer_tests);
      ("mirror bits", mirror_bits_tests);
      ("errvec", errvec_tests);
      ("status", status_tests);
      ("rank engine", rank_engine_tests);
      ("campaigns", campaign_tests);
      ("holdout", holdout_tests);
      ("export", export_tests);
    ]
