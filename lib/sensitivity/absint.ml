(* Forward error-amplification analysis: an instance of the shared
   traversal {!Runtime.Walk.Make}.

   One abstract pass executes the ORIGINAL (all-64-bit) program with the
   interpreter's exact concrete semantics — same values, same traps, same
   control flow, by construction: the traversal is the interpreter's —
   and augments every real value with a per-atom error vector ({!Errvec})
   of absolute-error bounds: [err a] bounds |x_a - x| where x_a is the
   value this expression would take in the program variant that demotes
   precisely atom [a] to 32-bit (declarations rewritten, boundary
   wrappers inserted by [Transform]).  All singleton-demotion bounds are
   computed simultaneously in a single run.

   The error algebra (DESIGN.md §13):
   - reading a binding owned by atom [a] marks the value kind-tainted by
     [a] (in run-a its declared kind is 32-bit) and charges one f32
     rounding to [err a] — this uniformly covers both direct demotion
     (values stored rounded) and the wrapper copy-in/copy-out placements;
   - every real operation applies the interval propagation rule of the
     operator, then a rounding update err <- err*(1+2e) + 2e|v| at the
     baseline kind, plus an extra f32 rounding for kind-tainted atoms
     (their run may compute the operation in 32-bit);
   - integers, logicals and control flow never carry error: wherever a
     run-a value could round, compare, or convert differently than the
     baseline (interval crosses the decision boundary), atom [a] is
     POISONED — its sound bound becomes infinite, while the finite err
     accumulation continues as a ranking heuristic.

   The traversal resolves each name once per procedure; the atom owning
   the binding is this domain's part of that resolution ([binding]).

   Costs, timers, vectorization modes and the cost budget belong to the
   interpreter's domain: they affect when a variant times out, never which
   values it computes, and a timed-out variant is a failed variant
   anyway.  This domain counts steps instead — one per expression, per
   statement and per loop iteration — and gives up past [max_steps]. *)

open Fortran
module Value = Runtime.Value
module Fp32 = Runtime.Fp32
module Walk = Runtime.Walk
module E = Errvec

type status = Finished | Stopped of string | Runtime_error of string

type sample = { s_key : string; s_value : float; s_err : Errvec.t }

type result = {
  r_status : status;
  r_samples : sample list;  (** the [print 'key', ...] records, in order *)
  r_poisoned : bool array;  (** per atom index: sound bound is infinite *)
  r_steps : int;
}

let trap = Walk.trap
let as_float = Walk.as_float

(* ------------------------------------------------------------------ *)
(* Abstract values                                                     *)

type av = {
  c : Value.v;  (* the concrete (baseline) value, bit-exact vs Interp *)
  err : E.t;  (* per-atom absolute-error bound *)
  kt : E.atoms;  (* atoms whose demotion may change this value's kind *)
}

let pure c = { c; err = E.empty; kt = E.no_atoms }

(* what the analysis knows of a name, resolved once per procedure *)
type binding = {
  atom : int option;  (* the atom owning the binding *)
  taint : E.atoms;  (* [atom] as a kind-taint set *)
  unit_var : (string * string) option;  (* (unit, name) of a module variable *)
}

type dom = {
  atom_of : Symtab.scope * string -> int option;
  callee_touches : string -> string * string -> bool;
      (* [callee_touches p (u, x)] : can procedure [p] (transitively)
         read or write module variable [u::x] by name? Demoting either
         end of a by-reference binding of [u::x] inserts a boundary
         wrapper, and if the callee also reaches the variable by name the
         wrapper BREAKS the baseline aliasing — an effect no interval
         bounds, so such atoms are poisoned at the call site. *)
  poisoned : bool array;
  steps : Walk.steps;  (* one per expression, statement and loop iteration *)
}

let poison d a = d.poisoned.(a) <- true

(* [c]-conversion stability: in run-a the value lives in [v-e, v+e]; if the
   integer conversion agrees on both endpoints it agrees everywhere (the
   conversions are monotone), otherwise run-a's integer may differ from the
   baseline's — poison. *)
let int_stable c v e =
  e = 0.0
  || (Float.is_finite e && Walk.int_conversion c (v -. e) = Walk.int_conversion c (v +. e))

(* poison every atom whose error interval could change the integer [c]
   converts the value to *)
let guard_int d c (v : av) =
  match v.c with
  | Value.Vreal (x, _) ->
    for i = 0 to E.length v.err - 1 do
      if not (int_stable c x v.err.E.vals.(i)) then poison d v.err.E.keys.(i)
    done
  | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> ()

let to_int d v =
  guard_int d Builtins.Int v;
  Walk.as_int v.c

(* ------------------------------------------------------------------ *)
(* The error algebra                                                   *)

let f32_of = function Ast.K4 -> true | Ast.K8 -> false

(* apply the post-operation rounding at baseline kind [k] to every entry,
   plus an extra f32 rounding for kind-tainted atoms when the baseline
   computed in 64-bit (their run may compute this operation in 32-bit).
   The hot operations round inside their own kernel instead ([E.add],
   [E.mul], [E.div], [E.pow], [E.elemental]), after rounding the concrete
   value first: an operation that traps ends the analysis before its
   error vector is computed. *)
let round_err d k v err kt = E.round ~poisoned:d.poisoned ~f32:(f32_of k) ~taint:kt v err

(* round the concrete value at kind [k] as the interpreter does (trapping
   NaN/overflow), and attach the rounded error vector *)
let mk_areal d k x err kt =
  let x = Walk.round_real k x in
  { c = Value.Vreal (x, k); err = round_err d k x err kt; kt }

(* comparison stability: if atom [a]'s joint interval can bridge the gap
   between x and y, run-a may take the other branch *)
let compare_guard d x y (ex : E.t) (ey : E.t) =
  let gap = Float.abs (x -. y) in
  let check a e = if e > 0.0 && e >= gap then poison d a in
  for i = 0 to E.length ex - 1 do
    let a = ex.E.keys.(i) in
    check a (ex.E.vals.(i) +. E.get a ey)
  done;
  for i = 0 to E.length ey - 1 do
    let a = ey.E.keys.(i) in
    check a (ey.E.vals.(i) +. E.get a ex)
  done

(* By-reference hazards of the kind-mismatch wrapper, charged at binding
   time to every atom whose demotion inserts one (the dummy's own atom
   plus the actual side's kind atoms):
   - intent(out): the wrapper does NOT copy in, so its temporary starts
     at the default 0.0 — on any path where the callee never assigns the
     dummy, reads inside the callee see 0.0 and the copy-out replaces the
     actual's value with 0.0.  Charge the full magnitude of the value.
   - intent(inout) / no intent: the copy-in/copy-out pair replaces the
     actual with an f32 round trip of its value even when the callee
     never touches the dummy.  Charge one f32 rounding.
   - intent(in): no copy-out; reads through the binding are rounded by
     {!read_view}.  Nothing to charge here.
   A store through the dummy overwrites the entry — exactly when the
   hazard disappears (the stored value's own rounding is charged by
   [round_err]). *)
let wrapper_hazard ~(dinfo : Symtab.var_info) atoms v err =
  match dinfo.v_intent with
  | Some Ast.In -> err
  | intent ->
    let x = Float.abs v in
    let charge =
      match intent with
      | Some Ast.Out -> x
      | _ -> if x = 0.0 then 0.0 else Float.max (2.0 *. E.eps32 *. x) E.sub32
    in
    if charge = 0.0 then err
    else List.fold_left (fun err a -> E.put a (Float.max charge (E.get a err)) err) err atoms

(* reading through a binding owned by atom [a]: the value is kind-tainted
   by [a] and has been (or will be, at a wrapper boundary) f32-rounded *)
let read_view d b (v : av) =
  match (v.c, b.atom) with
  | Value.Vreal (x, _), Some a ->
    { v with err = E.round_one ~poisoned:d.poisoned a x v.err; kt = b.taint }
  | (Value.Vreal _ | Value.Vint _ | Value.Vlog _ | Value.Vstr _), _ ->
    if Array.length v.kt = 0 then v else { v with kt = E.no_atoms }

(* Aliasing hazard at a by-reference binding: in the baseline the dummy
   shares the actual's cell, but demoting either end makes their kinds
   mismatch, so the rewrite inserts a copy-in/copy-out wrapper — the
   sharing is gone. If the callee can also reach the actual (a module
   variable, resolved outside the caller's frame) by name, the two access
   paths now denote DIFFERENT storage and the copy-out can clobber or
   resurrect values in ways no interval bounds: poison both ends'
   atoms. *)
let alias_guard d ~callee ~dummy ~actual ~outer =
  if outer then
    match actual.unit_var with
    | Some key when d.callee_touches callee key ->
      Option.iter (poison d) actual.atom;
      Option.iter (poison d) dummy.atom
    | Some _ | None -> ()

(* storing [v] into a real location of declared kind [kind] through the
   binding [b]: the concrete is already rounded and checked; round every
   error entry at the declared kind, and charge the extra f32 rounding to
   the binding's atom *)
let stored_err d b kind x (v : av) =
  let kt =
    match b.atom with
    | Some a -> E.atoms_add a v.kt
    | None -> v.kt
  in
  round_err d kind x v.err kt

(* the propagation rule of an elemental intrinsic ({!Walk.elemental}) *)
let elemental_rule : Builtins.elemental -> E.elemental = function
  | Sin | Cos -> Sin_cos
  | Atan -> Atan
  | Tanh -> Tanh
  | Sqrt -> Sqrt
  | Exp -> Exp
  | Log -> Log
  | Log10 -> Log10
  | Tan -> Tan
  | Asin | Acos -> Asin_acos
  | Sinh | Cosh -> Sinh_cosh
  | Aint -> Aint
  | Anint -> Anint

(* ------------------------------------------------------------------ *)
(* The domain                                                          *)

module Abstract = struct
  type t = dom
  type v = av
  type shadow = E.t array
  type nonrec binding = binding
  type proc = unit
  type saved = unit

  let print_lines = false
  let of_concrete = pure
  let concrete v = v.c

  let binding d (decl : Symtab.var_info option) =
    match decl with
    | None -> { atom = None; taint = E.no_atoms; unit_var = None }
    | Some info ->
      let atom = d.atom_of (info.v_scope, info.v_name) in
      {
        atom;
        taint = (match atom with Some a -> [| a |] | None -> E.no_atoms);
        unit_var =
          (match info.v_scope with
          | Symtab.Unit_scope u -> Some (u, info.v_name)
          | Symtab.Proc_scope _ -> None);
      }

  let shadow n = Array.make n E.empty
  let proc _ _ _ = ()
  let steps d = d.steps

  let past_limit d =
    trap "analysis step limit (%d) exceeded" d.steps.Walk.limit

  let event _ (_ : Walk.event) = ()

  let folding _ f = f ()
  let enter _ () = ()
  let leave _ () () = ()
  let enter_loop _ _ = ()
  let leave_loop _ () = ()
  let enter_main _ = ()
  let leave_main _ = ()
  let to_int = to_int

  let int_conv d c v =
    guard_int d c v;
    Walk.int_conversion c (as_float v.c)

  let read = read_view

  let param d (info : Symtab.var_info) k v =
    let x = Fp32.of_kind k (as_float v.c) in
    (* a demoted parameter folds to its f32 value at compile time *)
    let err, kt =
      match d.atom_of (info.v_scope, info.v_name) with
      | Some a when k = Ast.K8 ->
        (E.put a (Float.abs (Fp32.round x -. x) +. E.get a v.err) v.err, [| a |])
      | Some _ | None -> (v.err, E.no_atoms)
    in
    { c = Value.Vreal (x, k); err = round_err d k x err E.no_atoms; kt }

  let store d b ~literal:_ k v =
    let x = Fp32.of_kind k (as_float v.c) in
    if not (Float.is_finite x) then Walk.nonfinite_scalar k;
    { c = Value.Vreal (x, k); err = stored_err d b k x v; kt = E.no_atoms }

  let load_elem d b name (a : shadow Walk.real_array) indices =
    let o = Value.offset ~name ~dims:a.dims indices in
    read_view d b { c = Value.Vreal (a.data.(o), a.kind); err = a.shadow.(o); kt = E.no_atoms }

  let store_elem d b name ~literal:_ (a : shadow Walk.real_array) indices v =
    let x = Fp32.of_kind a.kind (as_float v.c) in
    if not (Float.is_finite x) then Walk.nonfinite_element name a.kind;
    let err = stored_err d b a.kind x v in
    let o = Value.offset ~name ~dims:a.dims indices in
    a.data.(o) <- x;
    a.shadow.(o) <- err

  let by_reference d ~callee dinfo ~dummy ~actual ~outer (cell : (av, E.t array) Walk.cell) =
    alias_guard d ~callee ~dummy ~actual ~outer;
    let atoms = List.filter_map Fun.id [ dummy.atom; actual.atom ] in
    match cell with
    | Walk.Scalar r -> r := { !r with err = wrapper_hazard ~dinfo atoms (as_float !r.c) !r.err }
    | Walk.Real_array { data; shadow = errs; _ } ->
      Array.iteri (fun i e -> errs.(i) <- wrapper_hazard ~dinfo atoms data.(i) e) errs
    | Walk.Int_array _ | Walk.Log_array _ -> ()

  let by_value d (dinfo : Symtab.var_info) ~dummy dk v =
    match v.c with
    | Value.Vreal (x, ak) when ak <> dk ->
      (* a kind-mismatched literal actual makes EVERY variant take the
         wrapper at this site; with intent(out) the uninitialised
         temporary can then surface under any atom's demotion, so no
         per-atom bound is attributable — give up on the whole program *)
      if dinfo.v_intent = Some Ast.Out then Array.iteri (fun a _ -> poison d a) d.poisoned;
      pure (Value.Vreal (Fp32.of_kind dk x, dk))
    | _ ->
      (* by-value copy: the store into the dummy cell rounds at [dk] *)
      let x = Fp32.of_kind dk (as_float v.c) in
      let kt =
        match dummy.atom with
        | Some a -> E.atoms_add a v.kt
        | None -> v.kt
      in
      let err = wrapper_hazard ~dinfo (Array.to_list kt) x (round_err d dk x v.err kt) in
      { c = Value.Vreal (x, dk); err; kt = E.no_atoms }

  let neg d v =
    match v.c with
    | Value.Vint i -> { v with c = Value.Vint (-i) }
    | Value.Vreal (x, k) -> mk_areal d k (-.x) v.err v.kt
    | Value.Vlog _ | Value.Vstr _ -> trap "negation of non-numeric value"

  let binop d op ~literal:_ va vb =
    let kt = E.atoms_union va.kt vb.kt in
    match (va.c, vb.c, op) with
    | Value.Vint x, Value.Vint y, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow) ->
      pure (Value.Vint (Walk.int_arith op x y))
    | _, _, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) ->
      let k = Walk.promoted va.c vb.c in
      let x = as_float va.c and y = as_float vb.c in
      let v = Walk.round_real k (Walk.real_arith op x y) in
      let poisoned = d.poisoned and f32 = f32_of k in
      let err =
        match op with
        | Ast.Add | Ast.Sub -> E.add ~poisoned ~f32 ~taint:kt v va.err vb.err
        | Ast.Mul -> E.mul ~poisoned ~f32 ~taint:kt ~x ~y v va.err vb.err
        | Ast.Div -> E.div ~poisoned ~f32 ~taint:kt ~x ~y v va.err vb.err
        | _ -> assert false
      in
      { c = Value.Vreal (v, k); err; kt }
    | _, _, Ast.Pow -> (
      let k = Walk.promoted va.c vb.c in
      let x = as_float va.c in
      match vb.c with
      | Value.Vint n when abs n <= 4 ->
        (* strength-reduced small integer powers; the exponent is an
           exact int (err-free by construction) *)
        let v = Walk.round_real k (Walk.small_pow x n) in
        let err =
          if n = 0 then round_err d k v E.empty kt
          else E.pow ~poisoned:d.poisoned ~f32:(f32_of k) ~taint:kt ~x n v va.err
        in
        { c = Value.Vreal (v, k); err; kt }
      | _ ->
        let y = as_float vb.c in
        let raw = Float.pow x y in
        (* x^y is monotone in each argument on x > 0, so the extreme of the
           error rectangle is at a corner; an interval reaching x <= 0 can
           go complex (NaN trap divergence) *)
        let err =
          E.union
            (fun ex ey ->
              if ex = 0.0 && ey = 0.0 then 0.0
              else if x -. ex <= 0.0 then Float.abs raw +. 1.0
              else
                List.fold_left
                  (fun acc (dx, dy) ->
                    let c = Float.pow (x +. dx) (y +. dy) in
                    if Float.is_finite c then Float.max acc (Float.abs (c -. raw)) else infinity)
                  0.0
                  [ (ex, ey); (ex, -.ey); (-.ex, ey); (-.ex, -.ey) ])
            va.err vb.err
        in
        E.iter
          (fun a e ->
            if e > 0.0 then
              let ex = E.get a va.err in
              if x -. ex <= 0.0 || not (Float.is_finite e) then poison d a)
          err;
        let err = E.map (fun e -> if Float.is_finite e then e else Float.abs raw +. 1.0) err in
        mk_areal d k raw err kt)
    | _, _, (Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) ->
      (match (va.c, vb.c) with
      | Value.Vlog _, Value.Vlog _ -> ()
      | _ -> compare_guard d (as_float va.c) (as_float vb.c) va.err vb.err);
      pure (Value.Vlog (Walk.compare op va.c vb.c))
    | _, _, (Ast.And | Ast.Or) -> assert false

  let abs d v =
    match v with
    | { c = Value.Vint i; _ } -> pure (Value.Vint (abs i))
    | { c = Value.Vreal (x, k); err; kt } -> mk_areal d k (Float.abs x) err kt
    | _ -> trap "abs of non-numeric value"

  let elemental d fn v =
    match v with
    | { c = Value.Vreal (x, k); err; kt } ->
      let fx = Walk.elemental fn x in
      let v = Walk.round_real k fx in
      let err =
        E.elemental ~poisoned:d.poisoned ~f32:(f32_of k) ~taint:kt (elemental_rule fn) ~x ~fx v err
      in
      { c = Value.Vreal (v, k); err; kt }
    | _ -> trap "%s of non-real value" (Builtins.name (Builtins.Elemental fn))

  let minmax d m vs =
    match List.fold_left (fun acc v -> Walk.promote_kind acc (Walk.value_kind v.c)) None vs with
    | None -> pure (Value.Vint (Walk.int_extremum_of m (List.map (to_int d) vs)))
    | Some k ->
      let f = Walk.extremum m (List.map (fun v -> as_float v.c) vs) in
      (* |min_i x'_i - min_i x_i| <= max_i |x'_i - x_i| *)
      let err = List.fold_left (fun acc v -> E.union Float.max acc v.err) E.empty vs in
      let kt = List.fold_left (fun acc v -> E.atoms_union acc v.kt) E.no_atoms vs in
      mk_areal d k f err kt

  let modulo d va vb =
    match (va.c, vb.c) with
    | Value.Vint x, Value.Vint y -> pure (Value.Vint (Walk.int_mod x y))
    | _ ->
      let k =
        match Walk.promote_kind (Walk.value_kind va.c) (Walk.value_kind vb.c) with
        | Some k -> k
        | None -> trap "mod of non-numeric"
      in
      let x = as_float va.c and y = as_float vb.c in
      let r = Float.rem x y in
      (* rem jumps by |y| at multiples of y; inside one period it is a
         translation. A perturbed divisor shifts every boundary — too
         wild to bound tightly, poison. *)
      let boundary_dist =
        let q = Float.abs y in
        if q = 0.0 then 0.0 else Float.min (Float.abs r) (q -. Float.abs r)
      in
      let err =
        E.union
          (fun ex ey ->
            if ey > 0.0 then ex +. ey +. Float.abs y
            else if ex >= boundary_dist then ex +. Float.abs y
            else ex)
          va.err vb.err
      in
      E.iter (fun a ey -> if ey > 0.0 then poison d a) vb.err;
      mk_areal d k r err (E.atoms_union va.kt vb.kt)

  let atan2 d va vb =
    match Walk.promote_kind (Walk.value_kind va.c) (Walk.value_kind vb.c) with
    | Some k ->
      let y = as_float va.c and x = as_float vb.c in
      let r = Float.hypot x y in
      (* gradient magnitude is 1/r; the range is (-pi, pi], so 2*pi
         always bounds the jump across the branch cut *)
      let err =
        E.union
          (fun ey ex ->
            let m = r -. (ey +. ex) in
            if m <= 0.0 then 2.0 *. Float.pi else Float.min ((ey +. ex) /. m) (2.0 *. Float.pi))
          va.err vb.err
      in
      mk_areal d k (Float.atan2 y x) err (E.atoms_union va.kt vb.kt)
    | None -> trap "atan2 of non-real values"

  let sign d x y =
    match Walk.promote_kind (Walk.value_kind x.c) (Walk.value_kind y.c) with
    | Some k ->
      let xf = as_float x.c and yf = as_float y.c in
      let m = Float.abs xf in
      let err =
        E.union
          (fun ex ey ->
            (* a flippable sign of y doubles the magnitude swing *)
            if ey > 0.0 && Float.abs yf <= ey then ex +. (2.0 *. (m +. ex)) else ex)
          x.err y.err
      in
      mk_areal d k (Walk.real_sign xf yf) err (E.atoms_union x.kt y.kt)
    | None ->
      let m = to_int d x in
      pure (Value.Vint (Walk.int_sign m (to_int d y)))

  (* the result kind is pinned: the kind taint dissolves, the value error
     survives one rounding at [kk] (real() does not trap non-finite, as in
     the interpreter; an overflowing entry poisons inside round_err) *)
  let real d kk v =
    let x = Fp32.of_kind kk (as_float v.c) in
    { c = Value.Vreal (x, kk); err = round_err d kk x v.err E.no_atoms; kt = E.no_atoms }

  let dble _ v = { c = Value.Vreal (as_float v.c, Ast.K8); err = v.err; kt = E.no_atoms }

  let dot_product d ba (a : shadow Walk.real_array) bb (b : shadow Walk.real_array) =
    let da = a.data and ea = a.shadow and ka = a.kind in
    let db = b.data and eb = b.shadow and kb = b.kind in
    let n = min (Array.length da) (Array.length db) in
    let kind = Walk.dot_kind ka kb in
    let kt = E.atoms_union ba.taint bb.taint in
    let elem b x k err = read_view d b { c = Value.Vreal (x, k); err; kt = E.no_atoms } in
    let poisoned = d.poisoned and f32 = f32_of kind in
    let s = ref 0.0 and serr = ref E.empty in
    for i = 0 to n - 1 do
      let xa = elem ba da.(i) ka ea.(i) in
      let xb = elem bb db.(i) kb eb.(i) in
      let p = Fp32.of_kind kind (da.(i) *. db.(i)) in
      let perr = E.mul ~poisoned ~f32 ~taint:kt ~x:da.(i) ~y:db.(i) p xa.err xb.err in
      let s' = Walk.dot_step kind !s da.(i) db.(i) in
      serr := E.add ~poisoned ~f32 ~taint:kt s' !serr perr;
      s := s'
    done;
    mk_areal d kind !s !serr kt

  let reduce d r b ({ kind; data; shadow = errs; _ } : shadow Walk.real_array) =
    let n = Array.length data in
    let kt = b.taint in
    let elem i = read_view d b { c = Value.Vreal (data.(i), kind); err = errs.(i); kt = E.no_atoms } in
    match (r : Builtins.reduction) with
    | Sum ->
      let poisoned = d.poisoned and f32 = f32_of kind in
      let s = ref 0.0 and serr = ref E.empty in
      for i = 0 to n - 1 do
        let x = elem i in
        let s' = Fp32.of_kind kind (!s +. data.(i)) in
        serr := E.add ~poisoned ~f32 ~taint:kt s' !serr x.err;
        s := s'
      done;
      mk_areal d kind !s !serr kt
    | Extreme m ->
      if n = 0 then Walk.empty_reduction m
      else begin
        let fold = Walk.float_extremum m in
        let v = ref data.(0) and err = ref (elem 0).err in
        for i = 1 to n - 1 do
          let x = elem i in
          v := fold !v data.(i);
          err := E.union Float.max !err x.err
        done;
        mk_areal d kind !v !err kt
      end

  let reduce_int _ r data = pure (Value.Vint (Walk.int_reduce r data))

  let inquiry _ q v =
    match v with
    | { c = Value.Vreal (_, k); kt; _ } ->
      (* a kind-tainted argument flips the inquiry's answer outright in the
         demoted run: the error is the full distance between the kinds *)
      let gap = Float.abs (Walk.inquiry q Ast.K4 -. Walk.inquiry q Ast.K8) in
      let err =
        if k = Ast.K8 then Array.fold_left (fun m a -> E.put a gap m) E.empty kt else E.empty
      in
      { c = Value.Vreal (Walk.inquiry q k, k); err; kt }
    | _ -> trap "%s of non-real value" (Builtins.name (Builtins.Inquiry q))
end

module W = Walk.Make (Abstract)

(* Index the demotable atoms: only 64-bit declarations can lose precision
   (lowering an already-32-bit atom is the identity). The returned order
   is the order of [atoms]. *)
let index_atoms (atoms : Transform.Assignment.atom list) =
  let tbl = Hashtbl.create 16 in
  let n = ref 0 in
  List.iter
    (fun (a : Transform.Assignment.atom) ->
      if a.Transform.Assignment.a_declared = Ast.K8 then begin
        Hashtbl.replace tbl (a.Transform.Assignment.a_scope, a.Transform.Assignment.a_name) !n;
        incr n
      end)
    atoms;
  (tbl, !n)

(* [callee_touches] oracle for {!alias_guard}: which module variables can
   each procedure (transitively) access by name?  Direct accesses come
   from the def-use summaries — occurrences of a [Unit_scope] variable
   tagged with the procedure they appear in — closed over the call graph. *)
let build_callee_touches st =
  let direct = Hashtbl.create 32 in
  List.iter
    (fun (s : Analysis.Defuse.summary) ->
      match s.scope with
      | Symtab.Unit_scope u ->
        List.iter
          (fun (o : Analysis.Defuse.occurrence) ->
            match o.o_proc with
            | Some p -> Hashtbl.add direct p (u, s.var)
            | None -> ())
          (s.defs @ s.uses)
      | Symtab.Proc_scope _ -> ())
    (Analysis.Defuse.analyze st);
  let cg = Analysis.Callgraph.build st in
  let memo = Hashtbl.create 32 in
  fun callee key ->
    let set =
      match Hashtbl.find_opt memo callee with
      | Some set -> set
      | None ->
        let set = Hashtbl.create 16 in
        List.iter
          (fun p -> List.iter (fun k -> Hashtbl.replace set k ()) (Hashtbl.find_all direct p))
          (Analysis.Callgraph.reachable cg ~roots:[ callee ]);
        Hashtbl.replace memo callee set;
        set
    in
    Hashtbl.mem set key

let analyze ?(max_steps = 20_000_000) ~atoms st =
  let tbl, n_atoms = index_atoms atoms in
  let d =
    {
      atom_of = (fun key -> Hashtbl.find_opt tbl key);
      callee_touches = build_callee_touches st;
      poisoned = Array.make n_atoms false;
      steps = { Walk.count = 0; limit = max_steps };
    }
  in
  let r = W.run st d in
  {
    r_status =
      (match r.W.status with
      | Walk.Finished -> Finished
      | Walk.Stopped m -> Stopped m
      | Walk.Runtime_error m -> Runtime_error m
      | Walk.Timed_out -> assert false (* this domain has no budget *));
    r_samples =
      List.map
        (fun (s_key, v) ->
          match v.c with
          | Value.Vreal (x, _) -> { s_key; s_value = x; s_err = v.err }
          | Value.Vint _ | Value.Vlog _ | Value.Vstr _ ->
            { s_key; s_value = as_float v.c; s_err = E.empty })
        r.W.records;
    r_poisoned = d.poisoned;
    r_steps = d.steps.Walk.count;
  }

let atom_indices atoms = fst (index_atoms atoms)
