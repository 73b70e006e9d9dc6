(* Per-atom error vectors: the value domain of the {!Absint} analysis.

   A vector is a sorted array of atom indices and a parallel unboxed
   [float array] of absolute-error bounds.  Every kernel is one flat loop
   that fills a freshly allocated result; key arrays are never mutated, so
   a result whose support equals an input's shares that input's keys.

   The support is part of the value: an absent entry is not an explicit
   0.0.  Union kernels keep every key of either input (whatever the
   per-entry result), [put] drops a zero without removing an existing
   entry, and the rounding update turns an explicit zero at |v| > 0 into a
   positive bound while an absent entry stays absent.  Each entry is
   computed by the same float expression, in the same association order,
   as the error algebra of DESIGN.md §13 states it.

   An abstract operation is its propagation rule followed by the rounding
   update of its result.  The hot ones — the [+ - * /] rules, small
   integer powers, the elemental intrinsics, and the rounding update on
   its own — share one loop, [apply], that computes each entry's rule and
   rounds it in place, so an operation fills one vector, not two.  The loop
   switches on the rule, because a rule passed as a closure would box every
   float. *)

type t = { keys : int array; vals : float array }
type atoms = int array

let empty = { keys = [||]; vals = [||] }
let no_atoms : atoms = [||]
let length t = Array.length t.keys
let is_empty t = Array.length t.keys = 0

(* the first position of the sorted [keys] whose key is >= [a] *)
let search keys a =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get keys mid < a then lo := mid + 1 else hi := mid
  done;
  !lo

let found keys p a = p < Array.length keys && Array.unsafe_get keys p = a

let get a t =
  let p = search t.keys a in
  if found t.keys p a then Array.unsafe_get t.vals p else 0.0

(* bind [a] to [e], [p] being [search t.keys a] *)
let set_at p a e t =
  if found t.keys p a then begin
    let vals = Array.copy t.vals in
    vals.(p) <- e;
    { keys = t.keys; vals }
  end
  else begin
    let n = Array.length t.keys in
    let keys = Array.make (n + 1) a and vals = Array.make (n + 1) e in
    Array.blit t.keys 0 keys 0 p;
    Array.blit t.vals 0 vals 0 p;
    Array.blit t.keys p keys (p + 1) (n - p);
    Array.blit t.vals p vals (p + 1) (n - p);
    { keys; vals }
  end

let set a e t = set_at (search t.keys a) a e t
let put a e t = if e = 0.0 then t else set a e t

let of_list l = List.fold_left (fun t (a, e) -> set a e t) empty l

let to_list t = List.init (length t) (fun i -> (t.keys.(i), t.vals.(i)))

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    f (Array.unsafe_get t.keys i) (Array.unsafe_get t.vals i)
  done

let map f t = if is_empty t then t else { keys = t.keys; vals = Array.map f t.vals }

(* ------------------------------------------------------------------ *)
(* Atom sets                                                           *)

(* the sorted union of two sorted key arrays; an input that already holds
   the union is returned itself *)
let union_keys kx ky =
  if kx == ky then kx
  else
    let nx = Array.length kx and ny = Array.length ky in
    if ny = 0 then kx
    else if nx = 0 then ky
    else begin
      let i = ref 0 and j = ref 0 and n = ref 0 in
      while !i < nx && !j < ny do
        let a = Array.unsafe_get kx !i and b = Array.unsafe_get ky !j in
        if a < b then incr i
        else if b < a then incr j
        else begin
          incr i;
          incr j
        end;
        incr n
      done;
      let n = !n + (nx - !i) + (ny - !j) in
      if n = nx then kx
      else if n = ny then ky
      else begin
        let keys = Array.make n 0 in
        i := 0;
        j := 0;
        for p = 0 to n - 1 do
          if !j >= ny || (!i < nx && Array.unsafe_get kx !i < Array.unsafe_get ky !j) then begin
            keys.(p) <- Array.unsafe_get kx !i;
            incr i
          end
          else begin
            let b = Array.unsafe_get ky !j in
            keys.(p) <- b;
            if !i < nx && Array.unsafe_get kx !i = b then incr i;
            incr j
          end
        done;
        keys
      end
    end

let atoms_union = union_keys
let atoms_add a s = if found s (search s a) a then s else union_keys s [| a |]

let union f x y =
  let keys = union_keys x.keys y.keys in
  let n = Array.length keys in
  if n = 0 then empty
  else begin
    let i = ref 0 and j = ref 0 in
    let take ks vs c k =
      if !c < Array.length ks && ks.(!c) = k then begin
        incr c;
        vs.(!c - 1)
      end
      else 0.0
    in
    let vals =
      Array.init n (fun p ->
          let k = keys.(p) in
          let ex = take x.keys x.vals i k in
          f ex (take y.keys y.vals j k))
    in
    { keys; vals }
  end

(* ------------------------------------------------------------------ *)
(* The rounding update                                                 *)

(* one f32 ulp at 1.0 (the interpreter's epsilon(kind=4)), doubled in the
   rounding update so double roundings and directed modes are absorbed *)
let eps32 = 1.1920928955078125e-07
let eps64 = epsilon_float

(* smallest positive subnormal at each kind: the relative model
   [err <= 2 eps |v|] is vacuous once |v| sinks under the normal range —
   rounding tiny(kind=8) to f32 flushes it to zero, an absolute error of
   ~2.2e-308 that no multiple of eps32*|v| covers.  An absolute floor of
   one subnormal ulp restores the bound (for normal |v| the relative term
   already dominates it). *)
let sub32 = 0x1p-149
let sub64 = 0x1p-1074
let f32_cap = Runtime.Fp32.max_finite
let f64_cap = max_float

(* rounding update at epsilon [eps] for a result of magnitude |v|;
   overflow past [cap] means the demoted run may trap where the baseline
   did not — poison and keep a finite heuristic *)
let[@inline] round_entry poisoned ~eps ~sub ~cap a v e =
  let m = Float.abs v +. e in
  let round =
    if m = 0.0 then 0.0
    else
      (* [Float.max r sub] without its sign-bit tests, which [sub > 0]
         makes moot *)
      let r = 2.0 *. eps *. m in
      if r > sub || r <> r then r else sub
  in
  let e' = (e *. (1.0 +. (2.0 *. eps))) +. round in
  if (not (Float.is_finite e')) || Float.abs v +. e' >= cap then begin
    poisoned.(a) <- true;
    if Float.is_finite e' then e' else Float.abs v +. cap
  end
  else e'

let round_one ~poisoned a v t =
  let p = search t.keys a in
  let e = if found t.keys p a then Array.unsafe_get t.vals p else 0.0 in
  let e' = round_entry poisoned ~eps:eps32 ~sub:sub32 ~cap:f32_cap a v e in
  if e' = 0.0 then t else set_at p a e' t

(* ------------------------------------------------------------------ *)
(* Operations: a propagation rule, then the rounding update            *)

type elemental =
  | Sin_cos
  | Atan
  | Tanh
  | Sqrt
  | Exp
  | Log
  | Log10
  | Tan
  | Asin_acos
  | Sinh_cosh
  | Aint
  | Anint

type rule =
  | Keep  (* the rounding update alone *)
  | Sum
  | Product
  | Quotient
  | Power of int  (* x ** n, 1 <= |n| <= 4, on the base's entries *)
  | Elemental of elemental  (* f x, on the argument's entries *)

(* |x'y' - xy| <= |y| ex + |x| ey + ex ey *)
let[@inline] product ~ax ~ay ex ey = (ay *. ex) +. (ax *. ey) +. (ex *. ey)

(* |x'/y' - x/y| <= (|y| ex + |x| ey + ex ey) / (|y| (|y| - ey)); a
   divisor interval reaching zero is a trap/Inf divergence: the atom is
   poisoned and keeps a finite heuristic *)
let[@inline] quotient poisoned k ~ax ~ay ex ey =
  let denom = ay -. ey in
  let num = product ~ax ~ay ex ey in
  if ey > 0.0 && denom <= 0.0 then poisoned.(k) <- true;
  if denom <= 0.0 then num /. Float.max (ay *. ay) 1e-300 (* finite heuristic *)
  else num /. (ay *. denom)

(* strength-reduced x ** n: the product rule once per multiplication,
   from the exact 1.0; for n < 0 the quotient rule of 1 / x ** |n| *)
let[@inline] power poisoned k ~x n e =
  let ay = Float.abs x in
  let acc = ref 1.0 and ea = ref 0.0 in
  for _ = 1 to abs n do
    ea := product ~ax:(Float.abs !acc) ~ay !ea e;
    acc := !acc *. x
  done;
  if n > 0 then !ea else quotient poisoned k ~ax:1.0 ~ay:(Float.abs !acc) 0.0 !ea

(* the demoted run may trap (NaN) where the baseline did not: poison and
   keep a finite heuristic *)
let give_up poisoned k fx e =
  poisoned.(k) <- true;
  Float.abs fx +. e +. 1.0

(* |f(x') - f(x)| for x' in [x - e, x + e], e > 0, where fx = f x *)
let[@inline] elemental poisoned k fn ~x ~fx e =
  match fn with
  | Sin_cos | Tanh -> Float.min e 2.0
  | Atan -> Float.min e Float.pi
  | Sqrt ->
    if x -. e < 0.0 then give_up poisoned k fx e
    else if x -. e = 0.0 then sqrt e
    else Float.min (e /. (2.0 *. sqrt (x -. e))) (sqrt e)
  | Exp ->
    let hi = exp (x +. e) in
    if Float.is_finite hi then hi -. exp x else give_up poisoned k fx e
  | Log -> if x -. e <= 0.0 then give_up poisoned k fx e else log (x /. (x -. e))
  | Log10 -> if x -. e <= 0.0 then give_up poisoned k fx e else log (x /. (x -. e)) /. log 10.0
  | Tan ->
    let m = Float.abs (cos x) -. e in
    if m <= 0.0 then give_up poisoned k fx e else e /. (m *. m)
  | Asin_acos ->
    let t = Float.abs x +. e in
    if t >= 1.0 then give_up poisoned k fx e
    else Float.min (e /. sqrt (1.0 -. (t *. t))) Float.pi
  | Sinh_cosh ->
    let t = Float.abs x +. e in
    if t > 700.0 then give_up poisoned k fx e else e *. cosh t
  | Aint -> if Float.trunc (x -. e) = Float.trunc (x +. e) then 0.0 else e +. 1.0
  | Anint -> if Float.round (x -. e) = Float.round (x +. e) then 0.0 else e +. 1.0

(* one entry: [rule] of [ex] and [ey], then the rounding update of the
   result [v] at the baseline epsilon *)
let[@inline] entry rule poisoned ~f32 ~x ~y ~ax ~ay k v ex ey =
  let e =
    match rule with
    | Keep -> ex
    | Sum -> ex +. ey
    | Product -> product ~ax ~ay ex ey
    | Quotient -> quotient poisoned k ~ax ~ay ex ey
    | Power n -> power poisoned k ~x n ex
    | Elemental fn -> if ex = 0.0 then 0.0 else elemental poisoned k fn ~x ~fx:y ex
  in
  if f32 then round_entry poisoned ~eps:eps32 ~sub:sub32 ~cap:f32_cap k v e
  else round_entry poisoned ~eps:eps64 ~sub:sub64 ~cap:f64_cap k v e

(* [rule] over the union of both supports (an entry missing from one side
   reads as 0.0 there), then the rounding update of the result [v] at the
   baseline epsilon ([f32] or 64-bit).  In 64-bit each [taint] atom is
   then charged one more f32 rounding (its run may compute the operation
   in 32-bit); a taint atom without an entry gains one unless v = 0,
   where its f32 rounding is 0.0.  [x] and [y] are the operands (for
   [Power] the base, for [Elemental] the argument and the result).

   Entries are independent, so the taint charge is applied after the
   loop, at the few taint positions, and when the union is one input's
   key array with the other input's or none, the loop indexes both
   inputs by position. *)
let apply rule ~poisoned ~f32 ~taint ~x ~y v ex ey =
  let kx = ex.keys and ky = ey.keys in
  let kxy = union_keys kx ky in
  let na = if f32 then 0 else Array.length taint in
  let keys = if na = 0 || Float.abs v = 0.0 then kxy else union_keys kxy taint in
  let n = Array.length keys in
  if n = 0 then empty
  else begin
    let vx = ex.vals and vy = ey.vals in
    let nx = Array.length kx and ny = Array.length ky in
    let ax = Float.abs x and ay = Float.abs y in
    let vals = Array.create_float n in
    if (keys == kx && (ny = 0 || keys == ky)) || (keys == ky && nx = 0) then
      for p = 0 to n - 1 do
        let ex = if nx = 0 then 0.0 else Array.unsafe_get vx p in
        let ey = if ny = 0 then 0.0 else Array.unsafe_get vy p in
        Array.unsafe_set vals p
          (entry rule poisoned ~f32 ~x ~y ~ax ~ay (Array.unsafe_get keys p) v ex ey)
      done
    else begin
      let i = ref 0 and j = ref 0 in
      for p = 0 to n - 1 do
        let k = Array.unsafe_get keys p in
        let in_x = !i < nx && Array.unsafe_get kx !i = k in
        let in_y = !j < ny && Array.unsafe_get ky !j = k in
        Array.unsafe_set vals p
          (if in_x || in_y then begin
             let ex =
               if in_x then begin
                 incr i;
                 Array.unsafe_get vx (!i - 1)
               end
               else 0.0
             in
             let ey =
               if in_y then begin
                 incr j;
                 Array.unsafe_get vy (!j - 1)
               end
               else 0.0
             in
             entry rule poisoned ~f32 ~x ~y ~ax ~ay k v ex ey
           end
           else 0.0)
      done
    end;
    (* the f32 charge is 0.0 only on an entry of +0.0 (the baseline
       rounding never leaves -0.0), so storing it keeps that zero *)
    for t = 0 to na - 1 do
      let k = Array.unsafe_get taint t in
      let p = search keys k in
      if found keys p k then
        Array.unsafe_set vals p
          (round_entry poisoned ~eps:eps32 ~sub:sub32 ~cap:f32_cap k v (Array.unsafe_get vals p))
    done;
    { keys; vals }
  end

let round ~poisoned ~f32 ~taint v t = apply Keep ~poisoned ~f32 ~taint ~x:0.0 ~y:0.0 v t empty
let add ~poisoned ~f32 ~taint v ex ey = apply Sum ~poisoned ~f32 ~taint ~x:0.0 ~y:0.0 v ex ey
let mul ~poisoned ~f32 ~taint ~x ~y v ex ey = apply Product ~poisoned ~f32 ~taint ~x ~y v ex ey
let div ~poisoned ~f32 ~taint ~x ~y v ex ey = apply Quotient ~poisoned ~f32 ~taint ~x ~y v ex ey

let pow ~poisoned ~f32 ~taint ~x n v ex =
  apply (Power n) ~poisoned ~f32 ~taint ~x ~y:0.0 v ex empty

let elemental ~poisoned ~f32 ~taint fn ~x ~fx v ex =
  apply (Elemental fn) ~poisoned ~f32 ~taint ~x ~y:fx v ex empty
