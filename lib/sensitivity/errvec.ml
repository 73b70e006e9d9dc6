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
   as the error algebra of DESIGN.md §13 states it. *)

type t = { keys : int array; vals : float array }
type atoms = int array

let empty = { keys = [||]; vals = [||] }
let no_atoms : atoms = [||]
let length t = Array.length t.keys
let is_empty t = Array.length t.keys = 0

(* position of [a] in the sorted [keys], or -1 *)
let index keys a =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let k = Array.unsafe_get keys mid in
      if k = a then mid else if k < a then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length keys)

let get a t =
  let i = index t.keys a in
  if i < 0 then 0.0 else Array.unsafe_get t.vals i

let set a e t =
  let i = index t.keys a in
  if i >= 0 then begin
    let vals = Array.copy t.vals in
    vals.(i) <- e;
    { keys = t.keys; vals }
  end
  else begin
    let n = Array.length t.keys in
    let p = ref 0 in
    while !p < n && t.keys.(!p) < a do incr p done;
    let p = !p in
    let keys = Array.make (n + 1) a and vals = Array.make (n + 1) e in
    Array.blit t.keys 0 keys 0 p;
    Array.blit t.vals 0 vals 0 p;
    Array.blit t.keys p keys (p + 1) (n - p);
    Array.blit t.vals p vals (p + 1) (n - p);
    { keys; vals }
  end

let put a e t = if e = 0.0 then t else set a e t

let of_list l = List.fold_left (fun t (a, e) -> set a e t) empty l

let to_list t = List.init (length t) (fun i -> (t.keys.(i), t.vals.(i)))

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    f (Array.unsafe_get t.keys i) (Array.unsafe_get t.vals i)
  done

let mapi f t =
  if is_empty t then t
  else { keys = t.keys; vals = Array.init (length t) (fun i -> f t.keys.(i) t.vals.(i)) }

let map f t = mapi (fun _ e -> f e) t

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
      while !i < nx || !j < ny do
        (if !j >= ny then incr i
         else if !i >= nx then incr j
         else
           let a = Array.unsafe_get kx !i and b = Array.unsafe_get ky !j in
           if a < b then incr i
           else if b < a then incr j
           else begin
             incr i;
             incr j
           end);
        incr n
      done;
      if !n = nx then kx
      else if !n = ny then ky
      else begin
        let keys = Array.make !n 0 in
        i := 0;
        j := 0;
        for p = 0 to !n - 1 do
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
let atoms_add a s = if index s a >= 0 then s else union_keys s [| a |]

(* ------------------------------------------------------------------ *)
(* Union kernels                                                       *)

type rule = Sum | Product | Quotient

(* One loop serves the three hot rules, so each entry is computed with
   unboxed floats (a rule passed as a closure would box them).  It walks
   the union of the supports with one cursor per input; an entry missing
   from one side reads as 0.0 there. *)
let combine rule poisoned x y ex_v ey_v =
  let keys = union_keys ex_v.keys ey_v.keys in
  let n = Array.length keys in
  if n = 0 then empty
  else begin
    let ax = Float.abs x and ay = Float.abs y in
    let kx = ex_v.keys and vx = ex_v.vals and ky = ey_v.keys and vy = ey_v.vals in
    let nx = Array.length kx and ny = Array.length ky in
    let vals = Array.create_float n in
    let i = ref 0 and j = ref 0 in
    for p = 0 to n - 1 do
      let k = Array.unsafe_get keys p in
      let ex =
        if !i < nx && Array.unsafe_get kx !i = k then begin
          incr i;
          Array.unsafe_get vx (!i - 1)
        end
        else 0.0
      in
      let ey =
        if !j < ny && Array.unsafe_get ky !j = k then begin
          incr j;
          Array.unsafe_get vy (!j - 1)
        end
        else 0.0
      in
      Array.unsafe_set vals p
        (match rule with
        | Sum -> ex +. ey
        | Product -> (ay *. ex) +. (ax *. ey) +. (ex *. ey)
        | Quotient ->
          let denom = ay -. ey in
          let num = (ay *. ex) +. (ax *. ey) +. (ex *. ey) in
          if ey > 0.0 && denom <= 0.0 then poisoned.(k) <- true;
          if denom <= 0.0 then num /. Float.max (ay *. ay) 1e-300 (* finite heuristic *)
          else num /. (ay *. denom))
    done;
    { keys; vals }
  end

let add x y = combine Sum [||] 0.0 0.0 x y

(* |x'y' - xy| <= |y| ex + |x| ey + ex ey *)
let mul ~x ~y ex ey = combine Product [||] x y ex ey

(* |x'/y' - x/y| <= (|y| ex + |x| ey + ex ey) / (|y| (|y| - ey)); a
   divisor interval reaching zero is a trap/Inf divergence: the atom is
   poisoned and keeps a finite heuristic *)
let div ~poisoned ~x ~y ex ey = combine Quotient poisoned x y ex ey

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
  let round = if m = 0.0 then 0.0 else Float.max (2.0 *. eps *. m) sub in
  let e' = (e *. (1.0 +. (2.0 *. eps))) +. round in
  if (not (Float.is_finite e')) || Float.abs v +. e' >= cap then begin
    poisoned.(a) <- true;
    if Float.is_finite e' then e' else Float.abs v +. cap
  end
  else e'

let round_one ~poisoned a v t =
  put a (round_entry poisoned ~eps:eps32 ~sub:sub32 ~cap:f32_cap a v (get a t)) t

let round ~poisoned ~f32 ~taint v t =
  if f32 then
    if is_empty t then t
    else begin
      let n = length t in
      let vals = Array.create_float n in
      for i = 0 to n - 1 do
        Array.unsafe_set vals i
          (round_entry poisoned ~eps:eps32 ~sub:sub32 ~cap:f32_cap (Array.unsafe_get t.keys i) v
             (Array.unsafe_get t.vals i))
      done;
      { keys = t.keys; vals }
    end
  else begin
    (* a taint-only entry is absent before the update and stays absent
       when its f32 rounding is 0.0, which happens exactly at v = 0 *)
    let keys =
      if Array.length taint = 0 || Float.abs v = 0.0 then t.keys else union_keys t.keys taint
    in
    let n = Array.length keys in
    if n = 0 then empty
    else begin
      let kt = t.keys and vt = t.vals in
      let nt = Array.length kt and na = Array.length taint in
      let vals = Array.create_float n in
      let i = ref 0 and j = ref 0 in
      for p = 0 to n - 1 do
        let k = Array.unsafe_get keys p in
        while !j < na && Array.unsafe_get taint !j < k do incr j done;
        let tainted = !j < na && Array.unsafe_get taint !j = k in
        let e =
          if !i < nt && Array.unsafe_get kt !i = k then begin
            incr i;
            round_entry poisoned ~eps:eps64 ~sub:sub64 ~cap:f64_cap k v
              (Array.unsafe_get vt (!i - 1))
          end
          else 0.0
        in
        Array.unsafe_set vals p
          (if tainted then
             let e' = round_entry poisoned ~eps:eps32 ~sub:sub32 ~cap:f32_cap k v e in
             if e' = 0.0 then e else e'
           else e)
      done;
      { keys; vals }
    end
  end
