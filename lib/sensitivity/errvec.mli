(** Per-atom error vectors: the value domain of the {!Absint} analysis.

    A vector maps demotable-atom indices to absolute-error bounds: entry
    [a] bounds how far a value can drift in the program variant that
    demotes precisely atom [a] to 32-bit.  The layout is flat — the sorted
    atom indices in [keys] and their bounds, in the same order, in the
    unboxed [vals] — and every kernel below is one loop that fills a
    freshly allocated result.  Vectors are immutable: no function mutates
    an argument's arrays, and a result with an input's support may share
    that input's [keys].

    The support is observable: an absent entry is not an explicit [0.0].
    The union kernels keep every key of either input; [put] drops a zero
    without removing an existing entry; the rounding update turns an
    explicit zero at [|v| > 0] into a positive bound while an absent entry
    stays absent. *)

type t = private {
  keys : int array;  (** strictly increasing atom indices *)
  vals : float array;  (** [vals.(i)] is the bound of atom [keys.(i)] *)
}

type atoms = int array
(** A sorted, duplicate-free set of atom indices: the kind taint of a
    value (atoms whose demotion may change the kind it is computed in). *)

val empty : t
val no_atoms : atoms
val length : t -> int

val get : int -> t -> float
(** The entry of an atom, [0.0] when absent. *)

val put : int -> float -> t -> t
(** Bind an atom, replacing any entry — unless the bound is [0.0], in
    which case the vector is returned unchanged (an existing entry
    survives). *)

val of_list : (int * float) list -> t
(** Bindings in list order from {!empty}: later bindings win, and zeros
    are kept as explicit entries. *)

val to_list : t -> (int * float) list
(** Bindings in increasing atom order. *)

val iter : (int -> float -> unit) -> t -> unit
(** In increasing atom order. *)

val map : (float -> float) -> t -> t

val atoms_union : atoms -> atoms -> atoms
val atoms_add : int -> atoms -> atoms

val union : (float -> float -> float) -> t -> t -> t
(** Entry-wise [f ex ey] over the union of both supports, a key missing
    from one side reading as [0.0] there: the less frequent rules, which
    their caller rounds with {!round}. *)

(** {1 The rounding update} *)

val eps32 : float
(** One f32 ulp at 1.0, doubled in every rounding charge. *)

val sub32 : float
(** The smallest positive f32 subnormal: the absolute floor of an f32
    rounding charge. *)

val round : poisoned:bool array -> f32:bool -> taint:atoms -> float -> t -> t
(** The rounding after an operation whose result [v] the baseline computes
    in 32-bit ([f32]) or 64-bit: every entry [e] becomes
    [e (1 + 2 eps) + max (2 eps (|v| + e)) sub] at the baseline epsilon
    [eps] and subnormal [sub], zero when [|v| + e = 0]; in 64-bit each
    [taint] atom is then charged one more f32 rounding (its run may
    compute the operation in 32-bit), which adds an entry for a taint atom
    without one unless [v = 0].  An entry past the kind's range is marked
    in [poisoned] and stays finite. *)

val round_one : poisoned:bool array -> int -> float -> t -> t
(** [round_one ~poisoned a v t]: a read through a binding owned by atom
    [a] charges one f32 rounding of a value of magnitude [|v|] to [a]'s
    bound [e]: [e (1 + 2 eps32) + max (2 eps32 (|v| + e)) sub32], zero when
    [|v| + e = 0], set with {!put}.  Past the f32 range the atom is marked
    in [poisoned] and the bound stays finite. *)

(** {1 Operations}

    Each kernel applies an operation's propagation rule and then the
    rounding update of its result [v] in one loop, filling one vector: the
    result equals [round ~poisoned ~f32 ~taint v] applied to the rule's
    vector, bit for bit, in values, support and [poisoned] marks.  A binary
    rule runs over the union of both supports, a key missing from one side
    reading as [0.0] there; a unary rule keeps its argument's support. *)

val add : poisoned:bool array -> f32:bool -> taint:atoms -> float -> t -> t -> t
(** Entry-wise [ex +. ey]: the rule for sums and differences. *)

val mul :
  poisoned:bool array -> f32:bool -> taint:atoms -> x:float -> y:float -> float -> t -> t -> t
(** Product rule for [x * y]: [(|y| ex + |x| ey) + ex ey]. *)

val div :
  poisoned:bool array -> f32:bool -> taint:atoms -> x:float -> y:float -> float -> t -> t -> t
(** Quotient rule for [x / y]:
    [((|y| ex + |x| ey) + ex ey) / (|y| (|y| - ey))].  An atom whose
    divisor interval reaches zero ([ey > 0], [|y| - ey <= 0]) is marked in
    [poisoned] and gets the finite heuristic
    [((|y| ex + |x| ey) + ex ey) / max (|y| |y|) 1e-300]. *)

val pow : poisoned:bool array -> f32:bool -> taint:atoms -> x:float -> int -> float -> t -> t
(** [pow ~x n v e] for [x ** n], [1 <= |n| <= 4], strength-reduced: the
    product rule once per multiplication of the exact [1.0] by [x] (the
    exponent carries no error), then for [n < 0] the quotient rule of
    [1 / x ** |n|]. *)

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
(** The elemental intrinsics, by propagation rule: [sin] and [cos] share
    one, as do [asin] and [acos], and [sinh] and [cosh]; [Aint] is
    [aint] (truncation) and [Anint] is [anint] (rounding). *)

val elemental :
  poisoned:bool array ->
  f32:bool ->
  taint:atoms ->
  elemental ->
  x:float ->
  fx:float ->
  float ->
  t ->
  t
(** [elemental fn ~x ~fx v e] for [fx = f x]: each nonzero entry becomes a
    bound of [|f(x') - f(x)|] over [x'] in [[x - e, x + e]], a zero stays
    [0.0].  Where the demoted run may trap (NaN) and the baseline does
    not, the atom is marked in [poisoned] and gets the finite heuristic
    [(|fx| + e) + 1]. *)
