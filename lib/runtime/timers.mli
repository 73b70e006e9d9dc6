(** GPTL-style per-procedure timers.

    The paper measures hotspot CPU time with the GPTL library, excluding
    non-targeted model procedures but including intrinsic/library time
    (Sec. III-E). The interpreter reproduces that attribution:

    - every modeled cost charge is attributed to the procedure currently
      on top of the attribution stack (intrinsics do not push, so their
      cost lands on the caller, as with GPTL);
    - generated wrappers get no timer of their own: their conversion cost
      is attributed to the procedure containing the call site. Casting at
      an {e intra-hotspot} boundary therefore counts against the hotspot
      (the paper's MPAS-A flux and MOM6 findings), while casting at the
      hotspot's {e outer} boundary counts against the surrounding model
      only — which is exactly why the whole-model-guided search of
      Sec. IV-C sees slowdowns that hotspot timing does not;
    - inclusive time (callees included) and call counts are kept per
      procedure; Fig. 6 plots average inclusive time per call. Under
      recursion, as in GPTL, only a procedure's outermost activation
      adds inclusive time: the spans of the inner ones lie inside it. *)

type acc = {
  mutable calls : float;
  mutable exclusive : float;
  mutable inclusive : float;
  mutable active : float;  (** activations currently on the stack *)
}
(** A procedure's accumulator. All-float so the record is stored flat
    and charging never allocates. Fast-path evaluators resolve it once
    per (run, procedure) with {!acc_of} and then {!enter_clock} with no
    hashtable traffic.

    The representation (and [t] below) is exposed so the evaluators can
    inline the per-operation charge — a single flat float-field update
    on [top] — instead of paying a cross-module call with a boxed float
    argument on their hottest path. Treat both as read/charge-only
    outside this module: all stack discipline goes through
    {!enter}/{!enter_clock}/{!exit_}/{!exit_clock}. *)

type t = {
  table : (string, acc) Hashtbl.t;
  mutable names : string array;
  mutable marks : float array;
  mutable accs : acc array;
  mutable depth : int;
  mutable top : acc;  (** accumulator of the stack's top frame *)
  sentinel : acc;  (** discards charges when the stack is empty *)
}

type entry = {
  name : string;
  calls : int;
  exclusive : float;  (** cost charged while this procedure was on top *)
  inclusive : float;  (** cost between entry and exit, callees included *)
}

val create : unit -> t

val acc_of : t -> string -> acc
(** The accumulator for [name], created (and added to the table, hence
    to future {!snapshot}s) on first use. Resolve accumulators only for
    procedures actually being entered, or snapshots grow zero-call
    entries a name-keyed user would never produce. *)

val enter : t -> string -> now:float -> unit
(** Push procedure [name]; [now] is the global cost accumulator. *)

type clock = { mutable now : float }
(** A cost accumulator stored flat (one float field), so the clock entry
    points below take the time without boxing it. *)

val enter_clock : t -> acc -> string -> clock -> unit
(** {!enter} with the accumulator pre-resolved and the time read from
    [clock]. *)

val exit_clock : t -> clock -> unit
(** {!exit_} with the time read from [clock]. *)

val exit_ : t -> now:float -> unit
(** Pop the top procedure, folding [now - entry_mark] into its inclusive
    time when this was its outermost activation. Calls must nest
    properly. *)

val charge : t -> float -> unit
(** Attribute cost to the procedure on top (no-op on an empty stack). *)

val current : t -> string option

val snapshot : t -> entry list
(** Per-procedure totals, sorted by descending inclusive time. Only valid
    once the stack has fully unwound. *)

val inclusive_of : entry list -> string -> float
val exclusive_of : entry list -> string -> float
val calls_of : entry list -> string -> int
