(** Precision assignments: the points of the mixed-precision design space.

    A search {e atom} is a floating-point variable declaration
    (Sec. III-A), identified by its scope-qualified name. An assignment
    maps every atom of the search space to a precision; atoms outside the
    search space keep their declared precision. *)

type atom = {
  a_scope : Fortran.Symtab.scope;
  a_name : string;
  a_declared : Fortran.Ast.real_kind;  (** kind in the original program *)
  a_is_array : bool;
}

val atom_id : atom -> string
(** Stable printable identity, e.g. ["funarc/s1"] or ["m::xs"]. *)

val pp_atom : Format.formatter -> atom -> unit

val atoms_of_module :
  ?exclude:string list -> Fortran.Symtab.t -> string -> atom list
(** The search space of Sec. III-A: every non-parameter FP variable
    declared in the module (module level, and every contained procedure's
    locals and dummies). [exclude] removes variables by name (the paper
    excludes [funarc]'s [result]). *)

val atoms_of_target :
  ?exclude:string list ->
  Fortran.Symtab.t ->
  module_:string ->
  procs:string list option ->
  atom list
(** Like {!atoms_of_module}, but when [procs] is [Some l] only variables
    of the listed procedures (plus module-level variables) are atoms —
    MPAS-A targets the work routines of [atm_time_integration], not its
    [atm_srk3] driver. [None] targets the whole module. *)

val inert : Fortran.Symtab.t -> atom list -> bool array
(** Per atom, in list order: [true] when its kind provably cannot change
    a run's outcome or charged cost — its procedure is unreachable from
    the main program, or it has no def, no use and no initializer and is
    neither a dummy nor a function result (those take part in argument
    binding and wrapper conversion even when the body never mentions
    them). The batch-reuse table masks these atoms out of its key, and
    the rank engine projects failure evidence off them. *)

type t

val uniform : atom list -> Fortran.Ast.real_kind -> t
(** Every atom at the given kind. *)

val original : atom list -> t
(** Every atom at its declared kind (the identity assignment). *)

val of_lowered : atom list -> lowered:atom list -> t
(** Atoms in [lowered] at K4, the rest at their declared kind. *)

val kind_of : t -> atom -> Fortran.Ast.real_kind
val atoms : t -> atom list
val lowered : t -> atom list
(** Atoms assigned K4 whose declared kind was K8. *)

val set : t -> atom -> Fortran.Ast.real_kind -> t
val lookup : t -> scope:Fortran.Symtab.scope -> string -> Fortran.Ast.real_kind option

val fraction_lowered : t -> float
(** Fraction of atoms at reduced precision — the x-axis clustering
    quantity of Figs. 5 and 7 ("% 32-bit"). *)

val count_at : t -> Fortran.Ast.real_kind -> int
val equal : t -> t -> bool
val signature : t -> string
(** Canonical string over the atom kinds; equal assignments have equal
    signatures (used for caching and for Fig. 6's "unique procedure
    variants"). *)

val of_signature : atom list -> string -> t
(** Inverse of {!signature} over the same atom list (the campaign
    journal's content address back to an assignment). Raises
    [Invalid_argument] on a length mismatch or a character other than
    ['4']/['8']. [signature (of_signature atoms s) = s], and
    [of_signature atoms (signature a)] equals [a] whenever [a] ranges
    over [atoms]. *)

val restrict_signature : t -> proc:string -> string
(** Signature over only the atoms local to the given procedure. *)
