(** Static call graph over user procedures.

    Edges record the static number of call sites; intrinsic functions and
    subroutines are excluded. Used by the taint-based program reduction
    (which must pull in the definitions of every referenced procedure), by
    the inlining heuristic of the cost model, and by the static cost model
    of Sec. V (penalties as a function of call volume). *)

type t

val build : Fortran.Symtab.t -> t

val callees : t -> string option -> (string * int) list
(** [callees g (Some p)] lists procedures called from procedure [p] with
    their static call-site counts; [callees g None] does so for the main
    program body. *)

val callers : t -> string -> (string option * int) list

val reachable : t -> roots:string list -> string list
(** All procedures reachable from the given roots (roots included),
    in a deterministic order. *)
