(** Source locations for the Fortran frontend.

    Locations are attached to tokens and statements so that lexer, parser,
    type-checker and interpreter errors can point back into the original
    (or transformed) source text. *)

type t = {
  file : string;  (** logical file name, e.g. ["mpas_proxy.f90"] *)
  line : int;  (** 1-based line number *)
  col : int;  (** 1-based column number *)
}

val make : file:string -> line:int -> col:int -> t

val dummy : t
(** A placeholder location used for synthesized nodes (e.g. generated
    wrapper procedures) that have no position in the user's source. *)

val pp : Format.formatter -> t -> unit
(** Prints as ["file:line:col"]. *)

val to_string : t -> string
