(** Line diffs between program variants (Fig. 3).

    The paper presents variants to domain experts as source-level diffs
    against the original program; interpretability of the transformed
    source is one of the stated reasons for tuning variable declarations
    at the source level (Sec. III-A, III-C). *)

type line =
  | Keep of string
  | Remove of string
  | Add of string

val lines : string -> string -> line list
(** LCS-based line diff between two texts. *)

val hunks : string -> string -> string
(** Unified-diff-style rendering showing only changed regions with one
    line of context around them, using [-]/[+] prefixes. *)

val declarations : Fortran.Symtab.t -> Assignment.t -> string
(** The Fig.-3 view: only the declaration changes implied by an
    assignment, grouped by procedure/module. *)
