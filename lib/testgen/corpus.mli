(** Replayable counterexample corpus.

    An entry is a pair of files in the corpus directory:

    - [<name>.f90] — the (minimized) program text, replayable by hand
      with any Fortran tooling;
    - [<name>.repro] — a sidecar with the oracle that failed, the
      provenance of the case ([seed=… case=…]), and the lowered-atom
      list of the precision assignment, one [key: value] line each.

    [dune runtest] replays every entry through all oracles
    (see [test/test_corpus.ml]), so a checked-in bug stays fixed. *)

type entry = {
  name : string;  (** file stem, e.g. [fz_compiled_s42_c17] *)
  case : Gen.case;
  oracle : string;  (** name of the oracle that failed at capture time *)
  origin : string;  (** provenance, e.g. ["seed=42 case=17"] *)
}

val save : dir:string -> entry -> string
(** Write (or overwrite) the entry's two files, creating [dir] if
    needed; returns the path of the [.f90] file. *)

val load : dir:string -> entry list
(** All entries in [dir], sorted by name; an absent directory is an
    empty corpus. Raises [Failure] on a [.f90] without a [.repro]
    sidecar or a malformed sidecar. *)
