(** Recursive-descent parser for the supported Fortran 90 subset.

    Grammar outline (free form, statements separated by newlines or [;]):

    {v
    program        := { module-unit | main-unit }
    module-unit    := "module" name { use } [ "implicit none" ] { decl }
                      [ "contains" { procedure } ] "end" "module" [ name ]
    main-unit      := "program" name { use } [ "implicit none" ] { decl }
                      { statement } [ "contains" { procedure } ]
                      "end" "program" [ name ]
    procedure      := [ type-spec ] ( "subroutine" | "function" ) name
                      "(" params ")" [ "result" "(" name ")" ] ...
    decl           := type-spec { "," attr } "::" name [ "=" expr ] { "," ... }
    type-spec      := "real" [ "(" [ "kind" "=" ] int ")" ]
                    | "double" "precision" | "integer" | "logical"
    v}

    Function calls and array element references share the syntax
    [name(args)]; both parse to {!Ast.Index} and are disambiguated later by
    the symbol table. *)

exception Error of { loc : Loc.t; message : string }

val parse : ?file:string -> string -> Ast.program
(** [parse ~file source] lexes and parses [source]. Raises {!Error} (or
    {!Lexer.Error}) on malformed input. Do-loop and procedure ids are
    assigned densely from 0 in source order. *)
