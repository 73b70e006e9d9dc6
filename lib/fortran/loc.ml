type t = { file : string; line : int; col : int }

let make ~file ~line ~col = { file; line; col }
let dummy = { file = "<generated>"; line = 0; col = 0 }
let pp ppf t = Format.fprintf ppf "%s:%d:%d" t.file t.line t.col
let to_string t = Format.asprintf "%a" pp t
