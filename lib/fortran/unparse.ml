open Ast

let bprintf = Printf.bprintf

(* Operator precedence levels, used to parenthesize minimally. Higher binds
   tighter. Mirrors the parser's precedence ladder. *)
let prec_of = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div -> 6
  | Pow -> 8

let op_text = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "**"
  | Eq -> "=="
  | Ne -> "/="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> ".and."
  | Or -> ".or."

let rec emit_expr b ~prec e =
  match e with
  | Int_lit i ->
    if i < 0 then bprintf b "(%d)" i else bprintf b "%d" i
  | Real_lit { text; _ } -> Buffer.add_string b text
  | Logical_lit true -> Buffer.add_string b ".true."
  | Logical_lit false -> Buffer.add_string b ".false."
  | Str_lit s -> bprintf b "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Var v -> Buffer.add_string b v
  | Index (v, args) ->
    Buffer.add_string b v;
    Buffer.add_char b '(';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string b ", ";
        emit_expr b ~prec:0 a)
      args;
    Buffer.add_char b ')'
  | Unop (Neg, e1) ->
    (* unary minus binds between additive and multiplicative *)
    if prec > 5 then begin
      Buffer.add_string b "(-";
      emit_expr b ~prec:6 e1;
      Buffer.add_char b ')'
    end
    else begin
      Buffer.add_char b '-';
      emit_expr b ~prec:6 e1
    end
  | Unop (Not, e1) ->
    Buffer.add_string b ".not. ";
    emit_expr b ~prec:3 e1
  | Binop (op, l, r) ->
    let p = prec_of op in
    let needs_parens = p < prec in
    if needs_parens then Buffer.add_char b '(';
    (* relational operators are non-associative in Fortran (a nested
       comparison must be parenthesized on either side), and [**] is
       right-associative (a left-nested power must be parenthesized) *)
    let left_prec =
      match op with
      | Eq | Ne | Lt | Le | Gt | Ge | Pow -> p + 1
      | Add | Sub | Mul | Div | And | Or -> p
    in
    emit_expr b ~prec:left_prec l;
    bprintf b " %s " (op_text op);
    (* right operand of a left-assoc op needs the next level up; [**] is
       right-assoc so its right operand may repeat at the same level *)
    emit_expr b ~prec:(if op = Pow then p else p + 1) r;
    if needs_parens then Buffer.add_char b ')'

let expr e =
  let b = Buffer.create 64 in
  emit_expr b ~prec:0 e;
  Buffer.contents b

let emit_lvalue b = function
  | Lvar v -> Buffer.add_string b v
  | Lindex (v, idx) -> emit_expr b ~prec:0 (Index (v, idx))

let indent b n = Buffer.add_string b (String.make (2 * n) ' ')

let emit_decl b ~level (d : decl) =
  indent b level;
  Buffer.add_string b (string_of_base_type d.base);
  if d.dims <> [] then begin
    Buffer.add_string b ", dimension(";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_string b ", ";
        emit_expr b ~prec:0 e)
      d.dims;
    Buffer.add_char b ')'
  end;
  if d.parameter then Buffer.add_string b ", parameter";
  (match d.intent with
  | Some In -> Buffer.add_string b ", intent(in)"
  | Some Out -> Buffer.add_string b ", intent(out)"
  | Some Inout -> Buffer.add_string b ", intent(inout)"
  | None -> ());
  Buffer.add_string b " :: ";
  List.iteri
    (fun i (n, init) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b n;
      match init with
      | Some e ->
        Buffer.add_string b " = ";
        emit_expr b ~prec:0 e
      | None -> ())
    d.names;
  Buffer.add_char b '\n'

let decl d =
  let b = Buffer.create 64 in
  emit_decl b ~level:0 d;
  Buffer.contents b

let rec emit_stmt b ~level (s : stmt) =
  match s.node with
  | Assign (lhs, rhs) ->
    indent b level;
    emit_lvalue b lhs;
    Buffer.add_string b " = ";
    emit_expr b ~prec:0 rhs;
    Buffer.add_char b '\n'
  | Call (name, args) ->
    indent b level;
    bprintf b "call %s" name;
    if args <> [] then begin
      Buffer.add_char b '(';
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_string b ", ";
          emit_expr b ~prec:0 a)
        args;
      Buffer.add_char b ')'
    end;
    Buffer.add_char b '\n'
  | If (arms, els) ->
    List.iteri
      (fun i (cond, blk) ->
        indent b level;
        Buffer.add_string b (if i = 0 then "if (" else "else if (");
        emit_expr b ~prec:0 cond;
        Buffer.add_string b ") then\n";
        emit_block b ~level:(level + 1) blk)
      arms;
    if els <> [] then begin
      indent b level;
      Buffer.add_string b "else\n";
      emit_block b ~level:(level + 1) els
    end;
    indent b level;
    Buffer.add_string b "end if\n"
  | Do { var; from_; to_; step; body; _ } ->
    indent b level;
    bprintf b "do %s = " var;
    emit_expr b ~prec:0 from_;
    Buffer.add_string b ", ";
    emit_expr b ~prec:0 to_;
    (match step with
    | Some e ->
      Buffer.add_string b ", ";
      emit_expr b ~prec:0 e
    | None -> ());
    Buffer.add_char b '\n';
    emit_block b ~level:(level + 1) body;
    indent b level;
    Buffer.add_string b "end do\n"
  | Do_while { cond; body; _ } ->
    indent b level;
    Buffer.add_string b "do while (";
    emit_expr b ~prec:0 cond;
    Buffer.add_string b ")\n";
    emit_block b ~level:(level + 1) body;
    indent b level;
    Buffer.add_string b "end do\n"
  | Select { selector; arms; default } ->
    indent b level;
    Buffer.add_string b "select case (";
    emit_expr b ~prec:0 selector;
    Buffer.add_string b ")\n";
    List.iter
      (fun (items, blk) ->
        indent b level;
        Buffer.add_string b "case (";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string b ", ";
            match item with
            | Case_value v -> emit_expr b ~prec:0 v
            | Case_range (lo, hi) ->
              Option.iter (emit_expr b ~prec:0) lo;
              Buffer.add_char b ':';
              Option.iter (emit_expr b ~prec:0) hi)
          items;
        Buffer.add_string b ")\n";
        emit_block b ~level:(level + 1) blk)
      arms;
    if default <> [] then begin
      indent b level;
      Buffer.add_string b "case default\n";
      emit_block b ~level:(level + 1) default
    end;
    indent b level;
    Buffer.add_string b "end select\n"
  | Exit_stmt ->
    indent b level;
    Buffer.add_string b "exit\n"
  | Cycle_stmt ->
    indent b level;
    Buffer.add_string b "cycle\n"
  | Return_stmt ->
    indent b level;
    Buffer.add_string b "return\n"
  | Stop_stmt None ->
    indent b level;
    Buffer.add_string b "stop\n"
  | Stop_stmt (Some m) ->
    indent b level;
    bprintf b "stop '%s'\n" m
  | Print_stmt args ->
    indent b level;
    Buffer.add_string b "print *";
    List.iter
      (fun a ->
        Buffer.add_string b ", ";
        emit_expr b ~prec:0 a)
      args;
    Buffer.add_char b '\n'

and emit_block b ~level blk = List.iter (emit_stmt b ~level) blk

let stmt s =
  let b = Buffer.create 128 in
  emit_stmt b ~level:0 s;
  Buffer.contents b

let emit_proc b ~level (p : proc) =
  indent b level;
  (match p.proc_kind with
  | Subroutine ->
    bprintf b "subroutine %s(%s)\n" p.proc_name (String.concat ", " p.params)
  | Function { result } ->
    bprintf b "function %s(%s)" p.proc_name (String.concat ", " p.params);
    if result <> p.proc_name then bprintf b " result(%s)" result;
    Buffer.add_char b '\n');
  List.iter (emit_decl b ~level:(level + 1)) p.proc_decls;
  emit_block b ~level:(level + 1) p.proc_body;
  indent b level;
  (match p.proc_kind with
  | Subroutine -> bprintf b "end subroutine %s\n" p.proc_name
  | Function _ -> bprintf b "end function %s\n" p.proc_name)

let proc p =
  let b = Buffer.create 256 in
  emit_proc b ~level:0 p;
  Buffer.contents b

let emit_unit b = function
  | Module m ->
    bprintf b "module %s\n" m.mod_name;
    List.iter (fun u -> bprintf b "  use %s\n" u) m.mod_uses;
    Buffer.add_string b "  implicit none\n";
    List.iter (emit_decl b ~level:1) m.mod_decls;
    if m.mod_procs <> [] then begin
      Buffer.add_string b "contains\n";
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_char b '\n';
          emit_proc b ~level:1 p)
        m.mod_procs
    end;
    bprintf b "end module %s\n" m.mod_name
  | Main m ->
    bprintf b "program %s\n" m.main_name;
    List.iter (fun u -> bprintf b "  use %s\n" u) m.main_uses;
    Buffer.add_string b "  implicit none\n";
    List.iter (emit_decl b ~level:1) m.main_decls;
    emit_block b ~level:1 m.main_body;
    if m.main_procs <> [] then begin
      Buffer.add_string b "contains\n";
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_char b '\n';
          emit_proc b ~level:1 p)
        m.main_procs
    end;
    bprintf b "end program %s\n" m.main_name

let program_unit u =
  let b = Buffer.create 1024 in
  emit_unit b u;
  Buffer.contents b

let program (p : program) =
  let b = Buffer.create 4096 in
  List.iteri
    (fun i u ->
      if i > 0 then Buffer.add_char b '\n';
      emit_unit b u)
    p;
  Buffer.contents b
