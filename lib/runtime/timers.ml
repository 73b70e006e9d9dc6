(* Accumulators are all-float records on purpose: OCaml stores those
   flat (like a float array), so the per-charge field updates allocate
   nothing. With an int [calls] or [active] field the record would be
   mixed, every float store would box, and [charge] — the hottest
   operation in an evaluation — would allocate on each call. Counts are
   exact in a float far beyond any reachable count. *)
type acc = {
  mutable calls : float;
  mutable exclusive : float;
  mutable inclusive : float;
  mutable active : float;  (* activations currently on the stack *)
}

(* The attribution stack is three parallel arrays (grown on demand)
   rather than a list: [enter]/[exit_] run once per modeled procedure
   call, and cons cells plus a boxed mark float per call were a
   measurable share of evaluation allocation. [marks] is a float array,
   so pushing a mark is a flat store. *)
type t = {
  table : (string, acc) Hashtbl.t;
  mutable names : string array;
  mutable marks : float array;
  mutable accs : acc array;
  mutable depth : int;
  mutable top : acc;  (* accumulator of the stack's top frame *)
  sentinel : acc;  (* discards charges when the stack is empty *)
}

type entry = { name : string; calls : int; exclusive : float; inclusive : float }

let create () =
  let sentinel = { calls = 0.0; exclusive = 0.0; inclusive = 0.0; active = 0.0 } in
  {
    table = Hashtbl.create 32;
    names = Array.make 64 "";
    marks = Array.make 64 0.0;
    accs = Array.make 64 sentinel;
    depth = 0;
    top = sentinel;
    sentinel;
  }

let acc_of t name =
  match Hashtbl.find_opt t.table name with
  | Some a -> a
  | None ->
    let a = { calls = 0.0; exclusive = 0.0; inclusive = 0.0; active = 0.0 } in
    Hashtbl.add t.table name a;
    a

let grow t =
  let n = Array.length t.names in
  let names = Array.make (2 * n) "" in
  let marks = Array.make (2 * n) 0.0 in
  let accs = Array.make (2 * n) t.sentinel in
  Array.blit t.names 0 names 0 n;
  Array.blit t.marks 0 marks 0 n;
  Array.blit t.accs 0 accs 0 n;
  t.names <- names;
  t.marks <- marks;
  t.accs <- accs

type clock = { mutable now : float }

(* the push and pop behind both entry points; inlined, so the
   clock-reading ones never box the time (a cross-module call with a
   float argument does, twice per modeled call on the compiled
   evaluator's call path) *)
let[@inline] push t (a : acc) name now =
  a.calls <- a.calls +. 1.0;
  a.active <- a.active +. 1.0;
  let d = t.depth in
  if d = Array.length t.names then grow t;
  t.names.(d) <- name;
  t.marks.(d) <- now;
  t.accs.(d) <- a;
  t.depth <- d + 1;
  t.top <- a

let[@inline] pop t now =
  if t.depth = 0 then invalid_arg "Timers.exit_: empty stack";
  let d = t.depth - 1 in
  let a = t.accs.(d) in
  (* as GPTL does, only the outermost activation of a recursion adds its
     span: the inner spans lie inside it *)
  a.active <- a.active -. 1.0;
  if a.active = 0.0 then a.inclusive <- a.inclusive +. (now -. t.marks.(d));
  t.depth <- d;
  t.top <- (if d = 0 then t.sentinel else t.accs.(d - 1))

let enter t name ~now = push t (acc_of t name) name now
let enter_clock t a name (c : clock) = push t a name c.now
let exit_ t ~now = pop t now
let exit_clock t (c : clock) = pop t c.now

(* [charge] sits on the interpreter's hottest path (once per charged
   operation): one flat float-field update, no lookup, no allocation.
   The sentinel absorbs charges outside any frame, as the empty-stack
   no-op used to. *)
let[@inline] charge t cost = t.top.exclusive <- t.top.exclusive +. cost

let current t = if t.depth = 0 then None else Some t.names.(t.depth - 1)

let snapshot t =
  Hashtbl.fold
    (fun name (a : acc) l ->
      {
        name;
        calls = int_of_float a.calls;
        exclusive = a.exclusive;
        inclusive = a.inclusive;
      }
      :: l)
    t.table []
  |> List.sort (fun a b -> compare b.inclusive a.inclusive)

let find entries name = List.find_opt (fun e -> e.name = name) entries
let inclusive_of entries name = match find entries name with Some e -> e.inclusive | None -> 0.0
let exclusive_of entries name = match find entries name with Some e -> e.exclusive | None -> 0.0
let calls_of entries name = match find entries name with Some e -> e.calls | None -> 0
