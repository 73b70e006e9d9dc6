(* call-volume proxy: assumed iterations per loop nesting level *)
let loop_weight = 100.0

(* assumed elements of an array of unknown static size *)
let unknown_elements = 1000

(* the vector-loop rule: a loop counts when at most this share of its FP
   operations are conversions. Stricter than the cost model's
   [Machine.conv_ratio_threshold] (0.8 by default), above which the
   evaluator runs a vectorizable loop scalar. *)
let conv_ratio_threshold = 0.34

type verdict = {
  penalty : float;
  vector_loops : int;
  mismatched_edges : int;
}

let evaluate st =
  let graph = Flowgraph.build st in
  let bad = Flowgraph.violations graph in
  let penalty =
    List.fold_left
      (fun acc (e : Flowgraph.edge) ->
        let calls = loop_weight ** float_of_int e.Flowgraph.e_loop_depth in
        let size =
          match e.Flowgraph.e_dummy.Flowgraph.n_elements with
          | Some n when e.Flowgraph.e_dummy.Flowgraph.n_is_array -> float_of_int n
          | None when e.Flowgraph.e_dummy.Flowgraph.n_is_array -> float_of_int unknown_elements
          | Some _ | None -> 0.0
        in
        (* one scalar cast, plus one per element *)
        acc +. (calls *. (1.0 +. size)))
      0.0 bad
  in
  let reports = Vectorize.analyze st in
  let vector_loops =
    List.length
      (List.filter
         (fun (r : Vectorize.report) ->
           Vectorize.vectorizable r
           &&
           let ratio =
             if r.Vectorize.fp_ops = 0 then 0.0
             else float_of_int r.Vectorize.conv_sites /. float_of_int r.Vectorize.fp_ops
           in
           ratio <= conv_ratio_threshold)
         reports)
  in
  { penalty; vector_loops; mismatched_edges = List.length bad }

let predicts_worse ~baseline ~candidate ~penalty_budget =
  candidate.vector_loops < baseline.vector_loops || candidate.penalty > penalty_budget

(* ------------------------------------------------------------------ *)
(* Static trip counts: constant folding over loop bounds, so the
   sensitivity pass can weight loop-carried accumulation by the real
   iteration count instead of the loop_weight^depth proxy whenever the
   bounds are compile-time constants (the common case in the model
   proxies, where extents come from named integer parameters).          *)

let rec const_int ?(env = fun _ -> None) (e : Fortran.Ast.expr) =
  match e with
  | Fortran.Ast.Int_lit n -> Some n
  | Fortran.Ast.Var v -> env v
  | Fortran.Ast.Unop (Fortran.Ast.Neg, e) -> Option.map (fun n -> -n) (const_int ~env e)
  | Fortran.Ast.Binop (op, a, b) -> (
    match (const_int ~env a, const_int ~env b) with
    | Some x, Some y -> (
      match op with
      | Fortran.Ast.Add -> Some (x + y)
      | Fortran.Ast.Sub -> Some (x - y)
      | Fortran.Ast.Mul -> Some (x * y)
      | Fortran.Ast.Div -> if y = 0 then None else Some (x / y)
      | Fortran.Ast.Pow ->
        (* mirror the interpreter: negative integer exponents trap, and
           anything large enough to overflow 63 bits is not worth folding *)
        if y < 0 || y > 62 then None
        else begin
          let r = ref 1 in
          for _ = 1 to y do
            r := !r * x
          done;
          Some !r
        end
      | _ -> None)
    | _ -> None)
  | _ -> None

let trip_count ?env (s : Fortran.Ast.stmt_node) =
  match s with
  | Fortran.Ast.Do { from_; to_; step; _ } -> (
    let step_v =
      match step with None -> Some 1 | Some e -> const_int ?env e
    in
    match (const_int ?env from_, const_int ?env to_, step_v) with
    | Some lo, Some hi, Some st when st <> 0 ->
      (* Fortran semantics: max(0, (hi - lo + st) / st) with flooring —
         spelled out sign-by-sign because OCaml division truncates
         toward zero and a naive (hi-lo)/st+1 over-counts empty loops *)
      let n =
        if st > 0 then if hi < lo then 0 else ((hi - lo) / st) + 1
        else if hi > lo then 0
        else ((lo - hi) / -st) + 1
      in
      Some n
    | _ -> None)
  | _ -> None
