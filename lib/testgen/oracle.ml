open Fortran

type id = Roundtrip | Typecheck | Rewrite | Equiv | Compiled | Sensitivity

type violation = {
  oracle : id;
  detail : string;
}

let all = [ Roundtrip; Typecheck; Rewrite; Equiv; Compiled; Sensitivity ]

let name = function
  | Roundtrip -> "roundtrip"
  | Typecheck -> "typecheck"
  | Rewrite -> "rewrite"
  | Equiv -> "equiv"
  | Compiled -> "compiled"
  | Sensitivity -> "sensitivity"

let of_name s =
  match String.lowercase_ascii s with
  | "roundtrip" -> Some Roundtrip
  | "typecheck" -> Some Typecheck
  | "rewrite" -> Some Rewrite
  | "equiv" -> Some Equiv
  | "compiled" -> Some Compiled
  | "sensitivity" -> Some Sensitivity
  | _ -> None

let budget = 1e6

let machine = Runtime.Machine.default

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<missing>")
    | [], y :: _ -> Some (i, "<missing>", y)
    | [], [] -> None
  in
  go 1 (la, lb)

(* The wrapped variant shared by the rewrite and equiv oracles. *)
let transform (c : Gen.case) =
  let st = Symtab.build (Parser.parse ~file:"fuzz.f90" c.Gen.source) in
  let asg = Gen.assignment_of st c.Gen.lowered in
  let rewritten = Transform.Rewrite.apply st asg in
  let w = Transform.Wrappers.insert rewritten in
  (st, asg, rewritten, w)

let check_roundtrip (c : Gen.case) =
  let prog = Parser.parse ~file:"fuzz.f90" c.Gen.source in
  let text = Unparse.program prog in
  if String.equal text c.Gen.source then []
  else
    let detail =
      match first_diff c.Gen.source text with
      | Some (i, a, b) ->
        Printf.sprintf "unparse(parse(src)) <> src at line %d: %S vs %S" i a b
      | None -> "texts differ only in length"
    in
    [ { oracle = Roundtrip; detail } ]

let check_typecheck (c : Gen.case) =
  let st = Symtab.build (Parser.parse ~file:"fuzz.f90" c.Gen.source) in
  match Typecheck.check_program st with
  | exception Typecheck.Error { message; _ } ->
    [
      {
        oracle = Typecheck;
        detail = Printf.sprintf "generated program rejected: %s" message;
      };
    ]
  | () -> (
    let text = Unparse.program (Symtab.program st) in
    let st2 = Symtab.build (Parser.parse ~file:"fuzz_rt.f90" text) in
    match Typecheck.check_program st2 with
    | exception Typecheck.Error { message; _ } ->
      [
        {
          oracle = Typecheck;
          detail = Printf.sprintf "accepted before round trip, rejected after: %s" message;
        };
      ]
    | () -> [])

let check_rewrite (c : Gen.case) =
  let st, asg, _, w = transform c in
  let atoms = Transform.Assignment.atoms_of_module st Gen.module_name in
  let st_rw = Symtab.build w.Transform.Wrappers.program in
  let decl_violations =
    List.filter_map
      (fun (a : Transform.Assignment.atom) ->
        let want = Transform.Assignment.kind_of asg a in
        let got =
          List.find_opt
            (fun (v : Symtab.var_info) -> String.equal v.Symtab.v_name a.Transform.Assignment.a_name)
            (Symtab.vars_of_scope st_rw a.Transform.Assignment.a_scope)
        in
        match got with
        | None ->
          Some
            {
              oracle = Rewrite;
              detail =
                Printf.sprintf "atom %s lost its declaration after rewrite"
                  (Transform.Assignment.atom_id a);
            }
        | Some v when v.Symtab.v_base <> Ast.Treal want ->
          Some
            {
              oracle = Rewrite;
              detail =
                Printf.sprintf "atom %s assigned real(%d) but declared %s after rewrite"
                  (Transform.Assignment.atom_id a)
                  (match want with Ast.K4 -> 4 | Ast.K8 -> 8)
                  (Ast.string_of_base_type v.Symtab.v_base);
            }
        | Some _ -> None)
      atoms
  in
  let site_violations =
    match Typecheck.mismatches st_rw with
    | [] -> (
      match Typecheck.check_program st_rw with
      | exception Typecheck.Error { message; _ } ->
        [
          {
            oracle = Rewrite;
            detail = Printf.sprintf "wrapped variant fails typecheck: %s" message;
          };
        ]
      | () -> [])
    | ms ->
      [
        {
          oracle = Rewrite;
          detail =
            Printf.sprintf "%d kind mismatch(es) survive wrapper insertion; first: %s arg %d"
              (List.length ms)
              (List.hd ms).Typecheck.mm_callee
              (List.hd ms).Typecheck.mm_arg_index;
        };
      ]
  in
  decl_violations @ site_violations

let pp_outcome (o : Runtime.Interp.outcome) =
  Format.asprintf "%a cost=%.17g records=%d printed=%d timers=%d"
    Runtime.Interp.pp_status o.Runtime.Interp.status o.Runtime.Interp.cost
    (List.length o.Runtime.Interp.records)
    (List.length o.Runtime.Interp.printed)
    (List.length o.Runtime.Interp.timers)

let check_equiv (c : Gen.case) =
  let _, _, _, w = transform c in
  let owner = Transform.Wrappers.owner_fn w in
  (* reference: the historical unparse→reparse round trip, tree-walked *)
  let text = Unparse.program w.Transform.Wrappers.program in
  let st_rt = Symtab.build (Parser.parse ~file:"fuzz_variant.f90" text) in
  let ref_out = Runtime.Interp.run ~machine ~budget ~wrapper_owner:owner st_rt in
  (* fast path: lowered directly from the transformed AST *)
  let st_d = Symtab.build w.Transform.Wrappers.program in
  let fast_out =
    Runtime.Lower.run ~budget (Runtime.Lower.lower ~wrapper_owner:owner ~machine st_d)
  in
  if compare ref_out fast_out = 0 then []
  else
    [
      {
        oracle = Equiv;
        detail =
          Printf.sprintf "interp: %s / lower: %s" (pp_outcome ref_out) (pp_outcome fast_out);
      };
    ]

(* Two-way bit-identity: the tree-walker on the unparse→reparse round
   trip (the reference) and the compiled evaluator on the direct
   lowering of the same wrapped variant. *)
let check_compiled (c : Gen.case) =
  let _, _, _, w = transform c in
  let owner = Transform.Wrappers.owner_fn w in
  let text = Unparse.program w.Transform.Wrappers.program in
  let st_rt = Symtab.build (Parser.parse ~file:"fuzz_variant.f90" text) in
  let ref_out = Runtime.Interp.run ~machine ~budget ~wrapper_owner:owner st_rt in
  let st_d = Symtab.build w.Transform.Wrappers.program in
  let lowered = Runtime.Lower.lower ~wrapper_owner:owner ~machine st_d in
  let compiled_out = Runtime.Compile.run ~budget (Runtime.Compile.compile lowered) in
  if compare ref_out compiled_out = 0 then []
  else
    [
      {
        oracle = Compiled;
        detail =
          Printf.sprintf "interp: %s / compiled: %s" (pp_outcome ref_out)
            (pp_outcome compiled_out);
      };
    ]

(* Soundness of the error-amplification analysis: for every demotable
   atom the mirror did NOT poison, the static per-atom bound must cover
   the observed deviation of that atom's singleton-demotion variant —
   sample by sample, against the actual rewrite→wrapper→run pipeline the
   tuner uses. A poisoned atom makes no claim (its sound bound is
   infinite); a timed-out variant makes no claim (the mirror does not
   model cost). The mirror must also finish whenever the interpreter
   does, with a bit-identical output series. *)
let check_sensitivity (c : Gen.case) =
  let st = Symtab.build (Parser.parse ~file:"fuzz.f90" c.Gen.source) in
  let atoms = Transform.Assignment.atoms_of_module st Gen.module_name in
  let base_out = Runtime.Lower.run ~budget (Runtime.Lower.lower ~machine st) in
  if base_out.Runtime.Interp.status <> Runtime.Interp.Finished then []
  else
    let r = Sensitivity.Absint.analyze ~atoms st in
    match r.Sensitivity.Absint.r_status with
    | Sensitivity.Absint.Runtime_error m ->
      [
        {
          oracle = Sensitivity;
          detail = "mirror failed on a program the interpreter finishes: " ^ m;
        };
      ]
    | Sensitivity.Absint.Stopped m ->
      [
        {
          oracle = Sensitivity;
          detail = Printf.sprintf "mirror stopped (%S) on a program the interpreter finishes" m;
        };
      ]
    | Sensitivity.Absint.Finished ->
      let base_records = base_out.Runtime.Interp.records in
      let samples = r.Sensitivity.Absint.r_samples in
      if
        List.length samples <> List.length base_records
        || not
             (List.for_all2
                (fun (s : Sensitivity.Absint.sample) (k, v) ->
                  String.equal s.Sensitivity.Absint.s_key k
                  && Int64.bits_of_float s.Sensitivity.Absint.s_value = Int64.bits_of_float v)
                samples base_records)
      then
        [
          {
            oracle = Sensitivity;
            detail = "mirror output series is not bit-identical to the interpreter's";
          };
        ]
      else begin
        let index_of = Sensitivity.Absint.atom_indices atoms in
        List.concat_map
          (fun (a : Transform.Assignment.atom) ->
            match
              Hashtbl.find_opt index_of (a.Transform.Assignment.a_scope, a.Transform.Assignment.a_name)
            with
            | None -> []  (* declared 32-bit: demotion is the identity *)
            | Some i when r.Sensitivity.Absint.r_poisoned.(i) -> []
            | Some i -> (
              let asg = Transform.Assignment.of_lowered atoms ~lowered:[ a ] in
              let rewritten = Transform.Rewrite.apply st asg in
              let w = Transform.Wrappers.insert rewritten in
              let owner = Transform.Wrappers.owner_fn w in
              let st_v = Symtab.build w.Transform.Wrappers.program in
              let out =
                Runtime.Lower.run ~budget:(budget *. 10.0)
                  (Runtime.Lower.lower ~wrapper_owner:owner ~machine st_v)
              in
              match out.Runtime.Interp.status with
              | Runtime.Interp.Timed_out -> []  (* cost is not modeled; no claim *)
              | Runtime.Interp.Finished ->
                let vrecords = out.Runtime.Interp.records in
                if List.length vrecords <> List.length base_records then
                  [
                    {
                      oracle = Sensitivity;
                      detail =
                        Printf.sprintf
                          "unpoisoned atom %s: singleton demotion changed the record count \
                           (%d vs %d)"
                          (Transform.Assignment.atom_id a)
                          (List.length vrecords) (List.length base_records);
                    };
                  ]
                else
                  List.concat
                    (List.map2
                       (fun (s : Sensitivity.Absint.sample) (k, v') ->
                         let bound = Sensitivity.Errvec.get i s.Sensitivity.Absint.s_err in
                         let dev = Float.abs (v' -. s.Sensitivity.Absint.s_value) in
                         if
                           String.equal s.Sensitivity.Absint.s_key k
                           && dev <= (bound *. (1.0 +. 1e-12)) +. 1e-300
                         then []
                         else
                           [
                             {
                               oracle = Sensitivity;
                               detail =
                                 Printf.sprintf
                                   "atom %s: observed deviation %.17g exceeds static bound \
                                    %.17g on sample '%s' (base %.17g, variant %.17g)"
                                   (Transform.Assignment.atom_id a)
                                   dev bound k s.Sensitivity.Absint.s_value v';
                             };
                           ])
                       samples vrecords)
              | _ ->
                [
                  {
                    oracle = Sensitivity;
                    detail =
                      Printf.sprintf
                        "unpoisoned atom %s: singleton demotion did not finish (%s)"
                        (Transform.Assignment.atom_id a)
                        (Format.asprintf "%a" Runtime.Interp.pp_status
                           out.Runtime.Interp.status);
                  };
                ]))
          atoms
      end

let guarded oracle f c =
  try f c
  with e ->
    [
      {
        oracle;
        detail = Printf.sprintf "unexpected exception: %s" (Printexc.to_string e);
      };
    ]

let check ~ids c =
  List.concat_map
    (fun oracle ->
      if not (List.mem oracle ids) then []
      else
        match oracle with
        | Roundtrip -> guarded Roundtrip check_roundtrip c
        | Typecheck -> guarded Typecheck check_typecheck c
        | Rewrite -> guarded Rewrite check_rewrite c
        | Equiv -> guarded Equiv check_equiv c
        | Compiled -> guarded Compiled check_compiled c
        | Sensitivity -> guarded Sensitivity check_sensitivity c)
    all
