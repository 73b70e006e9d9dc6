open Fortran

type t = {
  edges : (string option, (string, int) Hashtbl.t) Hashtbl.t;
  redges : (string, (string option, int) Hashtbl.t) Hashtbl.t;
  procs : string list;
}

let build st : t =
  let edges = Hashtbl.create 32 in
  let redges = Hashtbl.create 32 in
  let bump tbl key count =
    let h =
      match Hashtbl.find_opt tbl key with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 8 in
        Hashtbl.add tbl key h;
        h
    in
    Hashtbl.replace h count (1 + Option.value ~default:0 (Hashtbl.find_opt h count))
  in
  Symtab.iter_sites st (fun ~caller ~depth:_ ~loc:_ name _ callee ->
      match callee with
      | Symtab.Procedure _ ->
        bump edges caller name;
        bump redges name caller
      | Symtab.Variable _ | Symtab.Intrinsic | Symtab.Builtin_subroutine | Symtab.Unknown -> ());
  {
    edges;
    redges;
    procs = List.map (fun (p : Ast.proc) -> p.proc_name) (Ast.all_procs (Symtab.program st));
  }

let callees t caller =
  match Hashtbl.find_opt t.edges caller with
  | None -> []
  | Some h -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare

let callers t callee =
  match Hashtbl.find_opt t.redges callee with
  | None -> []
  | Some h -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare

let reachable t ~roots =
  let seen = Hashtbl.create 16 in
  let rec go name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      List.iter (fun (c, _) -> go c) (callees t (Some name))
    end
  in
  List.iter go roots;
  List.filter (Hashtbl.mem seen) t.procs

let is_recursive t name =
  let seen = Hashtbl.create 8 in
  let rec go n =
    List.exists
      (fun (c, _) ->
        c = name
        ||
        if Hashtbl.mem seen c then false
        else begin
          Hashtbl.add seen c ();
          go c
        end)
      (callees t (Some n))
  in
  go name
