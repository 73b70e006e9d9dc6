type line =
  | Keep of string
  | Remove of string
  | Add of string

let split_lines s = Array.of_list (String.split_on_char '\n' s)

(* classic O(n*m) LCS table; fine at model-source scale *)
let lines a_text b_text : line list =
  let a = split_lines a_text in
  let b = split_lines b_text in
  let n = Array.length a and m = Array.length b in
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if a.(i) = b.(j) then 1 + lcs.(i + 1).(j + 1) else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let rec walk i j acc =
    if i < n && j < m && a.(i) = b.(j) then walk (i + 1) (j + 1) (Keep a.(i) :: acc)
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then
      walk i (j + 1) (Add b.(j) :: acc)
    else if i < n then walk (i + 1) j (Remove a.(i) :: acc)
    else List.rev acc
  in
  walk 0 0 []

let hunks a_text b_text =
  let d = Array.of_list (lines a_text b_text) in
  let n = Array.length d in
  let changed i = match d.(i) with Keep _ -> false | Remove _ | Add _ -> true in
  let near i =
    let lo = max 0 (i - 1) and hi = min (n - 1) (i + 1) in
    let rec any j = j <= hi && (changed j || any (j + 1)) in
    any lo
  in
  let buf = Buffer.create 256 in
  let in_hunk = ref false in
  Array.iteri
    (fun i l ->
      if near i then begin
        if not !in_hunk then begin
          if Buffer.length buf > 0 then Buffer.add_string buf "...\n";
          in_hunk := true
        end;
        (match l with
        | Keep s -> Buffer.add_string buf ("  " ^ s)
        | Remove s -> Buffer.add_string buf ("- " ^ s)
        | Add s -> Buffer.add_string buf ("+ " ^ s));
        Buffer.add_char buf '\n'
      end
      else in_hunk := false)
    d;
  Buffer.contents buf

let declarations st asg =
  let open Fortran in
  let buf = Buffer.create 256 in
  let scope_header = function
    | Symtab.Proc_scope p -> "procedure " ^ p
    | Symtab.Unit_scope u -> "module " ^ u
  in
  let by_scope = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let k = Assignment.kind_of asg a in
      if k <> a.Assignment.a_declared then
        Hashtbl.replace by_scope a.Assignment.a_scope
          (a :: Option.value ~default:[] (Hashtbl.find_opt by_scope a.Assignment.a_scope)))
    (Assignment.atoms asg);
  let scopes = Hashtbl.fold (fun s _ acc -> s :: acc) by_scope [] |> List.sort compare in
  List.iter
    (fun scope ->
      let atoms = List.rev (Hashtbl.find by_scope scope) in
      Buffer.add_string buf (scope_header scope ^ "\n");
      List.iter
        (fun a ->
          let from_k = Token.int_of_kind a.Assignment.a_declared in
          let to_k = Token.int_of_kind (Assignment.kind_of asg a) in
          Buffer.add_string buf
            (Printf.sprintf "- real(kind=%d) :: %s\n+ real(kind=%d) :: %s\n" from_k
               a.Assignment.a_name to_k a.Assignment.a_name))
        atoms)
    scopes;
  ignore st;
  Buffer.contents buf
