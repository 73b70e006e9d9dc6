let partition n xs =
  let len = List.length xs in
  let n = max 1 (min n len) in
  let base = len / n and extra = len mod n in
  let rec take k xs acc =
    if k = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) rest (x :: acc)
  in
  let rec go i xs acc =
    if i = n then List.rev acc
    else begin
      let size = base + if i < extra then 1 else 0 in
      let chunk, rest = take size xs [] in
      go (i + 1) rest (chunk :: acc)
    end
  in
  List.filter (fun c -> c <> []) (go 0 xs [])

type 'a candidate = Chunk of 'a list | Complement of 'a list

let subset = function Chunk s | Complement s -> s

let minimize ?(order = fun (candidates : 'a candidate list) -> candidates)
    ?(prefetch = fun _ -> ()) ~test xs =
  if test [] then []
  else begin
    let diff big small = List.filter (fun x -> not (List.memq x small)) big in
    let rec ddmin cur n =
      let chunks = partition n cur in
      let complements =
        List.filter (fun comp -> comp <> [] && comp <> cur)
          (List.map (fun c -> diff cur c) chunks)
      in
      (* merged round: chunks then complements in ONE candidate list, so a
         reordering [order] can demote a predicted-fail chunk behind the
         complements; the canonical order below replays the classic
         chunks-first sequence exactly *)
      let candidates =
        order
          (List.map (fun c -> Chunk c) chunks
          @ List.map (fun c -> Complement c) complements)
      in
      (* speculative batching: announce the whole round's candidates in
         the exact order the sequential algorithm would test them, before
         the first [test] call — results are then consumed sequentially,
         so the trajectory is independent of how and when the caller
         evaluates them *)
      prefetch (List.map subset candidates);
      match List.find_opt (fun c -> test (subset c)) candidates with
      | Some (Chunk chunk) -> if List.length chunk = 1 then chunk else ddmin chunk 2
      | Some (Complement comp) -> ddmin comp (max (n - 1) 2)
      | None ->
        if n < List.length cur then ddmin cur (min (List.length cur) (2 * n))
        else cur (* singleton granularity exhausted: 1-minimal *)
    in
    ddmin xs 2
  end
