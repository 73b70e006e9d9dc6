let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) xs))

let rel_stddev xs =
  let m = mean xs in
  if m = 0.0 then 0.0 else stddev xs /. Float.abs m

let minimum = function [] -> 0.0 | x :: xs -> List.fold_left Float.min x xs
let maximum = function [] -> 0.0 | x :: xs -> List.fold_left Float.max x xs

let percentile p = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n = 1 then a.(0)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = min (n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end
