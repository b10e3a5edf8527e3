(* Order statistics behind every number the benchmark reports. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile by the rule of Python's
   statistics.quantiles(values, n=4) (its default "exclusive" method), so
   a spread computed here matches one computed from the same values in
   Python.  A single sample is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 3)

let summarize xs =
  let q1, q3 = quartiles xs in
  { median = median xs; q1; q3; n = List.length xs }

(* Interquartile range as a share of the median. *)
let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

(* The tail: the highest percentile with at least ten samples beyond it,
   i.e. the (n-10)-th smallest of n samples, at percentile 100(n-10)/n.
   Below 11 samples no percentile has ten beyond it and the maximum is
   reported.  Returns (percentile, value). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  if n < 11 then (100.0, a.(n - 1))
  else (100.0 *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
