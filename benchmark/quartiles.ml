(* Order statistics over host-time samples.  [quartiles] follows Python's
   statistics.quantiles(xs, n=4) (the default "exclusive" method,
   including its clamping and extrapolation at the ends), so the spreads
   printed here match the ones an outside script computes from the same
   samples. *)

let quartiles xs =
  let a = List.sort Float.compare xs |> Array.of_list in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quartiles.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
