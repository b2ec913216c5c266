(* Percentiles that refuse to speak beyond their data: a percentile is
   reported only when at least [min_beyond] samples lie above it, so a
   p99 needs 1000 samples and a p50 needs 20. *)

let min_beyond = 10

(* Nearest rank: the [ceil (p * n)]-th smallest sample (1-based). *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let percentile p samples =
  let n = Array.length samples in
  if p <= 0. || p >= 1. then invalid_arg "Stats.percentile: p outside (0, 1)";
  let r = rank ~n p in
  if n - r < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it, have %d of %d"
         (100. *. p) min_beyond (max 0 (n - r)) n)
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Ok sorted.(r - 1)
  end

let percentile_exn p samples =
  match percentile p samples with Ok v -> v | Error m -> failwith m


(* The plain median, for per-layer figures with few samples. *)
let median samples =
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    if n mod 2 = 1 then sorted.(n / 2)
    else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.
  end
