(* splitmix64, truncated to OCaml's 63-bit native ints. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let next_u64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits t = Int64.to_int (Int64.shift_right_logical (next_u64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  bits t mod bound

let float t = Int64.to_float (Int64.shift_right_logical (next_u64 t) 11) /. 9007199254740992.0
let bool t = Int64.logand (next_u64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* --- Zipf sampling ---------------------------------------------------- *)

(* Inverse-CDF table: weight of rank i (0-based) is 1/(i+1)^s, normalized.
   Drawing is a binary search of a uniform float over the cumulative
   table, so a sampler is a pure function of (seed, s, n) — the skewed
   workload generators replay exactly. *)

type zipf = { z_n : int; z_cdf : float array }

let zipf ~s ~n =
  if n <= 0 then invalid_arg "Rng.zipf: n <= 0";
  if s < 0.0 then invalid_arg "Rng.zipf: negative exponent";
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !total
  done;
  let norm = !total in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. norm
  done;
  cdf.(n - 1) <- 1.0;
  { z_n = n; z_cdf = cdf }

(* Probability mass of rank [i] (from the table, so it reflects exactly
   what [zipf_draw] samples). *)
let zipf_pmf z i =
  if i < 0 || i >= z.z_n then invalid_arg "Rng.zipf_pmf: rank out of range";
  if i = 0 then z.z_cdf.(0) else z.z_cdf.(i) -. z.z_cdf.(i - 1)

let zipf_draw t z =
  let u = float t in
  (* Smallest rank whose cumulative mass exceeds u. *)
  let lo = ref 0 and hi = ref (z.z_n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.z_cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
