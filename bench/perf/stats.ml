(* Order statistics for latency samples and repeated runs. *)

let sorted xs = List.sort compare xs

(* Linear interpolation between closest ranks (numpy's default). *)
let linear_quantile a p =
  let n = Array.length a in
  let pos = p *. float_of_int (n - 1) in
  let lo = truncate pos in
  let hi = min (lo + 1) (n - 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* ln Γ(x) for x >= 0.5 (Lanczos, g = 7). *)
let log_gamma x =
  let c =
    [|
      0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
      -176.61502916214059; 12.507343278686905; -0.13857109526572012; 9.9843695780195716e-6;
      1.5056327351493116e-7;
    |]
  in
  let x = x -. 1.0 in
  let t = x +. 7.5 in
  let s = ref c.(0) in
  for i = 1 to 8 do
    s := !s +. (c.(i) /. (x +. float_of_int i))
  done;
  (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !s

(* Continued fraction of the incomplete beta function (modified Lentz). *)
let beta_cf a b x =
  let tiny = 1e-300 in
  let guard v = if Float.abs v < tiny then tiny else v in
  let c = ref 1.0 and d = ref (1.0 /. guard (1.0 -. ((a +. b) *. x /. (a +. 1.0)))) in
  let h = ref !d in
  let rec go m =
    let fm = float_of_int m in
    let step aa =
      d := 1.0 /. guard (1.0 +. (aa *. !d));
      c := guard (1.0 +. (aa /. !c));
      !d *. !c
    in
    h := !h *. step (fm *. (b -. fm) *. x /. ((a +. (2.0 *. fm) -. 1.0) *. (a +. (2.0 *. fm))));
    let del = step (-.(a +. fm) *. (a +. b +. fm) *. x /. ((a +. (2.0 *. fm)) *. (a +. (2.0 *. fm) +. 1.0))) in
    h := !h *. del;
    if Float.abs (del -. 1.0) > 1e-14 && m < 10_000 then go (m + 1)
  in
  go 1;
  !h

(* The regularized incomplete beta function I_x(a, b). *)
let rec inc_beta a b x =
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else if x > (a +. 1.0) /. (a +. b +. 2.0) then 1.0 -. inc_beta b a (1.0 -. x)
  else
    exp
      (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x) +. (b *. log (1.0 -. x)))
    *. beta_cf a b x /. a

(* The Harrell-Davis estimate of the [p] quantile: a weighted average of
   every order statistic, with Beta((n+1)p, (n+1)(1-p)) weights.  Unlike
   a single order statistic it does not jump when two request kinds of
   close latency swap ranks between runs, which is most of the run-to-run
   change of a plain median over a mix of kinds.  Samples too small for
   the weights fall back to linear interpolation. *)
let quantile xs p =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  let fa = p *. float_of_int (n + 1) and fb = (1.0 -. p) *. float_of_int (n + 1) in
  if n = 0 then nan
  else if fa < 1.0 || fb < 1.0 then linear_quantile a p
  else begin
    let acc = ref 0.0 and prev = ref 0.0 in
    Array.iteri
      (fun i v ->
        let cdf = inc_beta fa fb (float_of_int (i + 1) /. float_of_int n) in
        acc := !acc +. ((cdf -. !prev) *. v);
        prev := cdf)
      a;
    !acc
  end

let median xs = quantile xs 0.5

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] gives
   them (the default "exclusive" method), so a spread printed here is the
   one a reader recomputes from the raw values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let cut i =
      let num = i * (n + 1) in
      let j = max 1 (min (n - 1) (num / 4)) in
      let delta = float_of_int (num - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

let geomean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

(* Peak resident set of this process ([VmHWM]), in MiB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
          | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' s)
    |> Option.value ~default:nan
