(* Tests for the vbase substrate: bignums and rationals against native-int
   reference semantics, plus CRC-32 known-answer vectors. *)

module B = Vbase.Bigint
module R = Vbase.Rat

let bi = B.of_int

let check_b msg expected actual =
  Alcotest.(check string) msg (B.to_string expected) (B.to_string actual)

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_bigint_basics () =
  check_b "add" (bi 7) (B.add (bi 3) (bi 4));
  check_b "add neg" (bi (-1)) (B.add (bi 3) (bi (-4)));
  check_b "sub" (bi (-5)) (B.sub (bi 2) (bi 7));
  check_b "mul" (bi (-12)) (B.mul (bi 3) (bi (-4)));
  check_b "mul zero" B.zero (B.mul (bi 0) (bi 12345));
  Alcotest.(check int) "compare" (-1) (B.compare (bi (-2)) (bi 3));
  Alcotest.(check int) "sign" (-1) (B.sign (bi (-9)));
  Alcotest.(check bool) "is_zero" true (B.is_zero (B.sub (bi 5) (bi 5)))

let test_bigint_large () =
  (* (2^100 + 1) * (2^100 - 1) = 2^200 - 1 *)
  let p100 = B.pow B.two 100 in
  let lhs = B.mul (B.add p100 B.one) (B.sub p100 B.one) in
  let rhs = B.sub (B.pow B.two 200) B.one in
  check_b "2^200-1" rhs lhs;
  (* String roundtrip on a big decimal literal. *)
  let s = "123456789012345678901234567890123456789" in
  Alcotest.(check string) "roundtrip" s (B.to_string (B.of_string s));
  Alcotest.(check string) "neg roundtrip" ("-" ^ s) (B.to_string (B.of_string ("-" ^ s)))

let test_bigint_divrem () =
  let cases = [ (17, 5); (-17, 5); (17, -5); (-17, -5); (0, 3); (100, 10) ] in
  let f (a, b) =
    let q, r = B.div_rem (bi a) (bi b) in
    Alcotest.(check int) (Printf.sprintf "q %d/%d" a b) (a / b) (B.to_int_exn q);
    Alcotest.(check int) (Printf.sprintf "r %d/%d" a b) (a mod b) (B.to_int_exn r)
  in
  List.iter f cases;
  (* Large division: ((2^200-1) / (2^100+1)) reconstructs. *)
  let n = B.sub (B.pow B.two 200) B.one in
  let d = B.add (B.pow B.two 100) B.one in
  let q, r = B.div_rem n d in
  check_b "reconstruct" n (B.add (B.mul q d) r);
  Alcotest.(check bool) "rem small" true (B.compare (B.abs r) (B.abs d) < 0)

let test_bigint_fdiv_fmod () =
  let f (a, b) =
    let q = B.fdiv (bi a) (bi b) and r = B.fmod (bi a) (bi b) in
    let fq = int_of_float (Float.floor (float_of_int a /. float_of_int b)) in
    Alcotest.(check int) (Printf.sprintf "fdiv %d %d" a b) fq (B.to_int_exn q);
    Alcotest.(check int) (Printf.sprintf "fmod %d %d" a b) (a - (fq * b)) (B.to_int_exn r)
  in
  List.iter f [ (17, 5); (-17, 5); (17, -5); (-17, -5); (12, 4); (-12, 4) ]

let test_bigint_gcd_pow () =
  Alcotest.(check int) "gcd" 6 (B.to_int_exn (B.gcd (bi 54) (bi (-24))));
  Alcotest.(check int) "gcd zero" 7 (B.to_int_exn (B.gcd (bi 0) (bi 7)));
  Alcotest.(check int) "pow" 1024 (B.to_int_exn (B.pow B.two 10));
  Alcotest.(check int) "pow0" 1 (B.to_int_exn (B.pow (bi 99) 0))

let test_bigint_bits () =
  Alcotest.(check int) "shift_left" 40 (B.to_int_exn (B.shift_left (bi 5) 3));
  Alcotest.(check int) "logand2p" 5 (B.to_int_exn (B.logand2p (bi 0b110101) 4));
  Alcotest.(check bool) "testbit" true (B.testbit (bi 0b100) 2);
  Alcotest.(check bool) "testbit0" false (B.testbit (bi 0b100) 1);
  (* Bits of a large number. *)
  let n = B.pow B.two 90 in
  Alcotest.(check bool) "testbit 90" true (B.testbit n 90);
  Alcotest.(check bool) "testbit 89" false (B.testbit n 89)

module L = B.Limbs

let test_bigint_to_int () =
  Alcotest.(check (option int)) "small" (Some 42) (B.to_int_opt (bi 42));
  Alcotest.(check (option int)) "neg" (Some (-42)) (B.to_int_opt (bi (-42)));
  Alcotest.(check (option int)) "max_int" (Some max_int) (B.to_int_opt (bi max_int));
  Alcotest.(check (option int)) "too big" None (B.to_int_opt (B.pow B.two 80));
  (* The low edge, on both paths: the limb form of min_int has magnitude
     2^62, one past max_int. *)
  List.iter
    (fun (name, i) ->
      Alcotest.(check (option int)) name (Some i) (B.to_int_opt (bi i));
      Alcotest.(check int) (name ^ " exn") i (B.to_int_exn (bi i));
      Alcotest.(check (option int)) (name ^ " limbs") (Some i) (L.to_int_opt (L.of_int i));
      Alcotest.(check int) (name ^ " limbs exn") i (L.to_int_exn (L.of_int i)))
    [ ("min_int", min_int); ("min_int + 1", min_int + 1); ("-(2^61)", -(1 lsl 61)) ];
  Alcotest.(check (option int)) "-(2^62) from limbs" (Some min_int)
    (B.to_int_opt (B.neg (B.pow B.two 62)));
  Alcotest.(check (option int)) "min_int - 1" None (B.to_int_opt (B.sub (bi min_int) B.one));
  Alcotest.(check (option int)) "limbs min_int - 1" None
    (L.to_int_opt (L.sub (L.of_int min_int) L.one))

(* ------------------------------------------------------------------ *)
(* Bigint property tests (reference: native int on small operands)     *)
(* ------------------------------------------------------------------ *)

let small_int = QCheck.int_range (-1_000_000) 1_000_000

let prop_ring_ops =
  QCheck.Test.make ~name:"bigint matches int on +,-,*" ~count:150
    (QCheck.pair small_int small_int) (fun (a, b) ->
      B.to_int_exn (B.add (bi a) (bi b)) = a + b
      && B.to_int_exn (B.sub (bi a) (bi b)) = a - b
      && B.to_int_exn (B.mul (bi a) (bi b)) = a * b)

let prop_divrem =
  QCheck.Test.make ~name:"bigint div_rem matches int" ~count:150
    (QCheck.pair small_int small_int) (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q, r = B.div_rem (bi a) (bi b) in
      B.to_int_exn q = a / b && B.to_int_exn r = a mod b)

(* At most 300 decimal chunks (up to 2,700 digits, about 9,000 bits):
   [to_string] and [of_string] are quadratic in the number of limbs, and
   [QCheck.list]'s draws of up to 10,000 chunks made this one property
   most of the suite's time while adding no new kind of case. *)
let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint string roundtrip" ~count:80
    (QCheck.list_of_size QCheck.Gen.(0 -- 300) (QCheck.int_range 0 999999999)) (fun limbs ->
      (* Build a big number from decimal chunks and round-trip it. *)
      let n =
        List.fold_left
          (fun acc c -> B.add (B.mul acc (bi 1_000_000_000)) (bi c))
          B.zero limbs
      in
      B.equal n (B.of_string (B.to_string n)))

let prop_mul_div_big =
  QCheck.Test.make ~name:"bigint (a*b)/b = a on big operands" ~count:80
    (QCheck.pair (QCheck.pair small_int small_int) (QCheck.pair small_int small_int))
    (fun ((a1, a2), (b1, b2)) ->
      (* Compose ~40-bit operands from two small ints each. *)
      let mk h l = B.add (B.mul (bi h) (bi 1_000_000)) (bi (abs l)) in
      let a = mk a1 a2 and b = mk b1 b2 in
      QCheck.assume (not (B.is_zero b));
      let q, r = B.div_rem (B.mul a b) b in
      B.equal q a && B.is_zero r)

(* ------------------------------------------------------------------ *)
(* The native path against the limb reference                          *)
(* ------------------------------------------------------------------ *)

(* Values on both sides of every edge a result can cross: 0, 1, the limb
   edges 2^30 - 1 and 2^30, 2^31 (past it a native product needs the
   division check), 2^61, max_int = 2^62 - 1 and 2^62 = -min_int, and
   values beyond, each with its negation. *)
let edges =
  let p k = L.pow L.two k in
  let l = [ L.zero; L.one; L.sub (p 30) L.one; p 30; p 31; p 61; L.of_int max_int; p 62; p 63; p 90; p 124 ] in
  l @ List.map L.neg l

(* An operand in decimal: an edge give or take 3, computed by the
   reference, or any native int. *)
let operand =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun e d -> L.to_string (L.add e (L.of_int d))) (oneofl edges) (int_range (-3) 3));
        (1, map string_of_int int);
      ])

let fail fmt = QCheck.Test.fail_reportf fmt

(* [b] and the reference [l] hold the same value, with the same hash and
   the same [to_int_opt], and [b] is canonical: parsing its digits back
   gives a structurally equal value. *)
let agree what b l =
  let sb = B.to_string b and sl = L.to_string l in
  if sb <> sl then fail "%s: %s, reference %s" what sb sl;
  if b <> B.of_string sb then fail "%s: %s is not in canonical form" what sb;
  if B.hash b <> L.hash l then fail "%s: hash of %s differs from the reference" what sb;
  if B.to_int_opt b <> L.to_int_opt l then fail "%s: to_int_opt of %s differs" what sb

let agree2 what (q, r) (lq, lr) =
  agree (what ^ " quotient") q lq;
  agree (what ^ " remainder") r lr

(* Both sides return agreeing results, or raise the same exception. *)
let agree_or_raise what same f lf =
  let run f = match f () with v -> Ok v | exception (Division_by_zero | Invalid_argument _ as e) -> Error e in
  match (run f, run lf) with
  | Ok v, Ok lv -> same what v lv
  | Error e, Error le when e = le -> ()
  | _ -> fail "%s: one side raised, the other did not (or raised another exception)" what

let prop_native_vs_limbs =
  QCheck.Test.make ~name:"native path matches the limb reference" ~count:1500
    (QCheck.make
       ~print:(fun (x, y, k) -> Printf.sprintf "a = %s, b = %s, k = %d" x y k)
       QCheck.Gen.(triple operand operand (int_range 0 130)))
    (fun (x, y, k) ->
      let a = B.of_string x and b = B.of_string y in
      let la = L.of_string x and lb = L.of_string y in
      agree "a" a la;
      agree "b" b lb;
      agree "add" (B.add a b) (L.add la lb);
      agree "sub" (B.sub a b) (L.sub la lb);
      agree "mul" (B.mul a b) (L.mul la lb);
      agree "neg" (B.neg a) (L.neg la);
      agree_or_raise "div_rem" agree2 (fun () -> B.div_rem a b) (fun () -> L.div_rem la lb);
      (* The reference itself, by the division identity: beyond the
         native range nothing else checks it. *)
      (if not (L.is_zero lb) then
         let q, r = L.div_rem la lb in
         if
           not
             (L.equal (L.add (L.mul q lb) r) la
             && L.compare (L.abs r) (L.abs lb) < 0
             && (L.is_zero r || L.sign r = L.sign la))
         then fail "limb div_rem: %s rem %s" (L.to_string q) (L.to_string r));
      agree_or_raise "ediv_rem" agree2 (fun () -> B.ediv_rem a b) (fun () -> L.ediv_rem la lb);
      agree_or_raise "fdiv" agree (fun () -> B.fdiv a b) (fun () -> L.fdiv la lb);
      agree_or_raise "fmod" agree (fun () -> B.fmod a b) (fun () -> L.fmod la lb);
      agree "gcd" (B.gcd a b) (L.gcd la lb);
      agree "pow" (B.pow a (k mod 5)) (L.pow la (k mod 5));
      agree "shift_left" (B.shift_left a k) (L.shift_left la k);
      agree_or_raise "logand2p" agree (fun () -> B.logand2p a k) (fun () -> L.logand2p la k);
      agree_or_raise "testbit"
        (fun what v lv -> if v <> lv then fail "%s: %b, reference %b" what v lv)
        (fun () -> B.testbit (B.abs a) k)
        (fun () -> L.testbit (L.abs la) k);
      if Int.compare (B.compare a b) 0 <> Int.compare (L.compare la lb) 0 then fail "compare";
      if B.equal a b <> L.equal la lb then fail "equal";
      true)

(* Rat on operands from both paths, against lowest terms computed with
   the reference. *)
let prop_rat_mixed =
  QCheck.Test.make ~name:"rat matches the limb reference across the threshold" ~count:500
    (QCheck.make
       ~print:(fun (a, b, c, d) -> Printf.sprintf "%s/%s, %s/%s" a b c d)
       QCheck.Gen.(quad operand operand operand operand))
    (fun (n1, d1, n2, d2) ->
      QCheck.assume (d1 <> "0" && d2 <> "0");
      let lowest n d =
        let g = L.gcd n d in
        let n = fst (L.div_rem n g) and d = fst (L.div_rem d g) in
        let n, d = if L.sign d < 0 then (L.neg n, L.neg d) else (n, d) in
        if L.equal d L.one then L.to_string n else L.to_string n ^ "/" ^ L.to_string d
      in
      let r1 = R.make (B.of_string n1) (B.of_string d1) and r2 = R.make (B.of_string n2) (B.of_string d2) in
      let ln1 = L.of_string n1 and ld1 = L.of_string d1 in
      let ln2 = L.of_string n2 and ld2 = L.of_string d2 in
      let same what r s = if R.to_string r <> s then fail "%s: %s, reference %s" what (R.to_string r) s in
      same "make" r1 (lowest ln1 ld1);
      same "add" (R.add r1 r2) (lowest (L.add (L.mul ln1 ld2) (L.mul ln2 ld1)) (L.mul ld1 ld2));
      same "mul" (R.mul r1 r2) (lowest (L.mul ln1 ln2) (L.mul ld1 ld2));
      (* n1/d1 - n2/d2 has the sign of (n1*d2 - n2*d1) * d1*d2. *)
      let diff = L.mul (L.sub (L.mul ln1 ld2) (L.mul ln2 ld1)) (L.mul ld1 ld2) in
      if Int.compare (R.compare r1 r2) 0 <> L.sign diff then fail "compare";
      true)

(* ------------------------------------------------------------------ *)
(* Rat tests                                                           *)
(* ------------------------------------------------------------------ *)

let test_rat_basics () =
  let half = R.of_ints 1 2 and third = R.of_ints 1 3 in
  Alcotest.(check string) "add" "5/6" (R.to_string (R.add half third));
  Alcotest.(check string) "sub" "1/6" (R.to_string (R.sub half third));
  Alcotest.(check string) "mul" "1/6" (R.to_string (R.mul half third));
  Alcotest.(check string) "div" "3/2" (R.to_string (R.div half third));
  Alcotest.(check string) "normalize" "1/2" (R.to_string (R.of_ints 4 8));
  Alcotest.(check string) "neg den" "-1/2" (R.to_string (R.of_ints 4 (-8)));
  Alcotest.(check bool) "compare" true (R.compare third half < 0)

let test_rat_floor_ceil () =
  let f (n, d, fl, ce) =
    let q = R.of_ints n d in
    Alcotest.(check int) (Printf.sprintf "floor %d/%d" n d) fl (B.to_int_exn (R.floor q));
    Alcotest.(check int) (Printf.sprintf "ceil %d/%d" n d) ce (B.to_int_exn (R.ceil q))
  in
  List.iter f [ (7, 2, 3, 4); (-7, 2, -4, -3); (6, 3, 2, 2); (-6, 3, -2, -2); (0, 5, 0, 0) ]

let prop_rat_field =
  QCheck.Test.make ~name:"rat field laws" ~count:100
    (QCheck.pair (QCheck.pair small_int (QCheck.int_range 1 1000))
       (QCheck.pair small_int (QCheck.int_range 1 1000)))
    (fun ((a, b), (c, d)) ->
      let x = R.of_ints a b and y = R.of_ints c d in
      R.equal (R.add x y) (R.add y x)
      && R.equal (R.mul x y) (R.mul y x)
      && R.equal (R.sub (R.add x y) y) x
      && (R.is_zero y || R.equal (R.mul (R.div x y) y) x))

let prop_rat_floor =
  QCheck.Test.make ~name:"rat floor <= q < floor+1" ~count:100
    (QCheck.pair small_int (QCheck.int_range 1 1000)) (fun (n, d) ->
      let q = R.of_ints n d in
      let fl = R.of_bigint (R.floor q) in
      R.compare fl q <= 0 && R.compare q (R.add fl R.one) < 0)

(* ------------------------------------------------------------------ *)
(* CRC-32, RNG, Vecbuf                                                 *)
(* ------------------------------------------------------------------ *)

(* Known answers for the 128-bit fingerprint, recorded before its loop was
   rewritten: every cache key, certificate digest and result digest goes
   through it, so its output may never change. *)
let test_hash128 () =
  let kat = Alcotest.(check string) in
  kat "empty" "cbf29ce4842223253f3fdeeb56232984" (Vbase.Hash.string128 "");
  kat "one byte" "af63dc4c8601ec8c441c9ee44d49bbce" (Vbase.Hash.string128 "a");
  kat "key version" "9eb83c4996b17dc8148d8cf0e022d562" (Vbase.Hash.string128 "verus-cache-fp/3");
  kat "every byte value" "9ebd4ca7a79e5ddd167259a45f366ac7"
    (Vbase.Hash.string128 (String.init 1000 (fun k -> Char.chr (k mod 256))))

let test_crc32 () =
  (* Standard known-answer test: CRC32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "kat" 0xCBF43926l (Vbase.Crc32.digest_string "123456789");
  Alcotest.(check int32) "empty" 0l (Vbase.Crc32.digest_string "");
  (* The table matches its specification (the compute-mode proof target). *)
  let t = Vbase.Crc32.table () in
  for i = 0 to 255 do
    Alcotest.(check int32)
      (Printf.sprintf "table[%d]" i)
      (Vbase.Crc32.table_entry_spec i) t.(i)
  done;
  (* Incremental digest equals one-shot digest. *)
  let s = "hello, persistent world" in
  let b = Bytes.of_string s in
  let c1 = Vbase.Crc32.digest b 0 (Bytes.length b) in
  let mid = 7 in
  let c2 =
    Vbase.Crc32.digest ~crc:(Vbase.Crc32.digest b 0 mid) b mid (Bytes.length b - mid)
  in
  Alcotest.(check int32) "incremental" c1 c2

let test_rng_determinism () =
  let r1 = Vbase.Rng.create ~seed:42 and r2 = Vbase.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Vbase.Rng.int r1 1000) (Vbase.Rng.int r2 1000)
  done;
  let r3 = Vbase.Rng.create ~seed:43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Vbase.Rng.int r1 1000 <> Vbase.Rng.int r3 1000 then differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:80
    (QCheck.pair QCheck.small_int (QCheck.int_range 1 10000)) (fun (seed, bound) ->
      let r = Vbase.Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Vbase.Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_zipf_determinism () =
  (* Same seed, same (s, n) ⇒ the same rank stream; the storm workloads
     rely on replayable skew. *)
  let draw seed =
    let r = Vbase.Rng.create ~seed in
    let z = Vbase.Rng.zipf ~s:1.1 ~n:10_000 in
    List.init 200 (fun _ -> Vbase.Rng.zipf_draw r z)
  in
  Alcotest.(check (list int)) "same stream" (draw 9) (draw 9);
  Alcotest.(check bool) "different seed differs" true (draw 9 <> draw 10);
  List.iter
    (fun rank -> Alcotest.(check bool) "in range" true (rank >= 0 && rank < 10_000))
    (draw 11)

let test_zipf_rank_frequency () =
  (* Rank-frequency monotonicity: lower ranks must be drawn at least as
     often as (binned) higher ranks, and the pmf must match empirical
     frequencies for the head ranks. *)
  let n = 1000 and draws = 200_000 in
  let r = Vbase.Rng.create ~seed:7 in
  let z = Vbase.Rng.zipf ~s:1.2 ~n in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Vbase.Rng.zipf_draw r z in
    counts.(k) <- counts.(k) + 1
  done;
  (* Bin ranks geometrically; each bin's mean frequency must dominate the
     next bin's (binning smooths sampling noise). *)
  let bin lo hi =
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + counts.(i)
    done;
    float_of_int !s /. float_of_int (hi - lo)
  in
  let bins = [ (0, 1); (1, 4); (4, 16); (16, 64); (64, 256); (256, 1000) ] in
  let means = List.map (fun (lo, hi) -> bin lo hi) bins in
  let rec check_mono = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf "bin mean %.1f >= %.1f" a b)
        true (a >= b);
      check_mono rest
    | _ -> ()
  in
  check_mono means;
  (* Head-rank empirical frequency vs. the analytic pmf (within 10%). *)
  List.iter
    (fun rank ->
      let expect = Vbase.Rng.zipf_pmf z rank *. float_of_int draws in
      let got = float_of_int counts.(rank) in
      Alcotest.(check bool)
        (Printf.sprintf "rank %d: %.0f within 10%% of %.0f" rank got expect)
        true
        (abs_float (got -. expect) <= 0.1 *. expect))
    [ 0; 1; 2 ];
  (* The pmf itself is a distribution. *)
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. Vbase.Rng.zipf_pmf z i
  done;
  Alcotest.(check bool) "pmf sums to 1" true (abs_float (!total -. 1.0) < 1e-9)

let test_vecbuf () =
  let v = Vbase.Vecbuf.create ~dummy:(-1) in
  for i = 0 to 99 do
    Vbase.Vecbuf.push v i
  done;
  Alcotest.(check int) "len" 100 (Vbase.Vecbuf.length v);
  Alcotest.(check int) "get" 57 (Vbase.Vecbuf.get v 57);
  Alcotest.(check int) "pop" 99 (Vbase.Vecbuf.pop v);
  Vbase.Vecbuf.shrink v 10;
  Alcotest.(check int) "shrink" 10 (Vbase.Vecbuf.length v);
  Alcotest.(check (list int)) "to_list" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Vbase.Vecbuf.to_list v);
  Vbase.Vecbuf.set v 3 33;
  Alcotest.(check int) "set" 33 (Vbase.Vecbuf.get v 3);
  Alcotest.(check int) "fold" (33 + 45 - 3) (Vbase.Vecbuf.fold ( + ) 0 v);
  Vbase.Vecbuf.clear v;
  Alcotest.(check bool) "clear" true (Vbase.Vecbuf.is_empty v)

(* ------------------------------------------------------------------ *)
(* Fault plans                                                          *)
(* ------------------------------------------------------------------ *)

module Fp = Vbase.Faultplan

let test_faultplan_explicit () =
  let p = Fp.create ~seed:9 () in
  Fp.fire_at p "net.drop" [ 2; 5 ];
  let fired = List.init 6 (fun _ -> Fp.fires p "net.drop") in
  Alcotest.(check (list bool)) "fires exactly at 2 and 5"
    [ false; true; false; false; true; false ]
    fired;
  Alcotest.(check int) "step" 6 (Fp.step p "net.drop");
  Alcotest.(check int) "fired" 2 (Fp.fired p "net.drop");
  Alcotest.(check (list (pair string int))) "trace"
    [ ("net.drop", 2); ("net.drop", 5) ]
    (Fp.trace p)

let test_faultplan_unarmed () =
  let p = Fp.create ~seed:3 () in
  for _ = 1 to 50 do
    Alcotest.(check bool) "unarmed never fires" false (Fp.fires p "pmem.torn")
  done;
  Alcotest.(check int) "step still advances" 50 (Fp.step p "pmem.torn")

let test_faultplan_determinism () =
  (* Same seed + same per-site consult counts ⇒ identical traces, even
     when consults of distinct sites interleave differently. *)
  let consult plan order =
    List.iter (fun site -> ignore (Fp.fires plan site)) order
  in
  let build order =
    let p = Fp.create ~seed:77 () in
    Fp.set_prob p "net.drop" ~pct:30;
    Fp.set_prob p "net.dup" ~pct:30;
    consult p order;
    p
  in
  let interleaved =
    List.concat (List.init 100 (fun _ -> [ "net.drop"; "net.dup" ]))
  in
  let grouped =
    List.init 100 (fun _ -> "net.drop") @ List.init 100 (fun _ -> "net.dup")
  in
  let p1 = build interleaved and p2 = build interleaved in
  Alcotest.(check string) "replay is byte-identical" (Fp.trace_to_string p1)
    (Fp.trace_to_string p2);
  let p3 = build grouped in
  (* Per-site streams are independent of cross-site interleaving: the set
     of firing steps per site is unchanged, only global trace order moves. *)
  let steps plan site =
    List.filter_map (fun (s, k) -> if s = site then Some k else None) (Fp.trace plan)
  in
  Alcotest.(check (list int)) "drop schedule interleaving-independent"
    (steps p1 "net.drop") (steps p3 "net.drop");
  Alcotest.(check (list int)) "dup schedule interleaving-independent"
    (steps p1 "net.dup") (steps p3 "net.dup");
  let p4 = Fp.create ~seed:78 () in
  Fp.set_prob p4 "net.drop" ~pct:30;
  Fp.set_prob p4 "net.dup" ~pct:30;
  consult p4 interleaved;
  Alcotest.(check bool) "different seed differs" true
    (Fp.trace_to_string p1 <> Fp.trace_to_string p4)

let test_faultplan_draw_isolated () =
  (* draw must not perturb the firing schedule. *)
  let build ~with_draws =
    let p = Fp.create ~seed:5 () in
    Fp.set_prob p "net.delay" ~pct:40;
    for _ = 1 to 200 do
      if Fp.fires p "net.delay" && with_draws then ignore (Fp.draw p "net.delay" 7)
    done;
    Fp.trace_to_string p
  in
  Alcotest.(check string) "draws do not shift schedule" (build ~with_draws:false)
    (build ~with_draws:true)

let prop_faultplan_rate =
  QCheck.Test.make ~name:"probabilistic rate is roughly honoured" ~count:30
    QCheck.(pair small_int (int_range 5 95))
    (fun (seed, pct) ->
      let p = Fp.create ~seed () in
      Fp.set_prob p "x" ~pct;
      let n = 2000 in
      let hits = ref 0 in
      for _ = 1 to n do
        if Fp.fires p "x" then incr hits
      done;
      let rate = 100 * !hits / n in
      abs (rate - pct) <= 10)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

module J = Vbase.Json

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("null", J.Null);
        ("bools", J.List [ J.Bool true; J.Bool false ]);
        ("ints", J.List [ J.Int 0; J.Int (-7); J.Int 123456789 ]);
        ("floats", J.List [ J.Float 0.5; J.Float (-2.25); J.Float 3.0 ]);
        ("str", J.String "line\nbreak \"quoted\" back\\slash\ttab");
        ("empty_list", J.List []);
        ("empty_obj", J.Obj []);
        ("nested", J.Obj [ ("xs", J.List [ J.Obj [ ("k", J.Int 1) ] ]) ]);
      ]
  in
  List.iter
    (fun indent ->
      match J.of_string (J.to_string ~indent doc) with
      | Ok doc' ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip indent=%b" indent)
          true (doc = doc')
      | Error e -> Alcotest.failf "roundtrip (indent=%b) failed: %s" indent e)
    [ true; false ]

(* Every byte survives print and parse, in keys and in values, with or
   without escapes. *)
let prop_json_strings =
  QCheck.Test.make ~name:"json strings roundtrip byte for byte" ~count:200
    QCheck.(small_list (pair small_string small_string))
    (fun kvs ->
      let doc = J.Obj (List.map (fun (k, v) -> (k, J.List [ J.String v; J.Obj [ (v, J.String k) ] ])) kvs) in
      List.for_all (fun indent -> J.of_string (J.to_string ~indent doc) = Ok doc) [ true; false ])

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match J.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" bad)
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\":1} extra" ]

let test_json_accessors () =
  let j = J.Obj [ ("a", J.Obj [ ("b", J.Int 3) ]); ("f", J.Float 1.5) ] in
  Alcotest.(check bool) "member" true (J.member "f" j = Some (J.Float 1.5));
  Alcotest.(check bool) "member missing" true (J.member "zz" j = None);
  Alcotest.(check bool) "path" true (J.path [ "a"; "b" ] j = Some (J.Int 3));
  Alcotest.(check bool) "to_float of int" true
    (Option.bind (J.path [ "a"; "b" ] j) J.to_float = Some 3.0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "vbase"
    [
      ( "bigint",
        [
          Alcotest.test_case "basics" `Quick test_bigint_basics;
          Alcotest.test_case "large" `Quick test_bigint_large;
          Alcotest.test_case "div_rem" `Quick test_bigint_divrem;
          Alcotest.test_case "fdiv/fmod" `Quick test_bigint_fdiv_fmod;
          Alcotest.test_case "gcd/pow" `Quick test_bigint_gcd_pow;
          Alcotest.test_case "bits" `Quick test_bigint_bits;
          Alcotest.test_case "to_int" `Quick test_bigint_to_int;
        ] );
      qsuite "bigint-props" [ prop_ring_ops; prop_divrem; prop_string_roundtrip; prop_mul_div_big ];
      qsuite "bigint-native" [ prop_native_vs_limbs; prop_rat_mixed ];
      ( "rat",
        [
          Alcotest.test_case "basics" `Quick test_rat_basics;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
        ] );
      qsuite "rat-props" [ prop_rat_field; prop_rat_floor ];
      ( "misc",
        [
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "rng" `Quick test_rng_determinism;
          Alcotest.test_case "zipf determinism" `Quick test_zipf_determinism;
          Alcotest.test_case "zipf rank-frequency" `Quick test_zipf_rank_frequency;
          Alcotest.test_case "vecbuf" `Quick test_vecbuf;
          Alcotest.test_case "hash128" `Quick test_hash128;
        ] );
      qsuite "misc-props" [ prop_rng_bounds ];
      ( "faultplan",
        [
          Alcotest.test_case "explicit steps" `Quick test_faultplan_explicit;
          Alcotest.test_case "unarmed" `Quick test_faultplan_unarmed;
          Alcotest.test_case "determinism" `Quick test_faultplan_determinism;
          Alcotest.test_case "draw isolation" `Quick test_faultplan_draw_isolated;
        ] );
      qsuite "faultplan-props" [ prop_faultplan_rate ];
      ( "json",
        [
          Alcotest.test_case "print/parse roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed inputs rejected" `Quick test_json_parse_errors;
          Alcotest.test_case "member/path/to_float" `Quick test_json_accessors;
        ] );
      qsuite "json-props" [ prop_json_strings ];
    ]
