(* Two representations.  A value that fits in a native [int] is that int,
   unboxed; any other value is a block of base-2^30 limbs ([Limbs.t]).
   The choice is canonical -- a value is native iff it fits -- so every
   operation below normalizes its result through [of_limbs], and
   structural equality and polymorphic hashing on [t] mean value
   equality. *)

(* The operations every representation derives from its core the same
   way. *)
module type CORE = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val to_int_opt : t -> int option
  val sign : t -> int
  val compare : t -> t -> int
  val neg : t -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div_rem : t -> t -> t * t
end

module Derived (C : CORE) = struct
  open C

  let two = of_int 2
  let minus_one = of_int (-1)
  let is_zero a = sign a = 0
  let equal a b = compare a b = 0
  let min a b = if compare a b <= 0 then a else b
  let max a b = if compare a b >= 0 then a else b
  let abs a = if sign a < 0 then neg a else a

  let to_int_exn a =
    match to_int_opt a with
    | Some i -> i
    | None -> failwith "Bigint.to_int_exn: out of range"

  let ediv_rem a b =
    let q, r = div_rem a b in
    if sign r >= 0 then (q, r)
    else if sign b > 0 then (sub q one, add r b)
    else (add q one, sub r b)

  let fdiv a b =
    let q, r = div_rem a b in
    if sign r = 0 || sign r = sign b then q else sub q one

  let fmod a b = sub a (mul (fdiv a b) b)

  let rec gcd a b =
    let a = abs a and b = abs b in
    if is_zero b then a else gcd b (snd (div_rem a b))

  let pow b e =
    if e < 0 then invalid_arg "Bigint.pow: negative exponent";
    let rec go acc b e =
      if e = 0 then acc
      else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
      else go acc (mul b b) (e lsr 1)
    in
    go one b e

  let shift_left n k = mul n (pow two k)
  let billion = of_int 1_000_000_000

  let to_string a =
    if is_zero a then "0"
    else begin
      let rec chunks acc m =
        if is_zero m then acc
        else begin
          let q, r = div_rem m billion in
          chunks (to_int_exn r :: acc) q
        end
      in
      let buf = Buffer.create 32 in
      if sign a < 0 then Buffer.add_char buf '-';
      match chunks [] (abs a) with
      | [] -> "0"
      | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
        Buffer.contents buf
    end

  let ten = of_int 10

  let of_string s =
    let n = String.length s in
    if n = 0 then invalid_arg "Bigint.of_string: empty";
    let negative = s.[0] = '-' in
    let start = if negative || s.[0] = '+' then 1 else 0 in
    if start >= n then invalid_arg "Bigint.of_string: no digits";
    let acc = ref zero in
    for i = start to n - 1 do
      let c = s.[i] in
      if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
      acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
    done;
    if negative then neg !acc else !acc

  let pp fmt a = Format.pp_print_string fmt (to_string a)
end

(* Sign-magnitude bignums with base-2^30 limbs stored little-endian in an
   int array.  Magnitudes are normalized: no trailing zero limbs, and zero
   is represented uniquely as [{ sign = 0; mag = [||] }]. *)
module Limbs = struct
  let base_bits = 30
  let base = 1 lsl base_bits
  let base_mask = base - 1

  type t = { sign : int; mag : int array }

  let zero = { sign = 0; mag = [||] }

  let normalize sign mag =
    let n = ref (Array.length mag) in
    while !n > 0 && mag.(!n - 1) = 0 do
      decr n
    done;
    if !n = 0 then zero
    else if !n = Array.length mag then { sign; mag }
    else { sign; mag = Array.sub mag 0 !n }

  let of_int i =
    if i = 0 then zero
    else begin
      (* [abs min_int] is [min_int], whose bits read unsigned are 2^62:
         the limbs below come out right for it too. *)
      let m = Stdlib.abs i in
      let n = if m lsr base_bits = 0 then 1 else if m lsr (2 * base_bits) = 0 then 2 else 3 in
      {
        sign = (if i < 0 then -1 else 1);
        mag = Array.init n (fun k -> (m lsr (k * base_bits)) land base_mask);
      }
    end

  let one = of_int 1

  let to_int_opt a =
    let l = Array.length a.mag in
    if l = 0 then Some 0
    else if l > 3 || (l = 3 && a.mag.(2) >= 8) then None (* magnitude >= 2^63 *)
    else begin
      (* The magnitude, read as an unsigned 63-bit number. *)
      let m = ref 0 in
      for k = l - 1 downto 0 do
        m := (!m lsl base_bits) lor a.mag.(k)
      done;
      if !m >= 0 then Some (a.sign * !m)
      else if a.sign < 0 && !m = min_int then Some min_int (* magnitude 2^62 *)
      else None
    end

  let sign a = a.sign

  (* Compare magnitudes only. *)
  let cmp_mag a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then compare la lb
    else begin
      let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
      go (la - 1)
    end

  let compare a b =
    if a.sign <> b.sign then compare a.sign b.sign
    else if a.sign >= 0 then cmp_mag a.mag b.mag
    else cmp_mag b.mag a.mag

  let add_mag a b =
    let la = Array.length a and lb = Array.length b in
    let n = Stdlib.max la lb in
    let r = Array.make (n + 1) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
      r.(i) <- s land base_mask;
      carry := s lsr base_bits
    done;
    r.(n) <- !carry;
    r

  (* Requires |a| >= |b|. *)
  let sub_mag a b =
    let la = Array.length a and lb = Array.length b in
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
      if s < 0 then begin
        r.(i) <- s + base;
        borrow := 1
      end else begin
        r.(i) <- s;
        borrow := 0
      end
    done;
    r

  let neg a = if a.sign = 0 then a else { a with sign = -a.sign }

  let add a b =
    if a.sign = 0 then b
    else if b.sign = 0 then a
    else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
    else begin
      let c = cmp_mag a.mag b.mag in
      if c = 0 then zero
      else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
      else normalize b.sign (sub_mag b.mag a.mag)
    end

  let sub a b = add a (neg b)

  let mul a b =
    if a.sign = 0 || b.sign = 0 then zero
    else begin
      let la = Array.length a.mag and lb = Array.length b.mag in
      let r = Array.make (la + lb) 0 in
      for i = 0 to la - 1 do
        let carry = ref 0 in
        let ai = a.mag.(i) in
        for j = 0 to lb - 1 do
          let t = (ai * b.mag.(j)) + r.(i + j) + !carry in
          r.(i + j) <- t land base_mask;
          carry := t lsr base_bits
        done;
        (* Propagate the final carry (it can exceed one limb only if a later
           addition overflows, which it cannot: carry < base). *)
        r.(i + lb) <- r.(i + lb) + !carry
      done;
      normalize (a.sign * b.sign) r
    end

  (* Divide magnitude by a single limb; returns (quotient magnitude, rem). *)
  let divmod_small mag d =
    let n = Array.length mag in
    let q = Array.make n 0 in
    let rem = ref 0 in
    for i = n - 1 downto 0 do
      let cur = (!rem lsl base_bits) lor mag.(i) in
      q.(i) <- cur / d;
      rem := cur mod d
    done;
    (q, !rem)

  (* Schoolbook long division on magnitudes, Knuth algorithm D simplified by
     operating on normalized (shifted) limbs. Requires b <> 0. *)
  let divmod_mag a b =
    let lb = Array.length b in
    if lb = 1 then begin
      let q, r = divmod_small a b.(0) in
      (q, if r = 0 then [||] else [| r |])
    end
    else if cmp_mag a b < 0 then ([||], a)
    else begin
      (* Normalize so the top limb of the divisor has its high bit set. *)
      let shift = ref 0 in
      let top = b.(lb - 1) in
      while top lsl !shift < base / 2 do
        incr shift
      done;
      let sh = !shift in
      (* Shifted copy with one more limb on top, even when [sh = 0]: the
         dividend needs it for the quotient's top digit. *)
      let shl m =
        let n = Array.length m in
        let r = Array.make (n + 1) 0 in
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let v = (m.(i) lsl sh) lor !carry in
          r.(i) <- v land base_mask;
          carry := v lsr base_bits
        done;
        r.(n) <- !carry;
        r
      in
      let shr m =
        if sh = 0 then m
        else begin
          let n = Array.length m in
          let r = Array.make n 0 in
          let carry = ref 0 in
          for i = n - 1 downto 0 do
            r.(i) <- (m.(i) lsr sh) lor (!carry lsl (base_bits - sh));
            carry := m.(i) land ((1 lsl sh) - 1)
          done;
          r
        end
      in
      let u = shl a and v = shl b in
      let v =
        let n = ref (Array.length v) in
        while !n > 0 && v.(!n - 1) = 0 do decr n done;
        Array.sub v 0 !n
      in
      let lv = Array.length v in
      let lu = Array.length u in
      let m = lu - lv in
      let q = Array.make (Stdlib.max m 1) 0 in
      (* u is mutated in place as the running remainder. *)
      let vtop = v.(lv - 1) in
      let vsnd = if lv >= 2 then v.(lv - 2) else 0 in
      for j = m - 1 downto 0 do
        let ujv = if j + lv < lu then u.(j + lv) else 0 in
        let num = (ujv lsl base_bits) lor u.(j + lv - 1) in
        let qhat = ref (Stdlib.min (num / vtop) (base - 1)) in
        let rhat = ref (num - (!qhat * vtop)) in
        while
          !rhat < base
          && !qhat * vsnd > (!rhat lsl base_bits) lor (if j + lv >= 2 then u.(j + lv - 2) else 0)
        do
          decr qhat;
          rhat := !rhat + vtop
        done;
        (* Multiply-subtract qhat * v from u[j .. j+lv]. *)
        let borrow = ref 0 and carry = ref 0 in
        for i = 0 to lv - 1 do
          let p = (!qhat * v.(i)) + !carry in
          carry := p lsr base_bits;
          let s = u.(i + j) - (p land base_mask) - !borrow in
          if s < 0 then begin
            u.(i + j) <- s + base;
            borrow := 1
          end else begin
            u.(i + j) <- s;
            borrow := 0
          end
        done;
        let s = (if j + lv < lu then u.(j + lv) else 0) - !carry - !borrow in
        let s, negative = if s < 0 then (s + base, true) else (s, false) in
        if j + lv < lu then u.(j + lv) <- s;
        if negative then begin
          (* qhat was one too large; add v back. *)
          decr qhat;
          let carry = ref 0 in
          for i = 0 to lv - 1 do
            let t = u.(i + j) + v.(i) + !carry in
            u.(i + j) <- t land base_mask;
            carry := t lsr base_bits
          done;
          if j + lv < lu then u.(j + lv) <- (u.(j + lv) + !carry) land base_mask
        end;
        q.(j) <- !qhat
      done;
      let rem = shr (Array.sub u 0 lv) in
      (q, rem)
    end

  let div_rem a b =
    if b.sign = 0 then raise Division_by_zero;
    if a.sign = 0 then (zero, zero)
    else begin
      let qm, rm = divmod_mag a.mag b.mag in
      (normalize (a.sign * b.sign) qm, normalize a.sign rm)
    end

  let logand2p n k =
    (* n land (2^k - 1) for n >= 0: keep the low k bits of the magnitude. *)
    if n.sign < 0 then invalid_arg "Bigint.logand2p: negative";
    if n.sign = 0 then zero
    else begin
      let full = k / base_bits and part = k mod base_bits in
      let len = Array.length n.mag in
      let keep = Stdlib.min len (full + if part > 0 then 1 else 0) in
      let mag = Array.sub n.mag 0 keep in
      if part > 0 && full < keep then mag.(full) <- mag.(full) land ((1 lsl part) - 1);
      (* Limbs above [full] (when part = 0) must be dropped, handled by keep. *)
      normalize 1 mag
    end

  let testbit n k =
    if n.sign < 0 then invalid_arg "Bigint.testbit: negative";
    let limb = k / base_bits and bit = k mod base_bits in
    limb < Array.length n.mag && (n.mag.(limb) lsr bit) land 1 = 1

  let hash a = Hashtbl.hash (a.sign, a.mag)

  include Derived (struct
    type nonrec t = t

    let zero = zero
    let one = one
    let of_int = of_int
    let to_int_opt = to_int_opt
    let sign = sign
    let compare = compare
    let neg = neg
    let add = add
    let sub = sub
    let mul = mul
    let div_rem = div_rem
  end)
end

(* --- the two-path representation ------------------------------------- *)

type t (* an immediate [int], or a [Limbs.t] block beyond the int range *)

(* Every int is a native value; [native] and [block] are only applied to
   a value [is_native] has classified, and [unsafe_of_block] only to a
   limb value that does not fit in an int. *)
external of_native : int -> t = "%identity"
external native : t -> int = "%identity"
external block : t -> Limbs.t = "%identity"
external unsafe_of_block : Limbs.t -> t = "%identity"

let is_native (a : t) = Obj.is_int (Obj.repr a)

(* The canonical form of a limb value. *)
let of_limbs (l : Limbs.t) =
  match Limbs.to_int_opt l with Some i -> of_native i | None -> unsafe_of_block l

let limbs a = if is_native a then Limbs.of_int (native a) else block a
let zero = of_native 0
let one = of_native 1
let of_int = of_native
let to_int_opt a = if is_native a then Some (native a) else None

let sign a =
  if is_native a then Int.compare (native a) 0 else (block a).Limbs.sign

(* A block lies beyond every native value, on the side of its sign. *)
let compare a b =
  match (is_native a, is_native b) with
  | true, true -> Int.compare (native a) (native b)
  | true, false -> -(block b).Limbs.sign
  | false, true -> (block a).Limbs.sign
  | false, false -> Limbs.compare (block a) (block b)

let equal a b = a == b || ((not (is_native a)) && (not (is_native b)) && compare a b = 0)

let neg a =
  if is_native a && native a <> min_int then of_native (-native a)
  else of_limbs (Limbs.neg (limbs a))

let add a b =
  if is_native a && is_native b then begin
    let x = native a and y = native b in
    let s = x + y in
    (* Overflow iff both operands' signs differ from the sum's. *)
    if (x lxor s) land (y lxor s) >= 0 then of_native s
    else of_limbs (Limbs.add (Limbs.of_int x) (Limbs.of_int y))
  end
  else of_limbs (Limbs.add (limbs a) (limbs b))

let sub a b =
  if is_native a && is_native b then begin
    let x = native a and y = native b in
    let d = x - y in
    if (x lxor y) land (x lxor d) >= 0 then of_native d
    else of_limbs (Limbs.sub (Limbs.of_int x) (Limbs.of_int y))
  end
  else of_limbs (Limbs.sub (limbs a) (limbs b))

(* |x| < 2^31, so a product of two such values fits. *)
let half x = x > -0x8000_0000 && x < 0x8000_0000

let mul a b =
  if is_native a && is_native b then begin
    let x = native a and y = native b in
    let p = x * y in
    if (half x && half y) || x = 0 || (p / x = y && not (x = -1 && y = min_int)) then of_native p
    else of_limbs (Limbs.mul (Limbs.of_int x) (Limbs.of_int y))
  end
  else of_limbs (Limbs.mul (limbs a) (limbs b))

let div_rem a b =
  if is_native a && is_native b then begin
    let x = native a and y = native b in
    if y = 0 then raise Division_by_zero
    else if y = -1 then (neg a, zero) (* [min_int / -1] does not fit *)
    else (of_native (x / y), of_native (x mod y))
  end
  else begin
    let q, r = Limbs.div_rem (limbs a) (limbs b) in
    (of_limbs q, of_limbs r)
  end

module D = Derived (struct
  type nonrec t = t

  let zero = zero
  let one = one
  let of_int = of_int
  let to_int_opt = to_int_opt
  let sign = sign
  let compare = compare
  let neg = neg
  let add = add
  let sub = sub
  let mul = mul
  let div_rem = div_rem
end)

let two = D.two
let minus_one = D.minus_one
let is_zero a = a == zero
let min = D.min
let max = D.max
let abs = D.abs
let to_int_exn a = if is_native a then native a else failwith "Bigint.to_int_exn: out of range"
let ediv_rem = D.ediv_rem
let fdiv = D.fdiv
let fmod = D.fmod

let gcd a b =
  if is_native a && is_native b && native a <> min_int && native b <> min_int then begin
    let rec go x y = if y = 0 then x else go y (x mod y) in
    of_native (go (Stdlib.abs (native a)) (Stdlib.abs (native b)))
  end
  else D.gcd a b

let pow = D.pow
let shift_left = D.shift_left

let logand2p n k =
  if is_native n && native n >= 0 then
    of_native (if k >= Sys.int_size - 1 then native n else native n land ((1 lsl k) - 1))
  else of_limbs (Limbs.logand2p (limbs n) k)

let testbit n k =
  if is_native n && native n >= 0 then k < Sys.int_size - 1 && (native n lsr k) land 1 = 1
  else Limbs.testbit (limbs n) k

let to_string a = if is_native a then string_of_int (native a) else Limbs.to_string (block a)
let of_string = D.of_string
let hash a = Limbs.hash (limbs a)
let pp fmt a = Format.pp_print_string fmt (to_string a)
