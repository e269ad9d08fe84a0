type t = { num : Bigint.t; den : Bigint.t }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else if Bigint.equal den Bigint.one then { num; den }
  else begin
    let g = Bigint.gcd num den in
    let num, _ = Bigint.div_rem num g and den, _ = Bigint.div_rem den g in
    if Bigint.sign den < 0 then { num = Bigint.neg num; den = Bigint.neg den }
    else { num; den }
  end

let of_bigint n = { num = n; den = Bigint.one }
let of_int i = of_bigint (Bigint.of_int i)
let of_ints a b = make (Bigint.of_int a) (Bigint.of_int b)

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let neg q = { q with num = Bigint.neg q.num }

let is_integer q = Bigint.equal q.den Bigint.one

let add a b =
  if is_integer a && is_integer b then { num = Bigint.add a.num b.num; den = Bigint.one }
  else
    make
      (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
      (Bigint.mul a.den b.den)

let sub a b = add a (neg b)

let mul a b =
  if is_integer a && is_integer b then { num = Bigint.mul a.num b.num; den = Bigint.one }
  else make (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)
let div a b = make (Bigint.mul a.num b.den) (Bigint.mul a.den b.num)
let inv q = div one q
let sign q = Bigint.sign q.num
let is_zero q = Bigint.is_zero q.num

(* Denominators are positive, so cross-multiplying keeps the order. *)
let compare a b =
  if is_integer a && is_integer b then Bigint.compare a.num b.num
  else Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)
(* Lowest terms with a positive denominator: one representation per value. *)
let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let abs q = if sign q < 0 then neg q else q

let floor q = if is_integer q then q.num else Bigint.fdiv q.num q.den
let ceil q = if is_integer q then q.num else Bigint.neg (Bigint.fdiv (Bigint.neg q.num) q.den)

let to_string q =
  if is_integer q then Bigint.to_string q.num
  else Bigint.to_string q.num ^ "/" ^ Bigint.to_string q.den

let pp fmt q = Format.pp_print_string fmt (to_string q)
let hash q = Hashtbl.hash (Bigint.hash q.num, Bigint.hash q.den)
