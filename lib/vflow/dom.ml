(* Abstract domains: interval × congruence for Int, three-valued
   booleans for Bool.  Every operation over-approximates its concrete
   counterpart; soundness is swept by qcheck against the concrete
   interpreter in test/test_vflow.ml. *)

module B = Vbase.Bigint

type bound = NegInf | Fin of B.t | PosInf

type itv = { lo : bound; hi : bound }

type cong = { m : B.t; r : B.t }

type bool3 = Bfalse | Btrue | Bmaybe

type t = Bot | Abool of bool3 | Aint of itv * cong | Top

(* ------------------------------ bounds ----------------------------- *)

let bcmp a b =
  match (a, b) with
  | NegInf, NegInf | PosInf, PosInf -> 0
  | NegInf, _ -> -1
  | _, NegInf -> 1
  | PosInf, _ -> 1
  | _, PosInf -> -1
  | Fin x, Fin y -> B.compare x y

let bmin a b = if bcmp a b <= 0 then a else b
let bmax a b = if bcmp a b >= 0 then a else b

(* Addition of like-positioned bounds (lo+lo or hi+hi); mixed infinities
   cannot arise there. *)
let badd a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (B.add x y)
  | NegInf, _ | _, NegInf -> NegInf
  | PosInf, _ | _, PosInf -> PosInf

let bneg = function NegInf -> PosInf | PosInf -> NegInf | Fin x -> Fin (B.neg x)

let bound_add b c =
  match b with NegInf -> NegInf | PosInf -> PosInf | Fin x -> Fin (B.add x c)

(* Bound multiplication with the 0 * ∞ = 0 convention (sound for corner
   candidates: a dominating infinite candidate always exists when the
   true range is unbounded). *)
let bmul a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (B.mul x y)
  | Fin z, (NegInf | PosInf) when B.is_zero z -> Fin B.zero
  | (NegInf | PosInf), Fin z when B.is_zero z -> Fin B.zero
  | Fin x, NegInf -> if B.sign x > 0 then NegInf else PosInf
  | Fin x, PosInf -> if B.sign x > 0 then PosInf else NegInf
  | NegInf, Fin y -> if B.sign y > 0 then NegInf else PosInf
  | PosInf, Fin y -> if B.sign y > 0 then PosInf else NegInf
  | NegInf, NegInf | PosInf, PosInf -> PosInf
  | NegInf, PosInf | PosInf, NegInf -> NegInf

(* ---------------------------- congruence --------------------------- *)

let cong_top = { m = B.one; r = B.zero }
let cong_const c = { m = B.zero; r = c }
let cong_is_top c = B.equal c.m B.one

let cong_norm c =
  if B.is_zero c.m then c
  else if B.equal c.m B.one then cong_top
  else { c with r = B.fmod c.r c.m }

let cong_join a b =
  if B.is_zero a.m && B.is_zero b.m && B.equal a.r b.r then a
  else
    let m = B.gcd (B.gcd a.m b.m) (B.abs (B.sub a.r b.r)) in
    if B.is_zero m then cong_const a.r else cong_norm { m; r = a.r }

(* Sound coarse meet: detect provable contradiction; otherwise keep the
   tighter operand (any over-approximation of the intersection is a
   valid meet). *)
let cong_meet a b =
  let compatible =
    let g = B.gcd a.m b.m in
    if B.is_zero g then B.equal a.r b.r
    else B.is_zero (B.fmod (B.sub a.r b.r) g)
  in
  if not compatible then None
  else if B.is_zero a.m then Some a
  else if B.is_zero b.m then Some b
  else if B.compare a.m b.m >= 0 then Some a
  else Some b

let cong_leq a b =
  (* a ⊑ b: every x ≡ a.r (mod a.m) satisfies x ≡ b.r (mod b.m). *)
  if cong_is_top b then true
  else if B.is_zero a.m then
    if B.is_zero b.m then B.equal a.r b.r
    else B.is_zero (B.fmod (B.sub a.r b.r) b.m)
  else if B.is_zero b.m then false
  else
    B.is_zero (B.fmod a.m b.m) && B.is_zero (B.fmod (B.sub a.r b.r) b.m)

let cong_add a b =
  let m = B.gcd a.m b.m in
  if B.is_zero m then cong_const (B.add a.r b.r)
  else cong_norm { m; r = B.add a.r b.r }

let cong_neg a =
  if B.is_zero a.m then cong_const (B.neg a.r) else cong_norm { a with r = B.neg a.r }

let cong_sub a b = cong_add a (cong_neg b)

let cong_mul a b =
  let m = B.gcd (B.mul a.m b.m) (B.gcd (B.mul a.m b.r) (B.mul b.m a.r)) in
  if B.is_zero m then cong_const (B.mul a.r b.r)
  else cong_norm { m; r = B.mul a.r b.r }

let cong_mem x c =
  if B.is_zero c.m then B.equal x c.r else B.equal (B.fmod x c.m) (B.fmod c.r c.m)

(* ---------------------------- normalising -------------------------- *)

let itv_empty i = bcmp i.lo i.hi > 0

(* Tighten a finite bound inward to the nearest member of the
   congruence class. *)
let tighten_lo lo c =
  match lo with
  | Fin x when not (cong_is_top c) && B.sign c.m > 0 ->
    let d = B.fmod (B.sub c.r x) c.m in
    Fin (B.add x d)
  | _ -> lo

let tighten_hi hi c =
  match hi with
  | Fin x when not (cong_is_top c) && B.sign c.m > 0 ->
    let d = B.fmod (B.sub x c.r) c.m in
    Fin (B.sub x d)
  | _ -> hi

let mk_int i c =
  let c = cong_norm c in
  if itv_empty i then Bot
  else if B.is_zero c.m then
    (* Constant: intersect with the interval. *)
    if bcmp (Fin c.r) i.lo >= 0 && bcmp (Fin c.r) i.hi <= 0 then
      Aint ({ lo = Fin c.r; hi = Fin c.r }, c)
    else Bot
  else
    let lo = tighten_lo i.lo c and hi = tighten_hi i.hi c in
    if bcmp lo hi > 0 then Bot
    else
      match (lo, hi) with
      | Fin a, Fin b when B.equal a b -> Aint ({ lo; hi }, cong_const a)
      | _ -> Aint ({ lo; hi }, c)

let top_int = Aint ({ lo = NegInf; hi = PosInf }, cong_top)
let of_bigint c = Aint ({ lo = Fin c; hi = Fin c }, cong_const c)
let of_int n = of_bigint (B.of_int n)
let of_bool b = Abool (if b then Btrue else Bfalse)
let range lo hi = mk_int { lo; hi } cong_top
let range_i lo hi = range (Fin (B.of_int lo)) (Fin (B.of_int hi))

(* ----------------------------- lattice ----------------------------- *)

let is_bot = function Bot -> true | _ -> false

let join3 a b = if a = b then a else Bmaybe

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Abool x, Abool y -> Abool (join3 x y)
  | Aint (i1, c1), Aint (i2, c2) ->
    mk_int { lo = bmin i1.lo i2.lo; hi = bmax i1.hi i2.hi } (cong_join c1 c2)
  | (Abool _ | Aint _), _ -> Top

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, x | x, Top -> x
  | Abool x, Abool y ->
    if x = y then a
    else if x = Bmaybe then b
    else if y = Bmaybe then a
    else Bot
  | Aint (i1, c1), Aint (i2, c2) -> (
    match cong_meet c1 c2 with
    | None -> Bot
    | Some c -> mk_int { lo = bmax i1.lo i2.lo; hi = bmin i1.hi i2.hi } c)
  | (Abool _ | Aint _), _ -> Bot

let widen old nw =
  match (old, nw) with
  | Bot, x -> x
  | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Abool x, Abool y -> Abool (join3 x y)
  | Aint (i1, c1), Aint (i2, c2) ->
    let lo = if bcmp i2.lo i1.lo < 0 then NegInf else i1.lo in
    let hi = if bcmp i2.hi i1.hi > 0 then PosInf else i1.hi in
    (* cong_join strictly descends the (finite) divisor chain, so using
       it as the widening preserves termination. *)
    mk_int { lo; hi } (cong_join c1 c2)
  | (Abool _ | Aint _), _ -> Top

let leq3 a b = a = b || b = Bmaybe

let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Top -> true
  | Top, _ -> false
  | Abool x, Abool y -> leq3 x y
  | Aint (i1, c1), Aint (i2, c2) ->
    bcmp i2.lo i1.lo <= 0 && bcmp i1.hi i2.hi <= 0 && cong_leq c1 c2
  | (Abool _ | Aint _), _ -> false

(* ------------------------- concretisation -------------------------- *)

let mem_int x = function
  | Bot -> false
  | Top -> true
  | Abool _ -> false
  | Aint (i, c) ->
    bcmp (Fin x) i.lo >= 0 && bcmp (Fin x) i.hi <= 0 && cong_mem x c

let mem_bool b = function
  | Bot -> false
  | Top -> true
  | Aint _ -> false
  | Abool Bmaybe -> true
  | Abool Btrue -> b
  | Abool Bfalse -> not b

let const_int = function
  | Aint (_, c) when B.is_zero c.m -> Some c.r
  | _ -> None

let itv_of = function Aint (i, _) -> Some i | _ -> None

(* ---------------------------- arithmetic --------------------------- *)

let lift2 f a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Aint (i1, c1), Aint (i2, c2) -> f (i1, c1) (i2, c2)
  | _ -> Top

let add =
  lift2 (fun (i1, c1) (i2, c2) ->
      mk_int { lo = badd i1.lo i2.lo; hi = badd i1.hi i2.hi } (cong_add c1 c2))

let neg_ = function
  | Bot -> Bot
  | Aint (i, c) -> mk_int { lo = bneg i.hi; hi = bneg i.lo } (cong_neg c)
  | _ -> Top

let sub a b =
  lift2
    (fun (i1, c1) (i2, c2) ->
      mk_int { lo = badd i1.lo (bneg i2.hi); hi = badd i1.hi (bneg i2.lo) } (cong_sub c1 c2))
    a b

let mul =
  lift2 (fun (i1, c1) (i2, c2) ->
      let cs = [ bmul i1.lo i2.lo; bmul i1.lo i2.hi; bmul i1.hi i2.lo; bmul i1.hi i2.hi ] in
      let lo = List.fold_left bmin PosInf cs and hi = List.fold_left bmax NegInf cs in
      mk_int { lo; hi } (cong_mul c1 c2))

(* Euclidean division; precise corners only for strictly positive
   divisors (remainder in [0, d) means the quotient is floor(a/d)). *)
let bediv a d =
  (* d : B.t, d > 0 *)
  match a with NegInf -> NegInf | PosInf -> PosInf | Fin x -> Fin (B.fdiv x d)

let ediv =
  lift2 (fun (i1, _) (i2, _) ->
      match (i2.lo, i2.hi) with
      | Fin l, _ when B.sign l > 0 ->
        let corner a d = match d with
          | Fin dv -> bediv a dv
          | PosInf -> (
            (* limit of floor(a/d) as d → ∞ *)
            match a with
            | NegInf -> Fin B.minus_one
            | PosInf -> Fin B.zero
            | Fin x -> if B.sign x >= 0 then Fin B.zero else Fin B.minus_one)
          | NegInf -> assert false
        in
        let cs =
          [ corner i1.lo i2.lo; corner i1.lo i2.hi; corner i1.hi i2.lo; corner i1.hi i2.hi ]
        in
        let lo = List.fold_left bmin PosInf cs and hi = List.fold_left bmax NegInf cs in
        mk_int { lo; hi } cong_top
      | _ -> top_int)

let emod =
  lift2 (fun (i1, c1) (i2, _) ->
      match (i2.lo, i2.hi) with
      | Fin l, Fin h when B.equal l h && B.sign l > 0 ->
        let m = l in
        (* x already within [0, m): identity. *)
        if bcmp i1.lo (Fin B.zero) >= 0 && bcmp i1.hi (Fin (B.sub m B.one)) <= 0 then
          mk_int i1 c1
        else
          (* x ≡ r (mod c1.m) with m | c1.m pins the remainder exactly. *)
          let c =
            if (not (cong_is_top c1)) && B.sign c1.m > 0 && B.is_zero (B.fmod c1.m m)
            then cong_const (B.fmod c1.r m)
            else if B.is_zero c1.m then cong_const (B.fmod c1.r m)
            else cong_top
          in
          mk_int { lo = Fin B.zero; hi = Fin (B.sub m B.one) } c
      | Fin l, hi when B.sign l > 0 ->
        let hi' = match hi with Fin h -> Fin (B.sub h B.one) | b -> b in
        mk_int { lo = Fin B.zero; hi = hi' } cong_top
      | _ -> top_int)

(* Bit operations, only informative over non-negative operands. *)
let nonneg i = bcmp i.lo (Fin B.zero) >= 0

let next_pow2_minus1 = function
  | PosInf | NegInf -> PosInf
  | Fin x ->
    let rec go p = if B.compare p x > 0 then p else go (B.shift_left p 1) in
    Fin (B.sub (go B.one) B.one)

let bit_and =
  lift2 (fun (i1, _) (i2, _) ->
      if nonneg i1 && nonneg i2 then
        mk_int { lo = Fin B.zero; hi = bmin i1.hi i2.hi } cong_top
      else top_int)

let bit_or =
  lift2 (fun (i1, _) (i2, _) ->
      if nonneg i1 && nonneg i2 then
        (* Each operand < 2^k bounds the result below 2^k. *)
        let cap = bmax (next_pow2_minus1 i1.hi) (next_pow2_minus1 i2.hi) in
        mk_int { lo = Fin B.zero; hi = cap } cong_top
      else top_int)

let bit_xor = bit_or

let shl a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Aint (i1, c1), Aint (_, c2) when B.is_zero c2.m && B.sign c2.r >= 0 -> (
    match B.to_int_opt c2.r with
    | Some s when s <= 256 ->
      let f = B.pow B.two s in
      mul (Aint (i1, c1)) (of_bigint f)
    | _ -> if nonneg i1 then mk_int { lo = Fin B.zero; hi = PosInf } cong_top else top_int)
  | Aint (i1, _), Aint (i2, _) when nonneg i1 && nonneg i2 ->
    mk_int { lo = Fin B.zero; hi = PosInf } cong_top
  | _ -> Top

let shr a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Aint (i1, _), Aint (i2, _) when nonneg i1 && nonneg i2 ->
    mk_int { lo = Fin B.zero; hi = i1.hi } cong_top
  | _ -> Top

(* --------------------------- comparisons --------------------------- *)

let le3 a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bmaybe (* vacuous; caller handles Bot *)
  | Aint (i1, _), Aint (i2, _) ->
    if bcmp i1.hi i2.lo <= 0 then Btrue
    else if bcmp i1.lo i2.hi > 0 then Bfalse
    else Bmaybe
  | _ -> Bmaybe

let lt3 a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bmaybe
  | Aint (i1, _), Aint (i2, _) ->
    if bcmp i1.hi i2.lo < 0 then Btrue
    else if bcmp i1.lo i2.hi >= 0 then Bfalse
    else Bmaybe
  | _ -> Bmaybe

let eq3 a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bmaybe
  | Aint (i1, c1), Aint (i2, c2) -> (
    match (const_int a, const_int b) with
    | Some x, Some y -> if B.equal x y then Btrue else Bfalse
    | _ ->
      if bcmp i1.hi i2.lo < 0 || bcmp i2.hi i1.lo < 0 then Bfalse
      else if cong_meet c1 c2 = None then Bfalse
      else Bmaybe)
  | Abool x, Abool y ->
    if x <> Bmaybe && x = y then Btrue
    else if (x = Btrue && y = Bfalse) || (x = Bfalse && y = Btrue) then Bfalse
    else Bmaybe
  | _ -> Bmaybe

(* ------------------------- boolean algebra ------------------------- *)

let not3 = function Btrue -> Bfalse | Bfalse -> Btrue | Bmaybe -> Bmaybe

let and3 a b =
  match (a, b) with
  | Bfalse, _ | _, Bfalse -> Bfalse
  | Btrue, Btrue -> Btrue
  | _ -> Bmaybe

let or3 a b =
  match (a, b) with
  | Btrue, _ | _, Btrue -> Btrue
  | Bfalse, Bfalse -> Bfalse
  | _ -> Bmaybe

let implies3 a b = or3 (not3 a) b

let iff3 a b =
  match (a, b) with
  | Bmaybe, _ | _, Bmaybe -> Bmaybe
  | x, y -> if x = y then Btrue else Bfalse

let truth = function Abool b -> b | _ -> Bmaybe

(* ---------------------------- refinement --------------------------- *)

let bound_neg = bneg
let bound_cmp = bcmp

let clamp_le v b = meet v (mk_int { lo = NegInf; hi = b } cong_top)
let clamp_ge v b = meet v (mk_int { lo = b; hi = PosInf } cong_top)

(* ------------------------------ misc ------------------------------- *)

let bound_to_string = function
  | NegInf -> "-inf"
  | PosInf -> "+inf"
  | Fin x -> B.to_string x

let to_string = function
  | Bot -> "bot"
  | Top -> "top"
  | Abool Btrue -> "true"
  | Abool Bfalse -> "false"
  | Abool Bmaybe -> "bool?"
  | Aint (i, c) ->
    let base = Printf.sprintf "[%s, %s]" (bound_to_string i.lo) (bound_to_string i.hi) in
    if B.is_zero c.m || cong_is_top c then base
    else Printf.sprintf "%s =%s (mod %s)" base (B.to_string c.r) (B.to_string c.m)
