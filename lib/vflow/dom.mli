(** Abstract domains for the Vflow prescreen analysis.

    One abstract value combines three reduced components:
    - an {e interval} [lo, hi] over mathematical integers with infinite
      end-points,
    - a {e congruence} "value ≡ r (mod m)" (m = 0 encodes the exact
      constant r, m = 1 is the top congruence; parity is m = 2), and
    - a three-valued {e boolean} for Bool-sorted terms.

    All operations are sound over-approximations of the concrete
    operation: if [x ∈ γ(a)] and [y ∈ γ(b)] then [x op y ∈ γ(op a b)].
    Comparisons return a {!bool3}: [Btrue]/[Bfalse] only when the
    relation holds/fails for {e every} pair of concretisations. *)

module B = Vbase.Bigint

type bound = NegInf | Fin of B.t | PosInf

type itv = { lo : bound; hi : bound }

type cong = { m : B.t; r : B.t }
(** [m = 0]: exactly the constant [r].  [m = 1]: no information.
    [m > 1]: value ≡ r (mod m) with 0 ≤ r < m. *)

type bool3 = Bfalse | Btrue | Bmaybe

type t =
  | Bot  (** no concretisation: unreachable / contradictory *)
  | Abool of bool3
  | Aint of itv * cong
  | Top  (** value of a sort the domains do not track *)

(* ----------------------------- building ---------------------------- *)

val top_int : t
(** Any mathematical integer. *)

val of_bigint : B.t -> t
val of_int : int -> t
val of_bool : bool -> t

val range : bound -> bound -> t
(** Interval with top congruence; [Bot] when empty. *)

val range_i : int -> int -> t

val mk_int : itv -> cong -> t
(** Normalising constructor: reduces interval against congruence,
    collapses singletons to constants, detects emptiness. *)

(* ----------------------------- lattice ----------------------------- *)

val is_bot : t -> bool
val join : t -> t -> t
val meet : t -> t -> t

val widen : t -> t -> t
(** [widen old new]: unstable interval bounds jump to ±∞; the
    congruence component uses its join (modulus chains are finite, so
    this still terminates). *)

val leq : t -> t -> bool
(** Partial order of the abstract lattice ([γ a ⊆ γ b]). *)

(* ------------------------- concretisation -------------------------- *)

val mem_int : B.t -> t -> bool
(** Is the concrete integer a member of the concretisation? *)

val mem_bool : bool -> t -> bool

val const_int : t -> B.t option
(** [Some c] when the value is exactly the integer constant [c]. *)

val itv_of : t -> itv option
(** The interval component of an [Aint]. *)

(* ---------------------------- arithmetic --------------------------- *)

val add : t -> t -> t
val sub : t -> t -> t
val neg_ : t -> t
val mul : t -> t -> t

val ediv : t -> t -> t
(** Euclidean division (matches [Smt.Term.Idiv] and VIR [Div]); precise
    only for strictly positive divisors, top otherwise. *)

val emod : t -> t -> t
(** Euclidean remainder, in [0, |divisor|). *)

val bit_and : t -> t -> t
val bit_or : t -> t -> t
val bit_xor : t -> t -> t
val shl : t -> t -> t
val shr : t -> t -> t

(* --------------------------- comparisons --------------------------- *)

val le3 : t -> t -> bool3
val lt3 : t -> t -> bool3
val eq3 : t -> t -> bool3
(** [eq3] consults both interval disjointness and congruence
    incompatibility for definite inequality. *)

(* ------------------------- boolean algebra ------------------------- *)

val not3 : bool3 -> bool3
val and3 : bool3 -> bool3 -> bool3
val or3 : bool3 -> bool3 -> bool3
val implies3 : bool3 -> bool3 -> bool3
val iff3 : bool3 -> bool3 -> bool3

val truth : t -> bool3
(** The boolean component of a value ([Bmaybe] for non-booleans,
    [Bfalse]-and-[Btrue]-impossible [Bot] maps to... [Bot] has no
    concretisation; callers should test {!is_bot} first — [truth Bot]
    is [Bmaybe] to stay sound by default). *)

(* ---------------------------- refinement --------------------------- *)

val clamp_le : t -> bound -> t
(** [clamp_le v b]: meet with the interval (-∞, b]. *)

val clamp_ge : t -> bound -> t

val bound_add : bound -> B.t -> bound
(** Shift a finite bound by a constant (infinities absorb). *)

val bound_neg : bound -> bound

val bound_cmp : bound -> bound -> int
(** Total order with [NegInf] least and [PosInf] greatest. *)

(* ------------------------------ misc ------------------------------- *)

val to_string : t -> string
(** Compact rendering for diagnostics, e.g. ["[0, 255] ≡ 1 (mod 2)"]. *)
