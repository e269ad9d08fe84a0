(* The interface {!Bigint} and its limb reference {!Bigint.Limbs} share. *)

(** The operations of an integer representation. *)
module type S = sig
  type t

  val zero : t
  val one : t
  val minus_one : t
  val two : t
  val of_int : int -> t

  (** [to_int_opt n] is [Some i] when [n] fits in a native [int]. *)
  val to_int_opt : t -> int option

  (** [to_int_exn n] raises [Failure] when [n] does not fit in a native
      [int]. *)
  val to_int_exn : t -> int

  val of_string : string -> t
  val to_string : t -> string
  val neg : t -> t
  val abs : t -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  (** Truncated division (rounds toward zero), like OCaml's [/] and [mod]:
      [div_rem a b = (q, r)] with [a = q*b + r] and [sign r = sign a].
      Raises [Division_by_zero]. *)
  val div_rem : t -> t -> t * t

  (** Euclidean division: remainder is always in [0, |b|). *)
  val ediv_rem : t -> t -> t * t

  (** Floor division: [fdiv a b] rounds toward negative infinity. *)
  val fdiv : t -> t -> t

  (** Floor modulus: [fmod a b] has the sign of [b] (matches SMT-LIB [mod]
      for positive [b]). *)
  val fmod : t -> t -> t

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val sign : t -> int
  val is_zero : t -> bool
  val min : t -> t -> t
  val max : t -> t -> t

  (** Greatest common divisor; always non-negative. *)
  val gcd : t -> t -> t

  (** [pow b e] for [e >= 0]; raises [Invalid_argument] on negative [e]. *)
  val pow : t -> int -> t

  (** [shift_left n k] is [n * 2^k]. *)
  val shift_left : t -> int -> t

  (** [logand2p n k] is [n land (2^k - 1)] for non-negative [n]. *)
  val logand2p : t -> int -> t

  (** [testbit n k] is bit [k] of non-negative [n]. *)
  val testbit : t -> int -> bool

  (** Equal to [Hashtbl.hash (sign, limbs)] of the limb form, whichever
      representation holds the value. *)
  val hash : t -> int

  val pp : Format.formatter -> t -> unit
end
