(** Hash-consed SMT terms.

    The whole pipeline — VC generation, E-matching, theory solvers, query
    printing — shares this representation.  Terms are maximally shared
    (physical equality coincides with structural equality), which makes the
    term-size statistics the benchmarks report meaningful and keeps
    substitution cheap.

    Construction is thread-safe: a single mutex guards the hash-cons tables
    so that the 8-core verification runs of Figure 9 can build terms from
    multiple domains. *)

type sym = private {
  sid : int;  (** unique id *)
  sname : string;
  sargs : Sort.t list;
  sret : Sort.t;
}

type bvop =
  | Band
  | Bor
  | Bxor
  | Bnot
  | Badd
  | Bsub
  | Bmul
  | Bneg
  | Bshl  (** shift left by constant amount (second arg must be a literal) *)
  | Blshr  (** logical shift right by constant amount *)
  | Bule
  | Bult
  | Bconcat
  | Bextract of int * int  (** [Bextract (hi, lo)], inclusive bounds *)

type t = private { tid : int; node : node; sort : Sort.t }

and node =
  | True
  | False
  | Int_lit of Vbase.Bigint.t
  | Bv_lit of { width : int; value : Vbase.Bigint.t }
  | Bvar of string * Sort.t  (** bound variable (occurs under a quantifier) *)
  | App of sym * t list  (** constants are 0-ary applications *)
  | Eq of t * t
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Ite of t * t * t
  | Add of t list
  | Sub of t * t
  | Mul of t * t
  | Neg of t
  | Le of t * t
  | Lt of t * t
  | Idiv of t * t  (** Euclidean integer division *)
  | Imod of t * t  (** Euclidean remainder, in [0, |divisor|) *)
  | Bv_op of bvop * t list
  | Forall of quant
  | Exists of quant

and quant = { qvars : (string * Sort.t) list; triggers : t list list; body : t }

(** {2 Symbols} *)

module Sym : sig
  val declare : string -> Sort.t list -> Sort.t -> sym
  (** Declares (or retrieves) the symbol with this name; raises
      [Invalid_argument] if redeclared at a different signature. *)

  val fresh : string -> Sort.t list -> Sort.t -> sym
  (** A brand-new symbol whose name starts with the given prefix. *)

  val equal : sym -> sym -> bool
  (** Symbol identity (by unique id). *)

  val hash : sym -> int
  (** Hash consistent with {!equal}. *)
end

(** {2 Constructors}

    All constructors perform light simplification (constant folding,
    flattening of [and]/[or]/[+], double-negation elimination) and check
    argument sorts, raising [Invalid_argument] on ill-sorted input. *)

val tru : t
val fls : t
val bool_lit : bool -> t
val int_lit : Vbase.Bigint.t -> t
val int_of : int -> t
val bv_lit : width:int -> Vbase.Bigint.t -> t
val bvar : string -> Sort.t -> t
val const : sym -> t
val app : sym -> t list -> t
val eq : t -> t -> t
val neq : t -> t -> t
val distinct : t list -> t
val not_ : t -> t
val and_ : t list -> t
val or_ : t list -> t
val implies : t -> t -> t
val iff : t -> t -> t
val ite : t -> t -> t -> t
val add : t list -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val le : t -> t -> t
val lt : t -> t -> t
val ge : t -> t -> t
val gt : t -> t -> t
val idiv : t -> t -> t
val imod : t -> t -> t
val bv_op : bvop -> t list -> t

val forall : ?triggers:t list list -> (string * Sort.t) list -> t -> t
(** Empty [vars] collapses to the body. *)

val exists : ?triggers:t list list -> (string * Sort.t) list -> t -> t
(** Existential counterpart of {!forall}; empty [vars] collapses to the
    body. *)

(** {2 Operations} *)

val equal : t -> t -> bool
(** Term equality; physical thanks to hash-consing, so O(1). *)

val compare : t -> t -> int
(** Total order by hash-cons id (arbitrary but stable within a run). *)

val hash : t -> int
(** Hash consistent with {!equal}; O(1).  It is the term's hash-cons id,
    unique among live terms. *)

module Id_tbl : Hashtbl.S with type key = int
(** Tables keyed by term ids ({!hash}) or other small non-negative ints,
    with monomorphic hashing and equality: what a solver round's lookups
    use. *)

val sort_of : t -> Sort.t
(** The sort a term was constructed at. *)

val subst : (string * t) list -> t -> t
(** Capture-free substitution of bound variables by name.  Binder variable
    names are assumed unique per binder (the constructors do not enforce
    this; VC generation freshens names). *)

val free_bvars : t -> (string * Sort.t) list
(** Bound variables occurring free in the term, each listed once. *)

val is_ground : t -> bool
(** No bound variable occurs free in the term. *)

val size : t -> int
(** Number of nodes counted with sharing (each distinct subterm once). *)

val tree_size : t -> int
(** Number of nodes counted as a tree (duplicates counted repeatedly);
    this is what dominates printed query size. *)

val fold_subterms : (('a -> t -> 'a) -> 'a -> t -> 'a)
(** [fold_subterms f acc t] folds over every distinct subterm of [t]
    (including [t] itself), each visited exactly once. *)

val pp : Format.formatter -> t -> unit
(** SMT-LIB-flavoured printing. *)

val to_string : t -> string
(** SMT-LIB-flavoured rendering as a string; see {!pp}. *)

val printed_size : t -> int
(** Byte count of the SMT-LIB rendering, without building the string when
    avoidable; used for the paper's "SMT (MB)" query-size statistics. *)
