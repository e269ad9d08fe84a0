(** Linear integer arithmetic, via the Dutertre–de Moura general simplex
    over exact rationals plus branch-and-bound for integrality.

    The ground solver keeps one instance for a whole solve: variables,
    slack forms and the tableau (with every basic value kept equal to its
    row at the current assignment) survive from one final check to the
    next, and each check starts with {!reset_bounds} and re-asserts the
    bounds of the current boolean model, prepared once per atom.  Opaque
    integer terms (constants, uninterpreted applications, nonlinear
    products) become solver variables; linear structure is normalized to
    integer-coefficient constraints, with strict inequalities rewritten to
    non-strict ones (all variables are integers, so [a < b] is
    [a <= b - 1]).

    Conflicts carry the set of reason tags (asserting atom indices) of the
    bounds in the infeasible row — a Farkas-style core. *)

type t
(** A simplex instance: variable map, tableau, current bounds and recorded
    equations. *)

type verdict =
  | Sat  (** feasible; query values with {!model_value} *)
  | Conflict of int list  (** reason tags of an infeasible subset *)
  | Unknown  (** branch-and-bound budget exhausted *)

val create : unit -> t
(** A fresh instance with no variables and no constraints. *)

val reset_bounds : t -> unit
(** Drop all bounds/equations but keep the variable map and tableau; used
    to reuse one solver instance across many final checks. *)

val var_of_term : t -> Term.t -> int
(** The solver variable for an opaque integer term (registering it if
    new). *)

(** A constraint reduced to one integer-tightened bound on a (possibly
    slack) variable.  Preparing is the costly part of asserting, so callers
    that re-assert the same atoms across many checks keep the result. *)
type prepared

val prepare :
  t -> (Vbase.Rat.t * int) list -> Vbase.Rat.t -> strict:bool -> is_upper:bool -> prepared
(** [prepare t coeffs c ~strict ~is_upper]: the bound for [sum coeffs <= c]
    (upper) or [>= c] (lower), strict when [strict].  Registers the slack
    variable of the constraint's canonical form. *)

val assert_prepared : t -> prepared -> reason:int -> unit
(** Asserts a previously {!prepare}d bound under the given reason tag. *)

val prepare_eq : t -> (Vbase.Rat.t * int) list -> Vbase.Rat.t -> prepared list
(** [prepare_eq t coeffs c]: the two bounds of [sum coeffs = c], then, when
    its canonical integer form has an integral right-hand side, the
    equality itself, which {!assert_prepared} records for the
    elimination-based integrality fallback. *)

val check : ?max_branch:int -> t -> verdict
(** Decides the current constraint set.  [max_branch] bounds the
    branch-and-bound tree explored for integrality; past it the verdict is
    {!Unknown}. *)

val model_value : t -> int -> Vbase.Rat.t
(** Value of a variable in the model found by the last [Sat] check. *)

val tableau_consistent : t -> bool
(** Whether every basic variable's value equals its row evaluated at the
    current values, the invariant {!check} relies on instead of
    re-evaluating the rows.  Read-only; for tests. *)

val find_var : t -> Term.t -> int option
(** Like {!var_of_term} but without registering new variables. *)

(** {2 Farkas certificates}

    With certification on, every conflict that admits one is captured as a
    non-negative combination of the asserted bounds: each row re-expresses
    one bound over term variables in [<=]-form, and the rows weighted by
    their multipliers sum to [0 <= c] with [c < 0].  Conflicts built from
    branch-and-bound unions or gcd elimination have no such witness and
    leave {!last_cert} as [None] (the emitter records a trusted step). *)

type centry = {
  ce_reason : int;  (** the asserting atom's reason tag *)
  ce_lambda : Vbase.Rat.t;  (** multiplier, strictly positive *)
  ce_coeffs : (int * Vbase.Bigint.t) list;  (** over term variables, sorted *)
  ce_bound : Vbase.Rat.t;  (** [ce_coeffs . x <= ce_bound] *)
}

val set_certify : t -> bool -> unit
(** Enable/disable conflict certificate capture (default off; capture adds
    a little allocation on the conflict path only). *)

val last_cert : t -> centry list option
(** Certificate of the most recent conflict, if it admits one.  Reset by
    {!reset_bounds}. *)

val atom_view :
  (Vbase.Rat.t * int) list ->
  Vbase.Rat.t ->
  strict:bool ->
  is_upper:bool ->
  (int * Vbase.Bigint.t) list * Vbase.Rat.t
(** The [<=]-form view ([coeffs . x <= bound], canonical integer
    coefficients) of the bound {!prepare} asserts for the same arguments;
    pure — does not register slack variables.  Used to certify trichotomy
    lemmas. *)

