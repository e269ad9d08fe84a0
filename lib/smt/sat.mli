(** CDCL SAT solver.

    Standard conflict-driven clause learning with two-watched-literal
    propagation, first-UIP learning, VSIDS decision ordering and Luby
    restarts.  Used incrementally by the ground SMT loop: the theory layer
    adds blocking clauses between [solve] calls.

    Literals are ints: [2*v] is the positive literal of var [v], [2*v+1] the
    negative one. *)

type t
(** A solver instance: clause database, watch lists, trail and heuristics. *)

type result = Sat | Unsat  (** Verdict of {!solve} on the current clause set. *)

val create : unit -> t
(** A fresh solver with no variables and no clauses. *)

val new_var : t -> int
(** Allocates a fresh variable, returns its index. *)

val pos : int -> int
(** Positive literal of a variable. *)

val neg : int -> int
(** Negative literal of a variable. *)

val lit_var : int -> int
(** The variable a literal belongs to. *)

val lit_negate : int -> int
(** The opposite literal. *)

val add_clause : t -> int list -> unit
(** Adds a clause.  Safe to call between [solve] calls; the solver
    backtracks as needed.  An empty (or falsified-at-level-0) clause makes
    the instance permanently unsat. *)

val solve : ?limit_conflicts:int -> t -> result
(** Solves the current clause set.  [limit_conflicts] bounds the search
    (raises [Budget_exceeded] past it). *)

exception Budget_exceeded
(** Raised by {!solve} when the conflict budget given via
    [limit_conflicts] is exhausted before a verdict is reached. *)

val value : t -> int -> bool
(** Model value of a variable; only meaningful right after [solve] returned
    [Sat]. *)

(** {2 Clause-derivation logging}

    With proof logging enabled (before any variable or clause exists), the
    solver records a DRAT-style derivation log: every input clause as
    given, a derived step whenever level-0 simplification strengthened a
    stored clause, and every learned clause with the resolution antecedents
    collected during 1UIP analysis.  Each non-input step is checkable by
    unit propagation restricted to its listed antecedents (restricted RUP);
    once the instance is unsat, {!empty_step} points at the derivation of
    the empty clause.  All hooks are no-ops (and cost nothing) when logging
    is off. *)

type proof_step = {
  ps_lits : int array;  (** the clause *)
  ps_ante : int array;  (** antecedent step ids; empty for input steps *)
  ps_tag : int;  (** encoder phase for input steps (see {!set_input_tag}) *)
}

val enable_proof : t -> unit
(** Turns on logging.  Raises [Invalid_argument] if the solver already has
    variables or clauses. *)

val set_input_tag : t -> int -> unit
(** Tag recorded on subsequent input steps; the SMT layer uses it to
    classify trusted encoding clauses (Tseitin vs. instantiation vs.
    bit-blasting). *)

val proof_steps : t -> proof_step array
(** The derivation log so far ([[||]] when logging is off). *)

val last_input_step : t -> int
(** Step id of the clause passed to the most recent {!add_clause}, or -1
    if that clause was dropped as a tautology (or logging is off).  Lets
    the caller attach a theory justification to the clause it just
    added. *)

val empty_step : t -> int
(** Step id deriving the empty clause, or -1 while the instance is not
    known unsat. *)

val stats_conflicts : t -> int
(** Total conflicts encountered over the solver's lifetime. *)

val stats_decisions : t -> int
(** Total branching decisions made over the solver's lifetime. *)
