(** Congruence closure for equality + uninterpreted functions, with
    explanations.

    The ground solver keeps one instance for a whole solve and rebuilds its
    classes at every final check: {!reset} clears the round's classes and
    assertions but keeps the node table, so a term keeps its node id for
    the life of the instance, and the next round activates the nodes again
    and re-asserts the equalities/disequalities of the current boolean
    model (each tagged with an integer [reason], typically the index of
    the asserting atom) before {!check}.  Replaying a round's calls in
    their order after a reset gives exactly the state a fresh instance
    reaches on the same calls (same node ids, signature-table probes,
    unions, proof forest and explanations), because registration does not
    depend on the asserted values and nothing but {!node} creates nodes.
    A caller whose calls only grow from round to round can therefore
    record, per call, the {!size} reached and replay it with {!activate}.

    Conflicts come back as the set of reasons involved — exactly what the
    SAT solver needs for a blocking clause (Nieuwenhuis–Oliveras
    proof-forest explanations keep that set small).

    Terms that are not function applications (arithmetic composites,
    literals) are treated as opaque leaves; two distinct integer or
    bit-vector literals in one class are a conflict. *)

type t
(** A congruence-closure instance: a node table over registered terms,
    plus the round's union-find and proof forest for explanations. *)

val create : unit -> t
(** A fresh instance with no terms and no assertions. *)

val reset : t -> unit
(** Starts a new round: drops every class, assertion and pending
    congruence and deactivates every node; the node table stays. *)

val node : t -> Term.t -> int
(** Registers a term (and its application subterms) and returns its node
    id; ids count up from 0 in registration order.  A term registered
    before the last {!reset} keeps its id and is activated together with
    every node below it. *)

val size : t -> int
(** Number of nodes in the table (active or not). *)

val activate : t -> int -> unit
(** [activate t n] brings every node below [n] into the round, in id order,
    as registering their terms again would. *)

val merge : t -> int -> int -> reason:int -> unit
(** Asserts the equality of two active nodes.  Congruence consequences
    propagate eagerly. *)

val assert_diseq : t -> int -> int -> reason:int -> unit
(** Asserts the disequality of two active nodes, to be checked by
    {!check}. *)

val check : t -> (unit, int list) result
(** [Error reasons] when some asserted disequality (or literal
    distinctness) is violated; [reasons] are the tags of the input
    equalities/disequalities responsible. *)

val are_equal : t -> Term.t -> Term.t -> bool
(** Whether two terms are currently in the same class (terms not active
    this round are equal only to themselves). *)

val explain : t -> Term.t -> Term.t -> int list
(** Reasons implying the equality of two active terms currently in the
    same class.  Undefined behaviour if they are not equal; [Invalid_argument]
    if either is not active. *)

val iter_classes : t -> (int list -> unit) -> unit
(** Iterates over the round's equivalence classes, each as the list of its
    active node ids ({!term} maps one back to its term); used for
    cross-theory equality propagation. *)

val term : t -> int -> Term.t
(** The term registered as a node. *)

val class_id : t -> Term.t -> int option
(** Canonical class id of an active term ([None] otherwise); registers
    nothing. *)

val class_members : t -> Term.t -> Term.t list
(** All active terms equal to the given term ([[t]] itself when the term
    is not active).  Used for E-matching modulo congruence. *)
