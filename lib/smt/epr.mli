(** Decision procedure for EPR (effectively propositional logic), the
    fragment behind the paper's [#[epr_mode]] (§3.2).

    EPR formulas use only boolean connectives, quantifiers, equality and
    uninterpreted functions/predicates over uninterpreted sorts.  After
    polarity-driven skolemization, decidability additionally requires the
    sort dependency graph of the function symbols (including skolem
    functions) to be acyclic — the quantifier-alternation condition the
    paper inherits from Ivy.  Under that condition the Herbrand universe is
    finite, so full grounding plus the ground solver is a complete decision
    procedure: both [Unsat] and [Sat] answers are definitive. *)

type fragment
(** Assertions that passed {!check_fragment}, skolemized by
    {!Solver.nnf}. *)

val check_fragment : Term.t list -> (fragment, string) result
(** Syntactic membership: no arithmetic, no bit-vectors, only uninterpreted
    sorts under quantifiers, and an acyclic sort graph.  Skolemizes the
    assertions once and returns that form; the error string names the
    offending construct. *)

val solve : ?config:Solver.config -> fragment -> Solver.result
(** Decides satisfiability by grounding over the finite Herbrand universe.
    Reports [Unknown] only if the universe exceeds 4000 terms. *)

val check_valid : ?config:Solver.config -> ?hyps:Term.t list -> Term.t -> Solver.result
(** [check_valid ~hyps goal]: refutation of [hyps /\ not goal], decided;
    [Unknown "not in EPR: ..."] outside the fragment. *)
