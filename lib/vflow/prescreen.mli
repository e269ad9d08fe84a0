(** VC-level prescreen: abstract interpretation over SMT terms.

    Given a VC's hypotheses and goal, builds an abstract environment by
    propagating interval/congruence/boolean constraints from the
    hypotheses (ignoring quantified axioms — sound: dropping hypotheses
    only makes proving harder), then evaluates the goal:

    - [Proved]: the goal is definitely true in {e every} model of the
      hypotheses (or the hypotheses are contradictory — an infeasible
      path).  Since the abstract semantics over-approximates, this
      implies SMT validity; the crosscheck in [smoke.exe analyze]
      re-proves every such verdict with the solver.
    - [Refuted]: the goal is definitely false in every model — advisory
      only, the driver still runs the solver (the hypotheses might be
      unsatisfiable in a way the domains cannot see).
    - [Unknown]: fall through to SMT, carrying {!result.facts} as extra
      ground hypotheses and {!result.drop} as prunable vacuous
      hypotheses.

    Verdicts are deterministic: they depend only on term structure,
    never on hash-cons ids, and derived facts are emitted in sorted
    rendering order. *)

type verdict = Proved | Refuted | Unknown

type result = {
  verdict : verdict;
  vacuous : bool;  (** the hypotheses themselves are contradictory *)
  facts : Smt.Term.t list;
      (** derived ground facts (variable ranges, decided booleans) not
          syntactically present among the hypotheses; sorted, capped *)
  drop : Smt.Term.t list;
      (** hypotheses of the form [path ==> _] whose path is abstractly
          false — dropping them from the query is sound and shrinks it *)
  passes : int;  (** propagation passes until fixpoint (or cap) *)
}

val check : hyps:Smt.Term.t list -> goal:Smt.Term.t -> unit -> result
(** Runs at most 6 passes; each pass re-propagates every hypothesis, so
    the abstract environment is a post-fixpoint when the pass count comes
    in under the cap. *)

val verdict_string : verdict -> string
