(** The SMT solver: a lazy CDCL(T) loop combining the CDCL SAT core with
    congruence closure, linear integer arithmetic, eager bit-blasting for
    bit-vector atoms, and E-matching quantifier instantiation.

    Architecture (per ground-solve round):
    - assertions are purified (ground composite arguments of uninterpreted
      functions get proxy constants; integer div/mod by literals and
      integer-sorted if-then-else are compiled away), put in negation normal
      form with polarity-driven skolemization, and Tseitin-encoded;
    - the SAT core enumerates boolean models; EUF and LIA validate each
      model and contribute blocking clauses (with proof-forest / Farkas
      explanations) on conflict;
    - theories are combined model-style: equalities implied by congruence
      or shared by the arithmetic model become lemmas over fresh equality
      atoms;
    - remaining universal quantifiers instantiate by E-matching under the
      configured trigger policy.

    Answers: [Unsat] is definitive (this is what "verified" means
    downstream).  [Sat] is definitive only for quantifier-free problems;
    problems whose candidate model still involves uninstantiated quantifiers
    report [Unknown]. *)

(** Every search budget of the verification stack, in one record.  The
    driver, the EPR decision procedure, the §3.3 custom modes and every
    escalation-ladder rung consume this same record — there is exactly one
    place a budget knob can live. *)
type budget = {
  deadline_s : float;  (** wall-clock budget per solve (timeout -> Unknown) *)
  max_rounds : int;  (** instantiation rounds before giving up *)
  max_instances_per_round : int;  (** instantiation cap per round *)
  max_instances_per_quant : int;
      (** fuel-style cap per quantifier (bounds definitional unfolding
          chains, like Dafny's fuel) *)
  sat_conflict_budget : int;  (** cumulative CDCL conflict budget *)
  bb_budget : int;  (** LIA branch-and-bound node budget per check *)
  combination_pairs_per_round : int;  (** cross-theory equality guesses *)
  ring_pairs_budget : int;
      (** S-polynomial pair budget of the [integer_ring] mode's
          Gröbner-basis completion *)
}

val default_budget : budget
(** Generous defaults; the baseline the shipped profiles override. *)

val budget_fingerprint : budget -> string
(** Canonical one-line [k=v;...] rendering of every budget field, included
    in the verification cache's fingerprints: an answer recorded under one
    budget never satisfies a lookup under another (a looser budget might
    succeed where the recorded solve gave up, and vice versa). *)

(** The trigger policy plus the search budgets; each framework profile
    carries its own copy. *)
type config = {
  trigger_policy : Triggers.policy;
      (** how triggers are inferred for quantifiers that lack them *)
  budget : budget;  (** all search budgets (see {!budget}) *)
  certify : bool;
      (** record a replayable proof certificate for [Unsat] answers (see
          {!Cert}); off by default — emission threads clause-derivation
          logging through the SAT core and Farkas capture through the LIA
          core, and costs nothing when off *)
}

val default_config : config
(** Conservative triggers and {!default_budget}. *)

(** Verdict of one solve. *)
type answer =
  | Unsat  (** definitive — downstream this means "proved" *)
  | Sat  (** definitive only for quantifier-free problems *)
  | Unknown of string  (** reason: budget, quantifiers, ... *)

(** Coarse per-solve totals (the paper's table columns).  For attribution —
    {e which} quantifier produced the instances, how theory time splits
    between congruence, arithmetic and combination — see the
    {!type:result.profile} field. *)
type stats = {
  rounds : int;  (** CDCL(T) major rounds (SAT solve + final check) *)
  instances : int;  (** quantifier instantiations asserted *)
  matches_tried : int;  (** pattern-match attempts inside E-matching *)
  conflicts : int;  (** CDCL conflicts *)
  decisions : int;  (** CDCL decisions *)
  query_bytes : int;  (** printed size of everything sent to the core *)
  time_s : float;  (** wall-clock for the whole solve *)
  t_sat : float;  (** time in CDCL search *)
  t_theory : float;  (** time in EUF/LIA final checks *)
  t_ematch : float;  (** time in quantifier instantiation *)
}

(** Everything a solve returns. *)
type result = {
  answer : answer;  (** the verdict *)
  stats : stats;  (** coarse totals (see {!stats}) *)
  model : (string * string) list;
      (** best-effort assignment of boolean constants when [Sat] *)
  profile : Profile.t;
      (** per-quantifier instantiation attribution and fine-grained phase
          times (EUF vs LIA vs combination inside [t_theory]); always
          collected — the counters ride state the solver maintains
          anyway *)
  cert : Cert.t option;
      (** proof certificate, present iff [answer = Unsat] and the solve ran
          with [config.certify = true]; replayable by the independent
          [Vcheck] kernel *)
}

val solve : ?config:config -> Term.t list -> result
(** Satisfiability of the conjunction of the assertions. *)

val check_valid : ?config:config -> ?hyps:Term.t list -> Term.t -> result
(** [check_valid ~hyps goal] checks that [hyps] entail [goal] by refuting
    [hyps /\ not goal]; [Unsat] means valid (proved). *)

val dump_debug : unit -> unit
(** With [SMT_DEBUG] set, prints cumulative theory-phase timings to
    stderr (development aid). *)
