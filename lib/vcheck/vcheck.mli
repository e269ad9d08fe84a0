(** The independent proof-certificate checker.

    This library is the replay kernel of the certification pipeline: the
    solver stack ([Smt.Cert]) emits a certificate with every [Unsat]
    verdict, and this module re-derives the contradiction from nothing but
    the certificate's own JSON — it deliberately does not link against the
    solver (its dune [libraries] stanza names [vbase] only), so a bug in
    the CDCL core, the congruence closure or the simplex cannot also hide
    in the checker that vouches for it.

    What is replayed, per step kind of a ["kind": "smt"] certificate:
    - input steps (Tseitin, quantifier instances, bit-blasting) are
      axioms of the propositional abstraction — trusted by construction;
    - resolution/strengthening steps are checked by {e restricted RUP}:
      assuming the negation of the derived clause, unit propagation
      confined to the step's listed antecedents must reach a conflict;
    - EUF steps re-run congruence closure over the certificate's term
      graph from the step's assumption literals and must reach a violated
      disequality or merge two distinct interpreted constants;
    - Farkas steps re-sum the cited bound views with their multipliers
      and must cancel every variable and leave a negative constant;
    - trichotomy steps ([a = b \/ a < b \/ b < a]) match the equality's
      exact bound pair against the negated strict inequalities;
    - trusted steps (branch-and-bound unions, gcd elimination, modes that
      bypass the ground solver) are counted but taken on faith.

    The residual trusted computing base is documented in DESIGN.md: this
    kernel, the JSON parser, bignum arithmetic, and the certificate's
    atom table (the map from SAT literals to theory meanings). *)

(** Replay counts per step kind; the profile of where the proof's weight
    sits, and how much of it was replayed vs. trusted. *)
type stats = {
  inputs : int;  (** input clauses (Tseitin / instances / bit-blasting) *)
  rup : int;  (** resolution steps checked by restricted RUP *)
  euf : int;  (** congruence-closure replays *)
  farkas : int;  (** Farkas-combination checks *)
  trichotomy : int;  (** integer trichotomy lemma checks *)
  trusted : int;  (** steps taken on faith (tagged by the emitter) *)
}

(** Outcome of a replay.  Every rejection carries a stable [CK0xx] code
    (see {!val:check}) and a human-readable reason naming the offending
    step. *)
type verdict = Checked of stats | Rejected of { code : string; reason : string }

val schema_version : string
(** The certificate schema this kernel replays ([verus-cert/1]).  Kept as
    an independent literal — the checker must not import the emitter's
    constant — and cross-checked for equality by the test suite. *)

val check : Vbase.Json.t -> verdict
(** Replay a certificate.  Rejection codes:
    - [CK001] — malformed certificate (bad JSON shape, dangling ids,
      forward antecedent references, unknown schema/kind/tag);
    - [CK002] — restricted unit propagation failed to derive a conflict;
    - [CK003] — a step's clause does not cover the negated assumptions of
      its theory justification;
    - [CK004] — congruence-closure replay reached no contradiction;
    - [CK005] — Farkas combination does not cancel, has a non-positive
      multiplier, or leaves a non-negative bound;
    - [CK006] — trichotomy views do not form an exact [(f, d) / (-f, -d)]
      bound pair;
    - [CK007] — missing or non-empty terminal clause;
    - [CK008] — Gröbner cofactor identity does not reproduce the target;
    - [CK009] — a cited literal lacks its atom-table meaning or view. *)

val check_string : string -> verdict
(** Parse a JSON document and {!check} it ([CK001] on parse errors). *)

