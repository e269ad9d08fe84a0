(** The per-obligation escalation ladder: the solver-side rungs above the
    {!Vflow} prescreen (rung 0).

    "Tunable Automation in Automated Program Verification" argues that
    automation strength should be a per-obligation dial, not a global
    switch.  This library is the dial: a {!Rung.t} names one solver
    configuration (trigger policy, search budgets, context-pruning level)
    relative to a framework profile, and a {!Ladder.t} is the ordered
    non-empty list of rungs an obligation climbs — each attempt that does
    not prove the goal escalates to the next, stronger rung.

    Layering: vladder sits below lib/core (which wires it into the
    driver's retry loop) and depends only on vbase and smt — it knows
    nothing of profiles, caching or scheduling.  A rung is therefore
    expressed as a {e transformation} of a profile's base
    {!Smt.Solver.config} and pruning decision, applied by the driver. *)

module Rung : sig
  (** E-matching trigger-policy override.  Only the solver-side policy is
      affected: the profile-level policy also steers curated-axiom trigger
      selection at encoding time, which happens once per program, before
      any rung runs. *)
  type triggers =
    | T_profile  (** keep the profile's solver trigger policy *)
    | T_conservative  (** force minimal trigger groups *)
    | T_liberal  (** force broad (Dafny-style) trigger selection *)

  (** Context-pruning override. *)
  type pruning =
    | P_profile  (** prune iff the profile prunes *)
    | P_prune  (** always prune to symbols reachable from the VC *)
    | P_full
        (** ship the full axiom set even under a pruning profile.  A
            ladder containing such a rung {e widens} beyond the
            profile-level context — see {!Ladder.widens} (the driver must
            fingerprint the full axiom set for cache soundness) *)

  (** Search-budget override, relative to the profile's budget. *)
  type budget_spec =
    | B_profile  (** the profile's own budget, untouched *)
    | B_scaled of { deadline : float; rounds : float; instances : float }
        (** fractions of the profile budget: [deadline] scales the
            wall-clock deadline, [rounds] the instantiation-round cap,
            [instances] every per-round/per-quantifier/conflict-style
            counter (each clamped to at least 1) *)

  type t = {
    r_name : string;  (** display name, excluded from the fingerprint *)
    r_triggers : triggers;
    r_pruning : pruning;
    r_budget : budget_spec;
  }

  val profile_rung : t
  (** The identity rung ["full"]: profile triggers, profile pruning,
      profile budget — one attempt of exactly the monolithic solve. *)

  val fingerprint : t -> string
  (** Canonical one-line [k=v;...] rendering of everything semantic about
      the rung (name excluded). *)

  val scale_budget :
    Smt.Solver.budget ->
    deadline:float ->
    rounds:float ->
    instances:float ->
    Smt.Solver.budget
  (** The [B_scaled] arithmetic: integer knobs round up and clamp to
      [>= 1], the deadline scales directly. *)

  val apply_config : t -> Smt.Solver.config -> Smt.Solver.config
  (** The rung's effective solver configuration, given the profile's
      base config (with [certify] already set by the caller). *)

  val apply_pruning : t -> bool -> bool
  (** [apply_pruning r profile_prunes] — whether this rung's context is
      pruned. *)
end

module Ladder : sig
  type t
  (** An ordered, non-empty sequence of rungs.  Attempts run in order;
      a non-[Unsat] answer below the top rung escalates (an [Unsat] at
      any rung is definitive: it was obtained from a subset of the full
      context under a sound trigger policy, so it implies the monolithic
      answer).  The top rung's answer is final, whatever it is. *)

  val make : ?name:string -> Rung.t list -> t
  (** Raises [Invalid_argument] on the empty list. *)

  val name : t -> string
  val rungs : t -> Rung.t array
  (** A fresh copy; mutation does not affect the ladder. *)

  val length : t -> int
  val rung : t -> int -> Rung.t

  val fingerprint : t -> string
  (** 128-bit content hash over the ordered rung fingerprints, salted
      with the ladder schema version — what the verification cache mixes
      into its per-VC keys so entries recorded under one ladder never
      satisfy a lookup under another. *)

  val widens : t -> bool
  (** Whether any rung ships more context than the profile would
      ([Rung.P_full]); such ladders must be fingerprinted against the
      full axiom set. *)

  val identity : t
  (** The single-rung ladder [{profile_rung}] — exactly the monolithic
      solve.  What the driver runs when no ladder is configured. *)

  val escalate : t
  (** The default 3-rung ladder: [quick] (conservative triggers, pruned
      context, quarter budgets) → [steady] (profile configuration at half
      budgets) → [full] (the untouched profile).  Its top rung equals the
      monolithic solve, so final verdicts match a ladder-free run. *)

  val deep : t
  (** 4 rungs: [quick] → [wide] (liberal triggers at profile budget — the
      rung VL010-steering skips when the axiom set has a flagged matching
      loop) → [full] → [boost] (double budgets).  The boost rung can
      prove obligations the monolithic configuration times out on, so
      verdicts may {e improve} over a ladder-free run. *)

  val cautious : t
  (** 2 rungs: [narrow] (conservative triggers, pruned context, profile
      budget) → [full]. *)

  val builtins : (string * t) list
  (** The named ladders the CLI's [--ladder] flag and the daemon's
      [ladder] param accept: [escalate], [deep], [cautious]. *)

  val by_name : string -> t option

  val pin : t -> int -> (t, string) result
  (** [pin l n] — the single-rung ladder holding only rung [n] of [l]
      (the CLI's [--rung n]); [Error] when [n] is out of bounds. *)
end

val bench_schema : string
(** ["verus-ladder-bench/1"], the schema tag of [BENCH_ladder.json]. *)

val validate_ladder_bench : Vbase.Json.t -> (unit, string) result
(** Structural validation of the ladder ablation document the bench
    harness emits; the harness self-validates before writing.  Beyond
    shape, it pins the claims: every row's three arms (monolithic, cold
    ladder, warm profile-guided) agree on the result digest, warm runs
    waste zero lower-rung attempts, and at least one row's warm run is
    faster than its monolithic one. *)
