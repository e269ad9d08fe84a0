(** The verification driver: assembles per-VC contexts (theory axioms,
    spec-function definitions, with or without pruning), dispatches VCs to
    the right engine (default solver, EPR decision procedure, or one of the
    §3.3 custom modes), and reports results with the timing/query-size
    statistics the paper's tables are built from.

    With [~profile:true] the driver additionally retains every solve's
    {!Smt.Profile.t} and folds them into per-function and per-program
    hot-spot tables ({!program_profile}): top quantifiers by instantiation
    count and per-axiom context-bytes attribution.  Profiling off is the
    default and costs nothing — no per-VC profile records are allocated or
    retained. *)

module Rung = Vladder.Rung
(** Re-export: the escalation-ladder rung API ({!Vladder.Rung}), so
    driver callers name rungs without a separate vladder dependency. *)

module Ladder = Vladder.Ladder
(** Re-export: the escalation-ladder API ({!Vladder.Ladder}). *)

(** Per-VC observability, retained only under [~profile:true]. *)
type vc_profile = {
  vp_smt : Smt.Profile.t;
      (** the solver-side profile of this VC's solve ({!Smt.Profile.empty}
          for §3.3 custom-mode VCs, which bypass the main solver loop) *)
  vp_axioms : int list;
      (** sorted indices into [Encode.program_axioms] of the axioms this
          VC's context included (post-pruning) — the raw material of the
          per-axiom context-bytes attribution *)
}

(** Where this obligation's verdict stands with respect to the {!Vcheck}
    certificate kernel (the [--certify] pipeline). *)
type cert_status =
  | Cert_off
      (** certification not in play for this result: the run did not ask
          for it, or the answer was not [Unsat] (nothing to certify) *)
  | Cert_checked of string
      (** fresh solve; the certificate replayed [Checked] — the payload is
          its {!Smt.Cert.digest} (also stored in the cache entry) *)
  | Cert_cached of string
      (** warm hit whose entry carries the digest of a certificate the
          filling run checked — a hit that remains a checked claim *)
  | Cert_uncertified_hit
      (** warm hit on a certify-off run whose entry has no certificate
          digest; harmless, but what lint's VL034 flags *)
  | Cert_rejected of string * string
      (** the kernel rejected the certificate ([CKxxx] code, reason) — the
          obligation is demoted to a failure ([VC003]) *)
  | Cert_unavailable of string
      (** [Unsat] under [--certify] but no certificate arrived; demoted
          like a rejection (fail safe) *)

(** Which rung of the escalation ladder produced this verdict. *)
type vc_source =
  | Src_solver  (** a fresh solver run (default SMT, EPR, or a §3.3 mode) *)
  | Src_prescreen
      (** discharged by the {!Vflow} abstract-interpretation prescreen
          (rung 0) — no solver query was built, [vcr_bytes = 0].  Only
          possible under [Config.analyze] and never under [certify]
          (the prescreen emits no replayable certificate, so certified
          runs demote it to an ordinary SMT solve) *)
  | Src_cache  (** a warm {!Vcache} hit replaying a previous solve *)

(** Outcome of one proof obligation. *)
type vc_result = {
  vcr_name : string;  (** obligation name, e.g. ["push: ensures view"] *)
  vcr_answer : Smt.Solver.answer;  (** [Unsat] means proved *)
  vcr_time_s : float;  (** wall-clock for this obligation *)
  vcr_bytes : int;  (** context + goal printed size *)
  vcr_detail : string;  (** mode-specific info (instances, phase times) *)
  vcr_prof : vc_profile option;  (** [Some] iff profiling was requested *)
  vcr_cert : cert_status;
  vcr_source : vc_source;
      (** provenance only — excluded from {!result_digest}, so cold and
          warm runs (and prescreened vs. plain ones that agree) digest
          equally *)
  vcr_rung : int option;
      (** the escalation-ladder rung that produced the answer; [Some] iff
          the run had an explicit [Config.ladder] (a cache hit replays the
          filling run's winning rung).  Provenance only — excluded from
          {!result_digest} like [vcr_source] *)
  vcr_rungs_tried : int list;
      (** the rung indices attempted for this obligation, in order ([[]]
          for implicit-ladder runs, prescreen discharges and cache hits);
          non-adjacent consecutive entries mark a VL010/churn steering
          skip.  Provenance only — excluded from {!result_digest} *)
  vcr_prescreen_refuted : bool;
      (** the {!Vflow} prescreen found an abstract counterexample for this
          obligation (advisory; the solver still ran) — the trigger of the
          driver-emitted VL047 info lint.  Excluded from {!result_digest} *)
}

(** Outcome of all obligations of one function. *)
type fn_result = {
  fnr_name : string;
  fnr_vcs : vc_result list;  (** in encoding order, however they were scheduled *)
  fnr_ok : bool;  (** all VCs proved *)
  fnr_time_s : float;
      (** sum of the per-VC solve times — compute cost, not wall-clock,
          so it is stable whether the obligations ran back-to-back on one
          domain or interleaved across a pool *)
  fnr_bytes : int;
  fnr_prof : Smt.Profile.t option;
      (** merge of the function's per-VC solver profiles ([Some] iff
          profiling was requested) *)
}

(** Context-size attribution for one axiom of [Encode.program_axioms]. *)
type axiom_cost = {
  ac_index : int;  (** position in [Encode.program_axioms] (stable id) *)
  ac_label : string;  (** trigger-pattern label ({!Smt.Profile.label_of}) *)
  ac_heads : string list;  (** trigger head symbols, sorted *)
  ac_self_bytes : int;  (** printed size of the axiom itself *)
  ac_contexts : int;  (** number of profiled VC contexts that included it *)
  ac_bytes : int;  (** [ac_self_bytes * ac_contexts]: total bytes shipped *)
}

(** Program-level aggregate: the hot-spot tables behind
    [verus_cli profile]. *)
type program_profile = {
  pp_smt : Smt.Profile.t;
      (** all per-VC solver profiles merged; [pp_smt.quants] is the top-k
          table source, hottest first, deterministically ordered (stable
          on any pool) *)
  pp_axiom_costs : axiom_cost list;
      (** per-axiom context-bytes attribution, sorted by [ac_bytes]
          descending then [ac_index] *)
  pp_vcs : int;  (** number of profiled VCs aggregated *)
}

(** Per-run escalation-ladder observability, rebuilt deterministically
    from the per-VC provenance fields — identical whatever scheduled the
    obligations. *)
type ladder_stats = {
  ls_ladder : string;  (** the ladder's display name *)
  ls_rungs : int;
  ls_attempts : int array;  (** solver attempts per rung (length [ls_rungs]) *)
  ls_wins : int array;
      (** verdicts produced per rung, cache hits included (their recorded
          winning rung counts) *)
  ls_escalations : int;  (** attempts beyond each obligation's first *)
  ls_steered : int;
      (** escalations that skipped a rung on the VL010/churn signal *)
  ls_cache_hits : int;  (** obligations settled by the warm cache *)
  ls_hint_starts : int;
      (** obligations whose climb started above rung 0 on a recorded
          winning-rung hint; a fully warm run has zero (hits need no
          attempts), so any wasted lower-rung attempt shows up here *)
}

(** Result of verifying a whole program under one profile. *)
type program_result = {
  pr_profile : string;  (** the framework profile's name *)
  pr_fns : fn_result list;
  pr_ok : bool;
  pr_time_s : float;
  pr_bytes : int;
  pr_front_end_errors : string list;
      (** type / ownership / EPR-fragment rejections (empty when verified) *)
  pr_lint : Vlint.diag list;
      (** static-analysis findings; populated when [verify_program] was
          called with [~lint:Lint_warn] or [~lint:Lint_strict] *)
  pr_prof : program_profile option;
      (** [Some] iff the run profiled ([Config.profile = true]) and
          verification reached the SMT stage *)
  pr_cache : Vcache.stats option;
      (** hit/miss/invalidation counters, [Some] iff a cache was configured
          and verification reached the SMT stage *)
  pr_ladder : ladder_stats option;
      (** per-rung attempt/win counters, [Some] iff the run had an
          explicit [Config.ladder] and verification reached the SMT
          stage *)
}

(** When (and whether) to run the {!Vlint} static analyses. *)
type lint_mode =
  | Lint_ignore  (** skip static analysis (default) *)
  | Lint_warn  (** record [Vlint] findings in [pr_lint], never fail on them *)
  | Lint_strict
      (** fail fast: Error-severity findings abort before any SMT work,
          with [pr_fns = []] and [pr_ok = false] *)

(** Incremental verdict stream, delivered to {!verify_program}'s
    [?on_progress] callback as obligations complete.  The daemon turns
    these into [vc]/[fn] protocol events ([docs/PROTOCOL.md]); the
    in-process caller is free to ignore them. *)
type progress =
  | Vc_done of string * vc_result
      (** one obligation finished, tagged with its function's name;
          arrival order is completion order, not program order *)
  | Fn_done of fn_result
      (** a function's last obligation finished and its verdict is
          assembled; [fnr_vcs] is already back in encoding order *)

(** Run configuration — the one record every knob of a verification run
    lives in.  Callers build it with {!Config.default} and the [with_*]
    builders; the CLI, the daemon, the benchmark harness and the test
    suites all feed the same record to {!verify_program}. *)
module Config : sig
  (** Where a run's obligations execute.  Verdicts and {!result_digest}
      are identical whichever runs them. *)
  type pool =
    | Inline  (** on the calling domain, one after another *)
    | Domains of int
        (** on a transient work-stealing pool of [n] domains, spawned for
            this run and shut down after it (Figure 9) *)
    | Borrowed of Verusd.Sched.t
        (** on a long-lived pool the caller owns and shuts down — how the
            daemon amortizes domain start-up across requests *)

  type t = {
    pool : pool;
    lint : lint_mode;  (** static analysis before SMT work *)
    profile : bool;  (** retain per-VC solver profiles *)
    cache : Vcache.config option;  (** persistent VC-result cache, if any *)
    ladder : Vladder.Ladder.t option;
        (** the per-obligation escalation ladder (what the CLI's
            [--ladder]/[--rung] and the daemon's [ladder] param set).
            [None] runs every obligation once under the profile's exact
            configuration — identical to {!Vladder.Ladder.identity}, and
            the pre-ladder observable surface is preserved bit for bit
            (no rung provenance, no detail suffix, no ladder salt in the
            cache key).  [Some l]: each obligation climbs [l] — cheap
            rungs first, escalating on anything but [Unsat] — with the
            ladder fingerprint salted into cache keys and the winning
            rung recorded per entry so warm runs jump straight to it *)
    certify : bool;
        (** solve with proof recording on, replay every Unsat's
            certificate through the independent {!Vcheck} kernel, and
            demote rejected obligations to failures; Unsat cache hits are
            honored only when their entry carries a certificate digest *)
    analyze : bool;
        (** run the {!Vflow} abstract-interpretation prescreen on every
            obligation before cache or solver (rung 0 of the escalation
            ladder).  A [Proved] verdict discharges the VC with no solver
            query ([vcr_source = Src_prescreen]); anything else falls
            through to SMT carrying the analysis's derived facts as extra
            hypotheses and with provably-vacuous hypotheses dropped.
            Prescreened runs salt the cache fingerprint with
            {!Vflow.version}.  Ignored (demoted to plain SMT) under
            [certify] — the prescreen has no replayable certificate. *)
  }

  val default : t
  (** [Inline], no lint, no profiling, no cache, no ladder (profile's own
      configuration, once per obligation), no certification, no
      prescreen. *)

  val with_jobs : int -> t -> t
  (** [Domains n] for [n > 1], [Inline] otherwise (the CLI's [--jobs]). *)

  val with_lint : lint_mode -> t -> t
  val with_profile : bool -> t -> t

  val with_cache : string -> t -> t
  (** Enable the verification cache in the given directory. *)

  val with_ladder : Vladder.Ladder.t -> t -> t
  (** The one entry point for automation strength: a run that needs a
      cheaper or stronger solver configuration than the profile's climbs
      (or pins) a ladder installed here. *)

  val with_certify : bool -> t -> t
  val with_analyze : bool -> t -> t

  val with_sched : Verusd.Sched.t -> t -> t
  (** [Borrowed]: run on the caller's long-lived pool. *)
end

val context_for :
  Profiles.t -> Vir.program -> Encode.vc -> Smt.Term.t list
(** Theory axioms + spec-function definitions for one VC, pruned to the
    symbols reachable from the VC when the profile prunes.  Staged:
    [context_for p prog] builds the program's axioms and their symbol
    sets once, so apply it to the program outside a loop over its
    obligations. *)

val verify_program :
  ?config:Config.t ->
  ?on_progress:(progress -> unit) ->
  Profiles.t ->
  Vir.program ->
  program_result
(** The one entry point.  Runs [Vlint] (per [config.lint]) and the
    front-end checks, then encodes every target function, flattens the
    obligations into one batch, and schedules the batch per
    [config.pool] (the paper's 8-core column in Figure 9 is
    [Domains 8]).  All three pools share one code path, so per-program
    verdicts and {!result_digest} are identical whichever ran.

    Under an explicit [config.ladder], each obligation climbs the ladder
    as a chain of dynamically submitted tasks: an attempt that must
    escalate resubmits itself, so one stubborn obligation's stronger
    retries overlap other obligations' first attempts.  [Unsat] at any
    rung is definitive (proved from a subset of the context under a
    sound trigger policy); anything else below the top rung escalates —
    steered past liberal-trigger rungs when the failed attempt showed
    E-matching churn or its hot quantifier matches a VL010
    matching-loop verdict — and the top rung's answer is final.

    [?on_progress] streams {!progress} events as obligations complete.
    Events fire in the finishing worker's domain — the callback must be
    thread-safe whenever a pool is in play — and [verify_program]
    returns only after every event has been delivered.

    [config.profile] aggregates every solve's {!Smt.Profile.t} into
    [pr_prof]; the aggregation is keyed on stable quantifier labels, so
    the resulting tables are identical whichever domain finished first.
    [config.cache] opens the persistent VC cache before solving, serves
    hits from its load-time snapshot (statistics are deterministic on
    any pool), and atomically flushes new entries at the end;
    [pr_cache] reports the counters.  An unprofiled cached run of a
    program this process has verified before, under the same profile,
    ladder and prescreen setting, is served whole through
    {!Vcache.serve} when the snapshot serves every obligation: no
    encoding, no batch, and the same results, events and counters as
    the per-obligation path. *)

val result_digest : program_result -> string
(** Content digest of everything a verification run {e decided} — per-VC
    names and answers, per-function and overall verdicts, lint and
    front-end output.  Run artifacts are excluded: the timing fields and
    [vcr_detail] (whose default-mode string embeds solver phase times),
    the byte counts (printed sizes vary with the process-global
    fresh-symbol counter), and the profile/cache observability
    attachments.  Two runs of the same program under the same
    configuration digest equally whether their answers came from the
    solver or from a warm cache; [scripts/check.sh] and the cache bench
    assert exactly that. *)

val prescreen_discharged : program_result -> int
(** Number of obligations whose verdict came from the {!Vflow} prescreen
    ([vcr_source = Src_prescreen]) — the numerator of the analyze bench's
    discharge rate.  Zero unless the run had [Config.analyze] set. *)

val first_failure : program_result -> (string * string * string) option
(** [(origin, obligation, code)] of the first failure, if any: a lint
    Error ([VL0xx] code, strict mode), a front-end rejection ([FE001]),
    or the first unproved VC ([VC001] refuted / [VC002] unknown /
    [VC003] certificate rejected or missing under [--certify]).  The
    code lets callers assert on {e which} failure occurred. *)
