(** Framework profiles: encoding configurations that emulate the comparison
    verifiers of the paper's evaluation (§4.1) as settings of one pipeline.

    The substitution table in DESIGN.md maps each profile to the mechanisms
    §3.1/§5 identifies as the source of each tool's cost: heap vs. ownership
    encodings, trigger policy, context pruning, effect-layer indirection,
    re-verified type checking, and prophecy variables. *)

(** How mutable state is modelled in the encoding. *)
type mem_encoding =
  | Ownership  (** Verus-style: mutation is functional update; no heap *)
  | Heap  (** Dafny/F*-style: global heap, select/store, frame axioms *)
  | Prophecy  (** Creusot-style: &mut as (current, final) pairs *)

(** A framework profile: one point in the encoding-design space. *)
type t = {
  name : string;  (** display name, e.g. ["Verus"], ["Dafny-liberal"] *)
  encoding : mem_encoding;  (** memory model (see {!mem_encoding}) *)
  trigger_policy : Smt.Triggers.policy;
      (** how triggers are inferred for quantifiers that lack them *)
  curated_triggers : bool;
      (** attach hand-tuned minimal triggers to theory axioms (Verus) vs.
          leaving selection to the policy (Dafny-style broad selection) *)
  pruning : bool;  (** prune unreachable axioms/contracts from the context *)
  wrapper_depth : int;
      (** definitional indirection layers per value: Low*'s effect layers,
          Viper's snapshot functions *)
  recheck_ownership : bool;  (** extra type-checking VCs (Prusti) *)
  epr_only : bool;  (** reject anything outside EPR (Ivy) *)
  solver_config : Smt.Solver.config;  (** budgets and phase limits *)
}

val verus : t
(** Ownership encoding, curated triggers, pruning on — the paper's
    baseline. *)

val dafny : t
(** Heap encoding with frame axioms, broad trigger selection, no
    pruning. *)

val fstar : t
(** Heap encoding plus effect-layer wrapper indirection. *)

val prusti : t
(** Ownership encoding with re-verified type-checking obligations. *)

val creusot : t
(** Prophecy encoding: [&mut] as (current, final) pairs. *)

val ivy : t
(** EPR-only: decidable fragment, rejects anything outside it. *)

val all : t list
(** The six shipped profiles, in the paper's table order. *)

val by_name : string -> t option
(** Exact-name lookup over {!all} ([None] for unknown names). *)

val liberal : t -> t
(** The "[-liberal]" degradation of a profile: Dafny-style broad trigger
    selection with the curated axiom triggers dropped, applied both to the
    static analyses (so [Vlint] VL010 sees the liberal trigger choice) and
    to the solver configuration (so E-matching actually uses it).  This is
    the configuration behind the ablation row "liberal triggers" and the
    VL010 ↔ profiler cross-validation: the matching loop the lint predicts
    statically is the instantiation hot-spot the profiler measures
    dynamically.  The name gains a "-liberal" suffix. *)

val budget : t -> Smt.Solver.budget
(** The profile's solver search budgets ([solver_config.budget]). *)

val with_budget : Smt.Solver.budget -> t -> t
(** The profile with its solver budgets replaced (trigger policy and
    every encoding choice kept): a capped profile for benches and tests.
    Per-run automation strength is a ladder rung instead
    ({!Driver.Config.with_ladder}). *)

val solver_fingerprint : t -> string
(** Canonical rendering of the profile facets that can change a VC's
    answer without changing the VC's terms: solving path (EPR or
    default), trigger policies, curated-trigger flag, and the full
    {!Smt.Solver.budget}.  The display name is excluded on purpose —
    renaming a profile must not invalidate a verification cache.  Used
    as a fingerprint component by {!Vcache}. *)
