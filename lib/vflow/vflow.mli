(** Vflow: abstract-interpretation prescreen for verification
    conditions — rung 0 of the per-obligation escalation ladder.

    {!Dom} provides the interval × congruence × boolean domains,
    {!Prescreen} evaluates one VC (hypotheses + goal) over SMT terms,
    and {!Absint} runs the flow-sensitive fixpoint over VIR bodies
    (widening at loop heads, invariant-guided narrowing) that also
    powers the VL040–VL046 lint codes.

    The library sits below lib/core: it depends only on vbase, smt and
    vir_ast, so the driver can call it per-VC without a dependency
    cycle. *)

module Dom = Dom
module Prescreen = Prescreen
module Absint = Absint

val version : string
(** Analysis version string ("vflow/1"); salts Vcache fingerprints when
    prescreening is enabled, so prescreened and plain verdicts never
    alias. *)
