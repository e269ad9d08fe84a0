(* Facade for the Vflow prescreen-analysis library.

   Layering: vflow sits below lib/core (which wires it into the driver
   as the escalation ladder's rung 0) and depends only on vbase, smt
   and vir_ast — it must know nothing of profiles, caching or
   scheduling. *)

module Dom = Dom
module Prescreen = Prescreen
module Absint = Absint

(* Bumping this invalidates prescreened cache entries (it salts Vcache
   fingerprints when Driver.Config.analyze is on). *)
let version = "vflow/1"
