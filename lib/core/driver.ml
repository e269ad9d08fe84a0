module T = Smt.Term
module S = Smt.Sort
open Vir

type vc_profile = { vp_smt : Smt.Profile.t; vp_axioms : int list }

type cert_status =
  | Cert_off
  | Cert_checked of string
  | Cert_cached of string
  | Cert_uncertified_hit
  | Cert_rejected of string * string
  | Cert_unavailable of string

type vc_source = Src_solver | Src_prescreen | Src_cache

type vc_result = {
  vcr_name : string;
  vcr_answer : Smt.Solver.answer;
  vcr_time_s : float;
  vcr_bytes : int;
  vcr_detail : string;
  vcr_prof : vc_profile option;
  vcr_cert : cert_status;
  vcr_source : vc_source;
  vcr_rung : int option;
  vcr_rungs_tried : int list;
  vcr_prescreen_refuted : bool;
}

type fn_result = {
  fnr_name : string;
  fnr_vcs : vc_result list;
  fnr_ok : bool;
  fnr_time_s : float;
  fnr_bytes : int;
  fnr_prof : Smt.Profile.t option;
}

type axiom_cost = {
  ac_index : int;
  ac_label : string;
  ac_heads : string list;
  ac_self_bytes : int;
  ac_contexts : int;
  ac_bytes : int;
}

type program_profile = {
  pp_smt : Smt.Profile.t;
  pp_axiom_costs : axiom_cost list;
  pp_vcs : int;
}

type ladder_stats = {
  ls_ladder : string;
  ls_rungs : int;
  ls_attempts : int array;
  ls_wins : int array;
  ls_escalations : int;
  ls_steered : int;
  ls_cache_hits : int;
  ls_hint_starts : int;
}

type program_result = {
  pr_profile : string;
  pr_fns : fn_result list;
  pr_ok : bool;
  pr_time_s : float;
  pr_bytes : int;
  pr_front_end_errors : string list;
  pr_lint : Vlint.diag list;
  pr_prof : program_profile option;
  pr_cache : Vcache.stats option;
  pr_ladder : ladder_stats option;
}

type lint_mode = Lint_ignore | Lint_warn | Lint_strict

type progress = Vc_done of string * vc_result | Fn_done of fn_result

module Config = struct
  type pool = Inline | Domains of int | Borrowed of Verusd.Sched.t

  type t = {
    pool : pool;
    lint : lint_mode;
    profile : bool;
    cache : Vcache.config option;
    ladder : Vladder.Ladder.t option;
    certify : bool;
    analyze : bool;
  }

  let default =
    {
      pool = Inline;
      lint = Lint_ignore;
      profile = false;
      cache = None;
      ladder = None;
      certify = false;
      analyze = false;
    }

  let with_jobs jobs c = { c with pool = (if jobs <= 1 then Inline else Domains jobs) }
  let with_lint lint c = { c with lint }
  let with_profile profile c = { c with profile }
  let with_cache dir c = { c with cache = Some { Vcache.dir } }
  let with_ladder l c = { c with ladder = Some l }
  let with_certify certify c = { c with certify }
  let with_analyze analyze c = { c with analyze }
  let with_sched s c = { c with pool = Borrowed s }
end

(* ------------------------------------------------------------------ *)
(* Pruning                                                             *)
(* ------------------------------------------------------------------ *)

let syms_of_term t =
  T.fold_subterms
    (fun acc s -> match s.T.node with T.App (f, _) -> f.T.sid :: acc | _ -> acc)
    [] t
  |> List.sort_uniq compare

(* Each axiom with the symbols it mentions: what pruning consults, built
   once per run rather than once per obligation. *)
let axiom_syms axioms = List.map (fun a -> (a, syms_of_term a)) axioms

let prune_context ax_syms (vc : Encode.vc) =
  let module IS = Set.Make (Int) in
  let reachable =
    ref
      (IS.of_list
         (List.concat_map syms_of_term (vc.Encode.vc_goal :: vc.Encode.vc_hyps)))
  in
  let remaining = ref ax_syms in
  let included = ref [] in
  let changed = ref true in
  while !changed do
    changed := false;
    remaining :=
      List.filter
        (fun (ax, syms) ->
          if List.exists (fun s -> IS.mem s !reachable) syms then begin
            included := ax :: !included;
            reachable := IS.union !reachable (IS.of_list syms);
            changed := true;
            false
          end
          else true)
        !remaining
  done;
  List.rev !included

let context_for (p : Profiles.t) (prog : program) (vc : Encode.vc) =
  let axioms = Encode.program_axioms p prog in
  if p.Profiles.pruning then prune_context (axiom_syms axioms) vc else axioms

(* ------------------------------------------------------------------ *)
(* VC dispatch                                                         *)
(* ------------------------------------------------------------------ *)

let outcome_to_answer = function
  | Modes.Proved -> (Smt.Solver.Unsat, "")
  | Modes.Refuted msg -> (Smt.Solver.Sat, msg)
  | Modes.Unsupported msg -> (Smt.Solver.Unknown msg, msg)

(* [ax_index] maps an axiom's term id to its position in the
   [Encode.program_axioms] list, so per-VC context membership can be
   recorded by stable index (the same index VL0xx diagnostics cite). *)
let axiom_index_table axioms =
  let tbl = Hashtbl.create 64 in
  List.iteri (fun i (ax : T.t) -> Hashtbl.replace tbl ax.T.tid i) axioms;
  tbl

(* The per-VC axiom membership is recomputed locally even on a cache hit —
   it is a deterministic function of the context, not of the solve. *)
let vp_axioms_of_context ~ax_index context =
  List.filter_map (fun (ax : T.t) -> Hashtbl.find_opt ax_index ax.T.tid) context
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* The escalation ladder (solver-side rungs above the Vflow prescreen)  *)
(* ------------------------------------------------------------------ *)

module Rung = Vladder.Rung
module Ladder = Vladder.Ladder

(* Everything one run's obligations share.  [ev_ladder] is [Some] iff the
   caller configured an explicit ladder; implicit runs climb the same
   machinery with {!Vladder.Ladder.identity} (one profile rung) and keep
   the pre-ladder observable surface — no rung provenance, no detail
   suffix, no ladder salt in the cache key. *)
type vc_env = {
  ev_profile : bool;
  ev_certify : bool;
  ev_analyze : bool;  (** already demoted under [ev_certify] *)
  ev_cache : Vcache.t option;
  ev_p : Profiles.t;
  ev_prog : program;
  ev_axioms : T.t list;
  ev_axiom_syms : (T.t * int list) list;  (** [axiom_syms ev_axioms] *)
  ev_ax_index : (int, int) Hashtbl.t;
  ev_ladder : Ladder.t option;
  ev_rungs : Rung.t array;
  ev_vl010 : string list;
      (** head symbols of axioms VL010 flagged as matching-loop-prone —
          the steering signal that skips liberal-trigger rungs *)
}

let make_env ~profile ~certify ~analyze ~cache ~ladder ~vl010 (p : Profiles.t) (prog : program)
    ~axioms ~ax_index =
  {
    ev_profile = profile;
    ev_certify = certify;
    (* The prescreen is demoted to ordinary SMT under [certify] — Vflow
       emits no replayable certificate, and a certified run must not
       contain uncertifiable verdicts. *)
    ev_analyze = analyze && not certify;
    ev_cache = cache;
    ev_p = p;
    ev_prog = prog;
    ev_axioms = axioms;
    ev_axiom_syms = axiom_syms axioms;
    ev_ax_index = ax_index;
    ev_ladder = ladder;
    ev_rungs = Ladder.rungs (match ladder with Some l -> l | None -> Ladder.identity);
    ev_vl010 = vl010;
  }

(* One obligation mid-climb: everything computed once in [start_vc] plus
   the attempt history.  Escalations travel through the scheduler as
   values of this type, so a stronger retry is an ordinary task that
   overlaps other obligations' first attempts. *)
type pending = {
  pd_vc : Encode.vc;
  pd_context : T.t list;  (** the profile-level context ([P_profile] rungs) *)
  pd_pruned : T.t list;  (** the always-pruned context ([P_prune] rungs) *)
  pd_eff_hyps : T.t list;
  pd_facts : T.t list;
  pd_drop : T.t list;
  pd_fp : string option;
  pd_prescreen_refuted : bool;
  pd_t0 : float;
  pd_next : int;  (** rung index of the next attempt *)
  pd_tried : int list;  (** rungs already attempted, most recent first *)
  pd_bytes : int;  (** query bytes shipped by the attempts so far *)
  pd_profs : Smt.Profile.t list;  (** their solver profiles, most recent first *)
}

type step = Finished of vc_result | Escalated of pending

(* Whether a rung's effective solver trigger policy is Liberal — the
   rungs VL010-steering skips when the attempt below them churned. *)
let rung_is_liberal env (r : Rung.t) =
  match r.Rung.r_triggers with
  | Rung.T_liberal -> true
  | Rung.T_conservative -> false
  | Rung.T_profile ->
    env.ev_p.Profiles.solver_config.Smt.Solver.trigger_policy = Smt.Triggers.Liberal

(* Pick the rung after a failed (non-final) attempt at [i].  Default is
   [i + 1]; when the candidate is liberal-triggered, not the top rung,
   and the failed attempt showed E-matching churn — the round budget
   saturated, one quantifier ate half its instance cap, or the hottest
   quantifier's trigger heads intersect VL010's matching-loop heads —
   liberal triggers would amplify the loop, so steering skips ahead one
   more rung.  Deterministic: depends only on the attempt's own stats. *)
let next_rung env ~(budget : Smt.Solver.budget) ~stats ~prof i =
  let n = Array.length env.ev_rungs in
  let cand = i + 1 in
  if cand >= n - 1 then n - 1
  else
    let churn =
      (match stats with
      | Some (s : Smt.Solver.stats) ->
        s.Smt.Solver.instances >= budget.Smt.Solver.max_instances_per_round
      | None -> false)
      ||
      match prof with
      | Some (pr : Smt.Profile.t) -> (
        match pr.Smt.Profile.quants with
        | (q : Smt.Profile.quant_profile) :: _ ->
          2 * q.Smt.Profile.q_instances >= budget.Smt.Solver.max_instances_per_quant
          || List.exists (fun h -> List.mem h env.ev_vl010) q.Smt.Profile.q_heads
        | [] -> false)
      | None -> false
    in
    if churn && rung_is_liberal env env.ev_rungs.(cand) then min (cand + 1) (n - 1)
    else cand

(* First half of an obligation: prescreen, profile-level context, cache
   fingerprint and lookup.  Returns [Finished] when the prescreen or a
   warm hit settles it, [Escalated] (attempt 0 still to run) otherwise. *)
let start_vc env (vc : Encode.vc) : step =
  let t0 = Unix.gettimeofday () in
  let p = env.ev_p in
  let context =
    if p.Profiles.pruning then prune_context env.ev_axiom_syms vc else env.ev_axioms
  in
  (* Prescreen (rung 0 of the escalation ladder): abstract interpretation
     over the VC before any solver or cache involvement. *)
  let pre =
    if not env.ev_analyze then None
    else
      Some
        (Vflow.Prescreen.check ~hyps:(context @ vc.Encode.vc_hyps) ~goal:vc.Encode.vc_goal ())
  in
  match pre with
  | Some pr when pr.Vflow.Prescreen.verdict = Vflow.Prescreen.Proved ->
    (* Discharged without the solver: zero query bytes, no cache entry
       (the prescreen re-derives this faster than a disk hit). *)
    let vcr_prof =
      if not env.ev_profile then None
      else
        Some
          {
            vp_smt = Smt.Profile.empty;
            vp_axioms = vp_axioms_of_context ~ax_index:env.ev_ax_index context;
          }
    in
    Finished
      {
        vcr_name = vc.Encode.vc_name;
        vcr_answer = Smt.Solver.Unsat;
        vcr_time_s = Unix.gettimeofday () -. t0;
        vcr_bytes = 0;
        vcr_detail =
          (if pr.Vflow.Prescreen.vacuous then
             "prescreen: hypotheses contradictory (infeasible path)"
           else
             Printf.sprintf "prescreen: interval+congruence+bool (%d passes)"
               pr.Vflow.Prescreen.passes);
        vcr_prof;
        vcr_cert = Cert_off;
        vcr_source = Src_prescreen;
        vcr_rung = None;
        vcr_rungs_tried = [];
        vcr_prescreen_refuted = false;
      }
  | _ ->
  (* Fall through to SMT, carrying the prescreen's derived facts as extra
     ground hypotheses and dropping hypotheses whose path condition the
     analysis proved infeasible (both sound: facts are consequences of
     the hypotheses, and removing hypotheses never helps the prover).
     A [Refuted] verdict — an abstract counterexample — is advisory
     (recorded for the VL047 lint) and escalates like [Unknown]. *)
  let prescreen_refuted =
    match pre with
    | Some pr -> pr.Vflow.Prescreen.verdict = Vflow.Prescreen.Refuted
    | None -> false
  in
  let facts, drop =
    match pre with
    | Some pr -> (pr.Vflow.Prescreen.facts, pr.Vflow.Prescreen.drop)
    | None -> ([], [])
  in
  let eff_hyps =
    if drop = [] then vc.Encode.vc_hyps
    else List.filter (fun h -> not (List.exists (T.equal h) drop)) vc.Encode.vc_hyps
  in
  let explicit = env.ev_ladder <> None in
  let fp =
    match env.ev_cache with
    | None -> None
    | Some _ ->
      (* Containment: the fingerprint must cover every axiom any rung may
         ship.  A widening ladder ([P_full] rungs) under a pruning profile
         can consult axioms outside the pruned context, so the key is
         taken over the full set; the ladder fingerprint itself salts the
         key whenever a ladder is explicit. *)
      let fp_context =
        match env.ev_ladder with
        | Some l when Ladder.widens l && p.Profiles.pruning -> env.ev_axioms
        | _ -> context
      in
      Some
        (Vcache.fingerprint ~analyze:env.ev_analyze
           ?ladder:(Option.map Ladder.fingerprint env.ev_ladder)
           ~profile:p ~prog:env.ev_prog ~context:fp_context vc)
  in
  let cached =
    match (env.ev_cache, fp) with
    | Some c, Some fp ->
      Vcache.lookup c ~name:vc.Encode.vc_name ~fp ~profile_wanted:env.ev_profile
        ~certified_wanted:env.ev_certify
    | _ -> None
  in
  match cached with
  | Some e ->
    (* Hit: reproduce the recorded solve verbatim (answer, detail, bytes,
       original solve time, winning rung) — warm results are
       indistinguishable from the cold run that filled the cache. *)
    let vcr_prof =
      if not env.ev_profile then None
      else
        Some
          {
            vp_smt = (match e.Vcache.e_profile with Some pr -> pr | None -> Smt.Profile.empty);
            vp_axioms = vp_axioms_of_context ~ax_index:env.ev_ax_index context;
          }
    in
    let vcr_cert =
      (* The digest makes the warm hit a checked claim: the filling run's
         certificate replayed Checked before the entry was stored.  An
         uncertified Unsat hit is unreachable under [certify] ({!Vcache.lookup}
         gates on the digest) and flagged as VL034 material otherwise. *)
      match (env.ev_certify, e.Vcache.e_answer, e.Vcache.e_cert_digest) with
      | true, Smt.Solver.Unsat, Some d -> Cert_cached d
      | true, Smt.Solver.Unsat, None -> Cert_unavailable "cache hit without certificate"
      | false, Smt.Solver.Unsat, None -> Cert_uncertified_hit
      | _ -> Cert_off
    in
    Finished
      {
        vcr_name = vc.Encode.vc_name;
        vcr_answer = e.Vcache.e_answer;
        vcr_time_s = e.Vcache.e_time_s;
        vcr_bytes = e.Vcache.e_bytes;
        vcr_detail = e.Vcache.e_detail;
        vcr_prof;
        vcr_cert;
        vcr_source = Src_cache;
        vcr_rung = (if explicit then e.Vcache.e_rung else None);
        vcr_rungs_tried = [];
        vcr_prescreen_refuted = prescreen_refuted;
      }
  | None ->
    let n = Array.length env.ev_rungs in
    (* The winning-rung jump: a prior run under this exact fingerprint
       recorded which rung finally answered (the entry itself may have
       been gated out of [lookup] — e.g. it lacks a profile and this run
       profiles).  Starting there spends zero attempts on rungs already
       known too weak; [Unsat] at the recorded rung stays definitive. *)
    let start =
      match (env.ev_ladder, env.ev_cache, fp) with
      | Some _, Some c, Some fp -> (
        match Vcache.rung_hint c ~fp with
        | Some r when r > 0 -> min r (n - 1)
        | _ -> 0)
      | _ -> 0
    in
    let pruned =
      if p.Profiles.pruning then context
      else if Array.exists (fun (r : Rung.t) -> r.Rung.r_pruning = Rung.P_prune) env.ev_rungs
      then prune_context env.ev_axiom_syms vc
      else []
    in
    Escalated
      {
        pd_vc = vc;
        pd_context = context;
        pd_pruned = pruned;
        pd_eff_hyps = eff_hyps;
        pd_facts = facts;
        pd_drop = drop;
        pd_fp = fp;
        pd_prescreen_refuted = prescreen_refuted;
        pd_t0 = t0;
        pd_next = start;
        pd_tried = [];
        pd_bytes = 0;
        pd_profs = [];
      }

(* One solver attempt at rung [pd.pd_next].  [Unsat] at any rung is
   definitive — it was obtained from a subset of the full context under a
   sound trigger policy, so it implies the monolithic answer; [Sat] and
   [Unknown] below the top rung escalate (a counterexample found with
   part of the context missing proves nothing), and the top rung's
   answer is final whatever it is. *)
let attempt_vc env (pd : pending) : step =
  let p = env.ev_p in
  let vc = pd.pd_vc in
  let n = Array.length env.ev_rungs in
  let i = pd.pd_next in
  let rung = env.ev_rungs.(i) in
  let base_ctx =
    match rung.Rung.r_pruning with
    | Rung.P_profile -> pd.pd_context
    | Rung.P_prune -> pd.pd_pruned
    | Rung.P_full -> env.ev_axioms
  in
  let eff_context =
    if pd.pd_drop = [] then base_ctx
    else List.filter (fun h -> not (List.exists (T.equal h) pd.pd_drop)) base_ctx
  in
  let attempt_bytes =
    List.fold_left (fun acc t -> acc + T.printed_size t) 0
      ((vc.Encode.vc_goal :: pd.pd_eff_hyps) @ pd.pd_facts)
    + List.fold_left (fun acc t -> acc + T.printed_size t) 0 eff_context
  in
  let solver_cfg =
    let base =
      if env.ev_certify then { p.Profiles.solver_config with Smt.Solver.certify = true }
      else p.Profiles.solver_config
    in
    Rung.apply_config rung base
  in
  let budget = solver_cfg.Smt.Solver.budget in
  (* Outcome of a §3.3 mode, with or without a certificate attached. *)
  let mode_plain o = let a, d = outcome_to_answer o in (a, d, None) in
  let mode_cert (o, c) = let a, d = outcome_to_answer o in (a, d, c) in
  (* The attempt's profile/stats are kept regardless of [ev_profile]:
     they are the steering signal for [next_rung].  §3.3 modes yield
     neither, so escalation after them is always to the adjacent rung. *)
  let smt_prof = ref None in
  let smt_stats = ref None in
  let answer, detail, cert =
    match vc.Encode.vc_hint with
    | H_default ->
      if p.Profiles.epr_only then begin
        let all = base_ctx @ vc.Encode.vc_hyps @ [ T.not_ vc.Encode.vc_goal ] in
        match Smt.Epr.check_fragment all with
        | Error e ->
          (Smt.Solver.Unknown ("outside EPR: " ^ e), "Ivy cannot express this", None)
        | Ok sk ->
          let r = Smt.Epr.solve ~config:solver_cfg sk in
          smt_prof := Some r.Smt.Solver.profile;
          smt_stats := Some r.Smt.Solver.stats;
          (r.Smt.Solver.answer, "EPR-decided", r.Smt.Solver.cert)
      end
      else begin
        (* Only the general SMT path consumes the prescreen's residue:
           derived facts join the hypotheses and provably-vacuous
           hypotheses are dropped.  EPR and the §3.3 modes keep their
           exact inputs — their completeness arguments are fragile. *)
        let r =
          Smt.Solver.check_valid ~config:solver_cfg
            ~hyps:(eff_context @ pd.pd_eff_hyps @ pd.pd_facts) vc.Encode.vc_goal
        in
        smt_prof := Some r.Smt.Solver.profile;
        smt_stats := Some r.Smt.Solver.stats;
        let ph = r.Smt.Solver.profile.Smt.Profile.phase in
        let d =
          Printf.sprintf "inst=%d confl=%d sat=%.2f theory=%.2f em=%.2f"
            r.Smt.Solver.stats.Smt.Solver.instances r.Smt.Solver.stats.Smt.Solver.conflicts
            ph.Smt.Profile.ph_sat
            (ph.Smt.Profile.ph_euf +. ph.Smt.Profile.ph_lia +. ph.Smt.Profile.ph_comb)
            ph.Smt.Profile.ph_ematch
        in
        (r.Smt.Solver.answer, d, r.Smt.Solver.cert)
      end
    | H_bit_vector ->
      if env.ev_certify then mode_cert (Modes.prove_bit_vector_cert ~budget vc.Encode.vc_goal)
      else mode_plain (Modes.prove_bit_vector ~budget vc.Encode.vc_goal)
    | H_nonlinear ->
      if env.ev_certify then mode_cert (Modes.prove_nonlinear_cert ~budget vc.Encode.vc_goal)
      else mode_plain (Modes.prove_nonlinear ~budget vc.Encode.vc_goal)
    | H_integer_ring ->
      if env.ev_certify then
        mode_cert (Modes.prove_integer_ring_cert ~budget vc.Encode.vc_goal)
      else mode_plain (Modes.prove_integer_ring ~budget vc.Encode.vc_goal)
    | H_compute -> (
      match vc.Encode.vc_expr with
      | Some e ->
        if env.ev_certify then mode_cert (Modes.prove_compute_cert ~budget env.ev_prog e)
        else mode_plain (Modes.prove_compute ~budget env.ev_prog e)
      | None -> (Smt.Solver.Unknown "compute assert lost its expression", "", None))
  in
  let final = answer = Smt.Solver.Unsat || i >= n - 1 in
  if not final then
    Escalated
      {
        pd with
        pd_next = next_rung env ~budget ~stats:!smt_stats ~prof:!smt_prof i;
        pd_tried = i :: pd.pd_tried;
        pd_bytes = pd.pd_bytes + attempt_bytes;
        pd_profs =
          (match !smt_prof with Some pr -> pr :: pd.pd_profs | None -> pd.pd_profs);
      }
  else begin
    (* Under [certify], every Unsat must survive the independent kernel's
       replay before it counts as proved; a rejection or a missing
       certificate demotes the obligation (see fn_result_of_vcs) while
       keeping the raw solver answer visible. *)
    let vcr_cert =
      if not env.ev_certify then Cert_off
      else
        match answer with
        | Smt.Solver.Unsat -> (
          match cert with
          | None -> Cert_unavailable "solver returned Unsat without a certificate"
          | Some c -> (
            match Vcheck.check (Smt.Cert.to_json c) with
            | Vcheck.Checked _ -> Cert_checked (Smt.Cert.digest c)
            | Vcheck.Rejected { code; reason } -> Cert_rejected (code, reason)))
        | _ -> Cert_off
    in
    let explicit = env.ev_ladder <> None in
    let detail =
      if not explicit then detail
      else
        let suffix = Printf.sprintf "[rung %d/%d %s]" (i + 1) n rung.Rung.r_name in
        if detail = "" then suffix else detail ^ " " ^ suffix
    in
    let tried = List.rev (i :: pd.pd_tried) in
    let time_s = Unix.gettimeofday () -. pd.pd_t0 in
    let bytes = pd.pd_bytes + attempt_bytes in
    (* The obligation's profile is the merge across its attempts (a
       single-attempt climb keeps that attempt's profile as-is, matching
       the ladder-free driver byte for byte). *)
    let profs =
      List.rev (match !smt_prof with Some pr -> pr :: pd.pd_profs | None -> pd.pd_profs)
    in
    let merged_prof =
      match profs with
      | [] -> None
      | [ pr ] -> Some pr
      | prs -> Some (List.fold_left Smt.Profile.merge Smt.Profile.empty prs)
    in
    (match (env.ev_cache, pd.pd_fp) with
    | Some c, Some fp ->
      Vcache.store c ~name:vc.Encode.vc_name ~fp
        {
          Vcache.e_answer = answer;
          e_detail = detail;
          e_bytes = bytes;
          e_time_s = time_s;
          e_profile = (if env.ev_profile then merged_prof else None);
          (* Only a kernel-Checked certificate earns a digest; a rejected
             one must not become a "checked claim" on the next warm run. *)
          e_cert_digest = (match vcr_cert with Cert_checked d -> Some d | _ -> None);
          e_rung = (if explicit then Some i else None);
        }
    | _ -> ());
    let vcr_prof =
      if not env.ev_profile then None
      else
        Some
          {
            vp_smt = (match merged_prof with Some pr -> pr | None -> Smt.Profile.empty);
            vp_axioms = vp_axioms_of_context ~ax_index:env.ev_ax_index pd.pd_context;
          }
    in
    Finished
      {
        vcr_name = vc.Encode.vc_name;
        vcr_answer = answer;
        vcr_time_s = time_s;
        vcr_bytes = bytes;
        vcr_detail = detail;
        vcr_prof;
        vcr_cert;
        vcr_source = Src_solver;
        vcr_rung = (if explicit then Some i else None);
        vcr_rungs_tried = (if explicit then tried else []);
        vcr_prescreen_refuted = pd.pd_prescreen_refuted;
      }
  end

let cert_ok r =
  match r.vcr_cert with Cert_rejected _ | Cert_unavailable _ -> false | _ -> true

(* Assemble a function verdict from its per-VC results, whichever
   scheduler produced them.  [fnr_time_s] is the sum of the VC solve
   times — the function's compute cost, stable whether its obligations
   ran back-to-back on one domain or interleaved across the pool. *)
let fn_result_of_vcs (fd : fndecl) ~profile (results : vc_result list) : fn_result =
  (* An Unsat whose certificate the kernel rejected (or that arrived
     without one under --certify) does not count as proved. *)
  let ok =
    List.for_all (fun r -> r.vcr_answer = Smt.Solver.Unsat && cert_ok r) results
  in
  let fnr_prof =
    if not profile then None
    else
      Some
        (List.fold_left
           (fun acc r ->
             match r.vcr_prof with
             | Some vp -> Smt.Profile.merge acc vp.vp_smt
             | None -> acc)
           Smt.Profile.empty results)
  in
  {
    fnr_name = fd.fname;
    fnr_vcs = results;
    fnr_ok = ok;
    fnr_time_s = List.fold_left (fun acc r -> acc +. r.vcr_time_s) 0.0 results;
    fnr_bytes = List.fold_left (fun acc r -> acc + r.vcr_bytes) 0 results;
    fnr_prof;
  }

(* ------------------------------------------------------------------ *)
(* Program-level profile aggregation                                    *)
(* ------------------------------------------------------------------ *)

(* The label/heads of an axiom, derived from the trigger patterns the
   profile's policy would select — the same abstraction Vlint's VL010
   matching-loop report uses, which is what makes the two tables
   cross-checkable. *)
let axiom_label (p : Profiles.t) (ax : T.t) =
  match ax.T.node with
  | T.Forall q ->
    let patterns = List.concat (Smt.Triggers.select p.Profiles.trigger_policy q) in
    let heads =
      List.filter_map
        (fun (pat : T.t) ->
          match pat.T.node with T.App (f, _) -> Some f.T.sname | _ -> None)
        patterns
      |> List.sort_uniq compare
    in
    (Smt.Profile.label_of ~nvars:(List.length q.T.qvars) ~patterns, heads)
  | _ -> ("<ground axiom>", [])

let aggregate_program_profile (p : Profiles.t) ~axioms (fns : fn_result list) :
    program_profile =
  let vc_profs =
    List.concat_map
      (fun fnr -> List.filter_map (fun v -> v.vcr_prof) fnr.fnr_vcs)
      fns
  in
  let pp_smt =
    List.fold_left (fun acc vp -> Smt.Profile.merge acc vp.vp_smt) Smt.Profile.empty vc_profs
  in
  let ax_arr = Array.of_list axioms in
  let contexts = Array.make (Array.length ax_arr) 0 in
  List.iter
    (fun vp ->
      List.iter
        (fun i -> if i >= 0 && i < Array.length contexts then contexts.(i) <- contexts.(i) + 1)
        vp.vp_axioms)
    vc_profs;
  let pp_axiom_costs =
    Array.to_list
      (Array.mapi
         (fun i (ax : T.t) ->
           let label, heads = axiom_label p ax in
           let self = T.printed_size ax in
           {
             ac_index = i;
             ac_label = label;
             ac_heads = heads;
             ac_self_bytes = self;
             ac_contexts = contexts.(i);
             ac_bytes = self * contexts.(i);
           })
         ax_arr)
    |> List.sort (fun a b ->
           match compare b.ac_bytes a.ac_bytes with
           | 0 -> compare a.ac_index b.ac_index
           | c -> c)
  in
  { pp_smt; pp_axiom_costs; pp_vcs = List.length vc_profs }

let verify_program ?(config = Config.default) ?on_progress (p : Profiles.t)
    (prog : program) : program_result =
  let t0 = Unix.gettimeofday () in
  let { Config.pool; lint; profile; cache = cache_cfg; ladder; certify; analyze } = config in
  (* Static analysis first: in [Lint_strict] mode Error-severity findings
     abort before any SMT work (fail fast); [Lint_warn] records them in
     [pr_lint] without affecting the verdict. *)
  let lint_diags = match lint with Lint_ignore -> [] | _ -> Vlint.lint p prog in
  let lint_errors = Vlint.errors lint_diags in
  if lint = Lint_strict && lint_errors <> [] then
    {
      pr_profile = p.Profiles.name;
      pr_fns = [];
      pr_ok = false;
      pr_time_s = Unix.gettimeofday () -. t0;
      pr_bytes = 0;
      pr_front_end_errors = [];
      pr_lint = lint_diags;
      pr_prof = None;
      pr_cache = None;
      pr_ladder = None;
    }
  else
  let front_end_errors =
    (match Typecheck.check_program prog with Ok () -> [] | Error es -> es)
    @ (match Ownership.check_program prog with Ok () -> [] | Error es -> es)
  in
  if front_end_errors <> [] then
    {
      pr_profile = p.Profiles.name;
      pr_fns = [];
      pr_ok = false;
      pr_time_s = Unix.gettimeofday () -. t0;
      pr_bytes = 0;
      pr_front_end_errors = front_end_errors;
      pr_lint = lint_diags;
      pr_prof = None;
      pr_cache = None;
      pr_ladder = None;
    }
  else begin
    let cache = Option.map Vcache.open_ cache_cfg in
    let axioms = Encode.program_axioms p prog in
    let ax_index = axiom_index_table axioms in
    (* The steering signal: VL010's matching-loop verdicts over the
       program's axiom set, computed once per run (only worth it when a
       multi-rung ladder can actually steer). *)
    let vl010 =
      match ladder with
      | Some l when Ladder.length l > 1 -> Vlint.vl010_heads (Vlint.check_axioms p axioms)
      | _ -> []
    in
    let env =
      make_env ~profile ~certify ~analyze ~cache ~ladder ~vl010 p prog ~axioms ~ax_index
    in
    let targets =
      List.filter (fun fd -> fd.fmode <> Spec && fd.body <> None) prog.functions
    in
    (* Obligation scheduling.  One {!Verusd.Sched.batch} covers the
       whole program: a per-function task encodes the function and then
       submits one solve task per VC into the same batch; [Sched.await]
       is the barrier.  The batch runs per [config.pool]: inline, on a
       transient pool of [n] domains (the CLI's [--jobs]), or on the
       caller's long-lived pool (the daemon's warm pool) — three
       executions of the same code path, so verdicts and
       {!result_digest} are identical whichever ran.

       Encoding inside the scheduled task (rather than up front) is
       load-bearing: proof certificates are sensitive to global
       term-interning order, and keeping each function's encode
       adjacent to its solves reproduces a sequential run's interning
       layout (Sched's depth-first own-deque discipline does the same
       under work stealing — see sched.mli).

       Results are published by index: a worker writes [vc_out.(fi).(vi)]
       and then counts down [remaining.(fi)] with an atomic RMW; the
       worker that sees the count hit zero assembles the function verdict
       (the atomic orders the writes, so it sees all of them).  Progress
       events fire in the finishing worker's domain — [on_progress] must
       be thread-safe when a pool is in play. *)
    let emit ev = match on_progress with Some f -> f ev | None -> () in
    let fn_arr = Array.of_list targets in
    let nfns = Array.length fn_arr in
    let fn_out = Array.make nfns None in
    let vc_out = Array.make nfns [||] in
    let remaining = Array.map (fun _ -> Atomic.make 0) fn_out in
    let b = Verusd.Sched.batch () in
    let go submit =
      (* A function's obligations form a sequential chain: finishing VC
         [vi] submits VC [vi + 1].  The chain head is an ordinary
         stealable task — obligations migrate between workers at VC
         granularity (a long function does not hog its worker, which is
         what keeps the daemon's burst queue latency flat) — but two VCs
         of one function never run concurrently or out of order.  That
         ordering is load-bearing: a function's solves share interned
         terms, and racing their creation order perturbs the proof
         certificates (term interning is layout-sensitive; see
         sched.mli).

         Escalation makes the chain dynamic: an attempt that must climb
         resubmits itself as a fresh task ([`Resume]), so one stubborn
         obligation's stronger retries overlap other chains' first
         attempts instead of blocking a worker — but VC [vi]'s whole
         climb still completes before [vi + 1] starts. *)
      let rec solve_step fi vi vcs st () =
        let step =
          match st with
          | `Start -> (
            match start_vc env vcs.(vi) with
            | Escalated pd -> attempt_vc env pd
            | fin -> fin)
          | `Resume pd -> attempt_vc env pd
        in
        match step with
        | Escalated pd -> submit (solve_step fi vi vcs (`Resume pd))
        | Finished r ->
          vc_out.(fi).(vi) <- Some r;
          emit (Vc_done (fn_arr.(fi).fname, r));
          (if vi + 1 < Array.length vcs then submit (solve_step fi (vi + 1) vcs `Start));
          if Atomic.fetch_and_add remaining.(fi) (-1) = 1 then begin
            let results = Array.to_list vc_out.(fi) |> List.filter_map Fun.id in
            let fnr = fn_result_of_vcs fn_arr.(fi) ~profile results in
            fn_out.(fi) <- Some fnr;
            emit (Fn_done fnr)
          end
      in
      let fn_task fi () =
        let vcs = Array.of_list (Encode.encode_function p prog fn_arr.(fi)) in
        if Array.length vcs = 0 then begin
          (* Everything discharged during encoding. *)
          let fnr = fn_result_of_vcs fn_arr.(fi) ~profile [] in
          fn_out.(fi) <- Some fnr;
          emit (Fn_done fnr)
        end
        else begin
          vc_out.(fi) <- Array.make (Array.length vcs) None;
          Atomic.set remaining.(fi) (Array.length vcs);
          (* The chain head lands on this worker's own deque head (or
             runs inline on the sequential path), so the first solve
             executes right after the encode unless stolen. *)
          submit (solve_step fi 0 vcs `Start)
        end
      in
      for fi = 0 to nfns - 1 do
        submit (fn_task fi)
      done;
      Verusd.Sched.await b
    in
    (match pool with
    | Config.Borrowed pool -> go (fun task -> Verusd.Sched.submit pool b task)
    | Config.Domains n when nfns > 0 ->
      (* Domains are not capped at the function count: obligations are
         stolen at VC granularity, so extra domains still help a single
         many-VC function. *)
      let pool = Verusd.Sched.create ~domains:n in
      Fun.protect
        ~finally:(fun () -> Verusd.Sched.shutdown pool)
        (fun () -> go (fun task -> Verusd.Sched.submit pool b task))
    | Config.Inline | Config.Domains _ -> go (fun task -> Verusd.Sched.submit_now b task));
    let results = Array.to_list fn_out |> List.filter_map Fun.id in
    let pr_cache =
      match cache with
      | None -> None
      | Some c ->
        (match Vcache.flush c with
        | Ok () -> ()
        | Error e -> Printf.eprintf "warning: verification cache not saved: %s\n%!" e);
        Some (Vcache.stats c)
    in
    (* Post-verification lints only the driver can see — both excluded
       from {!result_digest}: VL034 flags verdicts served from cache hits
       that never passed the certificate kernel (only warm runs have
       hits, and warm/cold must digest equally); VL047 surfaces the
       prescreen's [Refuted] advisories (only analyzed runs have a
       prescreen, and analyzed/plain runs that agree must digest
       equally). *)
    let cache_lint =
      if lint = Lint_ignore then []
      else
        List.concat_map
          (fun fnr ->
            List.filter_map
              (fun v ->
                match v.vcr_cert with
                | Cert_uncertified_hit ->
                  Some
                    {
                      Vlint.code = "VL034";
                      severity = Vlint.Info;
                      fn = Some fnr.fnr_name;
                      message =
                        Printf.sprintf
                          "verdict for %S served from a cache hit with no certificate \
                           digest; re-run with --certify to upgrade the entry"
                          v.vcr_name;
                    }
                | _ -> None)
              fnr.fnr_vcs)
          results
    in
    let prescreen_lint =
      if lint = Lint_ignore then []
      else
        List.concat_map
          (fun fnr ->
            List.filter_map
              (fun v ->
                if not v.vcr_prescreen_refuted then None
                else
                  Some
                    {
                      Vlint.code = "VL047";
                      severity = Vlint.Info;
                      fn = Some fnr.fnr_name;
                      message =
                        Printf.sprintf
                          "prescreen found an abstract counterexample for %S (rung-0 \
                           Refuted advisory); if the solver fails too, suspect the \
                           obligation itself before blaming automation strength"
                          v.vcr_name;
                    })
              fnr.fnr_vcs)
          results
    in
    (* Ladder observability, rebuilt deterministically from the per-VC
       provenance fields (no shared-counter races under [jobs > 1]). *)
    let pr_ladder =
      match ladder with
      | None -> None
      | Some l ->
        let nr = Ladder.length l in
        let attempts = Array.make nr 0 in
        let wins = Array.make nr 0 in
        let escalations = ref 0 in
        let steered = ref 0 in
        let cache_hits = ref 0 in
        let hint_starts = ref 0 in
        List.iter
          (fun fnr ->
            List.iter
              (fun v ->
                if v.vcr_source = Src_cache then incr cache_hits;
                (match v.vcr_rung with
                | Some w when w >= 0 && w < nr -> wins.(w) <- wins.(w) + 1
                | _ -> ());
                match v.vcr_rungs_tried with
                | [] -> ()
                | first :: _ as tried ->
                  if first > 0 then incr hint_starts;
                  List.iteri
                    (fun k r ->
                      if r >= 0 && r < nr then attempts.(r) <- attempts.(r) + 1;
                      if k > 0 then incr escalations)
                    tried;
                  let rec gaps = function
                    | a :: (b :: _ as rest) ->
                      if b - a > 1 then incr steered;
                      gaps rest
                    | _ -> ()
                  in
                  gaps tried)
              fnr.fnr_vcs)
          results;
        Some
          {
            ls_ladder = Ladder.name l;
            ls_rungs = nr;
            ls_attempts = attempts;
            ls_wins = wins;
            ls_escalations = !escalations;
            ls_steered = !steered;
            ls_cache_hits = !cache_hits;
            ls_hint_starts = !hint_starts;
          }
    in
    {
      pr_profile = p.Profiles.name;
      pr_fns = results;
      pr_ok = List.for_all (fun r -> r.fnr_ok) results;
      pr_time_s = Unix.gettimeofday () -. t0;
      pr_bytes = List.fold_left (fun acc r -> acc + r.fnr_bytes) 0 results;
      pr_front_end_errors = [];
      pr_lint = lint_diags @ cache_lint @ prescreen_lint;
      pr_prof =
        (if profile then Some (aggregate_program_profile p ~axioms results) else None);
      pr_cache;
      pr_ladder;
    }
  end

(* How many obligations the Vflow prescreen discharged without a solver
   query — the numerator of the bench ablation's discharge rate. *)
let prescreen_discharged (pr : program_result) : int =
  List.fold_left
    (fun acc fnr ->
      acc
      + List.fold_left
          (fun acc r -> if r.vcr_source = Src_prescreen then acc + 1 else acc)
          0 fnr.fnr_vcs)
    0 pr.pr_fns

let result_digest (pr : program_result) : string =
  let b = Buffer.create 2048 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let ans = function
    | Smt.Solver.Unsat -> "unsat"
    | Smt.Solver.Sat -> "sat"
    | Smt.Solver.Unknown r -> "unknown:" ^ r
  in
  (* Cold-checked and warm-cached certificates render identically (the
     digest is the same certificate's), preserving cache transparency;
     Cert_off and Cert_uncertified_hit render nothing for the same reason
     (a certify-off cold run cannot know it will be served warm later). *)
  let cert = function
    | Cert_off | Cert_uncertified_hit -> ""
    | Cert_checked d | Cert_cached d -> "|cert=" ^ d
    | Cert_rejected (code, _) -> "|cert-rejected=" ^ code
    | Cert_unavailable _ -> "|cert-unavailable"
  in
  add "profile=%s ok=%b" pr.pr_profile pr.pr_ok;
  List.iter (fun e -> add "fe:%s" e) pr.pr_front_end_errors;
  List.iter
    (fun (d : Vlint.diag) ->
      (* VL034 only fires on warm runs and VL047 only on analyzed ones;
         including either would break the warm/cold (and analyzed/plain)
         digest-equality invariants. *)
      if d.Vlint.code <> "VL034" && d.Vlint.code <> "VL047" then
        add "lint:%s" (Vlint.diag_to_string d))
    pr.pr_lint;
  List.iter
    (fun fnr ->
      add "fn:%s ok=%b" fnr.fnr_name fnr.fnr_ok;
      (* [vcr_detail] and the byte counts are deliberately excluded: the
         default-mode detail string embeds solver phase times (wall-clock),
         and printed sizes vary with the process-global fresh-symbol
         counter — run artifacts, not decisions. *)
      List.iter
        (fun v -> add "vc:%s|%s%s" v.vcr_name (ans v.vcr_answer) (cert v.vcr_cert))
        fnr.fnr_vcs)
    pr.pr_fns;
  Vbase.Hash.string128 (Buffer.contents b)

let first_failure (pr : program_result) =
  match Vlint.errors pr.pr_lint with
  | d :: _ when pr.pr_fns = [] && pr.pr_front_end_errors = [] ->
    Some ((match d.Vlint.fn with Some f -> f | None -> "<program>"), d.Vlint.message, d.Vlint.code)
  | _ -> (
    match pr.pr_front_end_errors with
    | e :: _ -> Some ("<front-end>", e, "FE001")
    | [] ->
      List.find_map
        (fun fnr ->
          List.find_map
            (fun v ->
              match v.vcr_answer with
              | Smt.Solver.Unsat when cert_ok v -> None
              | Smt.Solver.Unsat ->
                (* Proved by the solver, disowned by the kernel. *)
                Some (fnr.fnr_name, v.vcr_name, "VC003")
              | Smt.Solver.Sat -> Some (fnr.fnr_name, v.vcr_name, "VC001")
              | Smt.Solver.Unknown _ -> Some (fnr.fnr_name, v.vcr_name, "VC002"))
            fnr.fnr_vcs)
        pr.pr_fns)
