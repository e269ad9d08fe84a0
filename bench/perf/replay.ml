(* The traced replay: one request pushed through the driver's lifecycle
   again, stage by stage, from the bench's own calls into each layer's
   public functions — so every layer is timed from outside and no span
   lives inside the library.  The order follows [Driver.verify_program]:

     front end -> program axioms -> Vcache.open_ -> per function: encode ->
     per obligation: context -> prescreen -> fingerprint / lookup ->
     one solve per rung the untraced run recorded (or a §3.3 mode) ->
     Vcheck -> store  ...  -> flush

   Escalation steering is not re-derived: each obligation replays exactly
   the rungs its untraced run tried ([vcr_rungs_tried]). *)

open Verus
module T = Smt.Term
module Ladder = Driver.Ladder
module Rung = Driver.Rung

type setting = {
  ladder : Ladder.t option;
  analyze : bool;
  certify : bool;
  cache_dir : string option;
}

(* Counts the replay accumulates across requests, for the per-layer
   metrics; solver phase seconds come from [result.profile.phase]. *)
type counters = {
  mutable vcs : int;
  mutable ctx_kept : int;  (** axioms in the VC's context, summed over VCs *)
  mutable ctx_total : int;  (** axioms of the program, summed over VCs *)
  mutable pre_checked : int;
  mutable pre_discharged : int;
  mutable lookups : int;
  mutable hits : int;
  mutable invalidations : int;
  mutable attempts : int;
  mutable escalations : int;
  mutable useful : int;  (** attempts whose answer was the verdict *)
  mutable escalated_s : float;  (** solver seconds of attempts that escalated *)
  mutable solve_s : float;  (** solver seconds of all attempts *)
  mutable sat_s : float;
  mutable euf_s : float;
  mutable lia_s : float;
  mutable comb_s : float;
  mutable ematch_s : float;
  mutable instances : int;
  mutable conflicts : int;
  mutable rounds : int;
  mutable unknown : int;
  mutable modes_calls : int;
  mutable certs : int;
  mutable rejected : int;
}

let counters () =
  {
    vcs = 0;
    ctx_kept = 0;
    ctx_total = 0;
    pre_checked = 0;
    pre_discharged = 0;
    lookups = 0;
    hits = 0;
    invalidations = 0;
    attempts = 0;
    escalations = 0;
    useful = 0;
    escalated_s = 0.0;
    solve_s = 0.0;
    sat_s = 0.0;
    euf_s = 0.0;
    lia_s = 0.0;
    comb_s = 0.0;
    ematch_s = 0.0;
    instances = 0;
    conflicts = 0;
    rounds = 0;
    unknown = 0;
    modes_calls = 0;
    certs = 0;
    rejected = 0;
  }

let answer_string = function
  | Smt.Solver.Unsat -> "unsat"
  | Smt.Solver.Sat -> "sat"
  | Smt.Solver.Unknown _ -> "unknown"

(* One per-VC answer: function, obligation, answer class. *)
type vc_answer = string * string * string

let answers_of (pr : Driver.program_result) : vc_answer list =
  List.concat_map
    (fun (fnr : Driver.fn_result) ->
      List.map
        (fun (v : Driver.vc_result) ->
          (fnr.Driver.fnr_name, v.Driver.vcr_name, answer_string v.Driver.vcr_answer))
        fnr.Driver.fnr_vcs)
    pr.Driver.pr_fns

(* Rungs each obligation tried, by (function, index within it). *)
let rungs_of (pr : Driver.program_result) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (fnr : Driver.fn_result) ->
      List.iteri
        (fun vi (v : Driver.vc_result) ->
          Hashtbl.replace tbl (fnr.Driver.fnr_name, vi) v.Driver.vcr_rungs_tried)
        fnr.Driver.fnr_vcs)
    pr.Driver.pr_fns;
  fun fn vi -> Option.value ~default:[] (Hashtbl.find_opt tbl (fn, vi))

let outcome_answer = function
  | Modes.Proved -> Smt.Solver.Unsat
  | Modes.Refuted _ -> Smt.Solver.Sat
  | Modes.Unsupported m -> Smt.Solver.Unknown m

let request rc c s (p : Profiles.t) (prog : Vir.program) ~rungs : vc_answer list =
  let span name f = Span.within rc name f in
  if p.Profiles.epr_only then invalid_arg "replay: EPR-only profiles are not part of any workload";
  let front_end_ok =
    span "frontend" (fun () ->
        let tc = Typecheck.check_program prog in
        let ow = Ownership.check_program prog in
        Result.is_ok tc && Result.is_ok ow)
  in
  if not front_end_ok then []
  else begin
    let cache = Option.map (fun dir -> span "vcache.open" (fun () -> Vcache.open_ { Vcache.dir })) s.cache_dir in
    let axioms = span "context" (fun () -> Encode.program_axioms p prog) in
    let n_axioms = List.length axioms in
    let rung_arr = Ladder.rungs (Option.value s.ladder ~default:Ladder.identity) in
    (* The driver computes the VL010 steering signal once per run when a
       multi-rung ladder can steer; the replay pays the same cost. *)
    (match s.ladder with
    | Some l when Ladder.length l > 1 ->
      ignore (span "vladder" (fun () -> Vlint.vl010_heads (Vlint.check_axioms p axioms)))
    | _ -> ());
    let analyze = s.analyze && not s.certify in
    let explicit = s.ladder <> None in
    let ladder_fp = Option.map Ladder.fingerprint s.ladder in
    let obligation (fd : Vir.fndecl) vi (vc : Encode.vc) =
      span "obligation" @@ fun () ->
      c.vcs <- c.vcs + 1;
      (* Like the driver, a profile that does not prune ships the program
         axioms computed once above; [context_for] would rebuild them. *)
      let context =
        if p.Profiles.pruning then span "context" (fun () -> Driver.context_for p prog vc) else axioms
      in
      c.ctx_kept <- c.ctx_kept + List.length context;
      c.ctx_total <- c.ctx_total + n_axioms;
      let pre =
        if not analyze then None
        else begin
          c.pre_checked <- c.pre_checked + 1;
          Some
            (span "prescreen" (fun () ->
                 Vflow.Prescreen.check ~hyps:(context @ vc.Encode.vc_hyps) ~goal:vc.Encode.vc_goal ()))
        end
      in
      match pre with
      | Some pr when pr.Vflow.Prescreen.verdict = Vflow.Prescreen.Proved ->
        c.pre_discharged <- c.pre_discharged + 1;
        Smt.Solver.Unsat
      | _ -> (
        let facts, drop =
          match pre with
          | Some pr -> (pr.Vflow.Prescreen.facts, pr.Vflow.Prescreen.drop)
          | None -> ([], [])
        in
        let undropped ts =
          if drop = [] then ts else List.filter (fun h -> not (List.exists (T.equal h) drop)) ts
        in
        let eff_hyps = undropped vc.Encode.vc_hyps in
        let fp =
          Option.map
            (fun _ ->
              let fp_context =
                match s.ladder with
                | Some l when Ladder.widens l && p.Profiles.pruning -> axioms
                | _ -> context
              in
              span "vcache.fingerprint" (fun () ->
                  Vcache.fingerprint ~analyze ?ladder:ladder_fp ~profile:p ~prog ~context:fp_context vc))
            cache
        in
        let hit =
          match (cache, fp) with
          | Some ch, Some fp ->
            span "vcache.lookup" (fun () ->
                Vcache.lookup ch ~name:vc.Encode.vc_name ~fp ~profile_wanted:false
                  ~certified_wanted:s.certify)
          | _ -> None
        in
        match hit with
        | Some e -> e.Vcache.e_answer
        | None ->
          let tried = match rungs fd.Vir.fname vi with [] -> [ 0 ] | l -> l in
          let pruned =
            lazy
              (if p.Profiles.pruning then context
               else
                 span "context" (fun () ->
                     Driver.context_for { p with Profiles.pruning = true } prog vc))
          in
          let base_cfg =
            if s.certify then { p.Profiles.solver_config with Smt.Solver.certify = true }
            else p.Profiles.solver_config
          in
          (* Replay the recorded climb; like the driver, an Unsat ends it. *)
          let rec climb k = function
            | [] -> assert false
            | i :: rest ->
              let rung = rung_arr.(i) in
              let base_ctx =
                match rung.Rung.r_pruning with
                | Rung.P_profile -> context
                | Rung.P_prune -> Lazy.force pruned
                | Rung.P_full -> axioms
              in
              let cfg = Rung.apply_config rung base_cfg in
              let budget = cfg.Smt.Solver.budget in
              let goal = vc.Encode.vc_goal in
              let mode f =
                c.modes_calls <- c.modes_calls + 1;
                let o, cert = span "modes" f in
                (outcome_answer o, cert)
              in
              let plain f () = (f (), None) in
              let t0 = Unix.gettimeofday () in
              let answer, cert =
                match vc.Encode.vc_hint with
                | Vir.H_default ->
                  let r =
                    span "smt" (fun () ->
                        Smt.Solver.check_valid ~config:cfg
                          ~hyps:(undropped base_ctx @ eff_hyps @ facts) goal)
                  in
                  let ph = r.Smt.Solver.profile.Smt.Profile.phase in
                  c.sat_s <- c.sat_s +. ph.Smt.Profile.ph_sat;
                  c.euf_s <- c.euf_s +. ph.Smt.Profile.ph_euf;
                  c.lia_s <- c.lia_s +. ph.Smt.Profile.ph_lia;
                  c.comb_s <- c.comb_s +. ph.Smt.Profile.ph_comb;
                  c.ematch_s <- c.ematch_s +. ph.Smt.Profile.ph_ematch;
                  c.instances <- c.instances + r.Smt.Solver.stats.Smt.Solver.instances;
                  c.conflicts <- c.conflicts + r.Smt.Solver.stats.Smt.Solver.conflicts;
                  c.rounds <- c.rounds + r.Smt.Solver.stats.Smt.Solver.rounds;
                  (r.Smt.Solver.answer, r.Smt.Solver.cert)
                | Vir.H_bit_vector ->
                  mode
                    (if s.certify then fun () -> Modes.prove_bit_vector_cert ~budget goal
                     else plain (fun () -> Modes.prove_bit_vector ~budget goal))
                | Vir.H_nonlinear ->
                  mode
                    (if s.certify then fun () -> Modes.prove_nonlinear_cert ~budget goal
                     else plain (fun () -> Modes.prove_nonlinear ~budget goal))
                | Vir.H_integer_ring ->
                  mode
                    (if s.certify then fun () -> Modes.prove_integer_ring_cert ~budget goal
                     else plain (fun () -> Modes.prove_integer_ring ~budget goal))
                | Vir.H_compute -> (
                  match vc.Encode.vc_expr with
                  | Some e ->
                    mode
                      (if s.certify then fun () -> Modes.prove_compute_cert ~budget prog e
                       else plain (fun () -> Modes.prove_compute ~budget prog e))
                  | None -> (Smt.Solver.Unknown "compute assert lost its expression", None))
              in
              let dt = Unix.gettimeofday () -. t0 in
              c.attempts <- c.attempts + 1;
              c.solve_s <- c.solve_s +. dt;
              if k > 0 then c.escalations <- c.escalations + 1;
              if answer = Smt.Solver.Unsat || rest = [] then begin
                c.useful <- c.useful + 1;
                (answer, cert, i)
              end
              else begin
                c.escalated_s <- c.escalated_s +. dt;
                climb (k + 1) rest
              end
          in
          let answer, cert, rung = climb 0 tried in
          (match answer with Smt.Solver.Unknown _ -> c.unknown <- c.unknown + 1 | _ -> ());
          let cert_digest =
            match (s.certify, answer, cert) with
            | true, Smt.Solver.Unsat, Some ce -> (
              c.certs <- c.certs + 1;
              match span "vcheck" (fun () -> Vcheck.check (Smt.Cert.to_json ce)) with
              | Vcheck.Checked _ -> Some (Smt.Cert.digest ce)
              | Vcheck.Rejected _ ->
                c.rejected <- c.rejected + 1;
                None)
            | true, Smt.Solver.Unsat, None ->
              c.rejected <- c.rejected + 1;
              None
            | _ -> None
          in
          (match (cache, fp) with
          | Some ch, Some fp ->
            span "vcache.store" (fun () ->
                Vcache.store ch ~name:vc.Encode.vc_name ~fp
                  {
                    Vcache.e_answer = answer;
                    e_detail = "";
                    e_bytes = 0;
                    e_time_s = 0.0;
                    e_profile = None;
                    e_cert_digest = cert_digest;
                    e_rung = (if explicit then Some rung else None);
                  })
          | _ -> ());
          answer)
    in
    let targets =
      List.filter
        (fun (fd : Vir.fndecl) -> fd.Vir.fmode <> Vir.Spec && fd.Vir.body <> None)
        prog.Vir.functions
    in
    let answers =
      List.concat_map
        (fun (fd : Vir.fndecl) ->
          let vcs = span "encode" (fun () -> Encode.encode_function p prog fd) in
          List.mapi
            (fun vi vc -> (fd.Vir.fname, vc.Encode.vc_name, answer_string (obligation fd vi vc)))
            vcs)
        targets
    in
    (match cache with
    | Some ch ->
      ignore (span "vcache.flush" (fun () -> Vcache.flush ch));
      let st = Vcache.stats ch in
      c.lookups <- c.lookups + st.Vcache.hits + st.Vcache.misses + st.Vcache.invalidations;
      c.hits <- c.hits + st.Vcache.hits;
      c.invalidations <- c.invalidations + st.Vcache.invalidations
    | None -> ());
    answers
  end
