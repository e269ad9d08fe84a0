(* The one job path: a verus-rpc/1 query, resolved against the bundled
   program/profile tables, becomes one Driver.Config ([config]) and one
   run with its done payload ([run_job]).  The daemon's handler calls it
   on its long-lived Sched pool; the CLI calls it inline or on a
   transient pool — so a daemon answer and a local answer for one job
   are the same computation. *)

(* ------------------- bundled programs and profiles ----------------- *)

let programs =
  [
    ("singly_linked", fun () -> Bench_programs.singly_linked);
    ("doubly_linked", fun () -> Bench_programs.doubly_linked);
    ("mem4", fun () -> Bench_programs.memory_reasoning 4);
    ("mem8", fun () -> Bench_programs.memory_reasoning 8);
    ("dlock", fun () -> Bench_programs.dlock_default);
    ("break_pop", fun () -> Bench_programs.break_pop);
    ("break_index", fun () -> Bench_programs.break_index);
    ("vstd_seq", fun () -> Vstd_seq.program);
    ("const_cond", fun () -> Bench_programs.const_cond);
  ]

let program_names = List.map fst programs

let profile_names = List.map (fun (p : Profiles.t) -> p.Profiles.name) Profiles.all

let find_program name =
  match List.assoc_opt name programs with
  | Some f -> Ok (f ())
  | None ->
    Error
      (Printf.sprintf "unknown program %s (have: %s)" name
         (String.concat ", " program_names))

let find_profile name =
  (* Case-insensitive, and "fstar"/"lowstar" for the awkward "F*/Low*". *)
  let norm s = String.lowercase_ascii s in
  let matches (p : Profiles.t) =
    String.equal (norm p.Profiles.name) (norm name)
    || (String.equal p.Profiles.name "F*/Low*"
       && List.mem (norm name) [ "fstar"; "f*"; "lowstar"; "low*" ])
  in
  match List.find_opt matches Profiles.all with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown profile %s (have: %s)" name
         (String.concat ", " profile_names))

(* ------------------------- exit-code policy ------------------------ *)

(* A run that failed *only* on Unknown answers (solver deadline /
   instantiation budget) is a budget exhaustion, not a refutation: exit
   3 so callers can distinguish "needs a stronger rung" from "has a
   counterexample". *)
let budget_only (r : Driver.program_result) =
  (not r.Driver.pr_ok)
  && r.Driver.pr_front_end_errors = []
  && r.Driver.pr_fns <> []
  && List.for_all
       (fun (fnr : Driver.fn_result) ->
         List.for_all
           (fun (vr : Driver.vc_result) ->
             match vr.Driver.vcr_answer with
             | Smt.Solver.Unsat | Smt.Solver.Unknown _ -> true
             | Smt.Solver.Sat -> false)
           fnr.Driver.fnr_vcs)
       r.Driver.pr_fns

(* Any obligation the certificate kernel disowned (rejected or missing
   certificate under --certify).  Checked before [budget_only]: such a
   run's answers are all Unsat, which would otherwise read as exit 3. *)
let cert_failed (r : Driver.program_result) =
  List.exists
    (fun (fnr : Driver.fn_result) ->
      List.exists
        (fun (vr : Driver.vc_result) ->
          match vr.Driver.vcr_cert with
          | Driver.Cert_rejected _ | Driver.Cert_unavailable _ -> true
          | _ -> false)
        fnr.Driver.fnr_vcs)
    r.Driver.pr_fns

let result_exit_code (r : Driver.program_result) =
  if r.Driver.pr_ok then 0 else if cert_failed r then 5 else if budget_only r then 3 else 1

(* ------------------------------ one job ----------------------------- *)

module J = Vbase.Json
module Rpc = Verusd.Rpc

let kind_string = function
  | Rpc.Verify -> "verify"
  | Rpc.Lint -> "lint"
  | Rpc.Profile -> "profile"

(* The one resolver for automation strength: a ladder name and/or a
   rung pin. *)
let resolve_ladder ~ladder ~rung : (Vladder.Ladder.t option, string) result =
  match (ladder, rung) with
  | None, None -> Ok None
  | _ ->
    let base =
      match ladder with
      | None -> Ok Vladder.Ladder.escalate
      | Some name -> (
        match Vladder.Ladder.by_name name with
        | Some l -> Ok l
        | None ->
          Error
            (Printf.sprintf "unknown ladder %s (have: %s)" name
               (String.concat ", " (List.map fst Vladder.Ladder.builtins))))
    in
    Result.bind base (fun l ->
        match rung with
        | None -> Ok (Some l)
        | Some r -> Result.map Option.some (Vladder.Ladder.pin l r))

(* The one query-to-Config mapping.  Profile jobs lint at warn, whatever
   [q_lint] says: the VL010 cross-check needs findings to compare measured
   hot-spots against. *)
let config ~pool ~cache_dir (q : Rpc.query) =
  Result.map
    (fun ladder ->
      {
        Driver.Config.pool;
        lint =
          (match (q.Rpc.q_kind, q.Rpc.q_lint) with
          | Rpc.Profile, _ -> Driver.Lint_warn
          | _, Rpc.Lint_off -> Driver.Lint_ignore
          | _, Rpc.Lint_warn -> Driver.Lint_warn
          | _, Rpc.Lint_strict -> Driver.Lint_strict);
        profile = q.Rpc.q_kind = Rpc.Profile;
        certify = q.Rpc.q_certify;
        analyze = q.Rpc.q_analyze;
        ladder;
        cache =
          (match cache_dir with Some dir when q.Rpc.q_cache -> Some { Vcache.dir } | _ -> None);
      })
    (resolve_ladder ~ladder:q.Rpc.q_ladder ~rung:q.Rpc.q_rung)

let ladder_stats_json (r : Driver.program_result) =
  match r.Driver.pr_ladder with
  | None -> []
  | Some ls ->
    let ints a = J.List (Array.to_list (Array.map (fun n -> J.Int n) a)) in
    [
      ( "ladder",
        J.Obj
          [
            ("name", J.String ls.Driver.ls_ladder);
            ("rungs", J.Int ls.Driver.ls_rungs);
            ("attempts", ints ls.Driver.ls_attempts);
            ("wins", ints ls.Driver.ls_wins);
            ("escalations", J.Int ls.Driver.ls_escalations);
            ("steered", J.Int ls.Driver.ls_steered);
            ("cache_hits", J.Int ls.Driver.ls_cache_hits);
            ("hint_starts", J.Int ls.Driver.ls_hint_starts);
          ] );
    ]

let cache_stats_json (r : Driver.program_result) =
  match r.Driver.pr_cache with
  | None -> []
  | Some cs ->
    [
      ( "cache",
        J.Obj
          [
            ("hits", J.Int cs.Vcache.hits);
            ("misses", J.Int cs.Vcache.misses);
            ("invalidations", J.Int cs.Vcache.invalidations);
            ("stores", J.Int cs.Vcache.stores);
          ] );
    ]

(* A lint job runs only the static analyses — no SMT work.  The digest
   covers the rendered findings, so two lint answers are compared the
   same way verification digests are. *)
let lint_done ~(q : Rpc.query) ~strict (profile : Profiles.t) ds ~time_s =
  let count sev = List.length (List.filter (fun (d : Vlint.diag) -> d.Vlint.severity = sev) ds) in
  let errors = count Vlint.Error and warns = count Vlint.Warn in
  let ok = errors = 0 && ((not strict) || warns = 0) in
  let digest =
    Digest.to_hex (Digest.string (String.concat "\n" (List.map Vlint.diag_to_string ds)))
  in
  J.Obj
    [
      ("kind", J.String "lint");
      ("program", J.String q.Rpc.q_program);
      ("profile", J.String profile.Profiles.name);
      ("ok", J.Bool ok);
      ("exit_code", J.Int (if ok then 0 else 1));
      ("digest", J.String digest);
      ("time_s", J.Float time_s);
      ("findings", J.Int (List.length ds));
      ("errors", J.Int errors);
      ("warnings", J.Int warns);
      ("strict", J.Bool strict);
    ]

let verify_done ~(q : Rpc.query) (profile : Profiles.t) (r : Driver.program_result) =
  let vcs =
    List.fold_left (fun acc (fnr : Driver.fn_result) -> acc + List.length fnr.Driver.fnr_vcs) 0
      r.Driver.pr_fns
  in
  J.Obj
    ([
       ("kind", J.String (kind_string q.Rpc.q_kind));
       ("program", J.String q.Rpc.q_program);
       ("profile", J.String profile.Profiles.name);
       ("ok", J.Bool r.Driver.pr_ok);
       ("exit_code", J.Int (result_exit_code r));
       ("digest", J.String (Driver.result_digest r));
       ("time_s", J.Float r.Driver.pr_time_s);
       ("fns", J.Int (List.length r.Driver.pr_fns));
       ("vcs", J.Int vcs);
       ("lint_findings", J.Int (List.length r.Driver.pr_lint));
       ( "front_end_errors",
         J.List (List.map (fun e -> J.String e) r.Driver.pr_front_end_errors) );
     ]
    @ cache_stats_json r @ ladder_stats_json r
    @
    if q.Rpc.q_kind = Rpc.Profile then
      [ ("report", Profile_report.to_json ~prog_name:q.Rpc.q_program r) ]
    else [])

type run = Verified of Driver.program_result | Linted of Vlint.diag list
type job = { config : Driver.Config.t; run : run; done_ : J.t }

let run_job ?on_progress ~pool ~cache_dir (q : Rpc.query) (profile : Profiles.t) prog =
  Result.map
    (fun config ->
      match q.Rpc.q_kind with
      | Rpc.Lint ->
        let t0 = Unix.gettimeofday () in
        let ds = Vlint.lint profile prog in
        let strict = config.Driver.Config.lint = Driver.Lint_strict in
        let done_ = lint_done ~q ~strict profile ds ~time_s:(Unix.gettimeofday () -. t0) in
        { config; run = Linted ds; done_ }
      | Rpc.Verify | Rpc.Profile ->
        let r = Driver.verify_program ~config ?on_progress profile prog in
        { config; run = Verified r; done_ = verify_done ~q profile r })
    (config ~pool ~cache_dir q)

(* ---------------------------- the engine --------------------------- *)

type t = {
  pool : Verusd.Sched.t;
  cache_dir : string option;
  started_at : float;
  n_requests : int Atomic.t;
}

let create ~domains ?cache_dir () =
  {
    pool = Verusd.Sched.create ~domains;
    cache_dir;
    started_at = Unix.gettimeofday ();
    n_requests = Atomic.make 0;
  }

let shutdown t = Verusd.Sched.shutdown t.pool

let answer_string = function
  | Smt.Solver.Unsat -> "unsat"
  | Smt.Solver.Sat -> "sat"
  | Smt.Solver.Unknown _ -> "unknown"

(* Verdict events as obligations and functions complete.  [cached] is a
   warm hit in the shared cache, whatever its answer and whether or not
   the entry carried a certificate digest. *)
let stream_event = function
  | Driver.Vc_done (fn, vr) ->
    Rpc.E_vc
      {
        fn;
        vc = vr.Driver.vcr_name;
        answer = answer_string vr.Driver.vcr_answer;
        reason = (match vr.Driver.vcr_answer with Smt.Solver.Unknown m -> Some m | _ -> None);
        time_s = vr.Driver.vcr_time_s;
        cached = vr.Driver.vcr_source = Driver.Src_cache;
        rung = vr.Driver.vcr_rung;
      }
  | Driver.Fn_done fnr ->
    Rpc.E_fn
      {
        fn = fnr.Driver.fnr_name;
        ok = fnr.Driver.fnr_ok;
        time_s = fnr.Driver.fnr_time_s;
        vcs = List.length fnr.Driver.fnr_vcs;
      }

let status_json t =
  let s = Verusd.Sched.stats t.pool in
  J.Obj
    [
      ("uptime_s", J.Float (Unix.gettimeofday () -. t.started_at));
      ("requests", J.Int (Atomic.get t.n_requests));
      ("domains", J.Int s.Verusd.Sched.sd_domains);
      ( "cache_dir",
        match t.cache_dir with Some d -> J.String d | None -> J.Null );
      ( "sched",
        J.Obj
          [
            ("submitted", J.Int s.Verusd.Sched.sd_submitted);
            ( "executed",
              J.List (List.map (fun n -> J.Int n) s.Verusd.Sched.sd_executed) );
            ("stolen", J.Int s.Verusd.Sched.sd_stolen);
            ("batches", J.Int s.Verusd.Sched.sd_batches);
          ] );
      ("programs", J.List (List.map (fun n -> J.String n) program_names));
      ("profiles", J.List (List.map (fun n -> J.String n) profile_names));
    ]

(* ----------------------------- handler ----------------------------- *)

let handler t : Verusd.Server.handler =
 fun ~emit (req : Rpc.request) ->
  Atomic.incr t.n_requests;
  let send ev = emit (Rpc.event_to_json ~id:req.Rpc.r_id ev) in
  match req.Rpc.r_method with
  | Rpc.M_ping ->
    send Rpc.E_pong;
    Verusd.Server.Continue
  | Rpc.M_status ->
    send (Rpc.E_status (status_json t));
    Verusd.Server.Continue
  | Rpc.M_shutdown ->
    send
      (Rpc.E_done
         (J.Obj
            [ ("kind", J.String "shutdown"); ("ok", J.Bool true); ("exit_code", J.Int 0) ]));
    Verusd.Server.Stop
  | Rpc.M_job q ->
    let on_progress = if q.Rpc.q_stream then Some (fun p -> send (stream_event p)) else None in
    (match
       Result.bind (find_program q.Rpc.q_program) (fun prog ->
           Result.bind (find_profile q.Rpc.q_profile) (fun profile ->
               run_job ?on_progress ~pool:(Driver.Config.Borrowed t.pool) ~cache_dir:t.cache_dir q
                 profile prog))
     with
    | Ok job -> send (Rpc.E_done job.done_)
    | Error message -> send (Rpc.E_error { Rpc.code = "RPC004"; message }));
    Verusd.Server.Continue

(* ------------------------------ serve ------------------------------ *)

let serve ~socket_path ~domains ?cache_dir () =
  let eng = create ~domains ?cache_dir () in
  match Verusd.Server.create ~socket_path with
  | Error e ->
    shutdown eng;
    Error e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> shutdown eng)
      (fun () ->
        Verusd.Server.serve srv (handler eng);
        Ok ())
