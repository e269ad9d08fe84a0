(* The daemon's service layer: resolves verus-rpc/1 requests against
   the bundled program/profile tables, runs them through
   Driver.verify_program on one long-lived Sched pool, and streams
   verdict events back through the transport's [emit].  The CLI reuses
   the same tables and exit-code policy, so daemon and CLI answers for
   one job are the same computation. *)

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

let exit_cert_rejected = 5

let result_exit_code (r : Driver.program_result) =
  if r.Driver.pr_ok then 0
  else if cert_failed r then exit_cert_rejected
  else if budget_only r then 3
  else 1

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

(* ---------------------------- job runners --------------------------- *)

module J = Vbase.Json
module Rpc = Verusd.Rpc

let answer_string = function
  | Smt.Solver.Unsat -> "unsat"
  | Smt.Solver.Sat -> "sat"
  | Smt.Solver.Unknown _ -> "unknown"

let answer_reason = function Smt.Solver.Unknown m -> Some m | _ -> None

(* A warm hit in the shared cache, whether or not the entry carried a
   certificate digest — what the protocol's per-VC [cached] flag means. *)
let vc_cached (vr : Driver.vc_result) =
  match vr.Driver.vcr_cert with
  | Driver.Cert_cached _ | Driver.Cert_uncertified_hit -> true
  | _ -> false

let lint_level_to_mode = function
  | Rpc.Lint_off -> Driver.Lint_ignore
  | Rpc.Lint_warn -> Driver.Lint_warn
  | Rpc.Lint_strict -> Driver.Lint_strict

let kind_string = function
  | Rpc.Verify -> "verify"
  | Rpc.Lint -> "lint"
  | Rpc.Profile -> "profile"

(* The one resolver for automation strength, shared by the daemon and
   the CLI: a ladder name and/or a rung pin. *)
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

(* A lint job runs only the static analyses — no SMT work, mirroring
   [verus_cli lint].  The digest covers the rendered findings, so two
   daemons (or a daemon and the CLI) disagreeing on lint output is
   detectable the same way verification digests are compared. *)
let run_lint_job ~(q : Rpc.query) (profile : Profiles.t) prog =
  let t0 = Unix.gettimeofday () in
  let ds = Vlint.lint profile prog in
  let time_s = Unix.gettimeofday () -. t0 in
  let strict = q.Rpc.q_lint = Rpc.Lint_strict in
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

let run_verify_job t ~emit ~id ~(q : Rpc.query) ~ladder (profile : Profiles.t) prog =
  let is_profile = q.Rpc.q_kind = Rpc.Profile in
  let config =
    {
      Driver.Config.lint =
        (* A profile job always lints in warn mode: the VL010 cross-check
           needs findings to compare measured hot-spots against. *)
        (if is_profile then Driver.Lint_warn else lint_level_to_mode q.Rpc.q_lint);
      profile = is_profile;
      certify = q.Rpc.q_certify;
      analyze = q.Rpc.q_analyze;
      ladder;
      cache =
        (match t.cache_dir with
        | Some dir when q.Rpc.q_cache -> Some { Vcache.dir }
        | _ -> None);
      pool = Driver.Config.Borrowed t.pool;
    }
  in
  let on_progress =
    if not q.Rpc.q_stream then None
    else
      Some
        (function
        | Driver.Vc_done (fn, vr) ->
          emit
            (Rpc.event_to_json ~id
               (Rpc.E_vc
                  {
                    fn;
                    vc = vr.Driver.vcr_name;
                    answer = answer_string vr.Driver.vcr_answer;
                    reason = answer_reason vr.Driver.vcr_answer;
                    time_s = vr.Driver.vcr_time_s;
                    cached = vc_cached vr;
                    rung = vr.Driver.vcr_rung;
                  }))
        | Driver.Fn_done fnr ->
          emit
            (Rpc.event_to_json ~id
               (Rpc.E_fn
                  {
                    fn = fnr.Driver.fnr_name;
                    ok = fnr.Driver.fnr_ok;
                    time_s = fnr.Driver.fnr_time_s;
                    vcs = List.length fnr.Driver.fnr_vcs;
                  })))
  in
  let r = Driver.verify_program ~config ?on_progress profile prog in
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
    @ cache_stats_json r @ ladder_stats_json r)

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
  let id = req.Rpc.r_id in
  let send ev = emit (Rpc.event_to_json ~id ev) in
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
  | Rpc.M_job q -> (
    match (find_program q.Rpc.q_program, find_profile q.Rpc.q_profile) with
    | Error msg, _ | _, Error msg ->
      send (Rpc.E_error { Rpc.code = "RPC004"; message = msg });
      Verusd.Server.Continue
    | Ok prog, Ok profile -> (
      match resolve_ladder ~ladder:q.Rpc.q_ladder ~rung:q.Rpc.q_rung with
      | Error msg ->
        send (Rpc.E_error { Rpc.code = "RPC004"; message = msg });
        Verusd.Server.Continue
      | Ok ladder ->
        let done_ =
          match q.Rpc.q_kind with
          | Rpc.Lint -> run_lint_job ~q profile prog
          | Rpc.Verify | Rpc.Profile -> run_verify_job t ~emit ~id ~q ~ladder profile prog
        in
        send (Rpc.E_done done_);
        Verusd.Server.Continue))

(* --------------------- bench-document schema ----------------------- *)

let bench_schema = "verus-daemon-bench/1"

let validate_daemon_bench (j : J.t) =
  let ( let* ) = Result.bind in
  let str o k = match J.member k o with Some (J.String s) -> Some s | _ -> None in
  let num o k = match J.member k o with Some v -> J.to_float v | None -> None in
  let int_ o k = match J.member k o with Some (J.Int n) -> Some n | _ -> None in
  let bool_ o k = match J.member k o with Some (J.Bool b) -> Some b | _ -> None in
  let need what o k f =
    match f o k with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing or mistyped %S" what k)
  in
  let* () =
    match str j "schema" with
    | Some s when s = bench_schema -> Ok ()
    | Some s -> Error (Printf.sprintf "schema %S (expected %s)" s bench_schema)
    | None -> Error "missing schema tag"
  in
  let* cold =
    match J.member "cold" j with
    | Some (J.Obj _ as c) -> Ok c
    | _ -> Error "missing cold object"
  in
  let* _ = need "cold" cold "baseline_jobs" int_ in
  let* _ = need "cold" cold "baseline_total_s" num in
  let* _ = need "cold" cold "daemon_total_s" num in
  let* rows =
    match J.member "rows" cold with
    | Some (J.List (_ :: _ as rows)) -> Ok rows
    | _ -> Error "cold.rows: missing or empty"
  in
  let* () =
    List.fold_left
      (fun acc row ->
        let* () = acc in
        let* _ = need "cold.rows[]" row "program" str in
        let* _ = need "cold.rows[]" row "baseline_s" num in
        let* _ = need "cold.rows[]" row "daemon_s" num in
        let* ok = need "cold.rows[]" row "digest_equal" bool_ in
        if ok then Ok () else Error "cold.rows[]: digest_equal is false"
      )
      (Ok ()) rows
  in
  let* warm =
    match J.member "warm" j with
    | Some (J.Obj _ as w) -> Ok w
    | _ -> Error "missing warm object"
  in
  let* _ = need "warm" warm "hits" int_ in
  let* _ = need "warm" warm "misses" int_ in
  let* rate = need "warm" warm "hit_rate" num in
  let* () =
    if rate >= 0.0 && rate <= 1.0 then Ok () else Error "warm.hit_rate out of [0,1]"
  in
  let* bursts =
    match J.member "burst" j with
    | Some (J.List (_ :: _ as bs)) -> Ok bs
    | _ -> Error "burst: missing or empty"
  in
  List.fold_left
    (fun acc b ->
      let* () = acc in
      let* _ = need "burst[]" b "domains" int_ in
      let* _ = need "burst[]" b "tasks" int_ in
      let* _ = need "burst[]" b "p50_us" num in
      let* _ = need "burst[]" b "p90_us" num in
      let* _ = need "burst[]" b "p99_us" num in
      Ok ())
    (Ok ()) bursts

(* ------------------------------ serve ------------------------------ *)

let serve ~socket_path ~domains ?cache_dir () =
  let eng = create ~domains ?cache_dir () in
  match Verusd.Server.create (Verusd.Server.default_config ~socket_path) with
  | Error e ->
    shutdown eng;
    Error e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> shutdown eng)
      (fun () ->
        Verusd.Server.serve srv (handler eng);
        Ok ())
