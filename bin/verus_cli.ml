(* Command-line driver with a small subcommand interface:

     verus_cli verify  <program> [<profile>] [--fn NAME] [--jobs N] [--lint MODE]
                       [--ladder NAME] [--rung N] [--cache DIR] [--no-cache]
                       [--certify] [--prescreen]
     verus_cli analyze <program> [<profile>] [--fn NAME]
     verus_cli profile <program> [<profile>] [--json] [--top K] [--liberal]
                       [--fn NAME] [--jobs N] [--ladder NAME] [--rung N]
                       [--cache DIR] [--no-cache]
     verus_cli lint    [<program>|--all] [<profile>] [--strict] [--json]
     verus_cli cache   stats|clear [DIR]
     verus_cli daemon  [--socket PATH] [--domains N] [--cache DIR]
     verus_cli client  ping|status|shutdown|verify|lint|profile [<program> [<profile>]]
                       [--socket PATH] [--lint MODE] [--certify] [--prescreen] [--no-cache]
                       [--ladder NAME] [--rung N] [--no-stream]
     verus_cli list            (also available as --list)
     verus_cli codes           (the VL0xx diagnostic table)
     verus_cli ladders         (the built-in escalation ladders, rung by rung)
     verus_cli help

   The verification cache directory comes from --cache DIR or, when the
   flag is absent, the VERUS_CACHE environment variable; --no-cache turns
   caching off regardless.

   Exit codes: 0 ok, 1 findings / verification failure (a refutation, a
   front-end error, or a strict-mode lint), 2 usage error, 3 budget
   exhausted — every failed obligation is Unknown (solver deadline /
   round budget), none refuted.  Distinguishing 3 from 1 lets CI retry
   at a stronger --ladder / --rung instead of reporting a counterexample.  The
   cache subcommands use 4 for I/O problems (unreadable/corrupt store,
   failed delete) — distinct from 0 so scripts notice, distinct from 1
   so it is never mistaken for a verification failure.  Under --certify,
   5 means a certificate rejection (VC003): the solver said Unsat but
   the independent Vcheck kernel would not replay its proof — a solver
   bug or a damaged certificate, categorically different from both a
   counterexample (1) and a timeout (3).  The daemon/client pair uses 6
   for connection or protocol failures (no daemon at the socket, framing
   errors, RPC-level rejections): an environment problem, never a
   verdict — a client run that reaches a verdict mirrors the daemon's
   exit_code field, so 0/1/3/5 mean the same thing in both modes.

   The bundled program and profile tables, and the verdict-to-exit-code
   mapping, live in Verus.Vservice — one table for the CLI and the
   daemon, so both resolve the same names to the same computations. *)

let programs = Verus.Vservice.programs
let profile_names = Verus.Vservice.profile_names

let usage oc =
  Printf.fprintf oc
    "usage: verus_cli <command> [args]\n\n\
     commands:\n\
    \  verify <program> [<profile>] [--fn NAME] [--jobs N] [--lint ignore|warn|strict]\n\
    \         [--ladder NAME] [--rung N] [--cache DIR] [--no-cache] [--certify]\n\
    \         [--prescreen]\n\
    \      verify one bundled program under a profile (default: Verus);\n\
    \      --ladder runs each obligation up a named escalation ladder\n\
    \      (see `verus_cli ladders`): cheap rungs first, escalating on\n\
    \      non-Unsat; --rung N pins every obligation to one rung instead;\n\
    \      --cache DIR (or VERUS_CACHE) reuses cached VC results across runs\n\
    \      (with a ladder, the cache also remembers each obligation's\n\
    \      winning rung, so warm runs skip straight to it);\n\
    \      --certify replays every Unsat's proof certificate through the\n\
    \      independent Vcheck kernel and fails (exit 5, VC003) on rejection;\n\
    \      --prescreen runs the Vflow abstract-interpretation prescreen first\n\
    \      (rung 0): obligations it proves skip the solver entirely\n\
    \  analyze <program> [<profile>] [--fn NAME]\n\
    \      run only the Vflow prescreen: per-obligation verdicts (proved /\n\
    \      refuted-hypothetical / unknown), derived facts shipped to SMT on\n\
    \      fall-through, and the VL04x flow findings — no solver runs\n\
    \  profile <program> [<profile>] [--json] [--top K] [--liberal] [--fn NAME]\n\
    \          [--jobs N] [--ladder NAME] [--rung N] [--cache DIR] [--no-cache]\n\
    \      verify with the solver profiler on and print instantiation /\n\
    \      phase-time hot-spot tables (--json: versioned machine-readable\n\
    \      document; --liberal: degrade the profile to Dafny-style broad\n\
    \      trigger selection first, the configuration behind the VL010\n\
    \      cross-check)\n\
    \  lint [<program>|--all] [<profile>] [--strict] [--liberal] [--json]\n\
    \      run the Vlint static analyses; exit 1 on Error findings\n\
    \      (--strict: also fail on Warn findings; --liberal: lint the\n\
    \      broad-trigger degradation of the profile; --json: one program\n\
    \      only, emit the versioned verus-lint/1 report)\n\
    \  cache stats|clear [DIR]\n\
    \      inspect or delete the verification cache in DIR (or VERUS_CACHE);\n\
    \      exit 4 on I/O problems (unreadable or corrupt store, failed delete)\n\
    \  daemon [--socket PATH] [--domains N] [--cache DIR]\n\
    \      run the persistent verification daemon in the foreground: binds a\n\
    \      Unix-domain socket speaking verus-rpc/1 (docs/PROTOCOL.md), keeps a\n\
    \      warm work-stealing pool and a shared verification cache across\n\
    \      requests, serves until a client sends shutdown\n\
    \  client ping|status|shutdown|verify|lint|profile [<program> [<profile>]]\n\
    \         [--socket PATH] [--lint ignore|warn|strict] [--certify] [--prescreen]\n\
    \         [--no-cache] [--ladder NAME] [--rung N] [--no-stream]\n\
    \      send one request to a running daemon; job verdicts stream as they\n\
    \      land and the process exits with the daemon's exit_code (the same\n\
    \      0/1/3/5 as local verify), or 6 on connection/protocol failure;\n\
    \      --ladder / --rung behave exactly as in local verify\n\
    \  list\n\
    \      list bundled programs and profiles\n\
    \  codes\n\
    \      print the VL0xx diagnostic-code table\n\
    \  ladders\n\
    \      print the built-in escalation ladders, rung by rung, with each\n\
    \      rung's semantic fingerprint\n\
    \  help\n\
    \      this message\n\n\
     programs: %s\n\
     profiles: %s (case-insensitive; 'fstar' and 'lowstar' also accepted)\n\
     exit codes: 0 ok / 1 findings or failure / 2 usage / 3 solver budget exhausted\n\
    \            (3 = every failed obligation is Unknown: a timeout is not a refutation)\n\
    \            / 4 cache I/O problem (cache subcommands only)\n\
    \            / 5 certificate rejected under --certify (VC003: the kernel\n\
    \            would not replay an Unsat's proof — not a counterexample)\n\
    \            / 6 daemon connection or protocol failure (client/daemon only)\n"
    (String.concat ", " (List.map fst programs))
    (String.concat ", " profile_names)

let die_usage fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      usage stderr;
      exit 2)
    fmt

let find_profile name =
  match Verus.Vservice.find_profile name with
  | Ok p -> p
  | Error msg -> die_usage "%s" msg

let find_program name =
  match Verus.Vservice.find_program name with
  | Ok p -> p
  | Error msg -> die_usage "%s" msg

let cmd_list () =
  print_endline "programs:";
  List.iter (fun (n, _) -> print_endline ("  " ^ n)) programs;
  print_endline "profiles:";
  List.iter (fun n -> print_endline ("  " ^ n)) profile_names;
  exit 0

let cmd_codes () =
  Printf.printf "%-7s %-6s %s\n" "code" "sev" "description";
  List.iter
    (fun (code, sev, descr) ->
      Printf.printf "%-7s %-6s %s\n" code (Verus.Vlint.severity_to_string sev) descr)
    Verus.Vlint.code_table;
  exit 0

let cmd_ladders () =
  List.iter
    (fun (name, l) ->
      Printf.printf "%s (%d rung%s)\n" name
        (Verus.Driver.Ladder.length l)
        (if Verus.Driver.Ladder.length l = 1 then "" else "s");
      Array.iteri
        (fun i (r : Verus.Driver.Rung.t) ->
          Printf.printf "  %d  %-8s %s\n" i r.Verus.Driver.Rung.r_name
            (Verus.Driver.Rung.fingerprint r))
        (Verus.Driver.Ladder.rungs l))
    Verus.Driver.Ladder.builtins;
  print_endline "(--rung N pins every obligation to rung N)";
  exit 0

(* One resolver for automation strength, shared with the daemon's request
   handler (Vservice.resolve_ladder): --ladder names a built-in, --rung
   pins one rung of it. *)
let ladder_override ~ladder ~rung =
  match Verus.Vservice.resolve_ladder ~ladder ~rung with
  | Ok l -> l
  | Error msg -> die_usage "%s" msg

(* --cache DIR wins; otherwise VERUS_CACHE; --no-cache beats both. *)
let resolve_cache_dir ~no_cache ~cache_dir =
  if no_cache then None
  else
    match cache_dir with
    | Some d -> Some d
    | None -> (
      match Sys.getenv_opt "VERUS_CACHE" with Some "" | None -> None | Some d -> Some d)

let cache_summary_line (r : Verus.Driver.program_result) =
  match r.Verus.Driver.pr_cache with
  | None -> ()
  | Some cs ->
    Printf.printf "cache: %d hit(s), %d miss(es), %d invalidation(s), %d store(s)%s\n"
      cs.Verus.Vcache.hits cs.Verus.Vcache.misses cs.Verus.Vcache.invalidations
      cs.Verus.Vcache.stores
      (if cs.Verus.Vcache.corrupt_load then " — store was corrupt at load, rebuilt" else "")

let ladder_summary_line (r : Verus.Driver.program_result) =
  match r.Verus.Driver.pr_ladder with
  | None -> ()
  | Some ls ->
    let per_rung a =
      String.concat "/" (List.map string_of_int (Array.to_list a))
    in
    Printf.printf
      "ladder: %s (%d rungs): attempts %s, wins %s, %d escalation(s), %d steered, %d \
       cache hit(s), %d warm rung jump(s)\n"
      ls.Verus.Driver.ls_ladder ls.Verus.Driver.ls_rungs
      (per_rung ls.Verus.Driver.ls_attempts)
      (per_rung ls.Verus.Driver.ls_wins)
      ls.Verus.Driver.ls_escalations ls.Verus.Driver.ls_steered
      ls.Verus.Driver.ls_cache_hits ls.Verus.Driver.ls_hint_starts

(* Restrict verification to one exec/proof function (debugging aid);
   spec functions stay, the others' axioms may be needed. *)
let apply_fn_filter prog = function
  | None -> prog
  | Some keep ->
    {
      prog with
      Verus.Vir.functions =
        List.filter
          (fun (fd : Verus.Vir.fndecl) ->
            fd.Verus.Vir.fmode = Verus.Vir.Spec || String.equal fd.Verus.Vir.fname keep)
          prog.Verus.Vir.functions;
    }

(* The verdict-to-exit-code policy (0/1/3/5) is shared with the daemon:
   Vservice computes a job's exit_code once, and both this process and a
   `verus_cli client` run report the same number for the same result. *)
let budget_only = Verus.Vservice.budget_only
let cert_failed = Verus.Vservice.cert_failed
let result_exit_code = Verus.Vservice.result_exit_code

(* --------------------------- verify ------------------------------- *)

let cmd_verify args =
  let prog_name = ref None in
  let profile_name = ref "Verus" in
  let fn_filter = ref None in
  let jobs = ref 1 in
  let lint = ref Verus.Driver.Lint_ignore in
  let ladder_name = ref None in
  let rung = ref None in
  let cache_dir = ref None in
  let no_cache = ref false in
  let certify = ref false in
  let prescreen = ref false in
  let rec parse = function
    | [] -> ()
    | "--fn" :: v :: rest ->
      fn_filter := Some v;
      parse rest
    | "--ladder" :: v :: rest ->
      ladder_name := Some v;
      parse rest
    | "--rung" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 0 -> rung := Some n
      | _ -> die_usage "--rung expects a non-negative integer, got %s" v);
      parse rest
    | "--cache" :: v :: rest ->
      cache_dir := Some v;
      parse rest
    | "--no-cache" :: rest ->
      no_cache := true;
      parse rest
    | "--certify" :: rest ->
      certify := true;
      parse rest
    | "--prescreen" :: rest ->
      prescreen := true;
      parse rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 1 -> jobs := n
      | _ -> die_usage "--jobs expects a positive integer, got %s" v);
      parse rest
    | "--lint" :: v :: rest ->
      (match v with
      | "ignore" -> lint := Verus.Driver.Lint_ignore
      | "warn" -> lint := Verus.Driver.Lint_warn
      | "strict" -> lint := Verus.Driver.Lint_strict
      | _ -> die_usage "--lint expects ignore|warn|strict, got %s" v);
      parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> die_usage "unknown option %s" a
    | a :: rest ->
      (if !prog_name = None then prog_name := Some a else profile_name := a);
      parse rest
  in
  parse args;
  let prog_name = match !prog_name with Some p -> p | None -> "singly_linked" in
  let profile = find_profile !profile_name in
  let prog = apply_fn_filter (find_program prog_name) !fn_filter in
  let config =
    {
      (Verus.Driver.Config.with_jobs !jobs Verus.Driver.Config.default) with
      Verus.Driver.Config.lint = !lint;
      certify = !certify;
      analyze = !prescreen;
      ladder = ladder_override ~ladder:!ladder_name ~rung:!rung;
      cache =
        Option.map
          (fun dir -> { Verus.Vcache.dir })
          (resolve_cache_dir ~no_cache:!no_cache ~cache_dir:!cache_dir);
    }
  in
  let r = Verus.Driver.verify_program ~config profile prog in
  List.iter
    (fun d -> Printf.printf "lint: %s\n" (Verus.Vlint.diag_to_string d))
    r.Verus.Driver.pr_lint;
  List.iter (fun e -> Printf.printf "front-end error: %s\n" e) r.Verus.Driver.pr_front_end_errors;
  List.iter
    (fun (fnr : Verus.Driver.fn_result) ->
      Printf.printf "%-24s %s  (%.3fs, %d bytes)\n" fnr.Verus.Driver.fnr_name
        (if fnr.Verus.Driver.fnr_ok then "OK" else "FAIL")
        fnr.Verus.Driver.fnr_time_s fnr.Verus.Driver.fnr_bytes;
      List.iter
        (fun (vr : Verus.Driver.vc_result) ->
          let status =
            match (vr.Verus.Driver.vcr_answer, vr.Verus.Driver.vcr_cert) with
            | Smt.Solver.Unsat, Verus.Driver.Cert_rejected (code, reason) ->
              Printf.sprintf "CERT REJECTED (%s: %s)" code reason
            | Smt.Solver.Unsat, Verus.Driver.Cert_unavailable why ->
              "CERT MISSING (" ^ why ^ ")"
            | Smt.Solver.Unsat, Verus.Driver.Cert_checked _ -> "proved+cert"
            | Smt.Solver.Unsat, Verus.Driver.Cert_cached _ -> "proved+cert(cached)"
            | Smt.Solver.Unsat, _
              when vr.Verus.Driver.vcr_source = Verus.Driver.Src_prescreen ->
              "proved(prescreen)"
            | Smt.Solver.Unsat, _ -> "proved"
            | Smt.Solver.Sat, _ -> "COUNTEREXAMPLE"
            | Smt.Solver.Unknown m, _ -> "UNKNOWN: " ^ m
          in
          Printf.printf "    %-60s %-10s %.3fs  [%s]\n" vr.Verus.Driver.vcr_name status
            vr.Verus.Driver.vcr_time_s vr.Verus.Driver.vcr_detail)
        fnr.Verus.Driver.fnr_vcs)
    r.Verus.Driver.pr_fns;
  (match Verus.Driver.first_failure r with
  | Some (where, what, code) when not r.Verus.Driver.pr_ok ->
    Printf.printf "first failure: [%s] %s: %s\n" code where what
  | _ -> ());
  cache_summary_line r;
  ladder_summary_line r;
  (if !prescreen then
     let total =
       List.fold_left
         (fun acc (fnr : Verus.Driver.fn_result) ->
           acc + List.length fnr.Verus.Driver.fnr_vcs)
         0 r.Verus.Driver.pr_fns
     in
     Printf.printf "prescreen: discharged %d of %d obligation(s) without SMT\n"
       (Verus.Driver.prescreen_discharged r)
       total);
  (* A run that failed *only* on Unknown answers (solver deadline /
     instantiation budget) is a budget exhaustion, not a refutation: exit
     3 so callers can distinguish "needs a stronger rung" from "has a
     counterexample". *)
  Printf.printf "== %s / %s: %s in %.3fs, %d query bytes\n" prog_name
    profile.Verus.Profiles.name
    (if r.Verus.Driver.pr_ok then if !certify then "VERIFIED (certified)" else "VERIFIED"
     else if cert_failed r then "CERTIFICATE REJECTED"
     else if budget_only r then "UNKNOWN (solver budget exhausted)"
     else "FAILED")
    r.Verus.Driver.pr_time_s r.Verus.Driver.pr_bytes;
  Smt.Solver.dump_debug ();
  exit (result_exit_code r)

(* --------------------------- analyze ------------------------------ *)

(* The prescreen alone, made visible: per-obligation rung-0 verdicts with
   the facts that would ship to SMT on fall-through, then the VL04x flow
   findings.  No solver runs; informational, always exit 0 (use
   `verify --prescreen` for a verdict). *)
let cmd_analyze args =
  let prog_name = ref None in
  let profile_name = ref "Verus" in
  let fn_filter = ref None in
  let rec parse = function
    | [] -> ()
    | "--fn" :: v :: rest ->
      fn_filter := Some v;
      parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> die_usage "unknown option %s" a
    | a :: rest ->
      (if !prog_name = None then prog_name := Some a else profile_name := a);
      parse rest
  in
  parse args;
  let prog_name = match !prog_name with Some p -> p | None -> "singly_linked" in
  let profile = find_profile !profile_name in
  let prog = apply_fn_filter (find_program prog_name) !fn_filter in
  let targets =
    List.filter
      (fun (fd : Verus.Vir.fndecl) ->
        fd.Verus.Vir.fmode <> Verus.Vir.Spec && fd.Verus.Vir.body <> None)
      prog.Verus.Vir.functions
  in
  let total = ref 0 and proved = ref 0 in
  Printf.printf "== analyze: %s / %s (Vflow %s) ==\n" prog_name profile.Verus.Profiles.name
    Vflow.version;
  List.iter
    (fun (fd : Verus.Vir.fndecl) ->
      let vcs = Verus.Encode.encode_function profile prog fd in
      Printf.printf "%s: %d obligation(s)\n" fd.Verus.Vir.fname (List.length vcs);
      List.iter
        (fun (vc : Verus.Encode.vc) ->
          incr total;
          let context = Verus.Driver.context_for profile prog vc in
          let r =
            Vflow.Prescreen.check ~hyps:(context @ vc.Verus.Encode.vc_hyps)
              ~goal:vc.Verus.Encode.vc_goal ()
          in
          let verdict = r.Vflow.Prescreen.verdict in
          if verdict = Vflow.Prescreen.Proved then incr proved;
          Printf.printf "    %-60s %-8s%s\n" vc.Verus.Encode.vc_name
            (Vflow.Prescreen.verdict_string verdict)
            (if r.Vflow.Prescreen.vacuous then "  (hypotheses contradictory)"
             else if verdict = Vflow.Prescreen.Proved then
               Printf.sprintf "  (%d passes)" r.Vflow.Prescreen.passes
             else
               Printf.sprintf "  (%d fact(s), %d droppable hyp(s))"
                 (List.length r.Vflow.Prescreen.facts)
                 (List.length r.Vflow.Prescreen.drop));
          List.iter
            (fun f -> Printf.printf "        fact: %s\n" (Smt.Term.to_string f))
            r.Vflow.Prescreen.facts)
        vcs)
    targets;
  let findings = Vflow.Absint.analyze_program prog in
  if findings <> [] then begin
    print_endline "flow findings:";
    List.iter
      (fun (f : Vflow.Absint.finding) ->
        Printf.printf "  %s [%s] %s\n" f.Vflow.Absint.f_code f.Vflow.Absint.f_fn
          f.Vflow.Absint.f_msg)
      findings
  end;
  Printf.printf "== prescreen would discharge %d of %d obligation(s) without SMT\n" !proved
    !total;
  exit 0

(* --------------------------- profile ------------------------------ *)

let cmd_profile args =
  let prog_name = ref None in
  let profile_name = ref "Verus" in
  let fn_filter = ref None in
  let jobs = ref 1 in
  let json = ref false in
  let top = ref 10 in
  let liberal = ref false in
  let ladder_name = ref None in
  let rung = ref None in
  let cache_dir = ref None in
  let no_cache = ref false in
  let rec parse = function
    | [] -> ()
    | "--ladder" :: v :: rest ->
      ladder_name := Some v;
      parse rest
    | "--rung" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 0 -> rung := Some n
      | _ -> die_usage "--rung expects a non-negative integer, got %s" v);
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--liberal" :: rest ->
      liberal := true;
      parse rest
    | "--cache" :: v :: rest ->
      cache_dir := Some v;
      parse rest
    | "--no-cache" :: rest ->
      no_cache := true;
      parse rest
    | "--top" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 1 -> top := n
      | _ -> die_usage "--top expects a positive integer, got %s" v);
      parse rest
    | "--fn" :: v :: rest ->
      fn_filter := Some v;
      parse rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 1 -> jobs := n
      | _ -> die_usage "--jobs expects a positive integer, got %s" v);
      parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> die_usage "unknown option %s" a
    | a :: rest ->
      (if !prog_name = None then prog_name := Some a else profile_name := a);
      parse rest
  in
  parse args;
  let prog_name = match !prog_name with Some p -> p | None -> "singly_linked" in
  let profile = find_profile !profile_name in
  let profile = if !liberal then Verus.Profiles.liberal profile else profile in
  let prog = apply_fn_filter (find_program prog_name) !fn_filter in
  (* Lint in warn mode so the VL010 cross-check has findings to compare
     the measured hot-spots against; warn never aborts the run. *)
  let config =
    {
      (Verus.Driver.Config.with_jobs !jobs Verus.Driver.Config.default) with
      Verus.Driver.Config.lint = Verus.Driver.Lint_warn;
      profile = true;
      ladder = ladder_override ~ladder:!ladder_name ~rung:!rung;
      cache =
        Option.map
          (fun dir -> { Verus.Vcache.dir })
          (resolve_cache_dir ~no_cache:!no_cache ~cache_dir:!cache_dir);
    }
  in
  let r = Verus.Driver.verify_program ~config profile prog in
  if !json then
    print_endline (Vbase.Json.to_string ~indent:true (Verus.Profile_report.to_json ~prog_name r))
  else begin
    List.iter
      (fun e -> Printf.printf "front-end error: %s\n" e)
      r.Verus.Driver.pr_front_end_errors;
    print_string (Verus.Profile_report.render_text ~top:!top ~prog_name r);
    cache_summary_line r;
    ladder_summary_line r
  end;
  exit (result_exit_code r)

(* ---------------------------- lint -------------------------------- *)

let cmd_lint args =
  let prog_names = ref [] in
  let profile_name = ref "Verus" in
  let strict = ref false in
  let liberal = ref false in
  let json = ref false in
  let rec parse = function
    | [] -> ()
    | "--all" :: rest ->
      prog_names := List.map fst programs;
      parse rest
    | "--strict" :: rest ->
      strict := true;
      parse rest
    | "--liberal" :: rest ->
      liberal := true;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> die_usage "unknown option %s" a
    | a :: rest ->
      (if List.mem_assoc a programs then prog_names := !prog_names @ [ a ]
       else profile_name := a);
      parse rest
  in
  parse args;
  let prog_names = if !prog_names = [] then List.map fst programs else !prog_names in
  let profile = find_profile !profile_name in
  let profile = if !liberal then Verus.Profiles.liberal profile else profile in
  if !json then begin
    (* One versioned document per invocation: the schema has a single
       "program" key, so --json covers exactly one program. *)
    let name =
      match prog_names with
      | [ n ] -> n
      | _ -> die_usage "lint --json expects exactly one program"
    in
    let ds = Verus.Vlint.lint profile (find_program name) in
    print_endline
      (Vbase.Json.to_string ~indent:true
         (Verus.Vlint.report_to_json ~prog_name:name
            ~profile_name:profile.Verus.Profiles.name ds));
    let n_err = List.length (Verus.Vlint.errors ds) in
    let n_warn =
      List.length (List.filter (fun d -> d.Verus.Vlint.severity = Verus.Vlint.Warn) ds)
    in
    exit (if n_err > 0 || (!strict && n_warn > 0) then 1 else 0)
  end;
  let n_err = ref 0 and n_warn = ref 0 and n_info = ref 0 in
  List.iter
    (fun name ->
      let prog = find_program name in
      let ds = Verus.Vlint.lint profile prog in
      Printf.printf "%-16s %s: %d finding(s)\n" name profile.Verus.Profiles.name
        (List.length ds);
      List.iter
        (fun (d : Verus.Vlint.diag) ->
          (match d.Verus.Vlint.severity with
          | Verus.Vlint.Error -> incr n_err
          | Verus.Vlint.Warn -> incr n_warn
          | Verus.Vlint.Info -> incr n_info);
          print_endline ("  " ^ Verus.Vlint.diag_to_string d))
        ds)
    prog_names;
  Printf.printf "== lint: %d error(s), %d warning(s), %d info\n" !n_err !n_warn !n_info;
  let failing = !n_err > 0 || (!strict && !n_warn > 0) in
  exit (if failing then 1 else 0)

(* ---------------------------- cache ------------------------------- *)

(* Exit 4 ("cache I/O problem") is deliberately distinct from both 0 and
   1: a corrupt or undeletable store is an environment problem, not a
   verification verdict, and scripts must not mistake one for the other. *)
let exit_cache_io = 4

let cmd_cache args =
  let action, dir_arg =
    match args with
    | [ a ] when a = "stats" || a = "clear" -> (a, None)
    | [ a; d ] when a = "stats" || a = "clear" -> (a, Some d)
    | a :: _ when a <> "stats" && a <> "clear" ->
      die_usage "cache expects stats or clear, got %s" a
    | _ -> die_usage "usage: verus_cli cache stats|clear [DIR]"
  in
  let dir =
    match resolve_cache_dir ~no_cache:false ~cache_dir:dir_arg with
    | Some d -> d
    | None -> die_usage "cache %s needs a directory (argument or VERUS_CACHE)" action
  in
  match action with
  | "clear" -> (
    match Verus.Vcache.clear ~dir with
    | Ok () ->
      Printf.printf "cache cleared: %s\n" (Filename.concat dir Verus.Vcache.file_name);
      exit 0
    | Error e ->
      Printf.eprintf "cache clear failed: %s\n" e;
      exit exit_cache_io)
  | _ ->
    let ds = Verus.Vcache.disk_stats ~dir in
    Printf.printf "cache %s (schema %s)\n"
      (Filename.concat dir Verus.Vcache.file_name)
      Verus.Vcache.schema_version;
    if not ds.Verus.Vcache.ds_exists then begin
      Printf.printf "  no store present (a cached verify run will create it)\n";
      exit 0
    end
    else begin
      Printf.printf "  entries: %d (%d bytes on disk)\n" ds.Verus.Vcache.ds_entries
        ds.Verus.Vcache.ds_bytes;
      List.iter
        (fun (kind, n) -> Printf.printf "    %-8s %d\n" kind n)
        ds.Verus.Vcache.ds_answers;
      if ds.Verus.Vcache.ds_dropped > 0 then
        Printf.printf "  malformed entries: %d (dropped at load)\n" ds.Verus.Vcache.ds_dropped;
      if ds.Verus.Vcache.ds_corrupt then
        Printf.printf "  store is CORRUPT (verify runs degrade to cold and rebuild it)\n";
      if ds.Verus.Vcache.ds_corrupt || ds.Verus.Vcache.ds_dropped > 0 then exit exit_cache_io
      else exit 0
    end

(* ---------------------------- daemon ------------------------------- *)

(* Exit 6 ("daemon connection or protocol failure") is an environment
   problem, like the cache subcommands' 4: no daemon at the socket, an
   unreadable frame, an RPC-level rejection.  Never a verdict — verdicts
   arrive in the done event and the client mirrors their exit_code. *)
let exit_daemon_io = 6

let default_socket () =
  match Sys.getenv_opt "VERUSD_SOCKET" with
  | Some p when p <> "" -> p
  | _ -> "verusd.sock"

let cmd_daemon args =
  let socket = ref None in
  let domains = ref 4 in
  let cache_dir = ref (Sys.getenv_opt "VERUS_CACHE") in
  let rec parse = function
    | [] -> ()
    | "--socket" :: v :: rest ->
      socket := Some v;
      parse rest
    | "--cache" :: v :: rest ->
      cache_dir := Some v;
      parse rest
    | "--domains" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 1 -> domains := n
      | _ -> die_usage "--domains expects a positive integer, got %s" v);
      parse rest
    | a :: _ -> die_usage "unknown daemon argument %s" a
  in
  parse args;
  let socket_path = match !socket with Some p -> p | None -> default_socket () in
  let cache_dir = match !cache_dir with Some "" -> None | c -> c in
  Printf.printf "verusd: listening on %s (%d domain%s%s)\n%!" socket_path !domains
    (if !domains = 1 then "" else "s")
    (match cache_dir with Some d -> ", cache " ^ d | None -> ", no cache");
  match Verus.Vservice.serve ~socket_path ~domains:!domains ?cache_dir () with
  | Ok () ->
    Printf.printf "verusd: shut down\n%!";
    exit 0
  | Error e ->
    Printf.eprintf "verusd: %s\n" e;
    exit exit_daemon_io

(* ---------------------------- client ------------------------------- *)

let print_stream_event = function
  | Verusd.Rpc.E_vc { fn; vc; answer; reason; time_s; cached; rung } ->
    Printf.printf "vc  %-16s %-44s %-8s %.3fs%s%s%s\n%!" fn vc answer time_s
      (if cached then "  (cached)" else "")
      (match rung with Some r -> Printf.sprintf "  (rung %d)" r | None -> "")
      (match reason with Some r -> "  [" ^ r ^ "]" | None -> "")
  | Verusd.Rpc.E_fn { fn; ok; time_s; vcs } ->
    Printf.printf "fn  %-16s %-44s %-8s %.3fs\n%!" fn
      (Printf.sprintf "(%d vc%s)" vcs (if vcs = 1 then "" else "s"))
      (if ok then "OK" else "FAIL")
      time_s
  | _ -> ()

let done_int j key = match Vbase.Json.member key j with Some (Vbase.Json.Int n) -> Some n | _ -> None
let done_str j key = match Vbase.Json.member key j with Some (Vbase.Json.String s) -> Some s | _ -> None

let print_done j =
  let s key = Option.value ~default:"?" (done_str j key) in
  match done_str j "kind" with
  | Some "shutdown" -> print_endline "daemon shut down"
  | _ ->
    let time_s =
      match Vbase.Json.member "time_s" j with
      | Some v -> Option.value ~default:0.0 (Vbase.Json.to_float v)
      | None -> 0.0
    in
    let verdict =
      match done_int j "exit_code" with
      | Some 0 -> "VERIFIED"
      | Some 3 -> "UNKNOWN (solver budget exhausted)"
      | Some 5 -> "CERTIFICATE REJECTED"
      | _ -> "FAILED"
    in
    let verdict = match done_str j "kind" with Some "lint" -> (match done_int j "exit_code" with Some 0 -> "CLEAN" | _ -> "FINDINGS") | _ -> verdict in
    (match Vbase.Json.member "cache" j with
    | Some (Vbase.Json.Obj _ as c) ->
      let ci k = Option.value ~default:0 (done_int c k) in
      Printf.printf "cache: %d hit(s), %d miss(es), %d invalidation(s), %d store(s)\n"
        (ci "hits") (ci "misses") (ci "invalidations") (ci "stores")
    | _ -> ());
    Printf.printf "== %s / %s: %s in %.3fs (digest %s)\n" (s "program") (s "profile") verdict
      time_s (s "digest")

let cmd_client args =
  let meth = ref None in
  let prog_name = ref None in
  let profile_name = ref None in
  let socket = ref None in
  let lint = ref None in
  let certify = ref false in
  let prescreen = ref false in
  let no_cache = ref false in
  let ladder_name = ref None in
  let rung = ref None in
  let stream = ref true in
  let rec parse = function
    | [] -> ()
    | "--ladder" :: v :: rest ->
      ladder_name := Some v;
      parse rest
    | "--rung" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 0 -> rung := Some n
      | _ -> die_usage "--rung expects a non-negative integer, got %s" v);
      parse rest
    | "--socket" :: v :: rest ->
      socket := Some v;
      parse rest
    | "--lint" :: v :: rest ->
      (match v with
      | "ignore" -> lint := Some Verusd.Rpc.Lint_off
      | "warn" -> lint := Some Verusd.Rpc.Lint_warn
      | "strict" -> lint := Some Verusd.Rpc.Lint_strict
      | _ -> die_usage "--lint expects ignore|warn|strict, got %s" v);
      parse rest
    | "--certify" :: rest ->
      certify := true;
      parse rest
    | "--prescreen" :: rest ->
      prescreen := true;
      parse rest
    | "--no-cache" :: rest ->
      no_cache := true;
      parse rest
    | "--no-stream" :: rest ->
      stream := false;
      parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> die_usage "unknown option %s" a
    | a :: rest ->
      (if !meth = None then meth := Some a
       else if !prog_name = None then prog_name := Some a
       else profile_name := Some a);
      parse rest
  in
  parse args;
  let socket_path = match !socket with Some p -> p | None -> default_socket () in
  let job kind =
    let program = match !prog_name with Some p -> p | None -> "singly_linked" in
    Verusd.Rpc.M_job
      (Verusd.Rpc.query ?profile:!profile_name ?lint:!lint ~certify:!certify
         ~analyze:!prescreen ~cache:(not !no_cache) ?ladder:!ladder_name ?rung:!rung
         ~stream:!stream kind program)
  in
  let method_ =
    match !meth with
    | Some "ping" -> Verusd.Rpc.M_ping
    | Some "status" -> Verusd.Rpc.M_status
    | Some "shutdown" -> Verusd.Rpc.M_shutdown
    | Some "verify" -> job Verusd.Rpc.Verify
    | Some "lint" -> job Verusd.Rpc.Lint
    | Some "profile" -> job Verusd.Rpc.Profile
    | Some m -> die_usage "unknown client method %s" m
    | None -> die_usage "client needs a method (ping|status|shutdown|verify|lint|profile)"
  in
  match Verusd.Client.connect ~socket_path with
  | Error e ->
    Printf.eprintf "client: %s\n" e;
    exit exit_daemon_io
  | Ok c -> (
    let r = Verusd.Client.call c ~on_event:print_stream_event (Verusd.Rpc.request method_) in
    Verusd.Client.close c;
    match r with
    | Error e ->
      Printf.eprintf "client: %s\n" e;
      exit exit_daemon_io
    | Ok (Verusd.Rpc.E_pong) ->
      print_endline "pong";
      exit 0
    | Ok (Verusd.Rpc.E_status j) ->
      print_endline (Vbase.Json.to_string ~indent:true j);
      exit 0
    | Ok (Verusd.Rpc.E_done j) ->
      print_done j;
      exit (Option.value ~default:0 (done_int j "exit_code"))
    | Ok (Verusd.Rpc.E_error { code; message }) ->
      Printf.eprintf "client: daemon error %s: %s\n" code message;
      exit exit_daemon_io
    | Ok _ ->
      Printf.eprintf "client: unexpected terminal event\n";
      exit exit_daemon_io)

(* ----------------------------- main ------------------------------- *)

let () =
  let argv = Array.to_list Sys.argv in
  match argv with
  | _ :: "verify" :: rest -> cmd_verify rest
  | _ :: "analyze" :: rest -> cmd_analyze rest
  | _ :: "profile" :: rest -> cmd_profile rest
  | _ :: "lint" :: rest -> cmd_lint rest
  | _ :: "cache" :: rest -> cmd_cache rest
  | _ :: "daemon" :: rest -> cmd_daemon rest
  | _ :: "client" :: rest -> cmd_client rest
  | _ :: ("list" | "--list") :: _ -> cmd_list ()
  | _ :: "codes" :: _ -> cmd_codes ()
  | _ :: "ladders" :: _ -> cmd_ladders ()
  | _ :: ("help" | "--help" | "-h") :: _ | [ _ ] ->
    usage stdout;
    exit 0
  | _ :: cmd :: _ -> die_usage "unknown command %s" cmd
  | [] -> exit 2
