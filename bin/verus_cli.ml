(* Command-line driver with a small subcommand interface:

     verus_cli verify  <program> [<profile>] [--fn NAME] [--jobs N] [--lint MODE]
                       [--ladder NAME] [--rung N] [--cache DIR] [--no-cache]
                       [--certify] [--prescreen]
     verus_cli analyze <program> [<profile>] [--fn NAME]
     verus_cli profile <program> [<profile>] [--json] [--top K] [--liberal]
                       (and every verify flag except --lint)
     verus_cli lint    [<program>|--all] [<profile>] [--strict] [--liberal] [--json]
     verus_cli cache   stats|clear [DIR]
     verus_cli daemon  [--socket PATH] [--domains N] [--cache DIR]
     verus_cli client  ping|status|shutdown|verify|lint|profile [<program> [<profile>]]
                       [--socket PATH] [--lint MODE] [--certify] [--prescreen] [--no-cache]
                       [--ladder NAME] [--rung N] [--no-stream]
     verus_cli list            (also available as --list)
     verus_cli codes           (the VL0xx diagnostic table)
     verus_cli ladders         (the built-in escalation ladders, rung by rung)
     verus_cli help

   One flag parser fills one Rpc.query — the job description the daemon
   receives — plus the flags that only make sense in this process (--fn,
   --jobs, --cache, --liberal, --json, --top).  verify/profile/lint run
   that query through Vservice.run_job, the same function the daemon's
   handler calls, and print the cache, ladder and verdict lines from its
   done payload with the function that prints a daemon's answer: a local
   digest and a daemon digest for one job are directly comparable.

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
   verdict — a job's exit code is its done payload's exit_code, so
   0/1/3/5 mean the same thing locally and through a daemon. *)

module J = Vbase.Json
module Rpc = Verusd.Rpc

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
    \      (rung 0): obligations it proves skip the solver entirely.\n\
    \      The last line is the verdict with the run's result digest\n\
    \  analyze <program> [<profile>] [--fn NAME]\n\
    \      run only the Vflow prescreen: per-obligation verdicts (proved /\n\
    \      refuted-hypothetical / unknown), derived facts shipped to SMT on\n\
    \      fall-through, and the VL04x flow findings — no solver runs\n\
    \  profile <program> [<profile>] [--json] [--top K] [--liberal]\n\
    \          [verify flags except --lint]\n\
    \      verify with the solver profiler on and print instantiation /\n\
    \      phase-time hot-spot tables (--json: versioned machine-readable\n\
    \      document; --liberal: degrade the profile to Dafny-style broad\n\
    \      trigger selection first, the configuration behind the VL010\n\
    \      cross-check); always lints at warn\n\
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
    \      land, the cache, ladder and verdict lines print as for a local run\n\
    \      (a profile job also prints its verus-profile document), and the\n\
    \      process exits with the daemon's exit_code (the same 0/1/3/5 as a\n\
    \      local run), or 6 on connection/protocol failure\n\
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

(* ------------------------- the one flag parser ------------------------ *)

(* What a command's flags fill: the job description the daemon would
   receive, plus the flags that stay in this process. *)
type opts = {
  q : Rpc.query;
  args : string list;  (** positional arguments, in order *)
  fn : string option;
  jobs : int;
  cache_dir : string option;
  liberal : bool;
  json : bool;
  top : int;
  all : bool;
  socket : string option;
  domains : int;
}

(* The job flags profile takes; verify also takes --lint (a profile job
   always lints at warn). *)
let job_flags =
  [ "--fn"; "--jobs"; "--ladder"; "--rung"; "--cache"; "--no-cache"; "--certify"; "--prescreen" ]

(* Each command passes the flags it accepts; any other flag is a usage
   error (exit 2) — how `client` refuses the process-local ones. *)
let parse_opts ~flags args =
  let count flag ~min v =
    match int_of_string_opt v with
    | Some n when n >= min -> n
    | _ ->
      die_usage "%s expects a %s integer, got %s" flag
        (if min = 0 then "non-negative" else "positive")
        v
  in
  let rec go o = function
    | [] -> { o with args = List.rev o.args }
    | flag :: rest when String.length flag > 1 && flag.[0] = '-' -> (
      if not (List.mem flag flags) then die_usage "unknown option %s" flag;
      let q = o.q in
      match (flag, rest) with
      | "--certify", rest -> go { o with q = { q with q_certify = true } } rest
      | "--prescreen", rest -> go { o with q = { q with q_analyze = true } } rest
      | "--no-cache", rest -> go { o with q = { q with q_cache = false } } rest
      | "--no-stream", rest -> go { o with q = { q with q_stream = false } } rest
      | "--strict", rest -> go { o with q = { q with q_lint = Rpc.Lint_strict } } rest
      | "--liberal", rest -> go { o with liberal = true } rest
      | "--json", rest -> go { o with json = true } rest
      | "--all", rest -> go { o with all = true } rest
      | _, [] -> die_usage "%s expects a value" flag
      | "--lint", v :: rest ->
        let l =
          match v with
          | "ignore" -> Rpc.Lint_off
          | "warn" -> Rpc.Lint_warn
          | "strict" -> Rpc.Lint_strict
          | _ -> die_usage "--lint expects ignore|warn|strict, got %s" v
        in
        go { o with q = { q with q_lint = l } } rest
      | "--ladder", v :: rest -> go { o with q = { q with q_ladder = Some v } } rest
      | "--rung", v :: rest -> go { o with q = { q with q_rung = Some (count flag ~min:0 v) } } rest
      | "--fn", v :: rest -> go { o with fn = Some v } rest
      | "--jobs", v :: rest -> go { o with jobs = count flag ~min:1 v } rest
      | "--top", v :: rest -> go { o with top = count flag ~min:1 v } rest
      | "--domains", v :: rest -> go { o with domains = count flag ~min:1 v } rest
      | "--cache", v :: rest -> go { o with cache_dir = Some v } rest
      | "--socket", v :: rest -> go { o with socket = Some v } rest
      | _ -> die_usage "unknown option %s" flag)
    | a :: rest -> go { o with args = a :: o.args } rest
  in
  go
    {
      q = Rpc.query Rpc.Verify "singly_linked";
      args = [];
      fn = None;
      jobs = 1;
      cache_dir = None;
      liberal = false;
      json = false;
      top = 10;
      all = false;
      socket = None;
      domains = 4;
    }
    args

(* --cache DIR wins; otherwise VERUS_CACHE. *)
let cache_dir = function
  | Some d -> Some d
  | None -> (
    match Sys.getenv_opt "VERUS_CACHE" with Some "" | None -> None | Some d -> Some d)

(* [<program> [<profile>]] into the query, defaulting to singly_linked
   under Verus. *)
let target kind o =
  match o.args with
  | [] -> { o.q with q_kind = kind }
  | [ p ] -> { o.q with q_kind = kind; q_program = p }
  | [ p; f ] -> { o.q with q_kind = kind; q_program = p; q_profile = f }
  | _ :: _ :: extra :: _ -> die_usage "unexpected argument %s" extra

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

(* The query's profile, degraded under --liberal, and its program,
   restricted under --fn. *)
let resolve o (q : Rpc.query) =
  let profile = find_profile q.Rpc.q_profile in
  ( (if o.liberal then Verus.Profiles.liberal profile else profile),
    apply_fn_filter (find_program q.Rpc.q_program) o.fn )

let run_local o (q : Rpc.query) =
  let profile, prog = resolve o q in
  match
    Verus.Vservice.run_job
      ~pool:(if o.jobs > 1 then Domains o.jobs else Inline)
      ~cache_dir:(cache_dir o.cache_dir)
      q profile prog
  with
  | Ok job -> job
  | Error msg -> die_usage "%s" msg

let verified (job : Verus.Vservice.job) =
  match job.Verus.Vservice.run with
  | Verus.Vservice.Verified r -> r
  | Verus.Vservice.Linted _ -> assert false

(* -------------------------- the done payload -------------------------- *)

let member_int j key = match J.member key j with Some (J.Int n) -> n | _ -> 0
let member_str j key = match J.member key j with Some (J.String s) -> s | _ -> "?"
let exit_code j = member_int j "exit_code"

(* The cache, ladder and verdict lines of one job, from its done payload:
   the same lines for a local run and a daemon's answer. *)
let print_done (q : Rpc.query) j =
  (match J.member "cache" j with
  | Some c ->
    Printf.printf "cache: %d hit(s), %d miss(es), %d invalidation(s), %d store(s)\n"
      (member_int c "hits") (member_int c "misses") (member_int c "invalidations")
      (member_int c "stores")
  | None -> ());
  (match J.member "ladder" j with
  | Some l ->
    let per_rung key =
      match J.member key l with
      | Some (J.List ns) ->
        String.concat "/" (List.map (function J.Int n -> string_of_int n | _ -> "?") ns)
      | _ -> "?"
    in
    Printf.printf
      "ladder: %s (%d rungs): attempts %s, wins %s, %d escalation(s), %d steered, %d \
       cache hit(s), %d warm rung jump(s)\n"
      (member_str l "name") (member_int l "rungs") (per_rung "attempts") (per_rung "wins")
      (member_int l "escalations") (member_int l "steered") (member_int l "cache_hits")
      (member_int l "hint_starts")
  | None -> ());
  let verdict =
    match (member_str j "kind", exit_code j) with
    | "lint", 0 -> "CLEAN"
    | "lint", _ -> "FINDINGS"
    | _, 0 -> if q.Rpc.q_certify then "VERIFIED (certified)" else "VERIFIED"
    | _, 3 -> "UNKNOWN (solver budget exhausted)"
    | _, 5 -> "CERTIFICATE REJECTED"
    | _ -> "FAILED"
  in
  let time_s = Option.value ~default:0.0 (Option.bind (J.member "time_s" j) J.to_float) in
  Printf.printf "== %s / %s: %s in %.3fs (digest %s)\n" (member_str j "program")
    (member_str j "profile") verdict time_s (member_str j "digest")

let finish q j =
  print_done q j;
  exit (exit_code j)

(* What the done payload's cache counters do not say: the store the run
   loaded was corrupt. *)
let print_corrupt_store (r : Verus.Driver.program_result) =
  match r.Verus.Driver.pr_cache with
  | Some cs when cs.Verus.Vcache.corrupt_load ->
    print_endline "cache: store was corrupt at load, rebuilt"
  | _ -> ()

(* --------------------------- verify ------------------------------- *)

let cmd_verify args =
  let o = parse_opts ~flags:("--lint" :: job_flags) args in
  let q = target Rpc.Verify o in
  let job = run_local o q in
  let r = verified job in
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
  print_corrupt_store r;
  (if q.Rpc.q_analyze then
     let total =
       List.fold_left
         (fun acc (fnr : Verus.Driver.fn_result) ->
           acc + List.length fnr.Verus.Driver.fnr_vcs)
         0 r.Verus.Driver.pr_fns
     in
     Printf.printf "prescreen: discharged %d of %d obligation(s) without SMT\n"
       (Verus.Driver.prescreen_discharged r)
       total);
  finish q job.Verus.Vservice.done_

(* --------------------------- analyze ------------------------------ *)

(* The prescreen alone, made visible: per-obligation rung-0 verdicts with
   the facts that would ship to SMT on fall-through, then the VL04x flow
   findings.  No solver runs; informational, always exit 0 (use
   `verify --prescreen` for a verdict). *)
let cmd_analyze args =
  let o = parse_opts ~flags:[ "--fn" ] args in
  let q = target Rpc.Verify o in
  let profile, prog = resolve o q in
  let prog_name = q.Rpc.q_program in
  let targets =
    List.filter
      (fun (fd : Verus.Vir.fndecl) ->
        fd.Verus.Vir.fmode <> Verus.Vir.Spec && fd.Verus.Vir.body <> None)
      prog.Verus.Vir.functions
  in
  let total = ref 0 and proved = ref 0 in
  Printf.printf "== analyze: %s / %s (Vflow %s) ==\n" prog_name profile.Verus.Profiles.name
    Vflow.version;
  let context_for = Verus.Driver.context_for profile prog in
  List.iter
    (fun (fd : Verus.Vir.fndecl) ->
      let vcs = Verus.Encode.encode_function profile prog fd in
      Printf.printf "%s: %d obligation(s)\n" fd.Verus.Vir.fname (List.length vcs);
      List.iter
        (fun (vc : Verus.Encode.vc) ->
          incr total;
          let context = context_for vc in
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
  let o = parse_opts ~flags:([ "--json"; "--top"; "--liberal" ] @ job_flags) args in
  let q = target Rpc.Profile o in
  let job = run_local o q in
  let j = job.Verus.Vservice.done_ in
  if o.json then print_endline (J.to_string ~indent:true (Option.get (J.member "report" j)))
  else begin
    let r = verified job in
    List.iter
      (fun e -> Printf.printf "front-end error: %s\n" e)
      r.Verus.Driver.pr_front_end_errors;
    print_string (Verus.Profile_report.render_text ~top:o.top ~prog_name:q.Rpc.q_program r);
    print_corrupt_store r;
    print_done q j
  end;
  exit (exit_code j)

(* ---------------------------- lint -------------------------------- *)

let cmd_lint args =
  let o = parse_opts ~flags:[ "--all"; "--strict"; "--liberal"; "--json" ] args in
  let names, others = List.partition (fun a -> List.mem_assoc a programs) o.args in
  let names = if o.all || names = [] then List.map fst programs else names in
  let profile = match List.rev others with f :: _ -> f | [] -> o.q.Rpc.q_profile in
  let lint name =
    let q = { o.q with q_kind = Rpc.Lint; q_program = name; q_profile = profile } in
    match run_local o q with
    | { Verus.Vservice.run = Verus.Vservice.Linted ds; done_; _ } -> (q, ds, done_)
    | { Verus.Vservice.run = Verus.Vservice.Verified _; _ } -> assert false
  in
  if o.json then begin
    (* One versioned document per invocation: the schema has a single
       "program" key, so --json covers exactly one program. *)
    let name =
      match names with
      | [ n ] -> n
      | _ -> die_usage "lint --json expects exactly one program"
    in
    let _, ds, j = lint name in
    print_endline
      (J.to_string ~indent:true
         (Verus.Vlint.report_to_json ~prog_name:name ~profile_name:(member_str j "profile") ds));
    exit (exit_code j)
  end;
  let n_err = ref 0 and n_warn = ref 0 and n_info = ref 0 and failing = ref false in
  List.iter
    (fun name ->
      let q, ds, j = lint name in
      Printf.printf "%-16s %s: %d finding(s)\n" name (member_str j "profile") (List.length ds);
      List.iter
        (fun (d : Verus.Vlint.diag) ->
          (match d.Verus.Vlint.severity with
          | Verus.Vlint.Error -> incr n_err
          | Verus.Vlint.Warn -> incr n_warn
          | Verus.Vlint.Info -> incr n_info);
          print_endline ("  " ^ Verus.Vlint.diag_to_string d))
        ds;
      print_done q j;
      if exit_code j <> 0 then failing := true)
    names;
  Printf.printf "== lint: %d error(s), %d warning(s), %d info\n" !n_err !n_warn !n_info;
  exit (if !failing then 1 else 0)

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
    match cache_dir dir_arg with
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

let socket_path o =
  match (o.socket, Sys.getenv_opt "VERUSD_SOCKET") with
  | Some p, _ -> p
  | None, Some p when p <> "" -> p
  | None, _ -> "verusd.sock"

let cmd_daemon args =
  let o = parse_opts ~flags:[ "--socket"; "--domains"; "--cache" ] args in
  (match o.args with a :: _ -> die_usage "unknown daemon argument %s" a | [] -> ());
  let socket_path = socket_path o and cache_dir = cache_dir o.cache_dir in
  Printf.printf "verusd: listening on %s (%d domain%s%s)\n%!" socket_path o.domains
    (if o.domains = 1 then "" else "s")
    (match cache_dir with Some d -> ", cache " ^ d | None -> ", no cache");
  match Verus.Vservice.serve ~socket_path ~domains:o.domains ?cache_dir () with
  | Ok () ->
    Printf.printf "verusd: shut down\n%!";
    exit 0
  | Error e ->
    Printf.eprintf "verusd: %s\n" e;
    exit exit_daemon_io

(* ---------------------------- client ------------------------------- *)

let print_stream_event = function
  | Rpc.E_vc { fn; vc; answer; reason; time_s; cached; rung } ->
    Printf.printf "vc  %-16s %-44s %-8s %.3fs%s%s%s\n%!" fn vc answer time_s
      (if cached then "  (cached)" else "")
      (match rung with Some r -> Printf.sprintf "  (rung %d)" r | None -> "")
      (match reason with Some r -> "  [" ^ r ^ "]" | None -> "")
  | Rpc.E_fn { fn; ok; time_s; vcs } ->
    Printf.printf "fn  %-16s %-44s %-8s %.3fs\n%!" fn
      (Printf.sprintf "(%d vc%s)" vcs (if vcs = 1 then "" else "s"))
      (if ok then "OK" else "FAIL")
      time_s
  | _ -> ()

let cmd_client args =
  let o =
    parse_opts
      ~flags:
        [
          "--socket"; "--lint"; "--certify"; "--prescreen"; "--no-cache"; "--ladder"; "--rung";
          "--no-stream";
        ]
      args
  in
  let meth, o =
    match o.args with
    | m :: rest -> (m, { o with args = rest })
    | [] -> die_usage "client needs a method (ping|status|shutdown|verify|lint|profile)"
  in
  let method_ =
    match meth with
    | "ping" -> Rpc.M_ping
    | "status" -> Rpc.M_status
    | "shutdown" -> Rpc.M_shutdown
    | "verify" -> Rpc.M_job (target Rpc.Verify o)
    | "lint" -> Rpc.M_job (target Rpc.Lint o)
    | "profile" -> Rpc.M_job (target Rpc.Profile o)
    | m -> die_usage "unknown client method %s" m
  in
  match Verusd.Client.connect ~socket_path:(socket_path o) with
  | Error e ->
    Printf.eprintf "client: %s\n" e;
    exit exit_daemon_io
  | Ok c -> (
    let r = Verusd.Client.call c ~on_event:print_stream_event (Rpc.request method_) in
    Verusd.Client.close c;
    match (r, method_) with
    | Error e, _ ->
      Printf.eprintf "client: %s\n" e;
      exit exit_daemon_io
    | Ok Rpc.E_pong, _ ->
      print_endline "pong";
      exit 0
    | Ok (Rpc.E_status j), _ ->
      print_endline (J.to_string ~indent:true j);
      exit 0
    | Ok (Rpc.E_done _), Rpc.M_shutdown ->
      print_endline "daemon shut down";
      exit 0
    | Ok (Rpc.E_done j), Rpc.M_job q ->
      Option.iter (fun rep -> print_endline (J.to_string ~indent:true rep)) (J.member "report" j);
      finish q j
    | Ok (Rpc.E_error { code; message }), _ ->
      Printf.eprintf "client: daemon error %s: %s\n" code message;
      exit exit_daemon_io
    | Ok _, _ ->
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
