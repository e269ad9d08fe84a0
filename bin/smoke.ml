(* The CI smoke checks, one stage per `dune build @<alias>`:

     smoke faults          IronKV crosscheck at 5% drop+dup; one torn-write
                           log recovery
     smoke kv              a durable-IronKV crash+partition storm with a
                           no-acked-write-lost readback; a recovery probe
     smoke profile FILE    FILE (verus_cli profile --json) validates
                           against the verus-profile schema
     smoke cache FILE      cold fill, 100%-hit warm run with the cold
                           digest, jobs>1 counters, corrupt-store recovery;
                           FILE (a store an earlier build wrote) serves
                           every obligation it covers
     smoke certify         every bundled program verifies with --certify
                           and every Unsat's certificate replays Checked
     smoke analyze         prescreen-Proved => solver-Unsat over the suite;
                           const_cond discharge; prescreen digest parity
     smoke ladder          escalate-ladder digests equal monolithic ones;
                           winning rungs reproduce pinned; the warm jump
     smoke daemon          an in-process daemon serving overlapping clients
                           with in-process digests and a warm shared cache
     smoke docs FILE       every fenced ```json block of FILE
                           (docs/PROTOCOL.md) passes Rpc.validate_frame;
                           its error-code table is Rpc.error_codes
     smoke digests FILE    every `program profile setting digest` line of
                           FILE recomputes to the same result digest

   Exit 0 when the stage passes, 1 with a FAIL line otherwise, 2 on bad
   arguments. *)

module J = Vbase.Json
module Rpc = Verusd.Rpc
open Verus

let stage = ref "smoke"

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline (Printf.sprintf "smoke %s: FAIL: %s" !stage m);
      exit 1)
    fmt

let check name cond = if not cond then fail "%s" name else Printf.printf "  ok: %s\n%!" name
let pass fmt = Printf.ksprintf (fun m -> Printf.printf "smoke %s: %s\n%!" !stage m) fmt
let digest = Driver.result_digest
let vcs_of (r : Driver.program_result) = List.concat_map (fun f -> f.Driver.fnr_vcs) r.Driver.pr_fns

let fresh_tmp tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "verus-smoke-%s-%d" tag (Unix.getpid ()))

let clear_cache dir =
  match Vcache.clear ~dir with Ok () -> () | Error e -> fail "could not clear %s: %s" dir e

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every run below goes through the one query-to-Config mapping the CLI
   and the daemon share. *)
let run ?(jobs = 1) ?cache_dir (q : Rpc.query) profile prog =
  match
    Vservice.run_job ~pool:(if jobs > 1 then Domains jobs else Inline) ~cache_dir q profile prog
  with
  | Ok { Vservice.run = Vservice.Verified r; _ } -> r
  | Ok { Vservice.run = Vservice.Linted _; _ } -> fail "%s: not a verification job" q.Rpc.q_program
  | Error e -> fail "%s: %s" q.Rpc.q_program e

(* ------------------------------ faults ------------------------------- *)

let faults () =
  let net_plan = Vbase.Faultplan.create ~seed:7 () in
  Vbase.Faultplan.set_prob net_plan "net.drop" ~pct:5;
  Vbase.Faultplan.set_prob net_plan "net.dup" ~pct:5;
  (match snd (Ironkv.Workload.crosscheck ~ops:800 ~seed:7 ~faults:net_plan ()) with
  | Ok () -> pass "ironkv crosscheck @ 5%% drop+dup ok"
  | Error e -> fail "ironkv crosscheck diverged: %s" e);
  let module P = Plog.Pmem in
  let module L = Plog.Log in
  let len = 1024 + L.header_bytes in
  let plan = Vbase.Faultplan.create ~seed:11 () in
  let mem = P.create ~faults:plan ~size:len () in
  L.format mem ~base:0 ~len;
  let log = match L.attach mem ~base:0 ~len with Ok l -> l | Error e -> fail "attach: %s" e in
  (* Arm the tear after format, then append until it bites. *)
  Vbase.Faultplan.fire_at plan "pmem.torn" [ Vbase.Faultplan.step plan "pmem.torn" + 5 ];
  let acked = Buffer.create 128 in
  for i = 1 to 10 do
    match L.append log (Printf.sprintf "entry-%02d" i) with
    | Ok () -> Buffer.add_string acked (Printf.sprintf "entry-%02d" i)
    | Error _ -> ()
  done;
  if Vbase.Faultplan.fired plan "pmem.torn" = 0 then fail "torn-write site never fired";
  P.crash mem;
  match L.attach mem ~base:0 ~len with
  | Error e -> fail "recovery after torn write failed: %s" e
  | Ok log2 -> (
    let t = L.tail log2 in
    if t > Buffer.length acked then fail "recovered more bytes than were acked";
    match L.read log2 ~offset:0 ~len:t with
    | Error e -> fail "read after recovery: %s" e
    | Ok s ->
      if s <> Buffer.sub acked 0 t then fail "recovered bytes are not a committed prefix";
      pass "plog torn-write recovery ok (%d/%d bytes committed)" t (Buffer.length acked))

(* -------------------------------- kv --------------------------------- *)

let kv () =
  let module W = Ironkv.Workload in
  let plan = Vbase.Faultplan.create ~seed:19 () in
  List.iter
    (fun (site, pct) -> Vbase.Faultplan.set_prob plan site ~pct)
    [
      ("net.drop", 5);
      ("net.dup", 5);
      ("net.reorder", 5);
      ("net.delay", 5);
      (Ironkv.Durable.crash_during_recovery_site, 10);
      (W.crash_site, 2);
      (W.partition_site, 1);
      ("pmem.torn", 1);
    ];
  let report, verdict =
    W.crosscheck ~ops:500 ~seed:23 ~dup_pct:10 ~faults:plan
      ~durability:{ W.du_group = 4; du_mem_bytes = 1 lsl 22 }
      ()
  in
  (match verdict with Ok () -> () | Error e -> fail "storm crosscheck diverged: %s" e);
  if report.W.sr_crashes + report.W.sr_torn = 0 then fail "storm never crashed a host";
  if report.W.sr_partitions = 0 then fail "storm never partitioned the cluster";
  if report.W.sr_recoveries <> report.W.sr_crashes + report.W.sr_torn then
    fail "a crash did not recover (%d crashes+torn, %d recoveries)"
      (report.W.sr_crashes + report.W.sr_torn)
      report.W.sr_recoveries;
  if report.W.sr_readback = 0 then fail "readback sweep verified nothing";
  pass
    "storm ok (%d ops; %d crashes + %d torn + %d partitions; %d recoveries replaying %d \
     records in %.3fs; %d acked writes re-verified; %d client retries)"
    report.W.sr_ops report.W.sr_crashes report.W.sr_torn report.W.sr_partitions
    report.W.sr_recoveries report.W.sr_replayed report.W.sr_recovery_s report.W.sr_readback
    report.W.sr_retransmissions;
  let secs, replayed = W.recovery_probe ~records:5_000 ~payload:64 ~group:64 () in
  if replayed < 5_000 then fail "recovery probe replayed %d < 5000 records" replayed;
  pass "recovery probe ok (%d records replayed in %.3fs)" replayed secs

(* ------------------------------ profile ------------------------------ *)

(* The emitter and the validator are the same module, so the schema the
   CLI writes and the schema CI accepts cannot drift apart. *)
let profile path =
  match J.of_string (read_file path) with
  | Error e -> fail "%s: JSON parse error: %s" path e
  | Ok j -> (
    match Profile_report.validate j with
    | Error e -> fail "%s: invalid profile document: %s" path e
    | Ok () ->
      pass "%s: ok (schema %s, %d required keys present)" path Profile_report.schema_version
        (List.length Profile_report.required_keys))

(* ------------------------------- cache ------------------------------- *)

(* [fixture] is a store written by an earlier build: [verus_cli verify
   singly_linked --cache D], then the same with [--ladder escalate
   --prescreen].  Served from a copy, both runs must hit on every
   obligation they look up, which pins the cache keys and the on-disk
   format across builds.  Re-record it only together with a deliberate
   [verus-cache-fp] or [verus-cache] bump. *)
let cache_fixture fixture =
  let dir = fresh_tmp "cache-fixture" in
  clear_cache dir;
  Vbase.Store.mkdir_p dir;
  Out_channel.with_open_bin (Filename.concat dir Vcache.file_name) (fun oc ->
      output_string oc (read_file fixture));
  List.iter
    (fun (what, q) ->
      let r = run ~cache_dir:dir q Profiles.verus Bench_programs.singly_linked in
      match r.Driver.pr_cache with
      | None -> fail "%s: run reported no cache stats" what
      | Some s ->
        check
          (Printf.sprintf "%s: %d hit(s), %d miss(es), %d invalidation(s) against %s" what
             s.Vcache.hits s.Vcache.misses s.Vcache.invalidations fixture)
          (s.Vcache.hits > 0 && s.Vcache.misses = 0 && s.Vcache.invalidations = 0))
    [
      ("verify singly_linked", Rpc.query Rpc.Verify "singly_linked");
      ( "verify singly_linked --ladder escalate --prescreen",
        Rpc.query ~ladder:"escalate" ~analyze:true Rpc.Verify "singly_linked" );
    ];
  clear_cache dir

let cache fixture =
  cache_fixture fixture;
  let dir = fresh_tmp "cache" in
  clear_cache dir;
  let run ?jobs () =
    run ?jobs ~cache_dir:dir (Rpc.query Rpc.Verify "singly_linked") Profiles.verus
      Bench_programs.singly_linked
  in
  let stats (r : Driver.program_result) =
    match r.Driver.pr_cache with Some s -> s | None -> fail "run reported no cache stats"
  in
  (* Cold: solve and store everything. *)
  let cold = run () in
  let cs = stats cold in
  check "cold run verifies" cold.Driver.pr_ok;
  check "cold run has no hits" (cs.Vcache.hits = 0);
  check "cold run misses every obligation" (cs.Vcache.misses > 0 && cs.Vcache.invalidations = 0);
  check "cold run stores entries" (cs.Vcache.stores > 0);
  (* Warm: 100% hit rate, identical digest. *)
  let warm = run () in
  let ws = stats warm in
  check "warm run verifies" warm.Driver.pr_ok;
  check "warm run hits every obligation"
    (ws.Vcache.hits = cs.Vcache.misses && ws.Vcache.misses = 0 && ws.Vcache.invalidations = 0);
  check "warm run stores nothing" (ws.Vcache.stores = 0);
  check "warm digest equals cold digest" (digest cold = digest warm);
  (* The counters are defined against the load-time snapshot, not the
     worker interleaving. *)
  let warm2 = run ~jobs:2 () in
  let w2 = stats warm2 in
  check "warm jobs=2 digest unchanged" (digest warm = digest warm2);
  check "warm jobs=2 counters unchanged"
    (w2.Vcache.hits = ws.Vcache.hits && w2.Vcache.misses = 0 && w2.Vcache.invalidations = 0);
  (* Corruption degrades to cold, repairs, then warms again. *)
  let path = Filename.concat dir Vcache.file_name in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{ \"schema\": \"verus-cache/1\", \"entries\": { truncated");
  let recovered = run () in
  let rs = stats recovered in
  check "corrupt store is detected" rs.Vcache.corrupt_load;
  check "corrupt store degrades to a full cold run"
    (rs.Vcache.hits = 0 && rs.Vcache.misses = cs.Vcache.misses);
  check "corrupt-store run still verifies" recovered.Driver.pr_ok;
  check "corrupt-store digest unchanged" (digest cold = digest recovered);
  let rw = stats (run ()) in
  check "store was rebuilt after corruption"
    ((not rw.Vcache.corrupt_load) && rw.Vcache.hits = ws.Vcache.hits);
  pass "all checks passed (%d obligations, store %s)" ws.Vcache.hits path

(* ------------------------------ certify ------------------------------ *)

(* The break_* programs fail on purpose (the error-localization
   benchmarks): they must fail for their ordinary reason, never a
   certificate one, and whatever they prove must certify. *)
let certify () =
  let grand_total = ref 0 in
  List.iter
    (fun (name, mk) ->
      let broken = String.starts_with ~prefix:"break_" name in
      let r = run (Rpc.query ~certify:true Rpc.Verify name) Profiles.verus (mk ()) in
      (match (broken, r.Driver.pr_ok, Driver.first_failure r) with
      | false, false, Some (where, what, code) -> fail "%s: [%s] %s: %s" name code where what
      | true, true, _ -> fail "%s: expected to fail but verified" name
      | true, false, Some (_, _, "VC003") -> fail "%s: failed on a certificate rejection" name
      | _, false, None -> fail "%s: failed with no reported failure" name
      | _ -> ());
      let total = ref 0 in
      List.iter
        (fun (v : Driver.vc_result) ->
          match (v.Driver.vcr_answer, v.Driver.vcr_cert) with
          | Smt.Solver.Unsat, Driver.Cert_checked _ -> incr total
          | Smt.Solver.Unsat, Driver.Cert_rejected (code, reason) ->
            fail "%s: %S certificate REJECTED %s: %s" name v.Driver.vcr_name code reason
          | Smt.Solver.Unsat, _ ->
            fail "%s: %S proved without a checked certificate" name v.Driver.vcr_name
          | _ -> ())
        (vcs_of r);
      grand_total := !grand_total + !total;
      Printf.printf "  ok: %-16s %3d obligation(s) certified in %.3fs%s\n%!" name !total
        r.Driver.pr_time_s
        (if broken then "  (fails as intended)" else ""))
    Vservice.programs;
  pass "%d obligation(s) across %d program(s) certified" !grand_total
    (List.length Vservice.programs)

(* ------------------------------ analyze ------------------------------ *)

let analyze () =
  (* Prescreen-Proved => solver-Unsat, across the whole suite.  The EPR
     profile (Ivy) never reaches the general path the prescreen feeds. *)
  let profiles = List.filter (fun (p : Profiles.t) -> not p.Profiles.epr_only) Profiles.all in
  let checked = ref 0 and discharged = ref 0 in
  List.iter
    (fun (name, mk) ->
      let prog : Vir.program = mk () in
      List.iter
        (fun (p : Profiles.t) ->
          List.iter
            (fun (fd : Vir.fndecl) ->
              if fd.Vir.fmode <> Vir.Spec && fd.Vir.body <> None then
                List.iter
                  (fun (vc : Encode.vc) ->
                    incr checked;
                    let hyps = Driver.context_for p prog vc @ vc.Encode.vc_hyps in
                    let r = Vflow.Prescreen.check ~hyps ~goal:vc.Encode.vc_goal () in
                    if r.Vflow.Prescreen.verdict = Vflow.Prescreen.Proved then begin
                      incr discharged;
                      let s =
                        Smt.Solver.check_valid ~config:p.Profiles.solver_config ~hyps
                          vc.Encode.vc_goal
                      in
                      if s.Smt.Solver.answer <> Smt.Solver.Unsat then
                        fail "prescreen/SMT disagreement on %s / %s / %S" name p.Profiles.name
                          vc.Encode.vc_name
                    end)
                  (Encode.encode_function p prog fd))
            prog.Vir.functions)
        profiles)
    Vservice.programs;
  check
    (Printf.sprintf "crosscheck: %d prescreen-proved obligation(s) of %d all SMT-Unsat"
       !discharged !checked)
    (!discharged > 0);
  let run ?analyze ?jobs name prog =
    run ?jobs (Rpc.query ?analyze Rpc.Verify name) Profiles.verus prog
  in
  let pre = run ~analyze:true "const_cond" Bench_programs.const_cond in
  check "const_cond verifies with prescreen" pre.Driver.pr_ok;
  check "const_cond discharges at least one obligation at rung 0"
    (Driver.prescreen_discharged pre > 0);
  (* Derived facts are ordered by their printed rendering, never by term
     identity, so digests agree plain vs. prescreened and across jobs. *)
  List.iter
    (fun (name, prog) ->
      let plain = run name prog in
      let pre1 = run ~analyze:true name prog in
      let pre2 = run ~analyze:true ~jobs:2 name prog in
      check (name ^ ": prescreened digest equals plain digest") (digest plain = digest pre1);
      check (name ^ ": prescreened digest stable under jobs=2") (digest pre1 = digest pre2);
      check (name ^ ": verified-function count unchanged")
        (List.length plain.Driver.pr_fns = List.length pre1.Driver.pr_fns
        && plain.Driver.pr_ok = pre1.Driver.pr_ok))
    [
      ("const_cond", Bench_programs.const_cond);
      ("singly_linked", Bench_programs.singly_linked);
      ("mem4", Bench_programs.memory_reasoning 4);
    ];
  pass "all checks passed"

(* ------------------------------ ladder ------------------------------- *)

(* Attempts spent at rungs strictly below the winning rung. *)
let wasted r =
  List.fold_left
    (fun acc (v : Driver.vc_result) ->
      match v.Driver.vcr_rung with
      | Some w -> acc + List.length (List.filter (fun t -> t < w) v.Driver.vcr_rungs_tried)
      | None -> acc)
    0 (vcs_of r)

let ladder () =
  let climb ?rung ?cache_dir ?lint ?(kind = Rpc.Verify) name =
    run ?cache_dir (Rpc.query ~ladder:"escalate" ?rung ?lint kind name)
  in
  (* The ladder may change cost, never truth: its top rung is the
     untouched profile.  And a win is a property of the rung's
     configuration, not of the climb that led there. *)
  List.iter
    (fun (name, prog, (p : Profiles.t)) ->
      let tag = Printf.sprintf "%s / %s" name p.Profiles.name in
      let mono = Driver.verify_program p prog in
      let lad = climb name p prog in
      check (tag ^ ": ladder digest equals monolithic digest") (digest mono = digest lad);
      let lad_vcs = vcs_of lad in
      check (tag ^ ": every obligation records a winning rung")
        (List.for_all (fun (v : Driver.vc_result) -> v.Driver.vcr_rung <> None) lad_vcs);
      List.iter
        (fun w ->
          let pin_vcs = vcs_of (climb ~rung:w name p prog) in
          (* Obligation names can repeat, so match positionally: both runs
             list obligations in encoding order. *)
          if List.length lad_vcs <> List.length pin_vcs then
            fail "%s: pinned run has %d obligation(s), ladder run %d" tag (List.length pin_vcs)
              (List.length lad_vcs);
          List.iter2
            (fun (v : Driver.vc_result) (pv : Driver.vc_result) ->
              if v.Driver.vcr_name <> pv.Driver.vcr_name then
                fail "%s: obligation order differs (%S vs %S)" tag v.Driver.vcr_name
                  pv.Driver.vcr_name;
              if v.Driver.vcr_rung = Some w && v.Driver.vcr_answer <> pv.Driver.vcr_answer then
                fail "%s: %S won at rung %d but answers differently when pinned there" tag
                  v.Driver.vcr_name w)
            lad_vcs pin_vcs;
          Printf.printf "  ok: %s: rung-%d winners reproduce pinned\n%!" tag w)
        (List.sort_uniq compare (List.filter_map (fun v -> v.Driver.vcr_rung) lad_vcs)))
    [
      ("singly_linked", Bench_programs.singly_linked, Profiles.verus);
      ("singly_linked", Bench_programs.singly_linked, Profiles.dafny);
      ("singly_linked", Bench_programs.singly_linked, Profiles.liberal Profiles.verus);
      ("const_cond", Bench_programs.const_cond, Profiles.verus);
      ("break_pop", Bench_programs.break_pop, Profiles.verus);
    ];
  (* The winning-rung jump, over break_pop: its refuted obligation must
     climb to the top rung (a Sat from a pruned, conservatively-triggered
     rung is never final). *)
  let dir = fresh_tmp "ladder" in
  clear_cache dir;
  (* Profile jobs lint at warn, so every run here does: lint findings
     are part of the digest. *)
  let run ~profile () =
    climb ~cache_dir:dir ~lint:Rpc.Lint_warn
      ~kind:(if profile then Rpc.Profile else Rpc.Verify)
      "break_pop" Profiles.verus Bench_programs.break_pop
  in
  let ls r = match r.Driver.pr_ladder with Some ls -> ls | None -> fail "run lost its ladder stats" in
  let cold = run ~profile:false () in
  check "cold break_pop run escalates (wasted lower-rung attempts > 0)" (wasted cold > 0);
  let warm = run ~profile:false () in
  check
    (Printf.sprintf "warm run serves all %d obligation(s) from the cache" (List.length (vcs_of warm)))
    ((ls warm).Driver.ls_cache_hits = List.length (vcs_of warm));
  check "warm digest equals cold digest" (digest cold = digest warm);
  (* Profiled lookups are gated out (the cold entries carry no profile),
     so the recorded winning rung steers the fresh solve. *)
  let jump = run ~profile:true () in
  check "warm profiled run jumps to a recorded winning rung" ((ls jump).Driver.ls_hint_starts > 0);
  check "warm profiled run wastes zero lower-rung attempts" (wasted jump = 0);
  check "warm profiled digest equals cold digest" (digest cold = digest jump);
  pass "all checks passed"

(* ------------------------------ daemon ------------------------------- *)

let daemon () =
  let socket_path = fresh_tmp "sock" and cache_dir = fresh_tmp "daemon-cache" in
  clear_cache cache_dir;
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let connect () =
    match Verusd.Client.connect ~socket_path with Ok c -> c | Error e -> fail "connect: %s" e
  in
  let call c ?on_event req =
    match Verusd.Client.call c ?on_event req with Ok ev -> ev | Error e -> fail "call: %s" e
  in
  let done_of = function
    | Rpc.E_done j -> j
    | Rpc.E_error e -> fail "daemon error %s: %s" e.Rpc.code e.Rpc.message
    | _ -> fail "expected a done event"
  in
  let jstr j k = match J.member k j with Some (J.String s) -> s | _ -> fail "payload missing %s" k in
  let jint j k = match J.member k j with Some (J.Int n) -> n | _ -> fail "payload missing %s" k in
  let verify_req ?(stream = true) program =
    Rpc.request ~id:1 (Rpc.M_job (Rpc.query ~certify:true ~stream Rpc.Verify program))
  in
  (* Reference digests, in-process and inline, before the daemon exists. *)
  let progs = [ ("singly_linked", Bench_programs.singly_linked); ("dlock", Bench_programs.dlock_default) ] in
  let want =
    List.map
      (fun (n, p) ->
        (n, digest (run (Rpc.query ~certify:true Rpc.Verify n) Profiles.verus p)))
      progs
  in
  let served = ref (Ok ()) in
  let th =
    Thread.create (fun () -> served := Vservice.serve ~socket_path ~domains:2 ~cache_dir ()) ()
  in
  let rec wait_up tries =
    if tries = 0 then fail "daemon did not come up at %s" socket_path
    else
      match Verusd.Client.connect ~socket_path with
      | Ok c -> Verusd.Client.close c
      | Error _ ->
        Thread.delay 0.05;
        wait_up (tries - 1)
  in
  wait_up 100;
  (* Two overlapping streaming clients: their obligations interleave in
     the one shared pool. *)
  let results = Array.make (List.length progs) None in
  List.mapi
    (fun i (name, _) ->
      Thread.create
        (fun () ->
          let c = connect () in
          let vcs = ref 0 in
          let on_event = function Rpc.E_vc _ -> incr vcs | _ -> () in
          let d = done_of (call c ~on_event (verify_req name)) in
          Verusd.Client.close c;
          results.(i) <- Some (name, d, !vcs))
        ())
    progs
  |> List.iter Thread.join;
  Array.iter
    (function
      | None -> fail "a client thread produced no result"
      | Some (name, d, vcs) ->
        if jstr d "digest" <> List.assoc name want then
          fail "%s: daemon digest %s <> in-process digest %s" name (jstr d "digest")
            (List.assoc name want);
        if jint d "exit_code" <> 0 then fail "%s: exit_code %d" name (jint d "exit_code");
        if vcs <> jint d "vcs" then
          fail "%s: streamed %d vc events for %d obligations" name vcs (jint d "vcs");
        pass "%s: daemon digest matches in-process run (%d obligations streamed)" name vcs)
    results;
  (* A third client onto the now-warm shared cache. *)
  let c = connect () in
  let d = done_of (call c (verify_req ~stream:false "singly_linked")) in
  Verusd.Client.close c;
  if jstr d "digest" <> List.assoc "singly_linked" want then
    fail "warm digest drifted: %s" (jstr d "digest");
  let cache = match J.member "cache" d with Some c -> c | None -> fail "no cache stats" in
  let hits = jint cache "hits" and misses = jint cache "misses" in
  let rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  if rate < 0.9 then fail "warm client hit rate %.0f%% (< 90%%)" (100. *. rate);
  pass "warm client: %d/%d cache hits (%.0f%%), digest unchanged" hits (hits + misses)
    (100. *. rate);
  let c = connect () in
  (match call c (Rpc.request Rpc.M_ping) with Rpc.E_pong -> () | _ -> fail "ping did not pong");
  (match call c (Rpc.request Rpc.M_status) with
  | Rpc.E_status j ->
    if jint j "domains" <> 2 then fail "status domains <> 2";
    pass "status: %d requests served on %d domains" (jint j "requests") (jint j "domains")
  | _ -> fail "status did not answer");
  (match call c (Rpc.request Rpc.M_shutdown) with
  | Rpc.E_done j when jstr j "kind" = "shutdown" -> ()
  | _ -> fail "shutdown did not acknowledge");
  Verusd.Client.close c;
  Thread.join th;
  (match !served with Ok () -> () | Error e -> fail "serve: %s" e);
  if Sys.file_exists socket_path then fail "socket file not removed on shutdown";
  pass "orderly shutdown, socket removed"

(* The docs gate: a schema change that forgets the documentation, or a
   documented example the implementation would reject, fails the build. *)
let docs path =
  let lines = String.split_on_char '\n' (read_file path) in
  (* Fenced ```json blocks, with the line number each starts on. *)
  let blocks, open_block, _ =
    List.fold_left
      (fun (blocks, cur, lineno) line ->
        let lineno = lineno + 1 in
        match (cur, String.trim line) with
        | Some (start, buf), "```" -> ((start, Buffer.contents buf) :: blocks, None, lineno)
        | Some (_, buf), _ ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          (blocks, cur, lineno)
        | None, "```json" -> (blocks, Some (lineno + 1, Buffer.create 256), lineno)
        | None, _ -> (blocks, None, lineno))
      ([], None, 0) lines
  in
  (match open_block with
  | Some (start, _) -> fail "%s: unterminated ```json block at line %d" path start
  | None -> ());
  let blocks = List.rev blocks in
  let bad =
    List.filter
      (fun (line, text) ->
        match J.of_string text with
        | Error e ->
          Printf.eprintf "%s:%d: example is not valid JSON: %s\n" path line e;
          true
        | Ok j -> (
          (* A profile job's report must also be a valid verus-profile
             document. *)
          let report = Option.bind (J.member "result" j) (J.member "report") in
          match (Rpc.validate_frame j, Option.map Profile_report.validate report) with
          | Ok (), (None | Some (Ok ())) -> false
          | Error e, _ | _, Some (Error e) ->
            Printf.eprintf "%s:%d: example violates %s: %s\n" path line Rpc.schema_version e;
            true))
      blocks
  in
  if bad <> [] then
    fail "%d of %d documented example(s) failed validation" (List.length bad) (List.length blocks);
  (* An empty document must not vacuously pass: the protocol spec keeps
     at least one example per method and per event kind. *)
  if List.length blocks < 10 then
    fail "%s documents only %d examples (expected the full method/event set)" path
      (List.length blocks);
  pass "%d protocol examples validate against %s" (List.length blocks) Rpc.schema_version;
  (* The error-code table's rows, backticks dropped, must be
     [Rpc.error_codes] in order. *)
  let plain s = String.trim (String.concat "" (String.split_on_char '`' s)) in
  let documented =
    List.filter_map
      (fun line ->
        match String.split_on_char '|' line with
        | "" :: code :: meaning :: _ when String.starts_with ~prefix:"RPC" (plain code) ->
          Some (plain code, plain meaning)
        | _ -> None)
      lines
  in
  if documented <> Rpc.error_codes then begin
    List.iter (fun (c, m) -> Printf.eprintf "  documented: %s %s\n" c m) documented;
    List.iter (fun (c, m) -> Printf.eprintf "  Rpc.error_codes: %s %s\n" c m) Rpc.error_codes;
    fail "%s: the error-code table differs from Rpc.error_codes" path
  end;
  pass "%d error codes match Rpc.error_codes" (List.length documented)

(* ------------------------------ digests ------------------------------ *)

(* The "same verdicts" pin: bench/perf's cold-suite pairs at CLI verify
   defaults, its ladder-climb pairs up the escalate ladder behind the
   prescreen, every bundled program under Ivy (the EPR arm), and
   certified runs, whose digests include each Unsat's certificate digest
   and so pin the search itself.  A "<profile>-liberal" profile is the
   broad-trigger degradation of a bundled one. *)
let manifest_digest ~program ~profile ~setting =
  let ok = function Ok x -> x | Error e -> fail "%s" e in
  let p =
    match Filename.chop_suffix_opt ~suffix:"-liberal" profile with
    | Some base -> Profiles.liberal (ok (Vservice.find_profile base))
    | None -> ok (Vservice.find_profile profile)
  in
  let q =
    match setting with
    | "default" -> Rpc.query Rpc.Verify program
    | "escalate+prescreen" -> Rpc.query ~ladder:"escalate" ~analyze:true Rpc.Verify program
    | "certify" -> Rpc.query ~certify:true Rpc.Verify program
    | s -> fail "unknown setting %s" s
  in
  digest (run q p (ok (Vservice.find_program program)))

let digests path =
  let checked = ref 0 and mismatches = ref 0 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ program; profile; setting; want ] ->
        incr checked;
        let got = manifest_digest ~program ~profile ~setting in
        if got <> want then begin
          incr mismatches;
          Printf.eprintf "%s %s %s %s   (manifest: %s)\n%!" program profile setting got want
        end
      | _ when line = "" || line.[0] = '#' -> ()
      | _ -> fail "%s: malformed line %S" path line)
    (String.split_on_char '\n' (read_file path));
  if !mismatches > 0 then fail "%d of %d digest(s) differ from %s" !mismatches !checked path;
  pass "%d digest(s) match %s" !checked path

(* ------------------------------- main -------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with s :: _ -> stage := s | [] -> ());
  match args with
  | [ "faults" ] -> faults ()
  | [ "kv" ] -> kv ()
  | [ "profile"; path ] -> profile path
  | [ "cache"; path ] -> cache path
  | [ "certify" ] -> certify ()
  | [ "analyze" ] -> analyze ()
  | [ "ladder" ] -> ladder ()
  | [ "daemon" ] -> daemon ()
  | [ "docs"; path ] -> docs path
  | [ "digests"; path ] -> digests path
  | _ ->
    prerr_endline
      "usage: smoke faults|kv|certify|analyze|ladder|daemon | smoke profile|cache|docs|digests FILE";
    exit 2
