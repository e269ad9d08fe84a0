(* The escalation ladder: the Rung/Ladder API, the one resolver shared
   by CLI and daemon, escalation determinism across scheduling modes
   (inline / transient domains / borrowed pool / live daemon), and the
   warm winning-rung jump. *)

open Verus
module Rung = Vladder.Rung
module Ladder = Vladder.Ladder

(* ------------------------------------------------------------------ *)
(* Rung / Ladder unit surface                                          *)
(* ------------------------------------------------------------------ *)

let test_rung_fingerprint () =
  let r = Rung.profile_rung in
  Alcotest.(check string)
    "display name excluded from the fingerprint"
    (Rung.fingerprint r)
    (Rung.fingerprint { r with Rung.r_name = "renamed" });
  let scaled =
    { r with Rung.r_budget = Rung.B_scaled { deadline = 0.25; rounds = 0.25; instances = 0.25 } }
  in
  Alcotest.(check bool)
    "budget spec is part of the fingerprint" false
    (String.equal (Rung.fingerprint r) (Rung.fingerprint scaled));
  (* Integer knobs round up and clamp to >= 1; the deadline scales. *)
  let b =
    Rung.scale_budget Smt.Solver.default_budget ~deadline:0.25 ~rounds:0.001 ~instances:0.5
  in
  Alcotest.(check (float 1e-9)) "deadline scales directly"
    (Smt.Solver.default_budget.Smt.Solver.deadline_s /. 4.0)
    b.Smt.Solver.deadline_s;
  Alcotest.(check int) "rounds clamp to >= 1" 1 b.Smt.Solver.max_rounds;
  Alcotest.(check bool) "instance caps stay >= 1" true
    (b.Smt.Solver.max_instances_per_round >= 1 && b.Smt.Solver.max_instances_per_quant >= 1)

let test_ladder_api () =
  (try
     ignore (Ladder.make []);
     Alcotest.fail "make [] should raise"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "identity is single-rung" 1 (Ladder.length Ladder.identity);
  List.iter
    (fun (name, l) ->
      Alcotest.(check string) "builtin name matches table key" name (Ladder.name l);
      (match Ladder.by_name name with
      | Some l' ->
        Alcotest.(check string) "by_name finds the same ladder" (Ladder.fingerprint l)
          (Ladder.fingerprint l')
      | None -> Alcotest.fail ("by_name misses " ^ name));
      Alcotest.(check bool) "no builtin widens beyond the profile" false (Ladder.widens l))
    Ladder.builtins;
  Alcotest.(check bool) "a P_full rung widens" true
    (Ladder.widens
       (Ladder.make
          [ { Rung.profile_rung with Rung.r_pruning = Rung.P_full } ]));
  (* Distinct builtins fingerprint distinctly. *)
  let fps = List.map (fun (_, l) -> Ladder.fingerprint l) Ladder.builtins in
  Alcotest.(check int) "builtin fingerprints are distinct"
    (List.length fps)
    (List.length (List.sort_uniq compare fps));
  (* pin: in-bounds single-rung, out-of-bounds rejected. *)
  (match Ladder.pin Ladder.escalate 1 with
  | Ok l ->
    Alcotest.(check int) "pin yields a single rung" 1 (Ladder.length l);
    Alcotest.(check string) "pin names the rung" "escalate@1" (Ladder.name l);
    Alcotest.(check string) "pinned rung is rung 1 verbatim"
      (Rung.fingerprint (Ladder.rung Ladder.escalate 1))
      (Rung.fingerprint (Ladder.rung l 0))
  | Error e -> Alcotest.fail e);
  (match Ladder.pin Ladder.escalate 3 with
  | Ok _ -> Alcotest.fail "pin past the top rung should be rejected"
  | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* resolve_ladder: the shared CLI/daemon resolver                      *)
(* ------------------------------------------------------------------ *)

let test_resolve_ladder () =
  let resolve ?ladder ?rung () = Vservice.resolve_ladder ~ladder ~rung in
  (match resolve () with
  | Ok None -> ()
  | _ -> Alcotest.fail "all-None must resolve to the implicit identity ladder");
  (match resolve ~ladder:"deep" () with
  | Ok (Some l) -> Alcotest.(check string) "named ladder resolves" "deep" (Ladder.name l)
  | _ -> Alcotest.fail "deep should resolve");
  (match resolve ~rung:2 () with
  | Ok (Some l) ->
    Alcotest.(check string) "bare rung pins the default escalate ladder" "escalate@2"
      (Ladder.name l)
  | _ -> Alcotest.fail "rung without ladder should pin escalate");
  (match resolve ~ladder:"cautious" ~rung:1 () with
  | Ok (Some l) -> Alcotest.(check string) "rung pins the named ladder" "cautious@1" (Ladder.name l)
  | _ -> Alcotest.fail "cautious rung 1 should resolve");
  (match resolve ~ladder:"nope" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown ladder name must be rejected");
  match resolve ~ladder:"escalate" ~rung:9 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range rung must be rejected"

(* ------------------------------------------------------------------ *)
(* Escalation determinism across scheduling modes                      *)
(* ------------------------------------------------------------------ *)

(* break_pop: one obligation climbs to the top rung (a Sat from a
   pruned, conservatively-triggered rung is never final), the rest win
   at rung 0 — escalation chains interleave with first attempts under
   every scheduling mode, and the digest must not notice. *)
let test_escalation_determinism () =
  let prog = Bench_programs.break_pop in
  let cfg = Driver.Config.(default |> with_ladder Ladder.escalate) in
  let d1 =
    Driver.result_digest (Driver.verify_program ~config:cfg Profiles.verus prog)
  in
  Alcotest.(check bool) "with_jobs 1 runs inline" true
    (Driver.Config.(with_jobs 1 default).Driver.Config.pool = Driver.Config.Inline);
  List.iter
    (fun n ->
      let r =
        Driver.verify_program
          ~config:{ cfg with Driver.Config.pool = Driver.Config.Domains n }
          Profiles.verus prog
      in
      Alcotest.(check string)
        (Printf.sprintf "Domains %d digest = Inline digest" n)
        d1 (Driver.result_digest r))
    [ 2; 4 ];
  let pool = Verusd.Sched.create ~domains:3 in
  let pooled =
    Fun.protect
      ~finally:(fun () -> Verusd.Sched.shutdown pool)
      (fun () ->
        Driver.verify_program
          ~config:{ cfg with Driver.Config.pool = Driver.Config.Borrowed pool }
          Profiles.verus prog)
  in
  Alcotest.(check string) "Borrowed digest = Inline digest" d1 (Driver.result_digest pooled);
  (* The climb itself is deterministic, not just the verdicts. *)
  let again = Driver.verify_program ~config:cfg Profiles.verus prog in
  let tried r =
    List.concat_map
      (fun (f : Driver.fn_result) ->
        List.map (fun (v : Driver.vc_result) -> v.Driver.vcr_rungs_tried) f.Driver.fnr_vcs)
      r.Driver.pr_fns
  in
  Alcotest.(check bool) "rungs tried are reproducible" true
    (tried (Driver.verify_program ~config:cfg Profiles.verus prog) = tried again)

(* ------------------------------------------------------------------ *)
(* The warm winning-rung jump                                          *)
(* ------------------------------------------------------------------ *)

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "verus-test-vladder-%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    (match Vcache.clear ~dir with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("could not clear " ^ dir ^ ": " ^ e));
    dir

let wasted (r : Driver.program_result) =
  List.fold_left
    (fun acc (f : Driver.fn_result) ->
      List.fold_left
        (fun acc (v : Driver.vc_result) ->
          match v.Driver.vcr_rung with
          | Some w -> acc + List.length (List.filter (fun t -> t < w) v.Driver.vcr_rungs_tried)
          | None -> acc)
        acc f.Driver.fnr_vcs)
    0 r.Driver.pr_fns

let test_warm_rung_jump () =
  let dir = fresh_dir "jump" in
  let run ~profile () =
    Driver.verify_program
      ~config:
        Driver.Config.(
          default |> with_ladder Ladder.escalate |> with_cache dir |> with_profile profile)
      Profiles.verus Bench_programs.break_pop
  in
  let cold = run ~profile:false () in
  Alcotest.(check bool) "cold run escalates" true (wasted cold > 0);
  (* Warm, same configuration: pure cache hits. *)
  let warm = run ~profile:false () in
  (match warm.Driver.pr_ladder with
  | Some ls ->
    let vcs =
      List.fold_left
        (fun acc (f : Driver.fn_result) -> acc + List.length f.Driver.fnr_vcs)
        0 warm.Driver.pr_fns
    in
    Alcotest.(check int) "warm run hits on every obligation" vcs ls.Driver.ls_cache_hits
  | None -> Alcotest.fail "warm run lost its ladder stats");
  Alcotest.(check string) "warm digest = cold digest" (Driver.result_digest cold)
    (Driver.result_digest warm);
  (* Warm but profiled: lookups are gated out (the cold entries carry no
     profile), so the recorded winning rung steers the fresh solve. *)
  let jump = run ~profile:true () in
  (match jump.Driver.pr_ladder with
  | Some ls ->
    Alcotest.(check bool) "profiled warm run jumps to a recorded rung" true
      (ls.Driver.ls_hint_starts > 0)
  | None -> Alcotest.fail "profiled warm run lost its ladder stats");
  Alcotest.(check int) "profiled warm run wastes zero lower-rung attempts" 0 (wasted jump);
  Alcotest.(check string) "profiled warm digest = cold digest" (Driver.result_digest cold)
    (Driver.result_digest jump)

(* ------------------------------------------------------------------ *)
(* Daemon parity: the ladder param over verus-rpc/1                    *)
(* ------------------------------------------------------------------ *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "verus-test-vladder-%d-%d.sock" (Unix.getpid ()) !n)

let with_daemon ~domains f =
  let socket_path = fresh_socket () in
  let served = ref (Ok ()) in
  let th =
    Thread.create (fun () -> served := Vservice.serve ~socket_path ~domains ()) ()
  in
  let rec wait_up tries =
    if tries = 0 then Alcotest.fail "daemon did not come up"
    else
      match Verusd.Client.connect ~socket_path with
      | Ok c -> Verusd.Client.close c
      | Error _ ->
        Thread.delay 0.05;
        wait_up (tries - 1)
  in
  wait_up 100;
  let shutdown () =
    match Verusd.Client.connect ~socket_path with
    | Error _ -> ()
    | Ok c ->
      ignore (Verusd.Client.call c (Verusd.Rpc.request Verusd.Rpc.M_shutdown));
      Verusd.Client.close c
  in
  let r =
    try f socket_path
    with e ->
      shutdown ();
      Thread.join th;
      raise e
  in
  shutdown ();
  Thread.join th;
  (match !served with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("daemon serve failed: " ^ e));
  r

let test_daemon_ladder_parity () =
  let local =
    Driver.verify_program
      ~config:Driver.Config.(default |> with_ladder Ladder.escalate)
      Profiles.verus Bench_programs.break_pop
  in
  let local_digest = Driver.result_digest local in
  with_daemon ~domains:2 (fun socket_path ->
      match Verusd.Client.connect ~socket_path with
      | Error e -> Alcotest.fail e
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Verusd.Client.close c)
          (fun () ->
            let rungs_seen = ref [] in
            let on_event = function
              | Verusd.Rpc.E_vc { rung = Some r; _ } -> rungs_seen := r :: !rungs_seen
              | _ -> ()
            in
            let req =
              Verusd.Rpc.request ~id:3
                (Verusd.Rpc.M_job
                   (Verusd.Rpc.query ~ladder:"escalate" Verusd.Rpc.Verify "break_pop"))
            in
            (match Verusd.Client.call c ~on_event req with
            | Ok (Verusd.Rpc.E_done j) ->
              (match Vbase.Json.member "digest" j with
              | Some (Vbase.Json.String d) ->
                Alcotest.(check string) "daemon ladder digest = local ladder digest"
                  local_digest d
              | _ -> Alcotest.fail "done payload missing digest");
              Alcotest.(check bool) "vc events carry rung provenance" true
                (!rungs_seen <> [])
            | Ok (Verusd.Rpc.E_error e) ->
              Alcotest.fail ("daemon answered " ^ e.Verusd.Rpc.code ^ ": " ^ e.Verusd.Rpc.message)
            | Ok _ -> Alcotest.fail "expected done"
            | Error e -> Alcotest.fail e);
            (* An unknown ladder: RPC004, connection survives. *)
            let bad =
              Verusd.Rpc.request ~id:4
                (Verusd.Rpc.M_job
                   (Verusd.Rpc.query ~ladder:"nope" Verusd.Rpc.Verify "break_pop"))
            in
            (match Verusd.Client.call c bad with
            | Ok (Verusd.Rpc.E_error e) ->
              Alcotest.(check string) "unknown ladder is RPC004" "RPC004" e.Verusd.Rpc.code
            | Ok _ -> Alcotest.fail "expected RPC004"
            | Error e -> Alcotest.fail e);
            match Verusd.Client.call c (Verusd.Rpc.request Verusd.Rpc.M_ping) with
            | Ok Verusd.Rpc.E_pong -> ()
            | _ -> Alcotest.fail "connection should survive an RPC004"))

let () =
  Alcotest.run "vladder"
    [
      ( "api",
        [
          Alcotest.test_case "rung fingerprints" `Quick test_rung_fingerprint;
          Alcotest.test_case "ladder surface" `Quick test_ladder_api;
          Alcotest.test_case "resolve_ladder" `Quick test_resolve_ladder;
        ] );
      ( "driver",
        [
          Alcotest.test_case "escalation determinism" `Quick test_escalation_determinism;
          Alcotest.test_case "warm rung jump" `Quick test_warm_rung_jump;
        ] );
      ( "daemon",
        [ Alcotest.test_case "ladder parity" `Quick test_daemon_ladder_parity ] );
    ]
