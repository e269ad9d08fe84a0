(* Verusd tests: the obligation scheduler (execution, dynamic batches,
   subtask submission, exception propagation, stats), the verus-rpc/1
   wire protocol (request/event JSON roundtrips, framing over a real
   pipe, the validator the docs gate reuses), the protocol negatives
   (garbage payloads, truncated frames, wrong schema versions — each
   answered with its documented RPCxxx code), and the end-to-end
   equivalences the daemon is sold on: byte-identical result digests
   for in-process jobs=1, an external scheduler pool, and a live
   daemon conversation; plus a second client on a warm daemon hitting
   the shared verification cache. *)

module J = Vbase.Json
module Sched = Verusd.Sched
module Rpc = Verusd.Rpc

(* ------------------------------------------------------------------ *)
(* Sched                                                              *)
(* ------------------------------------------------------------------ *)

let test_sched_run_results () =
  let pool = Sched.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown pool)
    (fun () ->
      let n = 50 in
      let tasks = Array.init n (fun i () -> i * i) in
      let out = Sched.run pool tasks in
      Alcotest.(check (list int))
        "results index-aligned"
        (List.init n (fun i -> i * i))
        (Array.to_list out))

let test_sched_run_seq_order () =
  let order = ref [] in
  let tasks =
    Array.init 5 (fun i () ->
        order := i :: !order;
        i)
  in
  let out = Sched.run_seq tasks in
  Alcotest.(check (list int)) "sequential order" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Alcotest.(check (list int)) "results" [ 0; 1; 2; 3; 4 ] (Array.to_list out)

(* A task may submit subtasks into its own batch; await must drain the
   whole growing set — this is exactly how the driver's per-function
   encode tasks spawn their per-VC solve chains. *)
let test_sched_dynamic_batch () =
  let pool = Sched.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown pool)
    (fun () ->
      let count = Atomic.make 0 in
      let b = Sched.batch () in
      let rec task depth () =
        Atomic.incr count;
        if depth > 0 then (
          Sched.submit pool b (task (depth - 1));
          Sched.submit pool b (task (depth - 1)))
      in
      for _ = 1 to 4 do
        Sched.submit pool b (task 3)
      done;
      Sched.await b;
      (* 4 roots, each a full binary tree of depth 3: 4 * (2^4 - 1). *)
      Alcotest.(check int) "all subtasks ran" 60 (Atomic.get count))

let test_sched_exception () =
  let pool = Sched.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown pool)
    (fun () ->
      let ran = Atomic.make 0 in
      let tasks =
        Array.init 10 (fun i () ->
            if i = 4 then failwith "boom";
            Atomic.incr ran)
      in
      (match Sched.run pool tasks with
      | _ -> Alcotest.fail "expected the task exception to propagate"
      | exception Failure m -> Alcotest.(check string) "first exception" "boom" m);
      (* The batch drained before re-raising: every other task ran. *)
      Alcotest.(check int) "no stragglers abandoned" 9 (Atomic.get ran))

let test_sched_stats () =
  let pool = Sched.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown pool)
    (fun () ->
      let _ = Sched.run pool (Array.init 20 (fun i () -> i)) in
      let s = Sched.stats pool in
      Alcotest.(check int) "domains" 2 s.Sched.sd_domains;
      Alcotest.(check int) "submitted" 20 s.Sched.sd_submitted;
      Alcotest.(check int) "executed sums to submitted" 20
        (List.fold_left ( + ) 0 s.Sched.sd_executed);
      Alcotest.(check int) "one batch" 1 s.Sched.sd_batches)

(* ------------------------------------------------------------------ *)
(* Rpc: JSON roundtrips and the validator                              *)
(* ------------------------------------------------------------------ *)

let check_valid what j =
  match Rpc.validate_frame j with
  | Ok () -> ()
  | Error e -> Alcotest.fail (what ^ ": validate_frame rejected: " ^ e)

let test_rpc_request_roundtrip () =
  let reqs =
    [
      Rpc.request Rpc.M_ping;
      Rpc.request ~id:7 Rpc.M_status;
      Rpc.request ~id:1 Rpc.M_shutdown;
      Rpc.request ~id:42
        (Rpc.M_job
           (Rpc.query ~profile:"Dafny" ~lint:Rpc.Lint_strict ~certify:true ~cache:false
              ~ladder:"deep" ~rung:1 ~stream:false Rpc.Verify "dlock"));
    ]
  in
  List.iter
    (fun r ->
      let j = Rpc.request_to_json r in
      check_valid "request" j;
      match Rpc.request_of_json j with
      | Ok r' -> Alcotest.(check bool) "request roundtrips" true (r = r')
      | Error e -> Alcotest.fail ("request_of_json: " ^ e.Rpc.code ^ " " ^ e.Rpc.message))
    reqs

let test_rpc_event_roundtrip () =
  let events =
    [
      Rpc.E_vc
        {
          fn = "pop";
          vc = "pop: postcondition 0";
          answer = "unsat";
          reason = None;
          time_s = 0.12;
          cached = true;
          rung = None;
        };
      Rpc.E_vc
        {
          fn = "pop";
          vc = "pop: assertion";
          answer = "unknown";
          reason = Some "deadline";
          time_s = 1.0;
          cached = false;
          rung = Some 2;
        };
      Rpc.E_fn { fn = "pop"; ok = true; time_s = 0.3; vcs = 4 };
      Rpc.E_done
        (J.Obj
           [
             ("kind", J.String "verify");
             ("program", J.String "singly_linked");
             ("profile", J.String "Verus");
             ("ok", J.Bool true);
             ("exit_code", J.Int 0);
             ("digest", J.String "d41d8cd98f00b204e9800998ecf8427e");
             ("time_s", J.Float 0.5);
           ]);
      Rpc.E_error { Rpc.code = "RPC004"; message = "unknown program nope" };
      Rpc.E_pong;
      Rpc.E_status
        (J.Obj
           [ ("uptime_s", J.Float 1.5); ("requests", J.Int 3); ("domains", J.Int 4) ]);
    ]
  in
  List.iter
    (fun ev ->
      let j = Rpc.event_to_json ~id:9 ev in
      check_valid "event" j;
      match Rpc.event_of_json j with
      | Ok (id, ev') ->
        Alcotest.(check int) "id" 9 id;
        Alcotest.(check bool) "event roundtrips" true (ev = ev')
      | Error e -> Alcotest.fail ("event_of_json: " ^ e.Rpc.code ^ " " ^ e.Rpc.message))
    events

(* The absolute-budget params were removed in favour of ladder/rung.
   Unknown keys are otherwise ignored, so each must be refused (RPC004)
   rather than silently run at the default strength. *)
let test_rpc_removed_params () =
  List.iter
    (fun (k, v) ->
      let j =
        J.Obj
          [
            ("rpc", J.String Rpc.schema_version);
            ("id", J.Int 1);
            ("method", J.String "verify");
            ("params", J.Obj [ ("program", J.String "dlock"); (k, v) ]);
          ]
      in
      match Rpc.request_of_json j with
      | Error e ->
        Alcotest.(check string) (k ^ " is RPC004") "RPC004" e.Rpc.code;
        Alcotest.(check bool) (k ^ ": message says removed") true
          (String.starts_with ~prefix:("params." ^ k ^ " was removed") e.Rpc.message)
      | Ok _ -> Alcotest.fail (k ^ " accepted"))
    [ ("deadline_s", J.Float 2.5); ("max_rounds", J.Int 9) ]

let test_rpc_version_rejected () =
  let j =
    J.Obj [ ("rpc", J.String "verus-rpc/2"); ("id", J.Int 0); ("method", J.String "ping") ]
  in
  (match Rpc.request_of_json j with
  | Error e -> Alcotest.(check string) "wrong version" "RPC002" e.Rpc.code
  | Ok _ -> Alcotest.fail "verus-rpc/2 request accepted");
  match Rpc.validate_frame j with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "validator accepted a wrong-version frame"

let test_rpc_framing_roundtrip () =
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> Unix.close rd)
    (fun () ->
      let j = Rpc.request_to_json (Rpc.request ~id:3 Rpc.M_status) in
      Rpc.write_frame wr j;
      (match Rpc.read_frame rd with
      | Rpc.Frame j' -> Alcotest.(check bool) "frame roundtrips" true (j = j')
      | _ -> Alcotest.fail "expected a frame");
      (* Orderly close reads as Eof, not an error. *)
      Unix.close wr;
      match Rpc.read_frame rd with
      | Rpc.Eof -> ()
      | _ -> Alcotest.fail "expected Eof after close")

let test_rpc_framing_bad () =
  (* Well-framed garbage payload: RPC001. *)
  let rd, wr = Unix.pipe () in
  let payload = "not json at all" in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (String.length payload));
  ignore (Unix.write wr hdr 0 4);
  ignore (Unix.write_substring wr payload 0 (String.length payload));
  (match Rpc.read_frame rd with
  | Rpc.Bad e -> Alcotest.(check string) "garbage payload" "RPC001" e.Rpc.code
  | _ -> Alcotest.fail "expected Bad RPC001");
  (* Truncated mid-frame: RPC007. *)
  Bytes.set_int32_be hdr 0 100l;
  ignore (Unix.write wr hdr 0 4);
  ignore (Unix.write_substring wr "short" 0 5);
  Unix.close wr;
  (match Rpc.read_frame rd with
  | Rpc.Bad e -> Alcotest.(check string) "truncated frame" "RPC007" e.Rpc.code
  | _ -> Alcotest.fail "expected Bad RPC007");
  Unix.close rd

(* ------------------------------------------------------------------ *)
(* End-to-end: a live daemon on a thread                               *)
(* ------------------------------------------------------------------ *)

open Verus

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "verus-test-verusd-%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    (match Vcache.clear ~dir with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("could not clear " ^ dir ^ ": " ^ e));
    dir

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "verus-test-verusd-%d-%d.sock" (Unix.getpid ()) !n)

(* Run [f] against a freshly served daemon; always shut it down. *)
let with_daemon ?cache_dir ~domains f =
  let socket_path = fresh_socket () in
  let served = ref (Ok ()) in
  let th =
    Thread.create (fun () -> served := Vservice.serve ~socket_path ~domains ?cache_dir ()) ()
  in
  (* The server binds before accepting; poll until the socket answers. *)
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
      ignore (Verusd.Client.call c (Rpc.request Rpc.M_shutdown));
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

let call_exn c ?on_event req =
  match Verusd.Client.call c ?on_event req with
  | Ok ev -> ev
  | Error e -> Alcotest.fail ("client call failed: " ^ e)

let done_exn = function
  | Rpc.E_done j -> j
  | Rpc.E_error e -> Alcotest.fail ("daemon answered error " ^ e.Rpc.code ^ ": " ^ e.Rpc.message)
  | _ -> Alcotest.fail "expected a done event"

let jstr j key =
  match J.member key j with
  | Some (J.String s) -> s
  | _ -> Alcotest.fail ("done payload missing string " ^ key)

let jint j key =
  match J.member key j with
  | Some (J.Int n) -> n
  | _ -> Alcotest.fail ("payload missing int " ^ key)

let verify_query ?(stream = true) program =
  Rpc.request ~id:1 (Rpc.M_job (Rpc.query ~certify:true ~stream Rpc.Verify program))

(* The headline equivalence: one program verified three ways — inline
   jobs=1, on an external scheduler pool, and over a live daemon
   conversation — produces byte-identical result digests, and the
   daemon's done payload agrees with the local exit-code policy. *)
let test_digests_agree () =
  let prog = Bench_programs.singly_linked in
  let cfg certify = Driver.Config.(default |> with_certify certify) in
  let local = Driver.verify_program ~config:(cfg true) Profiles.verus prog in
  let local_digest = Driver.result_digest local in
  (* External pool, with streaming callbacks exercised. *)
  let pool = Sched.create ~domains:3 in
  let pooled =
    Fun.protect
      ~finally:(fun () -> Sched.shutdown pool)
      (fun () ->
        Driver.verify_program
          ~config:Driver.Config.(cfg true |> with_sched pool)
          ~on_progress:(fun _ -> ())
          Profiles.verus prog)
  in
  Alcotest.(check string) "pool digest = jobs=1 digest" local_digest
    (Driver.result_digest pooled);
  (* Live daemon. *)
  with_daemon ~domains:2 (fun socket_path ->
      match Verusd.Client.connect ~socket_path with
      | Error e -> Alcotest.fail e
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Verusd.Client.close c)
          (fun () ->
            let vcs = ref 0 and fns = ref 0 in
            let on_event = function
              | Rpc.E_vc _ -> incr vcs
              | Rpc.E_fn _ -> incr fns
              | _ -> ()
            in
            let d = done_exn (call_exn c ~on_event (verify_query "singly_linked")) in
            Alcotest.(check string) "daemon digest = jobs=1 digest" local_digest
              (jstr d "digest");
            Alcotest.(check int) "exit_code mirrors local policy"
              (Vservice.result_exit_code local) (jint d "exit_code");
            Alcotest.(check int) "one vc event per obligation" (jint d "vcs") !vcs;
            Alcotest.(check int) "one fn event per function" (jint d "fns") !fns))

(* Two clients sharing one warm daemon: the first fills the shared
   cache, the second hits in it (>= 90%) and still digests equally. *)
let test_shared_cache_across_clients () =
  let cache_dir = fresh_dir "cache" in
  with_daemon ~domains:2 ~cache_dir (fun socket_path ->
      let run_client () =
        match Verusd.Client.connect ~socket_path with
        | Error e -> Alcotest.fail e
        | Ok c ->
          Fun.protect
            ~finally:(fun () -> Verusd.Client.close c)
            (fun () -> done_exn (call_exn c (verify_query ~stream:false "singly_linked")))
      in
      let d1 = run_client () in
      let d2 = run_client () in
      Alcotest.(check string) "warm digest = cold digest" (jstr d1 "digest")
        (jstr d2 "digest");
      let cache = match J.member "cache" d2 with Some c -> c | None -> Alcotest.fail "no cache stats" in
      let hits = jint cache "hits" and misses = jint cache "misses" in
      Alcotest.(check bool)
        (Printf.sprintf "second client >= 90%% hits (%d/%d)" hits (hits + misses))
        true
        (hits + misses > 0 && float_of_int hits /. float_of_int (hits + misses) >= 0.9))

(* Protocol negatives against a live daemon, each answered with its
   documented code. *)
let test_daemon_negatives () =
  with_daemon ~domains:1 (fun socket_path ->
      (* Unknown program: RPC004, and the connection survives. *)
      (match Verusd.Client.connect ~socket_path with
      | Error e -> Alcotest.fail e
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Verusd.Client.close c)
          (fun () ->
            (match call_exn c (Rpc.request (Rpc.M_job (Rpc.query Rpc.Verify "nope"))) with
            | Rpc.E_error e -> Alcotest.(check string) "unknown program" "RPC004" e.Rpc.code
            | _ -> Alcotest.fail "expected RPC004");
            match call_exn c (Rpc.request Rpc.M_ping) with
            | Rpc.E_pong -> ()
            | _ -> Alcotest.fail "connection should survive an RPC004"));
      (* Wrong schema version on an intact frame: RPC002, connection
         survives. *)
      (match Verusd.Client.connect ~socket_path with
      | Error e -> Alcotest.fail e
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Verusd.Client.close c)
          (fun () ->
            let payload = {|{"rpc":"verus-rpc/2","id":5,"method":"ping"}|} in
            let hdr = Bytes.create 4 in
            Bytes.set_int32_be hdr 0 (Int32.of_int (String.length payload));
            Verusd.Client.send_raw c (Bytes.to_string hdr ^ payload);
            (match Verusd.Client.read_event c with
            | Ok (_, Rpc.E_error e) ->
              Alcotest.(check string) "wrong version" "RPC002" e.Rpc.code
            | Ok _ -> Alcotest.fail "expected an RPC002 error event"
            | Error e -> Alcotest.fail ("read_event: " ^ e));
            match call_exn c (Rpc.request Rpc.M_ping) with
            | Rpc.E_pong -> ()
            | _ -> Alcotest.fail "connection should survive an RPC002"));
      (* Malformed frame (garbage payload): RPC001, then the daemon
         closes the connection — framing is lost for good. *)
      match Verusd.Client.connect ~socket_path with
      | Error e -> Alcotest.fail e
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Verusd.Client.close c)
          (fun () ->
            let payload = "this is not json" in
            let hdr = Bytes.create 4 in
            Bytes.set_int32_be hdr 0 (Int32.of_int (String.length payload));
            Verusd.Client.send_raw c (Bytes.to_string hdr ^ payload);
            (match Verusd.Client.read_event c with
            | Ok (_, Rpc.E_error e) ->
              Alcotest.(check string) "garbage payload" "RPC001" e.Rpc.code
            | Ok _ -> Alcotest.fail "expected an RPC001 error event"
            | Error e -> Alcotest.fail ("read_event: " ^ e));
            match Verusd.Client.read_event c with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "daemon should close after a malformed frame"))

(* status: required fields present and sane. *)
let test_daemon_status () =
  with_daemon ~domains:2 (fun socket_path ->
      match Verusd.Client.connect ~socket_path with
      | Error e -> Alcotest.fail e
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Verusd.Client.close c)
          (fun () ->
            match call_exn c (Rpc.request Rpc.M_status) with
            | Rpc.E_status j ->
              Alcotest.(check int) "domains" 2 (jint j "domains");
              Alcotest.(check bool) "requests counted" true (jint j "requests" >= 1);
              (match J.member "uptime_s" j with
              | Some v when Option.is_some (J.to_float v) -> ()
              | _ -> Alcotest.fail "status missing uptime_s")
            | _ -> Alcotest.fail "expected a status event"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "verusd"
    [
      ( "sched",
        [
          Alcotest.test_case "run results" `Quick test_sched_run_results;
          Alcotest.test_case "run_seq order" `Quick test_sched_run_seq_order;
          Alcotest.test_case "dynamic batch" `Quick test_sched_dynamic_batch;
          Alcotest.test_case "exception propagation" `Quick test_sched_exception;
          Alcotest.test_case "stats" `Quick test_sched_stats;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "request roundtrip" `Quick test_rpc_request_roundtrip;
          Alcotest.test_case "event roundtrip" `Quick test_rpc_event_roundtrip;
          Alcotest.test_case "version rejected" `Quick test_rpc_version_rejected;
          Alcotest.test_case "removed budget params" `Quick test_rpc_removed_params;
          Alcotest.test_case "framing roundtrip" `Quick test_rpc_framing_roundtrip;
          Alcotest.test_case "framing negatives" `Quick test_rpc_framing_bad;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "digests agree" `Quick test_digests_agree;
          Alcotest.test_case "shared cache across clients" `Quick
            test_shared_cache_across_clients;
          Alcotest.test_case "protocol negatives" `Quick test_daemon_negatives;
          Alcotest.test_case "status" `Quick test_daemon_status;
        ] );
    ]
