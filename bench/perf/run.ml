(* Running one workload: set-up, the measured request list, the
   known-answer gate, and (traced mode) the replay that splits the same
   requests by layer. *)

open Verus
module J = Vbase.Json
module Rpc = Verusd.Rpc
module W = Workload

let now = Unix.gettimeofday

type opts = {
  seed : int;
  seconds : float;
  quick : bool;
  workdir : string;  (** every file the run writes lives under here *)
  trace_out : string option;
}

type outcome = {
  req : W.request;
  t_sent : float;
  latency : float;  (** seconds from sending the request to its verdict *)
  vcs : int;
  answers : Replay.vc_answer list;
  rungs : string -> int -> int list;
  bytes : int;  (** query bytes the driver shipped *)
  error : string option;  (** exception, RPC error or transport failure *)
  wrong : string option;  (** known-answer or cache-invariant violation *)
  server_s : float;  (** daemon: [done.time_s] *)
  digest : string;
  cache : (int * int * int) option;  (** hits, misses, invalidations *)
  rpc : int * int * float;  (** client-side frames, bytes, codec seconds *)
}

let blank req t_sent =
  {
    req;
    t_sent;
    latency = now () -. t_sent;
    vcs = 0;
    answers = [];
    rungs = (fun _ _ -> []);
    bytes = 0;
    error = None;
    wrong = None;
    server_s = 0.0;
    digest = "";
    cache = None;
    rpc = (0, 0, 0.0);
  }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

let clear_cache dir =
  mkdir_p dir;
  match Vcache.clear ~dir with Ok () -> () | Error e -> failwith ("cache clear: " ^ e)

let distinct xs = List.sort_uniq compare xs

let pairs_of (w : W.t) ~quick =
  distinct
    (List.map
       (fun ((kd : W.kind), _) -> (kd.W.program, kd.W.profile))
       (if quick then w.W.quick_mix else w.W.mix))

let split n xs =
  let rec go k acc = function
    | x :: rest when k > 0 -> go (k - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go n [] xs

(* ------------------------- in-process requests ------------------------ *)

let setting (w : W.t) ~cache_dir =
  let plain = { Replay.ladder = None; analyze = false; certify = false; cache_dir = None } in
  match w.W.mode with
  | W.Cli | W.Daemon -> plain
  | W.Ladder -> { plain with Replay.ladder = Some Driver.Ladder.escalate; analyze = true }
  | W.Certified_cache -> { plain with Replay.certify = true; cache_dir = Some cache_dir }

let config (s : Replay.setting) =
  {
    Driver.Config.default with
    Driver.Config.ladder = s.Replay.ladder;
    analyze = s.Replay.analyze;
    certify = s.Replay.certify;
    cache = Option.map (fun dir -> { Vcache.dir }) s.Replay.cache_dir;
  }

let vcs_of (pr : Driver.program_result) fn =
  List.fold_left
    (fun acc (f : Driver.fn_result) ->
      if fn = None || fn = Some f.Driver.fnr_name then acc + List.length f.Driver.fnr_vcs else acc)
    0 pr.Driver.pr_fns

(* Warm-edit's cache contract: unedited and renamed programs hit on every
   obligation; a touch invalidates exactly the touched function's. *)
let cache_violation (r : W.request) (pr : Driver.program_result) =
  match pr.Driver.pr_cache with
  | None -> None
  | Some st ->
    let want =
      if r.W.kind.W.edit <> W.Touch then 0 else vcs_of pr (Some (W.touched_fn r.W.kind.W.program))
    in
    if st.Vcache.misses = 0 && st.Vcache.invalidations = want then None
    else
      Some
        (Printf.sprintf "%s: %d misses and %d invalidations (expected 0 and %d)"
           (W.kind_name r.W.kind) st.Vcache.misses st.Vcache.invalidations want)

(* One request in-process.  With [~keep] the outcome keeps its per-VC
   answers and rungs for the replay (left out otherwise, so that they do
   not count in peak RSS). *)
let verify_inprocess ?(check_cache = true) ~keep s (r : W.request) =
  let kd = r.W.kind in
  let prog = W.request_program r and p = W.profile kd.W.profile in
  let t0 = now () in
  match Driver.verify_program ~config:(config s) p prog with
  | exception e -> { (blank r t0) with error = Some (Printexc.to_string e) }
  | pr ->
    let latency = now () -. t0 in
    let wrong =
      match Answers.check ~program:kd.W.program ~profile:kd.W.profile pr with
      | Error m -> Some m
      | Ok () -> if check_cache then cache_violation r pr else None
    in
    {
      (blank r t0) with
      latency;
      vcs = vcs_of pr None;
      answers = (if keep then Replay.answers_of pr else []);
      rungs = (if keep then Replay.rungs_of pr else fun _ _ -> []);
      bytes = pr.Driver.pr_bytes;
      wrong;
      digest = Driver.result_digest pr;
      cache =
        Option.map
          (fun st -> (st.Vcache.hits, st.Vcache.misses, st.Vcache.invalidations))
          pr.Driver.pr_cache;
    }

(* ------------------------------- daemon -------------------------------- *)

let connect socket =
  let deadline = now () +. 20.0 in
  let rec go () =
    match Verusd.Client.connect ~socket_path:socket with
    | Ok c -> c
    | Error e ->
      if now () > deadline then failwith ("daemon did not come up: " ^ e);
      Thread.delay 0.01;
      go ()
  in
  go ()

let jint j k = match J.member k j with Some (J.Int n) -> n | _ -> 0
let jfloat j k = Option.value ~default:0.0 (Option.bind (J.member k j) J.to_float)
let jstr j k = match J.member k j with Some (J.String s) -> s | _ -> ""
let jbool j k = match J.member k j with Some (J.Bool b) -> b | _ -> false

(* One verify request over the client connection.  With [~codec] the
   client also times its own encoding and decoding of every frame of the
   exchange (the traced run's rpc numbers). *)
let daemon_call ~codec c (r : W.request) =
  let kd = r.W.kind in
  let req =
    Rpc.request ~id:(r.W.id + 2)
      (Rpc.M_job (Rpc.query ~profile:kd.W.profile ~cache:kd.W.cached Rpc.Verify kd.W.program))
  in
  let frames = ref 1 and bytes = ref 0 and codec_s = ref 0.0 in
  let measure j =
    if codec then begin
      let t0 = now () in
      let s = J.to_string ~indent:false j in
      ignore (Result.map Rpc.event_of_json (J.of_string s));
      codec_s := !codec_s +. (now () -. t0);
      bytes := !bytes + 4 + String.length s
    end
  in
  let answers = ref [] in
  let on_event ev =
    incr frames;
    measure (Rpc.event_to_json ~id:req.Rpc.r_id ev);
    match ev with
    | Rpc.E_vc { fn; vc; answer; _ } -> answers := (fn, vc, answer) :: !answers
    | _ -> ()
  in
  let t0 = now () in
  measure (Rpc.request_to_json req);
  let res = Verusd.Client.call c ~on_event req in
  let out = { (blank r t0) with latency = now () -. t0 } in
  incr frames;
  match res with
  | Ok (Rpc.E_done j) ->
    measure (Rpc.event_to_json ~id:req.Rpc.r_id (Rpc.E_done j));
    let wrong =
      match Answers.expected ~program:kd.W.program ~profile:kd.W.profile with
      | Some v when jbool j "ok" = (v = Answers.Verified) && jint j "exit_code" = Answers.exit_code v ->
        None
      | _ -> Some (Printf.sprintf "%s: daemon answered exit %d" (W.kind_name kd) (jint j "exit_code"))
    in
    {
      out with
      vcs = jint j "vcs";
      answers = List.sort compare !answers;
      wrong;
      server_s = jfloat j "time_s";
      digest = jstr j "digest";
      cache =
        Option.map
          (fun cj -> (jint cj "hits", jint cj "misses", jint cj "invalidations"))
          (J.member "cache" j);
      rpc = (!frames, !bytes, !codec_s);
    }
  | Ok (Rpc.E_error e) -> { out with error = Some (e.Rpc.code ^ ": " ^ e.Rpc.message) }
  | Ok _ -> { out with error = Some "unexpected terminal event" }
  | Error e -> { out with error = Some e }

let sched_counters c =
  match Verusd.Client.call c (Rpc.request Rpc.M_status) with
  | Ok (Rpc.E_status j) -> (
    match J.member "sched" j with
    | Some s ->
      let executed =
        match J.member "executed" s with
        | Some (J.List xs) -> List.fold_left (fun acc x -> acc + match x with J.Int n -> n | _ -> 0) 0 xs
        | _ -> 0
      in
      (jint s "stolen", executed)
    | None -> (0, 0))
  | _ -> failwith "daemon status failed"

(* ------------------------------- set-up -------------------------------- *)

(* What the measured loop talks to: the driver in-process, or a daemon
   served in-process on a Unix socket. *)
type target = {
  send : keep:bool -> codec:bool -> W.request -> outcome;
  stop : unit -> unit;
  sched : unit -> int * int;  (** daemon scheduler counters: stolen, executed *)
  setting : Replay.setting;
  cache_dir : string option;
}

(* A cache fill is two passes over the pairs: the first verification of
   a program in a process can fingerprint an obligation differently from
   later ones (observed on const_cond/Verus and break_pop/Dafny), and the
   second pass re-stores those entries, so the measured warm requests
   start from a cache that serves every unedited obligation. *)
let fill_passes pairs = pairs @ pairs

let setup_errors outs =
  List.filter_map
    (fun o ->
      match (o.error, o.wrong) with
      | Some e, _ | None, Some e -> Some ("set-up: " ^ e)
      | None, None -> None)
    outs

(* In-process set-up: build every program, then fill the cache (with
   certificates when the workload certifies) or warm up on one small
   verification.  Daemon set-up: serve a daemon (2 domains, shared cache),
   connect, and fill the shared cache through it. *)
let start (w : W.t) o ~dir =
  let pairs = pairs_of w ~quick:o.quick in
  List.iter (fun (prog, pf) -> ignore (W.program prog); ignore (W.profile pf)) pairs;
  let filler (program, profile) = { W.id = -1; kind = W.k ~cached:true program profile } in
  let s = setting w ~cache_dir:(Filename.concat dir "cache") in
  if w.W.mode <> W.Daemon then begin
    Option.iter clear_cache s.Replay.cache_dir;
    let outs =
      List.map
        (fun pp -> verify_inprocess ~check_cache:false ~keep:false s (filler pp))
        (if s.Replay.cache_dir <> None then fill_passes pairs else [ ("singly_linked", "Verus") ])
    in
    ( {
        send = (fun ~keep ~codec:_ r -> verify_inprocess ~keep s r);
        stop = ignore;
        sched = (fun () -> (0, 0));
        setting = s;
        cache_dir = s.Replay.cache_dir;
      },
      setup_errors outs )
  end
  else begin
    let socket = Filename.concat dir "verusd.sock" and cache_dir = Filename.concat dir "daemon-cache" in
    clear_cache cache_dir;
    let served = ref (Ok ()) in
    let thread =
      Thread.create (fun () -> served := Vservice.serve ~socket_path:socket ~domains:2 ~cache_dir ()) ()
    in
    let c = connect socket in
    let stop () =
      ignore (Verusd.Client.call c (Rpc.request Rpc.M_shutdown));
      Thread.join thread;
      Verusd.Client.close c;
      match !served with Ok () -> () | Error e -> failwith ("daemon: " ^ e)
    in
    let outs = List.map (fun pp -> daemon_call ~codec:false c (filler pp)) pairs in
    ( {
        send = (fun ~keep:_ ~codec r -> daemon_call ~codec c r);
        stop;
        sched = (fun () -> sched_counters c);
        setting = s;
        cache_dir = Some cache_dir;
      },
      setup_errors outs )
  end

(* Closed loop: each request goes out when the previous verdict is in,
   round after round. *)
let closed_loop ?(keep = false) ?(codec = false) (w : W.t) o t ~seconds =
  let size = W.round_size w ~quick:o.quick in
  let rec go reqs outs walls =
    if reqs = [] then (List.rev outs, List.rev walls)
    else
      let round, rest = split size reqs in
      let t0 = now () in
      let round_outs = List.map (t.send ~keep ~codec) round in
      go rest (List.rev_append round_outs outs) ((now () -. t0) :: walls)
  in
  go (W.requests w ~seed:o.seed ~quick:o.quick ~rounds:(W.rounds w ~quick:o.quick ~seconds)) [] []

(* ------------------------------- results ------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (** the declared metrics of the mode *)
  report : string list;  (** human-readable lines printed before the result *)
}

let ok_latencies outs = List.filter_map (fun o -> if o.error = None then Some o.latency else None) outs

(* Median latency of every request kind. *)
let kind_medians outs =
  let ok = List.filter (fun o -> o.error = None) outs in
  List.map
    (fun kn ->
      ( kn,
        Stats.median
          (List.filter_map (fun o -> if W.kind_name o.req.W.kind = kn then Some o.latency else None) ok) ))
    (distinct (List.map (fun o -> W.kind_name o.req.W.kind) ok))

let end_to_end ~setup_s ~walls outs =
  let lat = ok_latencies outs in
  [
    ("setup_s", setup_s);
    ("wall_s", Stats.median walls);
    ("vcs_per_s", float_of_int (List.fold_left (fun acc o -> acc + o.vcs) 0 outs) /. Stats.sum walls);
    ("verdict_geomean_s", Stats.geomean (List.map snd (kind_medians outs)));
    ("verdict_p50_s", Stats.quantile lat 0.5);
    ("verdict_p90_s", Stats.quantile lat 0.9);
    ("peak_rss_mb", Stats.peak_rss_mb ());
  ]

(* The gate, and the numbers the JSON line leaves out. *)
let gate (w : W.t) ~setup_errors outs =
  let n = List.length outs in
  let failed = List.filter_map (fun o -> o.error) outs in
  let wrong = setup_errors @ List.filter_map (fun o -> o.wrong) outs in
  let lat = ok_latencies outs in
  let p90 = Stats.quantile lat 0.9 in
  let first5 l = List.filteri (fun i _ -> i < 5) l in
  let report =
    [
      Printf.sprintf "requests            %d of %d kinds; %d beyond p90" n
        (List.length (kind_medians outs))
        (List.length (List.filter (fun l -> l > p90) lat));
      Printf.sprintf "within_limit_ratio  %.4f (limit %.1f s; failures count as misses)"
        (float_of_int (List.length (List.filter (fun l -> l <= w.W.limit_s) lat)) /. float_of_int (max 1 n))
        w.W.limit_s;
      Printf.sprintf "wrong_verdicts      %d" (List.length wrong);
      Printf.sprintf "failed_ratio        %.4f" (float_of_int (List.length failed) /. float_of_int (max 1 n));
    ]
    @ List.map (fun m -> "  wrong: " ^ m) (first5 wrong)
    @ List.map (fun m -> "  failed: " ^ m) (first5 failed)
  in
  (wrong = [] && failed = [], List.length failed, report)

let kind_report outs =
  List.map (fun (kn, m) -> Printf.sprintf "  %-36s median %.4f s" kn m) (kind_medians outs)

(* Reference verdicts for the daemon gate: every pair once in-process at
   jobs 1 (digest and per-VC answers). *)
let references outs =
  List.map
    (fun (program, profile) ->
      let pr = Driver.verify_program (W.profile profile) (W.program program) in
      ( (program, profile),
        (Driver.result_digest pr, List.sort compare (Replay.answers_of pr), pr.Driver.pr_bytes) ))
    (distinct (List.map (fun o -> (o.req.W.kind.W.program, o.req.W.kind.W.profile)) outs))

let check_against_references refs outs =
  List.map
    (fun o ->
      if o.error <> None || o.wrong <> None then o
      else
        let kd = o.req.W.kind in
        let digest, answers, _ = List.assoc (kd.W.program, kd.W.profile) refs in
        if o.digest <> digest then
          { o with wrong = Some (W.kind_name kd ^ ": daemon digest differs from the jobs=1 digest") }
        else if o.answers <> answers then
          { o with wrong = Some (W.kind_name kd ^ ": streamed answers differ from the jobs=1 run") }
        else o)
    outs

let timed f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

(* Set up [w.setups] times (once in a quick run), tearing down all but
   the last, and report the median set-up time. *)
let repeated_setup (w : W.t) o ~dir =
  let n = if o.quick then 1 else w.W.setups in
  let rec go i times =
    let dt, (t, errs) = timed (fun () -> start w o ~dir) in
    if i + 1 >= n then (Stats.median (dt :: times), t, errs)
    else begin
      t.stop ();
      go (i + 1) (dt :: times)
    end
  in
  go 0 []

let store_kb dir = float_of_int (Vcache.disk_stats ~dir).Vcache.ds_bytes /. 1024.0

(* ----------------------------- per layer ------------------------------- *)

let cache_spans = [ "vcache.open"; "vcache.fingerprint"; "vcache.lookup"; "vcache.store"; "vcache.flush" ]

(* [daemon] is [Some] on the daemon workload: its traced outcomes and the
   scheduler counters read around them. *)
let layer_values ~spans ~(c : Replay.counters) ~replay_wall ~overhead ~query_bytes ~store_kb ~daemon =
  let self = Span.self_by_name spans in
  let s name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
  let share x = if replay_wall > 0.0 then x /. replay_wall else 0.0 in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let fl = float_of_int in
  let outs, (stolen, executed) = Option.value daemon ~default:([], (0, 0)) in
  let sum_i f = List.fold_left (fun acc o -> acc + f o) 0 outs in
  let sum_f f = Stats.sum (List.map f outs) in
  let cache_i f = sum_i (fun o -> match o.cache with Some t -> f t | None -> 0) in
  let latency = sum_f (fun o -> o.latency) in
  let frac x = if latency > 0.0 then x /. latency else 0.0 in
  let hits, lookups, invalidations =
    if daemon <> None then
      (cache_i (fun (h, _, _) -> h), cache_i (fun (h, m, i) -> h + m + i), cache_i (fun (_, _, i) -> i))
    else (c.Replay.hits, c.Replay.lookups, c.Replay.invalidations)
  in
  [
    ("frontend.self_s", s "frontend");
    ("encode.self_s", s "encode");
    ("encode.vcs", fl c.Replay.vcs);
    ("context.self_s", s "context");
    ("context.axioms_kept_ratio", ratio c.Replay.ctx_kept c.Replay.ctx_total);
    ("context.query_kb", fl query_bytes /. 1024.0);
    ("prescreen.share", share (s "prescreen"));
    ("prescreen.discharged_ratio", ratio c.Replay.pre_discharged c.Replay.pre_checked);
    ("vcache.share", share (Stats.sum (List.map s cache_spans)));
    ("vcache.hit_ratio", ratio hits lookups);
    ("vcache.invalidations", fl invalidations);
    ("vcache.store_kb", store_kb);
    ("vladder.attempts", fl c.Replay.attempts);
    ("vladder.escalations", fl c.Replay.escalations);
    ("vladder.useful_ratio", ratio c.Replay.useful c.Replay.attempts);
    ( "vladder.escalated_share",
      if c.Replay.solve_s > 0.0 then c.Replay.escalated_s /. c.Replay.solve_s else 0.0 );
    ("smt.self_s", s "smt");
    ("smt.sat_s", c.Replay.sat_s);
    ("smt.euf_s", c.Replay.euf_s);
    ("smt.lia_s", c.Replay.lia_s);
    ("smt.comb_s", c.Replay.comb_s);
    ("smt.ematch_s", c.Replay.ematch_s);
    ("smt.instances", fl c.Replay.instances);
    ("smt.conflicts", fl c.Replay.conflicts);
    ("smt.rounds", fl c.Replay.rounds);
    ("smt.unknown", fl c.Replay.unknown);
    ("modes.calls", fl c.Replay.modes_calls);
    ("vcheck.share", share (s "vcheck"));
    ("vcheck.certs", fl c.Replay.certs);
    ("vcheck.rejected", fl c.Replay.rejected);
    ("rpc.frames", fl (sum_i (fun o -> let f, _, _ = o.rpc in f)));
    ("rpc.kb", fl (sum_i (fun o -> let _, b, _ = o.rpc in b)) /. 1024.0);
    ("rpc.codec_share", frac (sum_f (fun o -> let _, _, cs = o.rpc in cs)));
    ("daemon.wait_ratio", frac (sum_f (fun o -> o.latency -. o.server_s)));
    ("sched.stolen", fl stolen);
    ("sched.executed", fl executed);
    ("trace.overhead_ratio", overhead);
  ]

(* Self seconds of every span name, for the human-readable table and the
   trace metadata (the JSON line carries shares for the layers some
   workloads bypass). *)
let layer_seconds spans =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Span.self_by_name spans) [] |> List.sort compare

let write_trace o (w : W.t) ~spans ~metadata =
  let path =
    match o.trace_out with
    | Some p -> p
    | None -> Filename.concat o.workdir (Printf.sprintf "trace-%s-seed%d.json" w.W.name o.seed)
  in
  mkdir_p (Filename.dirname path);
  let epoch = List.fold_left (fun acc (sp : Span.t) -> Float.min acc sp.Span.t0) infinity spans in
  let doc = Span.to_chrome ~metadata ~epoch spans in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (J.to_string ~indent:false doc));
  (* Read back what was written: it must parse and carry the Chrome
     trace-event fields. *)
  match J.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok doc -> Result.map (fun n -> (path, n)) (Span.validate_chrome doc)

(* Replay requests through the staged pipeline; each item is a request,
   the rungs its obligations tried, and the per-VC answers the replay must
   reproduce.  Returns the mismatches. *)
let replay rc c s items =
  List.filter_map
    (fun ((r : W.request), rungs, want) ->
      Span.set_request rc r.W.id;
      let got =
        Span.within rc "request" (fun () ->
            Replay.request rc c s (W.profile r.W.kind.W.profile) (W.request_program r) ~rungs)
      in
      if List.sort compare got = List.sort compare want then None
      else Some (W.kind_name r.W.kind ^ ": replayed answers differ from the untraced run"))
    items

(* ------------------------------ workloads ------------------------------ *)

let in_scratch o f =
  let dir = Filename.concat o.workdir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let untraced (w : W.t) o =
  in_scratch o @@ fun dir ->
  let setup_s, t, setup_errors = repeated_setup w o ~dir in
  let outs, walls = Fun.protect ~finally:t.stop (fun () -> closed_loop w o t ~seconds:o.seconds) in
  let outs = if w.W.mode = W.Daemon then check_against_references (references outs) outs else outs in
  let ok, failed, report = gate w ~setup_errors outs in
  {
    correct = ok;
    attempted = List.length outs;
    failed;
    values = end_to_end ~setup_s ~walls outs;
    report = (Printf.sprintf "rounds              %d" (List.length walls) :: report) @ kind_report outs;
  }

let reconcile_line overhead =
  Printf.sprintf "trace.overhead_ratio %.3f%s" overhead
    (if Float.abs (overhead -. 1.0) > 0.2 then
       "  UNRECONCILED: the replay's wall is more than 20% away from the untraced wall"
     else "")

(* The traced run: the untraced request list over half the run, then the
   same requests again with spans.  In-process workloads replay them
   through the staged pipeline, from the cache the untraced pass started
   from; the daemon workload sends them again with client-side spans and
   rpc accounting, and replays each pair once in-process for the layers
   behind the socket. *)
let traced (w : W.t) o =
  in_scratch o @@ fun dir ->
  let t, setup_errors = start w o ~dir in
  let half = o.seconds /. 2.0 in
  let rc = Span.recorder () and c = Replay.counters () in
  let finish ~outs ~mismatches ~untraced_wall ~traced_wall ~replay_wall ~spans ~query_bytes ~store_kb
      ~daemon =
    let ok, failed, report = gate w ~setup_errors outs in
    let overhead = traced_wall /. untraced_wall in
    let seconds = layer_seconds spans in
    let trace =
      write_trace o w ~spans
        ~metadata:
          [
            ("workload", J.String w.W.name);
            ("seed", J.Int o.seed);
            ("overhead_ratio", J.Float overhead);
            ("reconciled", J.Bool (Float.abs (overhead -. 1.0) <= 0.2));
            ("self_s", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) seconds));
          ]
    in
    {
      correct = ok && mismatches = [] && Result.is_ok trace;
      attempted = List.length outs;
      failed;
      values = layer_values ~spans ~c ~replay_wall ~overhead ~query_bytes ~store_kb ~daemon;
      report =
        report
        @ List.map (fun m -> "  replay: " ^ m) mismatches
        @ [ reconcile_line overhead ]
        @ (match trace with
          | Ok (path, n) -> [ Printf.sprintf "trace               %s (%d events)" path n ]
          | Error e -> [ "trace INVALID: " ^ e ])
        @ List.map (fun (k, v) -> Printf.sprintf "  %-20s self %.4f s" k v) seconds;
    }
  in
  if w.W.mode <> W.Daemon then begin
    let replay_dir = Filename.concat dir "replay-cache" in
    Option.iter
      (fun cd ->
        mkdir_p replay_dir;
        let file d = Filename.concat d Vcache.file_name in
        Out_channel.with_open_bin (file replay_dir) (fun oc ->
            Out_channel.output_string oc (In_channel.with_open_bin (file cd) In_channel.input_all)))
      t.cache_dir;
    let outs, walls = Fun.protect ~finally:t.stop (fun () -> closed_loop ~keep:true w o t ~seconds:half) in
    let s = { t.setting with Replay.cache_dir = Option.map (fun _ -> replay_dir) t.cache_dir } in
    let items = List.filter_map (fun o -> if o.error = None then Some (o.req, o.rungs, o.answers) else None) outs in
    let replay_wall, mismatches = timed (fun () -> replay rc c s items) in
    finish ~outs ~mismatches ~untraced_wall:(Stats.sum walls) ~traced_wall:replay_wall ~replay_wall
      ~spans:(Span.spans rc)
      ~query_bytes:(List.fold_left (fun acc o -> acc + o.bytes) 0 outs)
      ~store_kb:(Option.fold ~none:0.0 ~some:store_kb t.cache_dir)
      ~daemon:None
  end
  else begin
    let run () =
      let u_outs, u_walls = closed_loop w o t ~seconds:half in
      let stolen0, executed0 = t.sched () in
      let t_outs, t_walls = closed_loop ~codec:true w o t ~seconds:half in
      let stolen1, executed1 = t.sched () in
      ( u_outs,
        u_walls,
        t_outs,
        t_walls,
        (stolen1 - stolen0, executed1 - executed0),
        Option.fold ~none:0.0 ~some:store_kb t.cache_dir )
    in
    let u_outs, u_walls, t_outs, t_walls, sched, kb = Fun.protect ~finally:t.stop run in
    let refs = references (u_outs @ t_outs) in
    let outs = check_against_references refs (u_outs @ t_outs) in
    let client = Span.recorder ~tid:1 () in
    List.iter
      (fun out ->
        Span.set_request client out.req.W.id;
        Span.record client ~name:"rpc.call" ~t0:out.t_sent ~t1:(out.t_sent +. out.latency))
      t_outs;
    let items =
      List.mapi
        (fun i ((program, profile), (_, answers, _)) ->
          ({ W.id = -1 - i; kind = W.k program profile }, (fun _ _ -> []), answers))
        refs
    in
    let replay_wall, mismatches = timed (fun () -> replay rc c t.setting items) in
    finish ~outs ~mismatches ~untraced_wall:(Stats.sum u_walls) ~traced_wall:(Stats.sum t_walls)
      ~replay_wall
      ~spans:(Span.spans client @ Span.spans rc)
      ~query_bytes:(List.fold_left (fun acc (_, (_, _, b)) -> acc + b) 0 refs)
      ~store_kb:kb
      ~daemon:(Some (t_outs, sched))
  end
