module J = Vbase.Json

let schema_version = "verus-rpc/1"
let max_frame_bytes = 16 * 1024 * 1024

type error = { code : string; message : string }

let error_codes =
  [
    ("RPC001", "malformed frame: payload is not valid JSON");
    ("RPC002", "schema version missing or unsupported (expected verus-rpc/1)");
    ("RPC003", "unknown method");
    ("RPC004", "invalid or missing request parameters");
    ("RPC005", "daemon is shutting down");
    ("RPC006", "internal error while serving the request");
    ("RPC007", "frame length invalid, over the limit, or truncated");
  ]

let err code message = { code; message }
let errf code fmt = Printf.ksprintf (err code) fmt

type lint_level = Lint_off | Lint_warn | Lint_strict
type job_kind = Verify | Lint | Profile

type query = {
  q_kind : job_kind;
  q_program : string;
  q_profile : string;
  q_lint : lint_level;
  q_certify : bool;
  q_analyze : bool;
  q_cache : bool;
  q_ladder : string option;
  q_rung : int option;
  q_stream : bool;
}

type method_ = M_ping | M_status | M_shutdown | M_job of query

type request = { r_id : int; r_method : method_ }

let request ?(id = 0) m = { r_id = id; r_method = m }

let query ?(profile = "Verus") ?(lint = Lint_off) ?(certify = false) ?(analyze = false)
    ?(cache = true) ?ladder ?rung ?(stream = true) kind program =
  {
    q_kind = kind;
    q_program = program;
    q_profile = profile;
    q_lint = lint;
    q_certify = certify;
    q_analyze = analyze;
    q_cache = cache;
    q_ladder = ladder;
    q_rung = rung;
    q_stream = stream;
  }

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                       *)
(* ------------------------------------------------------------------ *)

let method_name = function
  | M_ping -> "ping"
  | M_status -> "status"
  | M_shutdown -> "shutdown"
  | M_job q -> (
    match q.q_kind with Verify -> "verify" | Lint -> "lint" | Profile -> "profile")

let lint_name = function
  | Lint_off -> "ignore"
  | Lint_warn -> "warn"
  | Lint_strict -> "strict"

(* Envelope key order: rpc, id, then the frame body — purely cosmetic,
   but it keeps documented examples and emitted frames diffable. *)
let envelope id rest =
  J.Obj (("rpc", J.String schema_version) :: ("id", J.Int id) :: rest)

let request_to_json (r : request) =
  let params =
    match r.r_method with
    | M_ping | M_status | M_shutdown -> []
    | M_job q ->
      let base =
        [
          ("program", J.String q.q_program);
          ("profile", J.String q.q_profile);
          ("certify", J.Bool q.q_certify);
          ("analyze", J.Bool q.q_analyze);
          ("cache", J.Bool q.q_cache);
          ("stream", J.Bool q.q_stream);
          ("lint", J.String (lint_name q.q_lint));
        ]
      in
      let base =
        base
        @ (match q.q_ladder with Some l -> [ ("ladder", J.String l) ] | None -> [])
        @ match q.q_rung with Some r -> [ ("rung", J.Int r) ] | None -> []
      in
      [ ("params", J.Obj base) ]
  in
  envelope r.r_id (("method", J.String (method_name r.r_method)) :: params)

(* ------------------------------------------------------------------ *)
(* JSON decoding helpers                                               *)
(* ------------------------------------------------------------------ *)

let str_field o k = match J.member k o with Some (J.String s) -> Some s | _ -> None
let int_field o k = match J.member k o with Some (J.Int i) -> Some i | _ -> None
let bool_field o k = match J.member k o with Some (J.Bool b) -> Some b | _ -> None

let num_field o k =
  match J.member k o with Some j -> J.to_float j | None -> None

let check_version j =
  match str_field j "rpc" with
  | Some v when String.equal v schema_version -> Ok ()
  | Some v -> Error (errf "RPC002" "unsupported schema version %S (expected %s)" v schema_version)
  | None -> Error (errf "RPC002" "missing \"rpc\" version field (expected %s)" schema_version)

(* The absolute-budget params, superseded by [ladder]/[rung]. *)
let removed_params = [ "deadline_s"; "max_rounds" ]

let parse_query kind params =
  let ( let* ) = Result.bind in
  let* program =
    match str_field params "program" with
    | Some p -> Ok p
    | None -> Error (err "RPC004" "missing required params.program")
  in
  let profile = Option.value ~default:"Verus" (str_field params "profile") in
  let* lint =
    match str_field params "lint" with
    | None -> Ok (if kind = Profile then Lint_warn else Lint_off)
    | Some "ignore" -> Ok Lint_off
    | Some "warn" -> Ok Lint_warn
    | Some "strict" -> Ok Lint_strict
    | Some other -> Error (errf "RPC004" "params.lint must be ignore|warn|strict, got %S" other)
  in
  (* Unknown keys are ignored, so a removed param would otherwise be
     silently dropped and the job would run at a strength the client did
     not ask for. *)
  let* () =
    match List.find_opt (fun k -> J.member k params <> None) removed_params with
    | Some k ->
      Error (errf "RPC004" "params.%s was removed; use params.ladder / params.rung" k)
    | None -> Ok ()
  in
  let* ladder =
    match J.member "ladder" params with
    | None -> Ok None
    | Some (J.String l) -> Ok (Some l)
    | Some _ -> Error (err "RPC004" "params.ladder must be a ladder name string")
  in
  let* rung =
    match J.member "rung" params with
    | None -> Ok None
    | Some (J.Int r) when r >= 0 -> Ok (Some r)
    | Some _ -> Error (err "RPC004" "params.rung must be a non-negative integer")
  in
  Ok
    {
      q_kind = kind;
      q_program = program;
      q_profile = profile;
      q_lint = lint;
      q_certify = Option.value ~default:false (bool_field params "certify");
      q_analyze = Option.value ~default:false (bool_field params "analyze");
      q_cache = Option.value ~default:true (bool_field params "cache");
      q_ladder = ladder;
      q_rung = rung;
      q_stream = Option.value ~default:true (bool_field params "stream");
    }

let request_of_json j =
  let ( let* ) = Result.bind in
  let* () = check_version j in
  let* id =
    match int_field j "id" with
    | Some i when i >= 0 -> Ok i
    | _ -> Error (err "RPC004" "missing or invalid \"id\" (expected a non-negative integer)")
  in
  let* meth =
    match str_field j "method" with
    | Some m -> Ok m
    | None -> Error (err "RPC003" "missing \"method\" field")
  in
  let params = match J.member "params" j with Some (J.Obj _ as p) -> p | _ -> J.Obj [] in
  let* r_method =
    match meth with
    | "ping" -> Ok M_ping
    | "status" -> Ok M_status
    | "shutdown" -> Ok M_shutdown
    | "verify" -> Result.map (fun q -> M_job q) (parse_query Verify params)
    | "lint" -> Result.map (fun q -> M_job q) (parse_query Lint params)
    | "profile" -> Result.map (fun q -> M_job q) (parse_query Profile params)
    | other -> Error (errf "RPC003" "unknown method %S" other)
  in
  Ok { r_id = id; r_method }

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type event =
  | E_vc of {
      fn : string;
      vc : string;
      answer : string;
      reason : string option;
      time_s : float;
      cached : bool;
      rung : int option;
    }
  | E_fn of { fn : string; ok : bool; time_s : float; vcs : int }
  | E_done of J.t
  | E_error of error
  | E_pong
  | E_status of J.t

let event_to_json ~id = function
  | E_vc { fn; vc; answer; reason; time_s; cached; rung } ->
    envelope id
      ([
         ("event", J.String "vc");
         ("fn", J.String fn);
         ("vc", J.String vc);
         ("answer", J.String answer);
       ]
      @ (match reason with Some r -> [ ("reason", J.String r) ] | None -> [])
      @ [ ("time_s", J.Float time_s); ("cached", J.Bool cached) ]
      @ (match rung with Some r -> [ ("rung", J.Int r) ] | None -> []))
  | E_fn { fn; ok; time_s; vcs } ->
    envelope id
      [
        ("event", J.String "fn");
        ("fn", J.String fn);
        ("ok", J.Bool ok);
        ("time_s", J.Float time_s);
        ("vcs", J.Int vcs);
      ]
  | E_done result -> envelope id [ ("event", J.String "done"); ("result", result) ]
  | E_error e ->
    envelope id
      [ ("event", J.String "error"); ("code", J.String e.code); ("message", J.String e.message) ]
  | E_pong -> envelope id [ ("event", J.String "pong") ]
  | E_status s -> envelope id [ ("event", J.String "status"); ("status", s) ]

(* The required surface of a `done` result object.  `kind` says which
   request family produced it; job results additionally carry the
   program/profile pair, wall-clock and the decisions-only digest. *)
let validate_done result =
  let ( let* ) = Result.bind in
  let* kind =
    match str_field result "kind" with
    | Some k -> Ok k
    | None -> Error "done.result: missing \"kind\""
  in
  let* () =
    match (J.member "ok" result, int_field result "exit_code") with
    | Some (J.Bool _), Some _ -> Ok ()
    | _ -> Error "done.result: \"ok\" (bool) and \"exit_code\" (int) are required"
  in
  match kind with
  | "verify" | "lint" | "profile" ->
    let need_str k =
      match str_field result k with
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "done.result: missing %S" k)
    in
    let* () = need_str "program" in
    let* () = need_str "profile" in
    let* () = need_str "digest" in
    (match num_field result "time_s" with
    | Some _ -> Ok ()
    | None -> Error "done.result: missing \"time_s\"")
  | "shutdown" -> Ok ()
  | other -> Error (Printf.sprintf "done.result: unknown kind %S" other)

let validate_status s =
  let need k ok_kind =
    match (J.member k s, ok_kind) with
    | Some (J.Int _), `Num | Some (J.Float _), `Num | Some (J.Int _), `Int -> Ok ()
    | _ -> Error (Printf.sprintf "status: missing or mistyped %S" k)
  in
  let ( let* ) = Result.bind in
  let* () = need "uptime_s" `Num in
  let* () = need "requests" `Int in
  need "domains" `Int

let event_of_json j =
  let ( let* ) = Result.bind in
  let* () = check_version j in
  let* id =
    match int_field j "id" with
    | Some i when i >= 0 -> Ok i
    | _ -> Error (err "RPC004" "missing or invalid \"id\" on event frame")
  in
  let* ev =
    match str_field j "event" with
    | Some e -> Ok e
    | None -> Error (err "RPC004" "missing \"event\" field")
  in
  let* event =
    match ev with
    | "pong" -> Ok E_pong
    | "vc" -> (
      match (str_field j "fn", str_field j "vc", str_field j "answer", num_field j "time_s") with
      | Some fn, Some vc, Some answer, Some time_s
        when List.mem answer [ "unsat"; "sat"; "unknown" ] ->
        Ok
          (E_vc
             {
               fn;
               vc;
               answer;
               reason = str_field j "reason";
               time_s;
               cached = Option.value ~default:false (bool_field j "cached");
               rung = int_field j "rung";
             })
      | _ -> Error (err "RPC004" "vc event: fn/vc/answer/time_s missing or mistyped"))
    | "fn" -> (
      match (str_field j "fn", bool_field j "ok", num_field j "time_s", int_field j "vcs") with
      | Some fn, Some ok, Some time_s, Some vcs -> Ok (E_fn { fn; ok; time_s; vcs })
      | _ -> Error (err "RPC004" "fn event: fn/ok/time_s/vcs missing or mistyped"))
    | "done" -> (
      match J.member "result" j with
      | Some (J.Obj _ as result) -> (
        match validate_done result with
        | Ok () -> Ok (E_done result)
        | Error e -> Error (err "RPC004" e))
      | _ -> Error (err "RPC004" "done event: missing \"result\" object"))
    | "error" -> (
      match (str_field j "code", str_field j "message") with
      | Some code, Some message when List.mem_assoc code error_codes ->
        Ok (E_error { code; message })
      | Some code, Some _ -> Error (errf "RPC004" "error event: unknown code %S" code)
      | _ -> Error (err "RPC004" "error event: missing code/message"))
    | "status" -> (
      match J.member "status" j with
      | Some (J.Obj _ as s) -> (
        match validate_status s with
        | Ok () -> Ok (E_status s)
        | Error e -> Error (err "RPC004" e))
      | _ -> Error (err "RPC004" "status event: missing \"status\" object"))
    | other -> Error (errf "RPC004" "unknown event %S" other)
  in
  Ok (id, event)

let validate_frame j =
  match j with
  | J.Obj _ -> (
    let fail (e : error) = Error (Printf.sprintf "[%s] %s" e.code e.message) in
    match (J.member "method" j, J.member "event" j) with
    | Some _, None -> (
      match request_of_json j with Ok _ -> Ok () | Error e -> fail e)
    | None, Some _ -> (
      match event_of_json j with Ok _ -> Ok () | Error e -> fail e)
    | Some _, Some _ -> Error "frame carries both \"method\" and \"event\""
    | None, None -> Error "frame carries neither \"method\" nor \"event\"")
  | _ -> Error "frame is not a JSON object"

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let write_frame fd j =
  let payload = Bytes.of_string (J.to_string ~indent:false j) in
  let len = Bytes.length payload in
  if len > max_frame_bytes then
    invalid_arg (Printf.sprintf "Rpc.write_frame: %d-byte payload exceeds the %d-byte limit" len max_frame_bytes);
  let frame = Bytes.create (4 + len) in
  Bytes.set_uint8 frame 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 frame 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 frame 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 frame 3 (len land 0xff);
  Bytes.blit payload 0 frame 4 len;
  write_all fd frame 0 (4 + len)

type read_result = Frame of J.t | Eof | Bad of error

(* Read exactly [len] bytes; [`Eof n] reports how many arrived before
   the stream closed (0 = clean close at a frame boundary). *)
let read_exact fd len =
  let b = Bytes.create len in
  let rec go off =
    if off = len then `Ok b
    else
      match Unix.read fd b off (len - off) with
      | 0 -> `Eof off
      | n -> go (off + n)
  in
  go 0

let read_frame fd =
  match read_exact fd 4 with
  | `Eof 0 -> Eof
  | `Eof _ -> Bad (err "RPC007" "stream truncated inside a length prefix")
  | `Ok hdr -> (
    let len =
      (Bytes.get_uint8 hdr 0 lsl 24)
      lor (Bytes.get_uint8 hdr 1 lsl 16)
      lor (Bytes.get_uint8 hdr 2 lsl 8)
      lor Bytes.get_uint8 hdr 3
    in
    if len <= 0 || len > max_frame_bytes then
      Bad (errf "RPC007" "frame length %d outside (0, %d]" len max_frame_bytes)
    else
      match read_exact fd len with
      | `Eof _ -> Bad (err "RPC007" "stream truncated inside a frame payload")
      | `Ok payload -> (
        match J.of_string (Bytes.to_string payload) with
        | Ok j -> Frame j
        | Error e -> Bad (errf "RPC001" "frame payload is not valid JSON: %s" e)))
