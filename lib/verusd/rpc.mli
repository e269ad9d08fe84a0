(** Rpc — the [verus-rpc/1] wire protocol.

    Everything the daemon speaks: length-prefixed JSON framing over a
    byte stream (a Unix-domain socket or a pipe), the request and event
    schemas, the stable [RPCxxx] error codes, and the validator the CI
    docs gate runs over every example in [docs/PROTOCOL.md].  The
    schema is defined {e by} this module: the daemon emits through
    {!event_to_json}, the client parses through {!event_of_json}, and
    the documentation's examples must round-trip through
    {!validate_frame} — one implementation, so the emitted schema, the
    parsed schema and the documented schema cannot drift apart.

    Framing: each frame is a 4-byte big-endian payload length followed
    by that many bytes of UTF-8 JSON.  Payloads above
    {!max_frame_bytes} are rejected ([RPC007]) before any allocation.

    Versioning: every frame carries ["rpc": "verus-rpc/1"].  The major
    number is the only compatibility promise — servers reject frames
    whose version string is missing or different ([RPC002]); within a
    major version fields are only ever {e added}, and both ends ignore
    object keys they do not recognize.  See [docs/PROTOCOL.md] for the
    full specification. *)

val schema_version : string
(** ["verus-rpc/1"]. *)

val max_frame_bytes : int
(** Upper bound on a frame payload (16 MiB). *)

(** A protocol-level failure, as carried by [event: "error"] frames. *)
type error = { code : string; message : string }

val error_codes : (string * string) list
(** The stable code table ([RPC001]–[RPC007]), code to description.
    [docs/PROTOCOL.md]'s error-code table lists the same rows; the docs
    gate ([smoke docs]) fails when the two differ. *)

(** When a job request runs the static analyses. *)
type lint_level = Lint_off | Lint_warn | Lint_strict

(** What a job request asks the daemon to do — the daemon-side analogue
    of the CLI's [verify] / [lint] / [profile] subcommands. *)
type job_kind = Verify | Lint | Profile

(** Parameters of a [verify] / [lint] / [profile] request. *)
type query = {
  q_kind : job_kind;
  q_program : string;  (** bundled program name (required) *)
  q_profile : string;  (** framework profile name (default ["Verus"]) *)
  q_lint : lint_level;
      (** when to run {!Vlint} (default [Lint_off]; a {!Profile} job
          always lints at [Lint_warn]); for {!Lint}: [Lint_strict] means
          warnings also fail *)
  q_certify : bool;  (** replay certificates through the Vcheck kernel *)
  q_analyze : bool;
      (** for {!Verify}: run the Vflow abstract-interpretation prescreen
          before cache/solver (default [false]; ignored under
          [q_certify] — the prescreen has no certificate to replay) *)
  q_cache : bool;
      (** consult the daemon's shared verification cache (default [true];
          a daemon started without a cache directory ignores this) *)
  q_ladder : string option;
      (** escalation-ladder name ({!Vladder.Ladder.builtins}: ["escalate"],
          ["deep"], ["cautious"]); each obligation climbs it, cheap rungs
          first *)
  q_rung : int option;
      (** pin every obligation to one rung of [q_ladder] (default: the
          ["escalate"] ladder) instead of climbing *)
  q_stream : bool;
      (** stream per-VC / per-function verdict events as they land
          (default [true]); [false] sends only the final [done] frame *)
}

(** One request frame. *)
type method_ =
  | M_ping
  | M_status
  | M_shutdown
  | M_job of query

type request = { r_id : int; r_method : method_ }

val request : ?id:int -> method_ -> request
(** Build a request ([id] defaults to 0; clients that multiplex pick
    unique ids so replies can be correlated). *)

val query :
  ?profile:string ->
  ?lint:lint_level ->
  ?certify:bool ->
  ?analyze:bool ->
  ?cache:bool ->
  ?ladder:string ->
  ?rung:int ->
  ?stream:bool ->
  job_kind ->
  string ->
  query
(** [query kind program] with the documented defaults for everything
    else. *)

val request_to_json : request -> Vbase.Json.t

val request_of_json : Vbase.Json.t -> (request, error) result
(** Validate and decode a request frame.  Errors use the documented
    codes: [RPC002] version missing/unsupported, [RPC003] unknown
    method, [RPC004] invalid or missing parameters.  Unknown object
    keys are ignored (additive-evolution rule), except the removed
    budget params [deadline_s] and [max_rounds], which answer [RPC004]
    rather than run at a strength the client did not ask for. *)

(** One server-to-client frame.  [E_vc] and [E_fn] stream while a job
    runs; exactly one [E_done] or [E_error] terminates each request. *)
type event =
  | E_vc of {
      fn : string;  (** enclosing function *)
      vc : string;  (** obligation name *)
      answer : string;  (** ["unsat"] / ["sat"] / ["unknown"] *)
      reason : string option;  (** present when [answer = "unknown"] *)
      time_s : float;
      cached : bool;  (** served from the shared verification cache *)
      rung : int option;
          (** the escalation-ladder rung that produced the verdict;
              present only when the job ran with an explicit ladder *)
    }
  | E_fn of { fn : string; ok : bool; time_s : float; vcs : int }
  | E_done of Vbase.Json.t
      (** terminal result object; see {!validate_frame} for its
          required keys and [docs/PROTOCOL.md] for the full schema *)
  | E_error of error  (** terminal protocol/internal failure *)
  | E_pong
  | E_status of Vbase.Json.t  (** daemon status object *)

val event_to_json : id:int -> event -> Vbase.Json.t

val event_of_json : Vbase.Json.t -> (int * event, error) result
(** Validate and decode an event frame (the client side of the
    stream).  [fst] is the request id the event answers. *)

val validate_frame : Vbase.Json.t -> (unit, string) result
(** Accept any well-formed [verus-rpc/1] frame, request or event —
    the docs gate runs this over every fenced JSON example in
    [docs/PROTOCOL.md], so a schema change that forgets to update the
    documentation (or vice versa) fails [scripts/check.sh]. *)

(** {2 Framing} *)

val write_frame : Unix.file_descr -> Vbase.Json.t -> unit
(** Serialize compactly and write one length-prefixed frame.  Raises
    [Invalid_argument] if the payload exceeds {!max_frame_bytes} and
    [Unix.Unix_error] on I/O failure. *)

(** Result of reading one frame. *)
type read_result =
  | Frame of Vbase.Json.t
  | Eof  (** orderly close before a length prefix *)
  | Bad of error
      (** [RPC001] payload not valid JSON; [RPC007] length invalid,
          over the limit, or stream truncated mid-frame *)

val read_frame : Unix.file_descr -> read_result
