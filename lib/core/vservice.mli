(** Vservice — the daemon's service layer.

    {!Verusd.Server} owns the transport (socket, framing, connection
    threads) and knows nothing about verification; this module is the
    injected brain: it owns the long-lived {!Verusd.Sched} pool, the
    shared verification-cache directory, the bundled program / profile
    tables, and the mapping from [verus-rpc/1] requests to
    {!Driver.verify_program} runs with streamed verdict events.

    The same tables and exit-code policy back the [verus_cli] verify /
    lint / profile subcommands, so a daemon answer and a CLI answer for
    the same job are {e the same computation}: one [Driver.Config], one
    digest, one exit code — the CLI client simply mirrors the daemon's
    [exit_code] field ([docs/PROTOCOL.md]). *)

(** {2 Bundled programs and profiles}

    The name tables the CLI and the daemon both resolve requests
    against.  Lookup failures return [Error msg] (the daemon answers
    [RPC004]; the CLI prints usage) instead of exiting, so the daemon
    survives a typo in a request. *)

val programs : (string * (unit -> Vir.program)) list
(** Bundled benchmark programs, name to thunk (programs are built on
    demand — some are generated parametrically). *)

val program_names : string list

val profile_names : string list

val find_program : string -> (Vir.program, string) result

val find_profile : string -> (Profiles.t, string) result
(** Case-insensitive; ["fstar"] / ["lowstar"] alias the awkward
    ["F*/Low*"]. *)

val resolve_ladder :
  ladder:string option -> rung:int option -> (Vladder.Ladder.t option, string) result
(** The one resolver for automation strength, shared by the daemon's
    request handler and the CLI's flag parsing.  [ladder] names a
    {!Vladder.Ladder.builtins} entry; [rung] pins every obligation to
    one rung of it (of the default ["escalate"] ladder when [ladder] is
    absent).  Unknown names and out-of-range rungs are errors.  Both
    [None] resolves to [Ok None] — the implicit identity ladder. *)

(** {2 Exit-code policy}

    One verdict-to-exit-code mapping for every surface (CLI process
    exit, daemon [done.exit_code] field, client process exit).  See
    the [verus_cli] usage text for the full code table. *)

val budget_only : Driver.program_result -> bool
(** The run failed {e only} on [Unknown] answers (solver deadline /
    instantiation budget) — exit 3, "needs a stronger rung", never
    mistaken for a counterexample. *)

val cert_failed : Driver.program_result -> bool
(** Some obligation's certificate was rejected or missing under
    [--certify] — exit {!exit_cert_rejected}, checked {e before}
    {!budget_only} (such runs answer all-[Unsat], which would
    otherwise read as budget exhaustion). *)

val exit_cert_rejected : int
(** [5]. *)

val result_exit_code : Driver.program_result -> int
(** [0] verified / [1] failed / [3] budget exhausted / [5] certificate
    rejected. *)

val validate_daemon_bench : Vbase.Json.t -> (unit, string) Stdlib.result
(** Validate a [BENCH_daemon.json] document against the
    [verus-daemon-bench/1] schema the bench harness's [daemon] section
    emits: the cold suite comparison (per-program rows with digest
    agreement, baseline vs daemon totals), the warm shared-cache pass
    (hit rate), and the burst queue-latency percentiles per domain
    count.  The harness self-validates what it writes, so the emitted
    schema and the checked schema cannot drift apart. *)

(** {2 The daemon} *)

val serve : socket_path:string -> domains:int -> ?cache_dir:string -> unit -> (unit, string) result
(** Run a complete daemon in the calling thread: spawn the engine's warm
    {!Verusd.Sched} pool of [domains] workers, bind the server, serve
    until a [shutdown] request (or {!Verusd.Server.shutdown} from
    another thread), then tear both down.  Every request shares the
    pool, and every job with [q_cache = true] shares the verification
    cache in [cache_dir] — the second client onto a warm daemon hits in
    it without re-solving.  [ping] answers [pong]; [status] answers
    uptime, request and scheduler counters; [verify]/[lint]/[profile]
    stream [vc] / [fn] events as obligations complete (when the query
    asks to stream) and end with a [done] event carrying the verdict,
    digest and exit code; unknown program, profile or ladder names
    answer [RPC004] and keep the connection open.  [Error msg] if the
    socket cannot be bound (e.g. a live daemon already owns it).  This
    is the whole body of the [verusd] binary and of [verus_cli daemon]. *)
