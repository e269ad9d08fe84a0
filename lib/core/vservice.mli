(** Vservice — the one job path, shared by the CLI and the daemon.

    A job is described by one {!Verusd.Rpc.query}.  {!run_job} maps it to
    one {!Driver.Config.t}, runs it, and renders the [done] payload the
    daemon sends and the CLI prints — so a daemon answer and a local
    answer for the same job are {e the same computation}: one config,
    one digest, one exit code ([docs/PROTOCOL.md]).  {!serve} wraps the
    daemon around it: {!Verusd.Server} owns the transport and this module
    the long-lived {!Verusd.Sched} pool and shared cache directory. *)

(** {2 Bundled programs and profiles}

    Lookup failures return [Error msg] (the daemon answers [RPC004]; the
    CLI prints usage) instead of exiting, so the daemon survives a typo
    in a request. *)

val programs : (string * (unit -> Vir.program)) list
(** Bundled benchmark programs, name to thunk (programs are built on
    demand — some are generated parametrically). *)

val profile_names : string list

val find_program : string -> (Vir.program, string) result

val find_profile : string -> (Profiles.t, string) result
(** Case-insensitive; ["fstar"] / ["lowstar"] alias the awkward
    ["F*/Low*"]. *)

(** {2 One job} *)

type run =
  | Verified of Driver.program_result  (** a [Verify] or [Profile] job *)
  | Linted of Vlint.diag list  (** a [Lint] job: static analyses only *)

type job = {
  config : Driver.Config.t;
  run : run;
  done_ : Vbase.Json.t;
      (** the [done] payload: [kind], [program], [profile], [ok],
          [exit_code], [digest], [time_s] and the per-kind keys of
          [docs/PROTOCOL.md]; a [Profile] job's carries its
          {!Profile_report.to_json} document under ["report"].
          [exit_code] is [0] verified, [1] failed, [3] budget exhausted
          (every failed obligation is [Unknown], none refuted), [5]
          certificate rejected or missing under [certify] (checked before
          [3]: such runs answer all-[Unsat]) *)
}

val run_job :
  ?on_progress:(Driver.progress -> unit) ->
  pool:Driver.Config.pool ->
  cache_dir:string option ->
  Verusd.Rpc.query ->
  Profiles.t ->
  Vir.program ->
  (job, string) result
(** Run one job on the given resolved profile and program (the caller
    resolves [q_program]/[q_profile], so the CLI can restrict or degrade
    them first).  The query maps to the config once: [q_certify],
    [q_analyze], the cache in [cache_dir] when [q_cache], profiling for
    [Profile] jobs, and the lint mode — [q_lint], except that [Profile]
    jobs always lint at warn (the VL010 cross-check needs findings).  The
    ladder is the {!Vladder.Ladder.builtins} entry named by [q_ladder],
    pinned to rung [q_rung] when given (of ["escalate"] when [q_ladder]
    is absent); neither gives the implicit identity ladder.  [Error msg]
    for an unknown ladder or an out-of-range rung, before any work. *)

(** {2 The daemon} *)

val serve : socket_path:string -> domains:int -> ?cache_dir:string -> unit -> (unit, string) result
(** Run a complete daemon in the calling thread: spawn a warm
    {!Verusd.Sched} pool of [domains] workers, bind the server, serve
    until a [shutdown] request (or {!Verusd.Server.shutdown} from
    another thread), then tear both down.  Every job runs through
    {!run_job} on the shared pool, with [cache_dir] as the shared
    verification cache — the second client onto a warm daemon hits in it
    without re-solving.  [ping] answers [pong]; [status] answers uptime,
    request and scheduler counters; jobs stream [vc] / [fn] events as
    obligations complete (when the query asks to stream) and end with a
    [done] event carrying the job's [done_] payload; unknown program, profile or
    ladder names answer [RPC004] and keep the connection open.
    [Error msg] if the socket cannot be bound (e.g. a live daemon already
    owns it).  This is the whole body of [verus_cli daemon]. *)
