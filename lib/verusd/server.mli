(** Server — the persistent daemon loop.

    Owns the transport only: a Unix-domain listening socket, one
    handler thread per accepted connection, per-connection framed
    reads, and a thread-safe [emit] for writes.  What a request {e
    means} is delegated to the injected {!handler} —
    [Verus.Vservice.serve] wires in its job handler — so the transport
    layer has no dependency on the verification stack and the protocol
    can be exercised without a solver behind it.

    Protocol errors the transport itself detects are answered before
    the handler ever runs: an unreadable frame ([RPC001]/[RPC007])
    closes the connection after an error event (framing is lost, the
    byte stream cannot be resynchronized); an invalid request on an
    intact frame ([RPC002]/[RPC003]/[RPC004]) is answered with an
    error event and the connection {e stays open} — one bad request
    does not cost a client its connection.

    Concurrency: each connection runs on its own thread and requests
    on one connection are served in order; concurrency across clients
    comes from multiple connections, whose solve work interleaves in
    the shared {!Sched} pool.  [emit] may be called from any domain
    (streamed verdicts land from scheduler workers); writes are
    serialized per connection. *)

(** What the handler tells the transport after each request. *)
type directive =
  | Continue  (** keep serving this connection *)
  | Stop  (** shut the whole daemon down (the [shutdown] method) *)

type handler = emit:(Vbase.Json.t -> unit) -> Rpc.request -> directive
(** Serve one validated request, emitting zero or more event frames
    (the final [done]/[error] frame included).  Exceptions escaping the
    handler are caught and answered with an [RPC006] error event. *)

type t

val create : socket_path:string -> (t, string) result
(** Bind and listen on the Unix-domain socket [socket_path] (backlog
    64).  A stale socket file there is unlinked first; a live one
    (another daemon still bound) is an error. *)

val serve : t -> handler -> unit
(** Accept loop; blocks until {!shutdown} is called (by another
    thread, or by a handler returning {!Stop}).  Connection threads
    are joined before returning, and the socket file is removed. *)

val shutdown : t -> unit
(** Thread-safe, idempotent: stop accepting, wake {!serve}. *)
