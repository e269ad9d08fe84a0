(** Sched — the obligation work queue.

    Every proof obligation the driver discharges — one verification
    condition, not one program or one function — is an independently
    schedulable unit of work.  This module owns {e all} of their
    execution: a persistent pool of OCaml 5 domains with per-worker
    deques and work stealing, shared by every request a daemon serves,
    plus an inline path ({!submit_now}) so single-job runs execute
    obligations through the same batch bookkeeping without spawning
    domains.

    The pool is deliberately generic: tasks are closures.
    [Driver.verify_program] runs each program as one {!batch}, per its
    [Config.pool]: inline, on a transient pool ([Domains n]), or on a
    pool the caller owns ([Borrowed], the daemon's warm pool), where
    the daemon's many concurrent requests interleave their batches in
    the same workers — which is what turns per-program parallelism into
    fleet-wide obligation scheduling.

    Scheduling discipline: tasks submitted from outside the pool are
    dealt round-robin to the {e tail} of the worker deques; a task
    submitted from {e inside} a worker (a task spawning subtasks — the
    driver's per-function encode task spawning its per-VC solves) goes
    to the {e head} of that worker's own deque.  Workers pop their own
    head (newest first, so a function's obligations run depth-first,
    right after its encode) and steal from other deques' tails (oldest
    first — the coarse, still-unsplit tasks).  Keeping each function's
    encode adjacent to its solves is load-bearing: proof certificates
    are sensitive to term-interning order, and this discipline
    reproduces the interning layout of a sequential run (see
    [test_vcheck]'s jobs-determinism test).

    Concurrency contract: batches may be used from any number of
    threads at once and share the workers fairly; a task runs in
    whichever worker domain takes it, so what it touches must be
    thread-safe. *)

type t
(** A pool of worker domains with per-worker deques. *)

(** Lifetime counters, for the daemon's [status] and the benches. *)
type stats = {
  sd_domains : int;  (** worker domains in the pool *)
  sd_submitted : int;  (** tasks ever enqueued *)
  sd_executed : int list;  (** tasks taken and run, per worker (length [sd_domains]) *)
  sd_stolen : int;  (** tasks a worker took from another worker's deque *)
  sd_batches : int;  (** batches that ever {!submit}ted a task to this pool *)
}

val create : domains:int -> t
(** Spawn a pool of [domains] worker domains ([domains >= 1];
    [Invalid_argument] otherwise).  Workers sleep when every deque is
    empty and are woken by submission. *)

(** {2 Batches}

    A {!batch} is an open-ended set of tasks that can grow while it
    runs: a task may {!submit} further tasks into its own batch (the
    driver's per-function tasks submit their per-VC solves once the
    function is encoded and the obligation count is known).  {!await}
    blocks until the batch has fully drained — including every task
    submitted mid-flight. *)

type batch
(** An open-ended task set with a completion barrier. *)

val batch : unit -> batch

val submit : t -> batch -> (unit -> unit) -> unit
(** Enqueue one task of [batch] on the pool.  Called from a worker of
    the same pool, the task goes to the head of that worker's own
    deque (depth-first, stealable from the tail); called from outside,
    it is dealt round-robin.  The batch's first task on a pool counts
    in that pool's [sd_batches].  Submitting after the batch has fully
    drained and {!await} returned is a programming error (the barrier
    is one-shot). *)

val submit_now : batch -> (unit -> unit) -> unit
(** Run one task of [batch] inline, immediately, on the calling
    thread, in submission order — the sequential twin of {!submit}, so
    inline and pool runs share the batch bookkeeping (exception capture
    included). *)

val await : batch -> unit
(** Block until every task of the batch has completed, then return.  If
    any task raised, the first exception is re-raised here after the
    batch has drained — stragglers are never abandoned in the queue. *)

val stats : t -> stats

val shutdown : t -> unit
(** Stop and join every worker.  Idempotent.  Pending tasks of an
    in-flight batch are drained before workers exit (shutdown waits
    for the deques to empty, so no batch is left incomplete). *)
