(** Cluster driver, client workload generator, and crash+partition storm
    harness: N hosts sharding the keyspace, closed-loop clients issuing
    Get/Set with configurable payload size, all messages marshalled
    through the in-memory network.

    Clients are hardened against an adversarial network: every request is
    retransmitted (same sequence number) on a timeout measured in drain
    rounds — the simulator's clock — with exponential backoff, and stale
    duplicate replies are filtered by sequence number.  Paired with the
    hosts' at-most-once reply cache this yields exactly-once execution
    under message loss, duplication, reordering, delay {e and} concurrent
    re-delegation (the [fig10-faults] bench section and the fault-mix
    tests exercise every combination).

    {b Storms}: with [durability] set, each host runs over its own
    simulated PMEM device ({!Durable}); the storm sites of the caller's
    fault plan (see {!section-faults}) crash hosts mid-operation, tear
    commit flushes, and partition victims for a drawn number of rounds —
    all while the client workload keeps running.  Every crash is
    immediately followed by recovery (replay of the committed log
    prefix), with recovery time, replayed records and epoch monotonicity
    accounted.  The crosscheck's closing {e readback sweep} then re-reads
    every acknowledged write: a miss is an acknowledged write lost to a
    crash, the invariant this harness exists to refute. *)

type dist = [ `Uniform | `Zipf of float ]
(** Key-pick distribution for the client loop.  [`Zipf s] draws ranks
    from a seeded inverse-CDF {!Vbase.Rng.zipf} sampler and scrambles
    them across the key-order shards (million-key skewed mode). *)

type durability = {
  du_group : int;  (** group-commit threshold (records per flush) *)
  du_mem_bytes : int;  (** per-host simulated PMEM device size *)
}

type result = {
  ops_done : int;
  elapsed_s : float;
  kops_per_s : float;
  net_bytes : int;
  retransmissions : int;  (** client-side retries (0 on a clean network) *)
  net_stats : (string * int) list;  (** {!Network.stats} counters *)
  lat_p50_ms : float;  (** per-request latency percentiles (wall clock) *)
  lat_p99_ms : float;
  crashes : int;  (** storm crashes, explicit + torn-flush power failures *)
  recoveries : int;  (** successful log replays (= crashes when all recover) *)
  recovery_s : float;  (** total wall-clock spent in {!Durable.recover}+replay *)
  replayed : int;  (** records replayed across all recoveries *)
  commits : int;  (** group commits across hosts (durable runs) *)
}

type storm_report = {
  sr_ops : int;  (** client operations acknowledged *)
  sr_crashes : int;  (** ["host.crash"] strikes *)
  sr_torn : int;  (** power failures at a commit flush (["pmem.torn"]) *)
  sr_partitions : int;  (** partitions opened (["net.partition"]) *)
  sr_recoveries : int;
  sr_recovery_s : float;
  sr_replayed : int;
  sr_readback : int;  (** acknowledged writes re-verified by the final sweep *)
  sr_retransmissions : int;
}

exception Client_timeout of string
(** Raised when a request stays unanswered through every retransmission
    (the backoff schedule gives up after ~14 attempts). *)

val crash_site : string
(** ["host.crash"] — consulted once per poll round while a storm is on;
    on fire, a drawn host is crashed (volatile state dropped) and
    immediately recovered by replay. *)

val partition_site : string
(** ["net.partition"] — on fire, a drawn host is partitioned from the
    rest of the cluster for [2 + draw 30] poll rounds. *)

(** {2:faults Faults}

    Every adversarial behaviour is a site of the caller's
    {!Vbase.Faultplan.t}, passed as [faults] (default: a fresh plan with
    nothing armed):

    - network: ["net.drop"], ["net.dup"], ["net.reorder"], ["net.delay"]
      (see {!Network});
    - storm: {!crash_site}, {!partition_site} and ["pmem.torn"] (a commit
      flush tears and its host loses power);
    - recovery: {!Durable.crash_during_recovery_site}.

    The storm runs while {!crash_site} or {!partition_site} is armed
    ({!Vbase.Faultplan.prob} above 0); crashes and torn flushes need
    [durability].  The storm sites are held at 0% while the cluster is
    set up (devices formatted, keyspace delegated) and get the caller's
    rates back before the first client request; the network sites are
    live from the start.  When the workload ends, the storm sites are
    disarmed on the plan and any partition heals.

    The whole run is deterministic: same seeds and same plan ⇒ same
    messages, same injected faults ({!Vbase.Faultplan.trace}), same
    result. *)

val run :
  ?hosts:int ->
  ?clients:int ->
  ?keys:int ->
  ?payload:int ->
  ?ops:int ->
  ?get_ratio:float ->
  ?faults:Vbase.Faultplan.t ->
  ?durability:durability ->
  ?dist:dist ->
  style:Host.style ->
  unit ->
  result
(** Closed-loop throughput run.  Defaults: 3 hosts, 10 clients, 10_000
    keys, 128-byte payloads, 20_000 operations, 50% gets, no faults,
    volatile hosts, uniform keys.  The keyspace is pre-sharded evenly
    across hosts by delegation; [durability] makes hosts durable (group
    commit over simulated PMEM). *)

val crosscheck :
  ?ops:int ->
  ?seed:int ->
  ?dup_pct:int ->
  ?faults:Vbase.Faultplan.t ->
  ?durability:durability ->
  unit ->
  storm_report * (unit, string) Stdlib.result
(** Differential test: runs a randomized workload (drawn from [seed])
    against the cluster and against a flat reference map; [Error]
    describes the first divergence.  Exercises forwarding, delegation and
    at-most-once delivery under the armed faults, plus two client-side
    behaviours drawn from the workload's own seed:

    - [dup_pct] resends that percentage of client requests (unchanged
      sequence number — a flaky client channel);
    - on ~1% of operations a random range is re-delegated away from its
      current owner, {e concurrently} with in-flight and duplicated
      requests: the migrating reply cache plus sequenced inter-host
      channels must keep execution exactly once.

    After the storm ends, a readback sweep re-reads {e every}
    acknowledged write: [Error "... acknowledged write lost"] if
    recovery dropped one.  The report carries the storm accounting
    (crash/torn/partition/recovery counts, replayed records, readback
    size). *)

val recovery_probe : ?records:int -> ?payload:int -> ?group:int -> unit -> float * int
(** Isolated recovery-time measurement: append [records] Set records
    (default 20_000 × 64-byte payloads, group commit 64), crash, and time
    {!Durable.recover}.  Returns (seconds, records replayed). *)
