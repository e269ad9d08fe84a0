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

    {b Storms} (PR 7): with [durability] set, each host runs over its own
    simulated PMEM device ({!Durable}); the [crash_pct]/[partition_pct]/
    [torn_pct] knobs arm per-poll-round fault sites (["host.crash"],
    ["net.partition"], ["pmem.torn"]) that crash hosts mid-operation,
    tear commit flushes, and partition victims for a drawn number of
    rounds — all while the client workload keeps running.  Every crash is
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

val default_durability : durability
(** group 4, 8 MiB devices. *)

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

val run :
  ?hosts:int ->
  ?clients:int ->
  ?keys:int ->
  ?payload:int ->
  ?ops:int ->
  ?get_ratio:float ->
  ?seed:int ->
  ?drop_pct:int ->
  ?net_dup_pct:int ->
  ?reorder_pct:int ->
  ?delay_pct:int ->
  ?fault_seed:int ->
  ?durability:durability ->
  ?dist:dist ->
  ?crash_pct:int ->
  ?partition_pct:int ->
  ?torn_pct:int ->
  style:Host.style ->
  unit ->
  result
(** Defaults: 3 hosts, 10 clients, 10_000 keys, 128-byte payloads, 20_000
    operations, 50% gets, no faults, volatile hosts, uniform keys.  The
    keyspace is pre-sharded evenly across hosts by delegation.  The
    [*_pct] knobs arm the corresponding network fault sites on a fresh
    fault plan seeded with [fault_seed] (see {!Network}); [durability]
    makes hosts durable (group commit over simulated PMEM); [crash_pct]/
    [partition_pct]/[torn_pct] arm the storm sites (see above). *)

val crosscheck :
  ?ops:int ->
  ?seed:int ->
  ?dup_pct:int ->
  ?drop_pct:int ->
  ?net_dup_pct:int ->
  ?reorder_pct:int ->
  ?delay_pct:int ->
  ?redelegate:bool ->
  ?fault_seed:int ->
  ?faults:Vbase.Faultplan.t ->
  ?durability:durability ->
  ?dist:dist ->
  ?crash_pct:int ->
  ?partition_pct:int ->
  ?torn_pct:int ->
  ?readback:bool ->
  unit ->
  (unit, string) Stdlib.result
(** Differential test: runs the same randomized workload against the
    cluster and against a flat reference map; [Error] describes the first
    divergence.  Exercises forwarding, delegation and at-most-once
    delivery under the armed fault mix:

    - [dup_pct] resends that percentage of client requests (unchanged
      sequence number — a flaky client channel);
    - [drop_pct]/[net_dup_pct]/[reorder_pct]/[delay_pct] arm the network
      fault sites (["net.drop"], ["net.dup"], ...) on a plan seeded with
      [fault_seed] — or pass an externally configured plan via [faults]
      (e.g. to inspect its {!Vbase.Faultplan.trace} afterwards);
    - [redelegate] (default on) re-delegates a random range from its
      current owner on ~1% of operations, {e concurrently} with in-flight
      and duplicated requests: the migrating reply cache plus sequenced
      inter-host channels must keep execution exactly once;
    - [durability] + [crash_pct]/[partition_pct]/[torn_pct] run the whole
      thing as a crash+partition storm over durable hosts, and [readback]
      (default on) closes with a sweep re-reading {e every} acknowledged
      write after the storm ends — [Error "... acknowledged write lost"]
      if recovery dropped one.

    The whole run is deterministic: same [seed]/[fault_seed] ⇒ same
    messages, same injected faults, same verdict. *)

val crosscheck_report :
  ?ops:int ->
  ?seed:int ->
  ?dup_pct:int ->
  ?drop_pct:int ->
  ?net_dup_pct:int ->
  ?reorder_pct:int ->
  ?delay_pct:int ->
  ?redelegate:bool ->
  ?fault_seed:int ->
  ?faults:Vbase.Faultplan.t ->
  ?durability:durability ->
  ?dist:dist ->
  ?crash_pct:int ->
  ?partition_pct:int ->
  ?torn_pct:int ->
  ?readback:bool ->
  unit ->
  storm_report * (unit, string) Stdlib.result
(** {!crosscheck} plus the storm accounting (crash/torn/partition/
    recovery counts, replayed records, readback size) — what the storm
    tests assert on and [smoke.exe kv] prints. *)

val recovery_probe : ?records:int -> ?payload:int -> ?group:int -> unit -> float * int
(** Isolated recovery-time measurement: append [records] Set records
    (default 20_000 × 64-byte payloads, group commit 64), crash, and time
    {!Durable.recover}.  Returns (seconds, records replayed). *)

val kv_bench_schema : string
(** ["verus-kv-bench/1"]. *)

val kv_bench_row : name:string -> acked_write_loss:int -> result -> Vbase.Json.t
(** One BENCH_kv.json row from a {!run} result.  [acked_write_loss] is 0
    iff the paired storm crosscheck's readback sweep found every
    acknowledged write (the bench section asserts it). *)

val kv_bench_doc : Vbase.Json.t list -> Vbase.Json.t
(** Wrap rows into the schema-tagged document {!validate_kv_bench}
    accepts. *)

val validate_kv_bench : Vbase.Json.t -> (unit, string) Stdlib.result
(** Validate a BENCH_kv.json document: [schema] must be
    {!kv_bench_schema} and every row must carry a [name] plus
    non-negative numeric [kops_per_s], [lat_p50_ms], [lat_p99_ms],
    [crashes], [recoveries], [recovery_s] and [acked_write_loss]. *)
