(** Simulated byte-addressable persistent memory (the Optane device of
    §4.2.5).

    Writes land in a volatile view; {!flush} persists a range.  {!crash}
    discards everything unflushed — the adversary the log's recovery code
    must survive.  {!flip_bit} injects the media corruption that the CRC
    protection must detect. *)

type t

val create : ?faults:Vbase.Faultplan.t -> size:int -> unit -> t
(** [faults] arms the ["pmem.torn"] fault site: when it fires on a
    {!flush}, only a plan-drawn prefix of the flushed range reaches media
    (a torn / partial-line write) and power fails — every later flush is
    dropped until {!crash}.  Deterministic: the same plan seed tears the
    same flush at the same byte. *)

val size : t -> int

val write : t -> addr:int -> string -> unit
val read : t -> addr:int -> len:int -> string

val flush : t -> addr:int -> len:int -> unit
(** Persist the byte range (clwb+fence granularity is the whole range). *)

val crash : t -> unit
(** Revert the volatile view to the last persisted state (and lift any
    pending {!set_flush_budget}: the machine has rebooted). *)

val set_flush_budget : t -> int -> unit
(** Fault injection: only the next [n] flushes persist; later ones are
    silently dropped, as if power failed before their fence.  A subsequent
    {!crash} then reveals whatever prefix of the write sequence made it —
    the adversary for atomic-commit protocols. *)

val power_failed : t -> bool
(** [true] once the simulated power has failed — a torn write fired or a
    flush budget ran out — so no further flush can land.  Durable layers
    consult this after their commit flush: an append that "succeeded"
    after this point never reached media, and the host must treat itself
    as crashed rather than acknowledge it (the storm harness then calls
    {!crash} and runs recovery). *)

val flip_bit : t -> addr:int -> bit:int -> unit
(** Corrupt one persisted bit (and the volatile view with it). *)

val flushes : t -> int
val bytes_written : t -> int
