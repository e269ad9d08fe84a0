(** In-memory network for the IronKV cluster: one byte-level mailbox per
    endpoint.  Deterministic FIFO by default; an attached
    {!Vbase.Faultplan} arms the adversarial behaviours the IronFleet
    protocol proofs assume — message drop, duplication, reordering and
    delay — plus an explicit partition knob, all replayable from the
    plan seed.

    Fault sites consulted per {!send} (probabilities / explicit steps
    are configured on the plan by the caller):
    - ["net.drop"]    — the message is lost (never for sequenced sends);
    - ["net.dup"]     — the message is delivered twice;
    - ["net.reorder"] — the message overtakes the current queue head;
    - ["net.delay"]   — delivery is held for [1 + draw "net.delay" 4]
                        receive polls on the destination mailbox.

    {b Sequenced channels} ({!send_seq}): per-(src, dst) monotone
    sequence numbers with receiver-side dedup and in-order release —
    the IronFleet inter-host channel abstraction.  A sequenced send is
    exempt from ["net.drop"] (the abstraction models a retransmitting
    transport, TCP-style: eventual delivery is guaranteed), while
    duplication, reordering and delay still apply and are masked by the
    receiver's dedup/reassembly state.  On an unsequenced network
    ([sequenced:false], the default), {!send_seq} degrades to {!send}.

    {b Partitions}: {!set_partition} isolates a set of endpoints;
    messages crossing the cut are parked, not dropped, and delivered
    once {!heal_partition} is called (a partition is indistinguishable
    from a long delay, so sequenced-channel guarantees survive it). *)

type t

val create : ?faults:Vbase.Faultplan.t -> ?sequenced:bool -> endpoints:int -> unit -> t
(** [endpoints] mailboxes.  [faults] attaches a fault plan consulted as
    documented above; [sequenced] enables the sequenced-channel layer for
    {!send_seq} traffic. *)

val faults : t -> Vbase.Faultplan.t option

val send : t -> ?src:int -> dst:int -> bytes -> unit
(** Enqueue a marshalled message for endpoint [dst].  [src] (the sending
    endpoint) is only required for partition accounting; an unknown
    sender is treated as outside any partitioned set. *)

val send_seq : t -> src:int -> dst:int -> bytes -> unit
(** Send over the (src, dst) sequenced channel: tagged with the next
    per-pair sequence number; the receiver deduplicates and releases
    strictly in order.  Never dropped (see above). *)

val recv : t -> me:int -> bytes option
(** Dequeue the next deliverable message for [me], if any.  Each call
    also ages [me]'s delayed messages by one poll. *)

val set_partition : t -> int list -> unit
(** Isolate the given endpoints: messages between the set and its
    complement are parked until {!heal_partition}. *)

val heal_partition : t -> unit
(** Lift the partition and enqueue every parked message. *)

val pending : t -> int
(** Total undelivered messages (queued, delayed, parked, or held for
    in-order release). *)

val bytes_sent : t -> int
(** Cumulative payload bytes through the network (the throughput benches
    report it). *)

val stats : t -> (string * int) list
(** Fault-injection counters: sent / dropped / duplicated / reordered /
    delayed / parked / dedup-suppressed messages (for the bench report). *)
