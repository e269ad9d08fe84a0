(** An IronKV host (§4.2.1): owns the keys its delegation map assigns to
    it, serves Get/Set, forwards requests for keys it does not own, and
    handles range delegation.

    Duplicate requests are suppressed by a per-client at-most-once
    {e reply cache} [client -> (seq, key, reply)] — stronger than a bare
    tombstone table: a retransmission of the latest request re-sends the
    cached reply (idempotent resend, so client-side retry under message
    loss terminates), anything older is dropped.  The cache is shipped
    inside every [Delegate] message and merged (highest seq wins) by all
    receiving hosts, so at-most-once execution survives re-delegation —
    the hole IronFleet closes with sequenced inter-host channels.
    Host-to-host traffic (forwards, delegations) accordingly travels via
    {!Network.send_seq}.

    {b Durability} (PR 7): a host created with [?durable] logs every
    mutation (store writes, reply-cache entries, shard installs/drops,
    epoch bumps) into a {!Durable} record store and {e defers every
    outgoing send} — replies, forwards, delegation broadcasts — until the
    pending batch group-commits ({!sync}).  An acknowledgement therefore
    never outruns the record that justifies it: a crash can lose only
    unacknowledged work, and {!of_replay} rebuilds the host to the exact
    last committed group-commit boundary (at-most-once suppression and
    epoch monotonicity included — the storm tests pin both).

    [`Inplace] is the Verus-port style (fine-grained [&mut] mutation);
    [`Copying] emulates the IronFleet style the paper calls out, where the
    painfulness of reasoning about fine-grained mutation led to replacing
    entire data structures — every request handler rebuilds the reply
    cache and delegation map.  Both are functionally identical; Figure 10
    compares their throughput. *)

type style = [ `Inplace | `Copying ]

type t

val create : ?durable:Durable.t -> style:style -> id:int -> hosts:int -> unit -> t
(** Host ids are [0..hosts-1]; keyspace is initially owned by host 0.
    With [durable], mutations are logged and sends deferred (see above). *)

val handle : t -> Network.t -> bytes -> unit
(** Process one incoming message (parse, act, send replies/forwards).
    On a durable host, outgoing traffic is staged until {!sync}; the
    handler itself forces a group commit once the pending batch reaches
    the configured group size.  A {!is_dead} host ignores everything. *)

val sync : t -> Network.t -> [ `Ok of int | `Crashed ]
(** Group commit: flush the pending durable batch and, on success,
    release the deferred sends (returns how many).  [`Crashed] means the
    simulated power failed at the flush — the batch is lost, nothing was
    sent, and the host is {!is_dead} until the harness rebuilds it with
    {!of_replay}.  Volatile hosts always return [`Ok 0]. *)

val of_replay :
  style:style ->
  id:int ->
  hosts:int ->
  durable:Durable.t ->
  Durable.op list * Durable.route list ->
  t
(** Crash recovery: rebuild a host from the committed record prefix
    returned by {!Durable.recover} — data-plane records rebuild the
    store and reply cache, routing-plane records the delegation map and
    [max_epoch]. *)

val delegate : t -> Network.t -> lo:int -> hi:int -> dest:int -> unit
(** Initiate delegation of a key range this host owns.  Ships the range
    contents and the at-most-once reply cache to every peer over the
    sequenced channels (deferred behind the Drop_range/Grant_out records
    on a durable host).  Because channel delivery is not persistence —
    the destination can crash between receiving the Delegate and group-
    committing the Install, losing the shard — the grantor keeps the
    grant durably outstanding and retransmits it every few group commits
    until the destination's durable [Ack] arrives; the destination dedups
    retransmissions by (grantor, epoch) and re-acks. *)

val store_size : t -> int
val owns : t -> int -> bool

val max_epoch : t -> int
(** Highest delegation epoch seen (monotone; the storm harness checks it
    never regresses across crash/recovery cycles). *)

val is_dead : t -> bool
(** True once a commit flush hit a simulated power failure; the host
    processes nothing until recovered. *)

val durable : t -> Durable.t option

val dump : t -> (int * string) list
(** Contents of the local store (tests). *)

val cache_snapshot : t -> (int * (int * int * string option)) list
(** The at-most-once reply cache, [client -> (seq, key, reply)] (tests). *)
