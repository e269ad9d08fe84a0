type style = [ `Inplace | `Copying ]

(* Outgoing traffic deferred until the pending durable batch commits:
   replies acknowledge state, forwards and delegations must stay ordered
   behind them on the sequenced channels. *)
type deferred = D_send of int * bytes | D_seq of int * bytes

type grant = {
  g_lo : int;
  g_hi : int;
  g_dest : int;
  g_epoch : int;
  g_kvs : (int * string) list;
  g_cache : (int * (int * int * string option)) list;
}

(* Retransmit outstanding (unacknowledged) grants every this many group
   commits.  Duplicates are cheap — the destination dedups by (src, epoch)
   and just re-acks — while a lost shard (destination crashed between
   channel delivery and group commit) is unrecoverable without them. *)
let retransmit_every = 4

type t = {
  style : style;
  id : int;
  hosts : int;
  mutable store : (int, string) Hashtbl.t;
  mutable dmap : Delegation_map.t;
  mutable cache : (int, int * int * string option) Hashtbl.t;
      (* at-most-once reply cache: client -> (highest seq executed, key,
         reply value).  Keeping the reply (not just the seq tombstone)
         makes retransmitted requests idempotent: the cached reply is
         re-sent instead of re-executing.  The cache rides along with
         every Delegate message, so it survives re-delegation. *)
  mutable max_epoch : int;
      (* highest delegation epoch seen; stale grants (epoch <= max_epoch,
         not addressed to us) are ignored so routing views only move
         forward along each range's delegation chain — the property that
         makes forwarding chains terminate under reordered broadcasts *)
  outstanding : (int, grant) Hashtbl.t;
      (* epoch -> grant this host issued whose destination has not yet
         durably acknowledged it.  "Delivered" on the sequenced channel is
         not "persisted": the destination may crash between receiving the
         Delegate and committing the Install, losing the shard forever
         unless the grantor keeps retransmitting.  Epochs are monotone per
         grantor, so our own epoch is a unique key here. *)
  applied_grants : (int * int, unit) Hashtbl.t;
      (* (grantor, epoch) pairs whose shard this host (as destination) has
         installed.  Exact-set, not a high-water mark: FIFO channels can
         deliver grant n+1 live after grant n was consumed by a dead
         process, so a high-water mark would wrongly dedup the unapplied
         retransmission of n. *)
  mutable ticks : int; (* group commits, drives grant retransmission *)
  durable : Durable.t option;
      (* when present, every mutation is logged and every outgoing send
         is deferred until the batch group-commits: nothing observable
         leaves the host before the state it reflects is on media *)
  mutable pending_out : deferred list; (* reversed *)
  mutable dead : bool;
      (* simulated power failure detected at a commit flush: the process
         is gone until the harness runs recovery *)
}

let create ?durable ~style ~id ~hosts () =
  {
    style;
    id;
    hosts;
    store = Hashtbl.create 1024;
    dmap = Delegation_map.create ~default_host:0;
    cache = Hashtbl.create 64;
    max_epoch = 0;
    outstanding = Hashtbl.create 8;
    applied_grants = Hashtbl.create 8;
    ticks = 0;
    durable;
    pending_out = [];
    dead = false;
  }

let owns t key = Delegation_map.get t.dmap key = t.id
let store_size t = Hashtbl.length t.store
let dump t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.store []
let cache_snapshot t = Hashtbl.fold (fun c e acc -> (c, e) :: acc) t.cache []
let max_epoch t = t.max_epoch
let is_dead t = t.dead
let durable t = t.durable

let log_op t o = match t.durable with Some d -> Durable.log_op d o | None -> ()
let log_route t r = match t.durable with Some d -> Durable.log_route d r | None -> ()

(* The IronFleet-style handler path: rebuild the mutable structures instead
   of updating them in place (the "replacing an entire data structure"
   pattern §4.2.1 describes). *)
let copy_structures t =
  let store' = Hashtbl.copy t.store in
  let cache' = Hashtbl.copy t.cache in
  let dmap' = Delegation_map.create ~default_host:0 in
  List.iter
    (fun (lo, h) -> Delegation_map.set_range dmap' ~lo ~hi:Delegation_map.max_key ~host:h)
    (Delegation_map.to_alist t.dmap);
  t.store <- store';
  t.cache <- cache';
  t.dmap <- dmap'

let post t net d =
  if t.durable <> None then t.pending_out <- d :: t.pending_out
  else
    match d with
    | D_send (dst, raw) -> Network.send net ~src:t.id ~dst raw
    | D_seq (dst, raw) -> Network.send_seq net ~src:t.id ~dst raw

let reply t net ~client ~seq ~key value =
  post t net (D_send (client, Message.to_bytes (Message.Reply { client; seq; key; value })))

(* At-most-once execution with reply retransmission: fresh requests run
   [execute] and cache the reply; a duplicate of the latest request
   re-sends the cached reply; anything older is dropped (the client has
   already moved on, so no reply can be expected for it).  [log] records
   a fresh execution into the durable batch; replies — including cached
   resends, whose entry may itself still be pending — are deferred until
   that batch commits, so an acknowledgement never outruns its record. *)
let answer t net ~client ~seq ~key execute log =
  match Hashtbl.find_opt t.cache client with
  | Some (s, _, _) when seq < s -> () (* stale duplicate: drop *)
  | Some (s, k, v) when seq = s -> reply t net ~client ~seq ~key:k v (* idempotent resend *)
  | _ ->
    let value = execute () in
    Hashtbl.replace t.cache client (seq, key, value);
    log value;
    reply t net ~client ~seq ~key value

(* Merge a shipped reply cache: higher sequence numbers win.  Every host
   merges (not just the delegation destination): a request can be
   forwarded through any stale host, so the suppression state must be
   monotone everywhere it might be consulted later. *)
let merge_cache t entries =
  List.iter
    (fun (client, ((seq, _, _) as entry)) ->
      match Hashtbl.find_opt t.cache client with
      | Some (s, _, _) when s >= seq -> ()
      | _ -> Hashtbl.replace t.cache client entry)
    entries

let forward t net ~dst raw = post t net (D_seq (dst, raw))

let delegate_msg t (g : grant) =
  Message.to_bytes
    (Message.Delegate
       {
         src = t.id;
         lo = g.g_lo;
         hi = g.g_hi;
         dest = g.g_dest;
         epoch = g.g_epoch;
         kvs = g.g_kvs;
         cache = g.g_cache;
       })

(* Group commit: flush the pending durable batch; only a successful
   commit releases the deferred sends (in order — per-channel ordering
   between forwards and delegations is what keeps routing sane).  A
   power failure at the flush kills the host instead: the batch and
   every acknowledgement riding on it are gone, which is precisely why
   no client saw them yet.  Every few commits the host also retransmits
   its outstanding grants — all of them already durable (Grant_out), so
   they ride out with this batch without new records. *)
let sync t net =
  if t.dead then `Crashed
  else
    match t.durable with
    | None -> `Ok 0
    | Some d -> (
      t.ticks <- t.ticks + 1;
      if t.ticks mod retransmit_every = 0 then
        Hashtbl.iter
          (fun _ g -> post t net (D_seq (g.g_dest, delegate_msg t g)))
          t.outstanding;
      match Durable.sync d with
      | Durable.Synced _ ->
        let outs = List.rev t.pending_out in
        t.pending_out <- [];
        List.iter
          (function
            | D_send (dst, raw) -> Network.send net ~src:t.id ~dst raw
            | D_seq (dst, raw) -> Network.send_seq net ~src:t.id ~dst raw)
          outs;
        `Ok (List.length outs)
      | Durable.Power_failed ->
        t.dead <- true;
        t.pending_out <- [];
        `Crashed
      | Durable.Failed e -> failwith ("Host.sync: " ^ e))

let maybe_sync t net =
  match t.durable with
  | Some d when (not t.dead) && Durable.pending d >= Durable.group d ->
    ignore (sync t net)
  | _ -> ()

let handle t net raw =
  if t.dead then () (* a powered-off host processes nothing *)
  else begin
    (match Message.of_bytes raw with
    | None -> () (* malformed: the verified parser rejects, we drop *)
    | Some msg -> (
      if t.style = `Copying then copy_structures t;
      match msg with
      | Message.Get { client; seq; key } ->
        if owns t key then
          answer t net ~client ~seq ~key
            (fun () -> Hashtbl.find_opt t.store key)
            (fun value -> log_op t (Durable.Cache_op { client; seq; key; value }))
        else forward t net ~dst:(Delegation_map.get t.dmap key) raw
      | Message.Set { client; seq; key; value } ->
        if owns t key then
          answer t net ~client ~seq ~key
            (fun () ->
              Hashtbl.replace t.store key value;
              Some value)
            (fun _ -> log_op t (Durable.Set_op { client; seq; key; value }))
        else forward t net ~dst:(Delegation_map.get t.dmap key) raw
      | Message.Delegate { src; lo; hi; dest; epoch; kvs; cache } ->
        (* Everyone merges the shipped reply cache (monotone, always
           safe).  The destination installs the shipped shard exactly
           once per (grantor, epoch) — retransmissions are deduped by
           the durable applied-grant set — and (re-)acknowledges to the
           grantor; the Ack is a deferred send, so it leaves only after
           the Install record is on media.  Non-destinations treat the
           grant as a routing hint under the monotone-epoch rule. *)
        merge_cache t cache;
        if cache <> [] then log_op t (Durable.Cache_merge { cache });
        if dest = t.id then begin
          if not (Hashtbl.mem t.applied_grants (src, epoch)) then begin
            Hashtbl.replace t.applied_grants (src, epoch) ();
            Delegation_map.set_range t.dmap ~lo ~hi ~host:dest;
            List.iter (fun (k, v) -> Hashtbl.replace t.store k v) kvs;
            t.max_epoch <- max t.max_epoch epoch;
            log_op t (Durable.Install { src; epoch; kvs });
            log_route t
              { Durable.r_lo = lo; r_hi = hi; r_dest = dest; r_epoch = epoch; r_applied = true }
          end;
          post t net (D_seq (src, Message.to_bytes (Message.Ack { src = t.id; epoch })))
        end
        else begin
          let applied = epoch > t.max_epoch in
          if applied then Delegation_map.set_range t.dmap ~lo ~hi ~host:dest;
          t.max_epoch <- max t.max_epoch epoch;
          log_route t
            { Durable.r_lo = lo; r_hi = hi; r_dest = dest; r_epoch = epoch; r_applied = applied }
        end
      | Message.Ack { epoch; _ } ->
        if Hashtbl.mem t.outstanding epoch then begin
          Hashtbl.remove t.outstanding epoch;
          log_op t (Durable.Grant_done { epoch })
        end
      | Message.Reply _ -> () (* hosts do not receive client replies *)));
    maybe_sync t net
  end

let delegate t net ~lo ~hi ~dest =
  if t.dead then invalid_arg "Host.delegate: host is crashed";
  if not (owns t lo) then invalid_arg "Host.delegate: does not own range start";
  (* Only the contiguously-owned prefix of [lo, hi) may be delegated —
     keys governed by other hosts cannot be remapped without their data
     (the differential test caught exactly this). *)
  let hi =
    List.fold_left
      (fun hi (pk, ph) -> if pk > lo && pk < hi && ph <> t.id then pk else hi)
      hi
      (Delegation_map.to_alist t.dmap)
  in
  if lo < hi && dest <> t.id then begin
    let kvs =
      Hashtbl.fold (fun k v acc -> if k >= lo && k < hi then (k, v) :: acc else acc) t.store []
    in
    List.iter (fun (k, _) -> Hashtbl.remove t.store k) kvs;
    Delegation_map.set_range t.dmap ~lo ~hi ~host:dest;
    let epoch = t.max_epoch + 1 in
    t.max_epoch <- epoch;
    let cache = cache_snapshot t in
    let g = { g_lo = lo; g_hi = hi; g_dest = dest; g_epoch = epoch; g_kvs = kvs; g_cache = cache } in
    Hashtbl.replace t.outstanding epoch g;
    log_op t (Durable.Drop_range { lo; hi });
    log_op t (Durable.Grant_out { lo; hi; dest; epoch; kvs; cache });
    log_route t
      { Durable.r_lo = lo; r_hi = hi; r_dest = dest; r_epoch = epoch; r_applied = true };
    (* Tell every other host (including dest, which installs the data).
       Delegate messages travel over the sequenced inter-host channels:
       a dropped / duplicated / reordered Delegate would lose or resurrect
       shard data, which the channel abstraction rules out.  On a durable
       host the broadcast is deferred behind the Drop_range/Grant_out
       records: peers may only learn of a grant the grantor is guaranteed
       to remember across a crash — and the grantor keeps retransmitting
       to dest until the shard is durably acknowledged. *)
    let raw = delegate_msg t g in
    for peer = 0 to t.hosts - 1 do
      if peer <> t.id then post t net (D_seq (peer, raw))
    done
  end

(* --- recovery --------------------------------------------------------- *)

(* Rebuild a host from the committed record prefix: fold the data-plane
   records over an empty store/cache, then the routing-plane records over
   an empty delegation view.  The planes are independent by construction
   (no op record consults the delegation map), so replaying them
   per-plane in log order reproduces the exact pre-crash committed state;
   the atomic multi-append guarantees the two prefixes are from the same
   group-commit boundary. *)
let apply_op t (o : Durable.op) =
  match o with
  | Durable.Set_op { client; seq; key; value } ->
    Hashtbl.replace t.store key value;
    Hashtbl.replace t.cache client (seq, key, Some value)
  | Durable.Cache_op { client; seq; key; value } ->
    Hashtbl.replace t.cache client (seq, key, value)
  | Durable.Cache_merge { cache } -> merge_cache t cache
  | Durable.Install { src; epoch; kvs } ->
    Hashtbl.replace t.applied_grants (src, epoch) ();
    List.iter (fun (k, v) -> Hashtbl.replace t.store k v) kvs
  | Durable.Drop_range { lo; hi } ->
    let doomed =
      Hashtbl.fold (fun k _ acc -> if k >= lo && k < hi then k :: acc else acc) t.store []
    in
    List.iter (Hashtbl.remove t.store) doomed
  | Durable.Grant_out { lo; hi; dest; epoch; kvs; cache } ->
    Hashtbl.replace t.outstanding epoch
      { g_lo = lo; g_hi = hi; g_dest = dest; g_epoch = epoch; g_kvs = kvs; g_cache = cache }
  | Durable.Grant_done { epoch } -> Hashtbl.remove t.outstanding epoch

let apply_route t (r : Durable.route) =
  if r.Durable.r_applied then
    Delegation_map.set_range t.dmap ~lo:r.Durable.r_lo ~hi:r.Durable.r_hi
      ~host:r.Durable.r_dest;
  t.max_epoch <- max t.max_epoch r.Durable.r_epoch

let of_replay ~style ~id ~hosts ~durable (ops, routes) =
  let t = create ~durable ~style ~id ~hosts () in
  List.iter (apply_op t) ops;
  List.iter (apply_route t) routes;
  t
