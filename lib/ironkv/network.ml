(* In-memory network with deterministic fault injection.

   Messages are queue elements: [Raw] for ordinary datagrams, [Seq] for
   sequenced-channel traffic (per-(src,dst) monotone sequence numbers).
   The receive path deduplicates and releases sequenced payloads strictly
   in order, so duplication / reordering / delay injected on the wire are
   invisible above a sequenced channel — the IronFleet inter-host channel
   abstraction.  Sequenced sends are exempt from drop (the abstraction
   models a retransmitting transport); partitions park rather than drop,
   so they too preserve the channel guarantee. *)

type element = Raw of bytes | Seqm of { src : int; seq : int; payload : bytes }

type chan_recv = {
  mutable expected : int; (* next sequence number to release *)
  stash : (int, bytes) Hashtbl.t; (* out-of-order arrivals *)
}

type t = {
  queues : element Queue.t array;
  ready : bytes Queue.t array; (* sequenced payloads released in order *)
  delayed : (int * element) list ref array; (* per dst: (polls left, msg) *)
  faults : Vbase.Faultplan.t option;
  sequenced : bool;
  send_seqs : (int * int, int) Hashtbl.t; (* (src,dst) -> last seq sent *)
  recv_chans : (int * int, chan_recv) Hashtbl.t;
  mutable partitioned : int list; (* isolated endpoints ([] = none) *)
  parked : (int * element) Queue.t; (* (dst, msg) held across the cut *)
  mutable pending : int;
  mutable bytes_sent : int;
  mutable n_sent : int;
  mutable n_dropped : int;
  mutable n_dup : int;
  mutable n_reordered : int;
  mutable n_delayed : int;
  mutable n_parked : int;
  mutable n_dedup : int;
}

let create ?faults ?(sequenced = false) ~endpoints () =
  {
    queues = Array.init endpoints (fun _ -> Queue.create ());
    ready = Array.init endpoints (fun _ -> Queue.create ());
    delayed = Array.init endpoints (fun _ -> ref []);
    faults;
    sequenced;
    send_seqs = Hashtbl.create 16;
    recv_chans = Hashtbl.create 16;
    partitioned = [];
    parked = Queue.create ();
    pending = 0;
    bytes_sent = 0;
    n_sent = 0;
    n_dropped = 0;
    n_dup = 0;
    n_reordered = 0;
    n_delayed = 0;
    n_parked = 0;
    n_dedup = 0;
  }

let faults t = t.faults
let consult t site = match t.faults with Some p -> Vbase.Faultplan.fires p site | None -> false

let check_dst t dst =
  if dst < 0 || dst >= Array.length t.queues then invalid_arg "Network: bad endpoint"

let crossing t ~src ~dst =
  t.partitioned <> []
  &&
  let isolated e = List.mem e t.partitioned in
  (* An unknown sender is treated as outside the isolated set. *)
  (match src with Some s -> isolated s | None -> false) <> isolated dst

(* Enqueue one copy at [dst], applying reorder / delay / partition. *)
let deliver_one t ~src ~dst elt =
  t.pending <- t.pending + 1;
  if crossing t ~src ~dst then begin
    t.n_parked <- t.n_parked + 1;
    Queue.push (dst, elt) t.parked
  end
  else if consult t "net.delay" then begin
    let plan = Option.get t.faults in
    let polls = 1 + Vbase.Faultplan.draw plan "net.delay" 4 in
    t.n_delayed <- t.n_delayed + 1;
    let d = t.delayed.(dst) in
    d := !d @ [ (polls, elt) ]
  end
  else begin
    let q = t.queues.(dst) in
    if Queue.length q > 0 && consult t "net.reorder" then begin
      (* Swap with the current head: the newcomer overtakes one message. *)
      t.n_reordered <- t.n_reordered + 1;
      let head = Queue.pop q in
      Queue.push elt q;
      Queue.push head q
    end
    else Queue.push elt q
  end

let send_element t ~src ~dst ~droppable elt payload_len =
  check_dst t dst;
  t.n_sent <- t.n_sent + 1;
  t.bytes_sent <- t.bytes_sent + payload_len;
  if droppable && consult t "net.drop" then t.n_dropped <- t.n_dropped + 1
  else begin
    let copies =
      if consult t "net.dup" then begin
        t.n_dup <- t.n_dup + 1;
        2
      end
      else 1
    in
    for _ = 1 to copies do
      deliver_one t ~src ~dst elt
    done
  end

let send t ?src ~dst msg = send_element t ~src ~dst ~droppable:true (Raw msg) (Bytes.length msg)

let send_seq t ~src ~dst msg =
  if not t.sequenced then send t ~src ~dst msg
  else begin
    check_dst t dst;
    let last = Option.value ~default:0 (Hashtbl.find_opt t.send_seqs (src, dst)) in
    let seq = last + 1 in
    Hashtbl.replace t.send_seqs (src, dst) seq;
    (* Sequenced sends are never dropped: the channel abstraction models a
       retransmitting transport (IronFleet's sequenced inter-host
       channels); dup / reorder / delay still hit the wire and are masked
       by the receiver state below. *)
    send_element t ~src:(Some src) ~dst ~droppable:false
      (Seqm { src; seq; payload = msg })
      (Bytes.length msg)
  end

let chan t ~src ~dst =
  match Hashtbl.find_opt t.recv_chans (src, dst) with
  | Some c -> c
  | None ->
    let c = { expected = 1; stash = Hashtbl.create 8 } in
    Hashtbl.replace t.recv_chans (src, dst) c;
    c

(* Move the contiguous run now available in [c.stash] to the ready queue. *)
let release_stash t ~me c =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt c.stash c.expected with
    | Some payload ->
      Hashtbl.remove c.stash c.expected;
      c.expected <- c.expected + 1;
      Queue.push payload t.ready.(me)
    | None -> continue := false
  done

let age_delayed t ~me =
  let d = t.delayed.(me) in
  let due, still = List.partition (fun (polls, _) -> polls <= 1) !d in
  d := List.map (fun (polls, e) -> (polls - 1, e)) still;
  List.iter (fun (_, e) -> Queue.push e t.queues.(me)) due

let recv t ~me =
  check_dst t me;
  age_delayed t ~me;
  if not (Queue.is_empty t.ready.(me)) then begin
    t.pending <- t.pending - 1;
    Some (Queue.pop t.ready.(me))
  end
  else begin
    let rec next () =
      if Queue.is_empty t.queues.(me) then None
      else
        match Queue.pop t.queues.(me) with
        | Raw b ->
          t.pending <- t.pending - 1;
          Some b
        | Seqm { src; seq; payload } ->
          let c = chan t ~src ~dst:me in
          if seq < c.expected || Hashtbl.mem c.stash seq then begin
            (* Receiver-side dedup: already delivered or already buffered. *)
            t.pending <- t.pending - 1;
            t.n_dedup <- t.n_dedup + 1;
            next ()
          end
          else if seq = c.expected then begin
            c.expected <- c.expected + 1;
            release_stash t ~me c;
            t.pending <- t.pending - 1;
            Some payload
          end
          else begin
            (* Out of order: hold until the gap fills (still pending). *)
            Hashtbl.replace c.stash seq payload;
            next ()
          end
    in
    next ()
  end

let set_partition t eps =
  List.iter (fun e -> check_dst t e) eps;
  t.partitioned <- List.sort_uniq compare eps

let heal_partition t =
  t.partitioned <- [];
  (* Re-deliver without re-consulting faults: the cut was the fault.
     Parked messages stayed pending, so counters are already right. *)
  Queue.iter (fun (dst, elt) -> Queue.push elt t.queues.(dst)) t.parked;
  Queue.clear t.parked

let pending t = t.pending
let bytes_sent t = t.bytes_sent

let stats t =
  [
    ("sent", t.n_sent);
    ("dropped", t.n_dropped);
    ("duplicated", t.n_dup);
    ("reordered", t.n_reordered);
    ("delayed", t.n_delayed);
    ("parked", t.n_parked);
    ("dedup_suppressed", t.n_dedup);
  ]
