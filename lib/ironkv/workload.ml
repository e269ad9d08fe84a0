type dist = [ `Uniform | `Zipf of float ]

type durability = {
  du_group : int; (* group-commit threshold (records per flush) *)
  du_mem_bytes : int; (* per-host simulated PMEM device size *)
}

type result = {
  ops_done : int;
  elapsed_s : float;
  kops_per_s : float;
  net_bytes : int;
  retransmissions : int;
  net_stats : (string * int) list;
  lat_p50_ms : float;
  lat_p99_ms : float;
  crashes : int;
  recoveries : int;
  recovery_s : float;
  replayed : int;
  commits : int;
}

type storm_report = {
  sr_ops : int;
  sr_crashes : int;
  sr_torn : int;
  sr_partitions : int;
  sr_recoveries : int;
  sr_recovery_s : float;
  sr_replayed : int;
  sr_readback : int;
  sr_retransmissions : int;
}

exception Client_timeout of string

let crash_site = "host.crash"
let partition_site = "net.partition"

(* The sites a storm arms on the caller's plan; [setup] holds them at 0%
   while the cluster forms. *)
let storm_sites = [ crash_site; partition_site; "pmem.torn" ]

(* --- cluster ----------------------------------------------------------- *)

(* A node is a host plus (when durable) its simulated PMEM device.  The
   host object is replaced wholesale on crash recovery — everything not
   rebuilt from the device's committed log prefix is gone, which is the
   point. *)
type node = {
  n_id : int;
  mutable n_host : Host.t;
  n_mem : Plog.Pmem.t option;
  n_group : int;
  mutable n_recoveries : int;
  mutable n_last_epoch : int;
      (* max_epoch observed at the last recovery: recovery must never
         regress it (monotone epochs are durable state) *)
}

type cluster = {
  c_net : Network.t;
  c_style : Host.style;
  c_plan : Vbase.Faultplan.t;
  c_nodes : node array;
  mutable c_storm : bool; (* are the crash/partition sites live? *)
  mutable c_partition_left : int; (* polls until the current partition heals *)
  mutable c_crashes : int;
  mutable c_torn : int;
  mutable c_partitions : int;
  mutable c_recoveries : int;
  mutable c_recovery_s : float;
  mutable c_replayed : int;
  mutable c_commits : int; (* group commits by hosts since retired *)
}

let mk_alloc () = Valloc.Alloc.create ~checked:true (Valloc.Os_mem.create ())

(* Crash + recover one node: drop the volatile PMEM view, re-attach to
   the committed prefix, and rebuild the host by replay.  Wall-clock and
   replayed-record accounting feed the bench recovery table; the epoch
   pin turns any monotonicity regression into a hard failure. *)
let crash_node cl node =
  match node.n_mem with
  | None -> () (* volatile hosts have no crash story in this harness *)
  | Some mem ->
    (match Host.durable node.n_host with
    | Some d -> cl.c_commits <- cl.c_commits + Durable.syncs d
    | None -> ());
    let t0 = Unix.gettimeofday () in
    Plog.Pmem.crash mem;
    match Durable.recover ~group:node.n_group ~alloc:(mk_alloc ()) ~faults:cl.c_plan mem with
    | Error e -> failwith (Printf.sprintf "host %d: recovery failed: %s" node.n_id e)
    | Ok (d, ops, routes) ->
      let host =
        Host.of_replay ~style:cl.c_style ~id:node.n_id ~hosts:(Array.length cl.c_nodes)
          ~durable:d (ops, routes)
      in
      let epoch = Host.max_epoch host in
      if epoch < node.n_last_epoch then
        failwith
          (Printf.sprintf "host %d: delegation epoch regressed across recovery (%d < %d)"
             node.n_id epoch node.n_last_epoch);
      node.n_last_epoch <- epoch;
      node.n_host <- host;
      node.n_recoveries <- node.n_recoveries + 1;
      cl.c_recoveries <- cl.c_recoveries + 1;
      cl.c_replayed <- cl.c_replayed + List.length ops + List.length routes;
      cl.c_recovery_s <- cl.c_recovery_s +. (Unix.gettimeofday () -. t0)

(* Deliver every pending host-bound message (hosts may generate more
   traffic while handling, e.g. forwards), then group-commit each host so
   its deferred sends go out.  A commit that hits a simulated power
   failure turns into a crash + recovery on the spot.  Messages under an
   injected delay stay queued; each sweep ages them by one poll, so
   repeated drains (the client retry loop) eventually deliver
   everything. *)
let drain cl =
  let net = cl.c_net in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun node ->
        let more = ref true in
        while !more do
          match Network.recv net ~me:node.n_id with
          | Some raw ->
            Host.handle node.n_host net raw;
            progress := true
          | None -> more := false
        done;
        match Host.sync node.n_host net with
        | `Ok n -> if n > 0 then progress := true
        | `Crashed ->
          cl.c_torn <- cl.c_torn + 1;
          crash_node cl node;
          progress := true)
      cl.c_nodes
  done

(* One storm step, consulted once per client poll round (the simulator's
   clock): manage the current partition's countdown, maybe open a new
   one around a drawn victim host, maybe crash a drawn host outright. *)
let storm_tick cl =
  if cl.c_storm then begin
    let nhosts = Array.length cl.c_nodes in
    if cl.c_partition_left > 0 then begin
      cl.c_partition_left <- cl.c_partition_left - 1;
      if cl.c_partition_left = 0 then Network.heal_partition cl.c_net
    end
    else if Vbase.Faultplan.fires cl.c_plan partition_site then begin
      let victim = Vbase.Faultplan.draw cl.c_plan partition_site nhosts in
      Network.set_partition cl.c_net [ victim ];
      cl.c_partition_left <- 2 + Vbase.Faultplan.draw cl.c_plan partition_site 30;
      cl.c_partitions <- cl.c_partitions + 1
    end;
    if Vbase.Faultplan.fires cl.c_plan crash_site then begin
      let victim = Vbase.Faultplan.draw cl.c_plan crash_site nhosts in
      let node = cl.c_nodes.(victim) in
      if node.n_mem <> None then begin
        cl.c_crashes <- cl.c_crashes + 1;
        crash_node cl node
      end
    end
  end

let end_storm cl =
  cl.c_storm <- false;
  List.iter (fun site -> Vbase.Faultplan.set_prob cl.c_plan site ~pct:0) storm_sites;
  if cl.c_partition_left > 0 then begin
    Network.heal_partition cl.c_net;
    cl.c_partition_left <- 0
  end;
  drain cl

(* Pull the reply for [seq] out of [me]'s mailbox, discarding stale
   duplicate replies (retransmissions make the host re-send cached
   replies; the client has already consumed one copy and moved on). *)
let rec recv_reply net ~me ~seq =
  match Network.recv net ~me with
  | None -> None
  | Some raw -> (
    match Message.of_bytes raw with
    | Some (Message.Reply { seq = s; key; value; _ }) when s = seq -> Some (key, value)
    | _ -> recv_reply net ~me ~seq (* stale / unexpected: drop, keep looking *))

(* One closed-loop client request with retransmission: send, poll with a
   timeout (measured in drain rounds, the simulator's clock), and on
   expiry retransmit the same request — same sequence number — doubling
   the timeout each attempt (exponential backoff, capped).  The host's
   at-most-once reply cache absorbs the duplicates and re-sends the
   cached reply, so retry under loss terminates without re-execution.
   Each poll round also advances the storm: crashes and partitions strike
   while the request is in flight. *)
let request_reply ?(retransmit_counter = ref 0) cl ~client ~dst ~seq msg =
  let net = cl.c_net in
  let raw = Message.to_bytes msg in
  Network.send net ~src:client ~dst raw;
  let max_attempts = 14 in
  let rec poll k =
    storm_tick cl;
    drain cl;
    match recv_reply net ~me:client ~seq with
    | Some r -> Some r
    | None -> if k > 1 then poll (k - 1) else None
  in
  let rec attempt n ~timeout =
    match poll timeout with
    | Some r -> r
    | None ->
      if n >= max_attempts then
        raise
          (Client_timeout
             (Printf.sprintf "client %d: no reply for seq %d after %d retransmissions" client seq
                n))
      else begin
        incr retransmit_counter;
        Network.send net ~src:client ~dst raw;
        attempt (n + 1) ~timeout:(min 64 (timeout * 2))
      end
  in
  attempt 0 ~timeout:2

(* Build the cluster over the caller's plan and shard the keyspace.  The
   storm sites are held at 0% until the shards are delegated, then get
   the caller's rates back: the storm strikes a formed cluster, and a
   torn flush cannot hit a device's format record. *)
let setup ?durability ~style ~hosts:nhosts ~clients:nclients ~keys ~faults () =
  let armed = List.map (fun site -> (site, Vbase.Faultplan.prob faults site)) storm_sites in
  List.iter (fun site -> Vbase.Faultplan.set_prob faults site ~pct:0) storm_sites;
  let net = Network.create ~endpoints:(nhosts + nclients) ~faults ~sequenced:true () in
  let mk_node id =
    match durability with
    | None ->
      {
        n_id = id;
        n_host = Host.create ~style ~id ~hosts:nhosts ();
        n_mem = None;
        n_group = 0;
        n_recoveries = 0;
        n_last_epoch = 0;
      }
    | Some { du_group; du_mem_bytes } -> (
      let mem = Plog.Pmem.create ~faults ~size:du_mem_bytes () in
      Durable.format mem;
      match Durable.attach ~group:du_group ~alloc:(mk_alloc ()) mem with
      | Error e -> failwith ("Workload.setup: " ^ e)
      | Ok d ->
        {
          n_id = id;
          n_host = Host.create ~durable:d ~style ~id ~hosts:nhosts ();
          n_mem = Some mem;
          n_group = du_group;
          n_recoveries = 0;
          n_last_epoch = 0;
        })
  in
  let cl =
    {
      c_net = net;
      c_style = style;
      c_plan = faults;
      c_nodes = Array.init nhosts mk_node;
      c_storm = false;
      c_partition_left = 0;
      c_crashes = 0;
      c_torn = 0;
      c_partitions = 0;
      c_recoveries = 0;
      c_recovery_s = 0.0;
      c_replayed = 0;
      c_commits = 0;
    }
  in
  (* Shard the keyspace evenly by delegation from host 0. *)
  let per = keys / nhosts in
  for h = 1 to nhosts - 1 do
    let lo = h * per in
    let hi = if h = nhosts - 1 then Delegation_map.max_key else (h + 1) * per in
    Host.delegate cl.c_nodes.(0).n_host net ~lo ~hi ~dest:h
  done;
  drain cl;
  List.iter (fun (site, pct) -> Vbase.Faultplan.set_prob faults site ~pct) armed;
  cl.c_storm <- List.assoc crash_site armed > 0 || List.assoc partition_site armed > 0;
  cl

(* Key distributions.  Zipf ranks are scrambled by a fixed odd multiplier
   so the hot keys scatter across the key-order shards instead of all
   landing on host 0 (the multiplier is coprime to power-of-ten and
   power-of-two key counts, making the scramble a bijection there). *)
let key_picker rng ~keys dist =
  match dist with
  | `Uniform -> fun () -> Vbase.Rng.int rng keys
  | `Zipf s ->
    let z = Vbase.Rng.zipf ~s ~n:keys in
    fun () -> Vbase.Rng.zipf_draw rng z * 2654435761 mod keys

let total_commits cl =
  Array.fold_left
    (fun acc node ->
      match Host.durable node.n_host with Some d -> acc + Durable.syncs d | None -> acc)
    cl.c_commits cl.c_nodes

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (p * n / 100))

let run ?(hosts = 3) ?(clients = 10) ?(keys = 10_000) ?(payload = 128) ?(ops = 20_000)
    ?(get_ratio = 0.5) ?(faults = Vbase.Faultplan.create ()) ?durability ?(dist = `Uniform)
    ~style () =
  let cl = setup ?durability ~style ~hosts ~clients ~keys ~faults () in
  let rng = Vbase.Rng.create ~seed:42 in
  let pick = key_picker rng ~keys dist in
  let payload_string = String.make payload 'x' in
  let seqs = Array.make clients 0 in
  let retransmits = ref 0 in
  let lats = Array.make (max ops 1) 0.0 in
  let t0 = Unix.gettimeofday () in
  let done_ops = ref 0 in
  while !done_ops < ops do
    (* Each client issues one request, round-robin, closed loop. *)
    for c = 0 to clients - 1 do
      if !done_ops < ops then begin
        let client = hosts + c in
        seqs.(c) <- seqs.(c) + 1;
        let key = pick () in
        let msg =
          if Vbase.Rng.float rng < get_ratio then
            Message.Get { client; seq = seqs.(c); key }
          else Message.Set { client; seq = seqs.(c); key; value = payload_string }
        in
        (* Clients guess key-order sharding; wrong guesses exercise
           forwarding. *)
        let guess = min (hosts - 1) (key * hosts / keys) in
        let t_op = Unix.gettimeofday () in
        ignore
          (request_reply ~retransmit_counter:retransmits cl ~client ~dst:guess ~seq:seqs.(c) msg);
        lats.(!done_ops) <- Unix.gettimeofday () -. t_op;
        incr done_ops
      end
    done
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  end_storm cl;
  Array.sort compare lats;
  {
    ops_done = !done_ops;
    elapsed_s = elapsed;
    kops_per_s = float_of_int !done_ops /. elapsed /. 1000.0;
    net_bytes = Network.bytes_sent cl.c_net;
    retransmissions = !retransmits;
    net_stats = Network.stats cl.c_net;
    lat_p50_ms = percentile lats 50 *. 1000.0;
    lat_p99_ms = percentile lats 99 *. 1000.0;
    crashes = cl.c_crashes + cl.c_torn;
    recoveries = cl.c_recoveries;
    recovery_s = cl.c_recovery_s;
    replayed = cl.c_replayed;
    commits = total_commits cl;
  }

let crosscheck ?(ops = 2000) ?(seed = 7) ?(dup_pct = 0) ?(faults = Vbase.Faultplan.create ())
    ?durability () =
  let hosts = 3 and clients = 2 and keys = 500 in
  let cl = setup ?durability ~style:`Inplace ~hosts ~clients ~keys ~faults () in
  let reference : (int, string) Hashtbl.t = Hashtbl.create 256 in
  let rng = Vbase.Rng.create ~seed in
  let seqs = Array.make clients 0 in
  let retransmits = ref 0 in
  let error = ref None in
  let done_ops = ref 0 in
  let readback_count = ref 0 in
  (try
     for _ = 1 to ops do
       if !error = None then begin
         let c = Vbase.Rng.int rng clients in
         let client = hosts + c in
         seqs.(c) <- seqs.(c) + 1;
         let key = Vbase.Rng.int rng keys in
         let is_get = Vbase.Rng.bool rng in
         let msg =
           if is_get then Message.Get { client; seq = seqs.(c); key }
           else begin
             let value = Printf.sprintf "v%d-%d" key seqs.(c) in
             Hashtbl.replace reference key value;
             Message.Set { client; seq = seqs.(c); key; value }
           end
         in
         (* A flaky client channel: resend the same request (same seq) to
            a possibly different host.  The at-most-once reply cache must
            absorb it — no re-execution; at most a duplicate reply, which
            the client-side filter discards. *)
         if dup_pct > 0 && Vbase.Rng.int rng 100 < dup_pct then
           Network.send cl.c_net ~src:client ~dst:(Vbase.Rng.int rng hosts)
             (Message.to_bytes msg);
         (* Occasionally re-delegate a range away from its current owner —
            concurrently with the in-flight (possibly duplicated) request.
            The migrating reply cache plus sequenced inter-host channels
            keep execution exactly-once across the move; if no host
            currently claims the range start (its grant is still in
            flight), skip this round. *)
         let redelegate_roll = Vbase.Rng.int rng 100 in
         let lo = Vbase.Rng.int rng keys in
         let span = 1 + Vbase.Rng.int rng 50 in
         let dest = Vbase.Rng.int rng hosts in
         if redelegate_roll = 0 then begin
           let owner = ref None in
           Array.iteri
             (fun i node -> if !owner = None && Host.owns node.n_host lo then owner := Some i)
             cl.c_nodes;
           match !owner with
           | Some i -> Host.delegate cl.c_nodes.(i).n_host cl.c_net ~lo ~hi:(lo + span) ~dest
           | None -> ()
         end;
         let rk, value =
           request_reply ~retransmit_counter:retransmits cl ~client
             ~dst:(Vbase.Rng.int rng hosts) ~seq:seqs.(c) msg
         in
         incr done_ops;
         if is_get then begin
           let expected = Hashtbl.find_opt reference key in
           if rk <> key then error := Some "reply for wrong key"
           else if value <> expected then
             error :=
               Some
                 (Printf.sprintf "get %d: got %s, expected %s" key
                    (Option.value ~default:"<none>" value)
                    (Option.value ~default:"<none>" expected))
         end
       end
     done;
     (* Storm over: heal, settle, then re-read every key the reference
        map knows about.  The reference holds exactly the acknowledged
        writes (the loop is closed: a Set either got its reply or raised),
        so a divergence here is an acknowledged write lost to a crash —
        the invariant this whole harness exists to pin. *)
     end_storm cl;
     if !error = None then begin
       let bindings = List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) reference []) in
       List.iter
         (fun (key, expected) ->
           if !error = None then begin
             seqs.(0) <- seqs.(0) + 1;
             let client = hosts in
             let guess = min (hosts - 1) (key * hosts / keys) in
             let rk, value =
               request_reply ~retransmit_counter:retransmits cl ~client ~dst:guess ~seq:seqs.(0)
                 (Message.Get { client; seq = seqs.(0); key })
             in
             incr readback_count;
             if rk <> key || value <> Some expected then
               error :=
                 Some
                   (Printf.sprintf "readback %d: got %s, expected %s (acknowledged write lost)"
                      key
                      (Option.value ~default:"<none>" value)
                      expected)
           end)
         bindings
     end
   with e -> error := Some (Printexc.to_string e));
  let report =
    {
      sr_ops = !done_ops;
      sr_crashes = cl.c_crashes;
      sr_torn = cl.c_torn;
      sr_partitions = cl.c_partitions;
      sr_recoveries = cl.c_recoveries;
      sr_recovery_s = cl.c_recovery_s;
      sr_replayed = cl.c_replayed;
      sr_readback = !readback_count;
      sr_retransmissions = !retransmits;
    }
  in
  (report, match !error with None -> Ok () | Some e -> Error e)

(* --- recovery probe ---------------------------------------------------- *)

(* Isolated recovery-time measurement: fill a durable store with a known
   record count under group commit, crash, and time [Durable.recover]
   (the EXPERIMENTS.md table and the bench [kv] section report it). *)
let recovery_probe ?(records = 20_000) ?(payload = 64) ?(group = 64) () =
  (* The device holds two log regions; size the op log for the record
     count plus framing overhead. *)
  let mem = Plog.Pmem.create ~size:((2 * records * (payload + 96)) + 4096) () in
  Durable.format mem;
  let d =
    match Durable.attach ~group mem with
    | Ok d -> d
    | Error e -> failwith ("recovery_probe: " ^ e)
  in
  let v = String.make payload 'r' in
  let commit () =
    match Durable.sync d with
    | Durable.Synced _ -> ()
    | Durable.Power_failed | Durable.Failed _ -> failwith "recovery_probe: sync failed"
  in
  for i = 1 to records do
    Durable.log_op d (Durable.Set_op { client = 0; seq = i; key = i land 4095; value = v });
    if Durable.pending d >= group then commit ()
  done;
  commit ();
  Plog.Pmem.crash mem;
  let t0 = Unix.gettimeofday () in
  match Durable.recover ~group mem with
  | Error e -> failwith ("recovery_probe: " ^ e)
  | Ok (_, ops, routes) -> (Unix.gettimeofday () -. t0, List.length ops + List.length routes)
