(* Node replication over a shared cyclic operation log.

   Concurrency structure:
   - [tail] is the global log frontier (atomic fetch-and-add reserves
     slots);
   - each slot holds [Some (seq, op)] once its writer fills it; readers
     spin until the slot for the sequence number they need appears
     (the seq tag disambiguates wrap-around);
   - each replica applies the log in order under its combiner mutex and
     publishes its version for the writers' GC check. *)

type op = Put of int * int | Del of int

type slot = (int * op) option

type replica = {
  mutex : Mutex.t;
  state : (int, int) Hashtbl.t;
  mutable version : int; (* log prefix applied (under mutex) *)
  version_pub : int Atomic.t; (* published for GC *)
}

type t = {
  log_size : int;
  slots : slot Atomic.t array;
  tail : int Atomic.t;
  replicas : replica array;
  next_reg : int Atomic.t;
}

type handle = { replica : int }

let create ?(log_size = 4096) ~replicas () =
  if replicas < 1 then invalid_arg "Nr.create: replicas";
  {
    log_size;
    slots = Array.init log_size (fun _ -> Atomic.make None);
    tail = Atomic.make 0;
    replicas =
      Array.init replicas (fun _ ->
          {
            mutex = Mutex.create ();
            state = Hashtbl.create 256;
            version = 0;
            version_pub = Atomic.make 0;
          });
    next_reg = Atomic.make 0;
  }

let register t =
  let n = Atomic.fetch_and_add t.next_reg 1 in
  { replica = n mod Array.length t.replicas }

let tail_value t = Atomic.get t.tail

let apply_op state = function
  | Put (k, v) -> Hashtbl.replace state k v
  | Del k -> Hashtbl.remove state k

(* Apply the log to replica [r] up to (excluding) [target]; caller holds
   the mutex.  With [spin = false] (helper mode) stop at the first
   reserved-but-unfilled slot instead of waiting — a helper spinning there
   would deadlock against itself when it is also the slot's writer. *)
let catch_up ?(spin = true) t (r : replica) target =
  let stop = ref false in
  while (not !stop) && r.version < target do
    let seq = r.version in
    let slot = t.slots.(seq mod t.log_size) in
    let rec wait () =
      match Atomic.get slot with
      | Some (s, op) when s = seq -> Some op
      | _ ->
        if spin then begin
          Domain.cpu_relax ();
          wait ()
        end
        else None
    in
    match wait () with
    | Some op ->
      apply_op r.state op;
      r.version <- seq + 1;
      Atomic.set r.version_pub r.version
    | None -> stop := true
  done

let min_version t =
  Array.fold_left (fun acc r -> min acc (Atomic.get r.version_pub)) max_int t.replicas

(* Help the slowest replica when the log is full (otherwise a writer could
   spin forever waiting on a replica no thread is advancing). *)
let help_laggard t =
  Array.iter
    (fun r ->
      if Atomic.get r.version_pub + t.log_size <= Atomic.get t.tail then
        if Mutex.try_lock r.mutex then begin
          catch_up ~spin:false t r (Atomic.get t.tail);
          Mutex.unlock r.mutex
        end)
    t.replicas

let execute_mut t h op =
  let seq = Atomic.fetch_and_add t.tail 1 in
  (* GC: wait until the slot we're about to overwrite has been consumed
     everywhere. *)
  while min_version t + t.log_size <= seq do
    help_laggard t;
    Domain.cpu_relax ()
  done;
  Atomic.set t.slots.(seq mod t.log_size) (Some (seq, op));
  let r = t.replicas.(h.replica) in
  Mutex.lock r.mutex;
  catch_up t r (seq + 1);
  Mutex.unlock r.mutex

let read t h key =
  let target = Atomic.get t.tail in
  let r = t.replicas.(h.replica) in
  Mutex.lock r.mutex;
  catch_up t r target;
  let result = Hashtbl.find_opt r.state key in
  Mutex.unlock r.mutex;
  result

let read_local t h key =
  let r = t.replicas.(h.replica) in
  Mutex.lock r.mutex;
  let result = Hashtbl.find_opt r.state key in
  Mutex.unlock r.mutex;
  result

let sync t h =
  let target = Atomic.get t.tail in
  let r = t.replicas.(h.replica) in
  Mutex.lock r.mutex;
  catch_up t r target;
  Mutex.unlock r.mutex
