(* Work-stealing obligation pool.  Each worker owns a deque (mutex-
   guarded — obligations are millisecond-scale SMT solves, so a lock
   per push/pop is noise): external submission deals tasks round-robin
   to deque tails, a worker pushes its own spawned subtasks to its
   head, pops its own head (depth-first) and steals from other deques'
   tails (oldest-first).  Depth-first own-execution keeps a function's
   encode adjacent to its VC solves — proof certificates are sensitive
   to term-interning order, and this discipline reproduces a
   sequential run's layout (see sched.mli).

   A single (mutex, condition, pending-counter) triple handles
   sleep/wake: the counter is only read under the mutex on the sleep
   path, and every increment is followed by a broadcast under the same
   mutex, so the classic lost-wakeup interleaving cannot occur. *)

type job = unit -> unit

(* Two-list deque, head = front.  All access is under [w_lock]. *)
type dq = { mutable front : job list; mutable back : job list (* reversed *) }

type worker = { w_lock : Mutex.t; w_q : dq }

type t = {
  workers : worker array;
  mutable handles : unit Domain.t list;
  m : Mutex.t;
  c : Condition.t;
  pending : int Atomic.t;  (* enqueued, not yet taken *)
  stop : bool Atomic.t;
  rr : int Atomic.t;  (* round-robin deal cursor *)
  submitted : int Atomic.t;
  executed : int Atomic.t array;
  stolen : int Atomic.t;
  batches : int Atomic.t;
}

type stats = {
  sd_domains : int;
  sd_submitted : int;
  sd_executed : int list;
  sd_stolen : int;
  sd_batches : int;
}

(* Which pool/worker the current domain is, if it is a pool worker —
   lets [submit] route a worker's own subtasks to its own deque head. *)
let dls_worker : (Obj.t * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let self_index t =
  match !(Domain.DLS.get dls_worker) with
  | Some (pool, i) when pool == Obj.repr t -> Some i
  | _ -> None

let pop_front (d : dq) =
  match d.front with
  | j :: rest ->
    d.front <- rest;
    Some j
  | [] -> (
    match List.rev d.back with
    | [] -> None
    | j :: rest ->
      d.back <- [];
      d.front <- rest;
      Some j)

let pop_back (d : dq) =
  match d.back with
  | j :: rest ->
    d.back <- rest;
    Some j
  | [] -> (
    match List.rev d.front with
    | [] -> None
    | j :: rest ->
      d.front <- [];
      d.back <- rest;
      Some j)

let locked (w : worker) f =
  Mutex.lock w.w_lock;
  let r = f w.w_q in
  Mutex.unlock w.w_lock;
  r

(* Own deque head first, then scan the others' tails from our right-
   hand neighbour (spreads thieves instead of mobbing worker 0). *)
let take t i =
  match locked t.workers.(i) pop_front with
  | Some j -> Some (j, false)
  | None ->
    let n = Array.length t.workers in
    let rec scan k =
      if k = n then None
      else
        match locked t.workers.((i + k) mod n) pop_back with
        | Some j -> Some (j, true)
        | None -> scan (k + 1)
    in
    scan 1

let worker_loop t i () =
  Domain.DLS.get dls_worker := Some (Obj.repr t, i);
  let rec go () =
    match take t i with
    | Some (j, was_steal) ->
      Atomic.decr t.pending;
      if was_steal then Atomic.incr t.stolen;
      (* Count before running: the job body is what signals batch
         completion, so counting after it would let [await] return
         with the last increment still in flight. *)
      Atomic.incr t.executed.(i);
      j ();
      go ()
    | None ->
      if Atomic.get t.stop then ()
        (* stop is only honoured with every deque empty: an in-flight
           batch is drained, never abandoned *)
      else begin
        Mutex.lock t.m;
        if Atomic.get t.pending = 0 && not (Atomic.get t.stop) then
          Condition.wait t.c t.m;
        Mutex.unlock t.m;
        go ()
      end
  in
  go ()

let create ~domains =
  if domains < 1 then invalid_arg "Sched.create: domains must be >= 1";
  let t =
    {
      workers =
        Array.init domains (fun _ ->
            { w_lock = Mutex.create (); w_q = { front = []; back = [] } });
      handles = [];
      m = Mutex.create ();
      c = Condition.create ();
      pending = Atomic.make 0;
      stop = Atomic.make false;
      rr = Atomic.make 0;
      submitted = Atomic.make 0;
      executed = Array.init domains (fun _ -> Atomic.make 0);
      stolen = Atomic.make 0;
      batches = Atomic.make 0;
    }
  in
  t.handles <- List.init domains (fun i -> Domain.spawn (worker_loop t i));
  t

let enqueue t (j : job) =
  (match self_index t with
  | Some i -> locked t.workers.(i) (fun d -> d.front <- j :: d.front)
  | None ->
    let i = Atomic.fetch_and_add t.rr 1 mod Array.length t.workers in
    locked t.workers.(i) (fun d -> d.back <- j :: d.back));
  Atomic.incr t.submitted;
  Atomic.incr t.pending;
  Mutex.lock t.m;
  Condition.broadcast t.c;
  Mutex.unlock t.m

(* --- dynamic batches -------------------------------------------------- *)

type batch = {
  b_outstanding : int Atomic.t;  (* submitted, not yet finished *)
  b_first_exn : exn option Atomic.t;
  b_pooled : bool Atomic.t;  (* counted in a pool's [batches] yet? *)
  b_m : Mutex.t;
  b_c : Condition.t;
}

let batch () =
  {
    b_outstanding = Atomic.make 0;
    b_first_exn = Atomic.make None;
    b_pooled = Atomic.make false;
    b_m = Mutex.create ();
    b_c = Condition.create ();
  }

(* Run a batch member inline: capture the first exception, count down,
   and wake the awaiter on the last task.  The caller must have
   incremented [b_outstanding] before this runs (submit-before-run), so
   the count can only reach zero when the batch is truly drained. *)
let run_member b task () =
  (try task () with e -> ignore (Atomic.compare_and_set b.b_first_exn None (Some e)));
  if Atomic.fetch_and_add b.b_outstanding (-1) = 1 then begin
    Mutex.lock b.b_m;
    Condition.broadcast b.b_c;
    Mutex.unlock b.b_m
  end

let submit t b task =
  if not (Atomic.get b.b_pooled || Atomic.exchange b.b_pooled true) then
    Atomic.incr t.batches;
  Atomic.incr b.b_outstanding;
  enqueue t (run_member b task)

let submit_now b task =
  Atomic.incr b.b_outstanding;
  run_member b task ()

let await b =
  Mutex.lock b.b_m;
  while Atomic.get b.b_outstanding > 0 do
    Condition.wait b.b_c b.b_m
  done;
  Mutex.unlock b.b_m;
  match Atomic.get b.b_first_exn with Some e -> raise e | None -> ()

let stats t =
  {
    sd_domains = Array.length t.workers;
    sd_submitted = Atomic.get t.submitted;
    sd_executed = Array.to_list (Array.map Atomic.get t.executed);
    sd_stolen = Atomic.get t.stolen;
    sd_batches = Atomic.get t.batches;
  }

let shutdown t =
  Atomic.set t.stop true;
  Mutex.lock t.m;
  Condition.broadcast t.c;
  Mutex.unlock t.m;
  List.iter Domain.join t.handles;
  t.handles <- []
