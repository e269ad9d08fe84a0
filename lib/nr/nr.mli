(** Node Replication (NR, §4.2.2): turns a sequential data structure into a
    linearizable concurrent one by replicating it per "node" and funnelling
    mutations through a shared operation log (a cyclic buffer).

    This is the executable port of the system the paper verifies: writers
    reserve log slots with an atomic fetch-and-add on the tail, fill the
    slot, and replay the log into their local replica; readers take the
    tail as their linearization point and catch their replica up before
    answering.  Garbage collection of the cyclic buffer waits on the
    minimum published per-replica version — the [local_versions] map whose
    ghost protocol Figure 5 shows; {!Nr_model} is that protocol as a
    VerusSync machine, and the runtime tests drive both together. *)

type op = Put of int * int | Del of int

type t

type handle
(** A registered thread's binding to a replica. *)

val create : ?log_size:int -> replicas:int -> unit -> t

val register : t -> handle
(** Dynamic thread registration (round-robin across replicas) — one of the
    fidelity improvements the Verus port makes over IronSync-NR. *)

val execute_mut : t -> handle -> op -> unit
(** Append a mutating operation to the log and apply it (linearizable). *)

val read : t -> handle -> int -> int option
(** Linearizable read of a key. *)

val read_local : t -> handle -> int -> int option
(** Read without syncing to the log tail (eventually-consistent; used to
    show the test harness detects the difference). *)

val sync : t -> handle -> unit
(** Catch the handle's replica up to the current tail. *)

val tail_value : t -> int
