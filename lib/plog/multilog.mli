(** Atomic appends to multiple logs (§4.2.5: "supports atomic appends to
    multiple separate logs").

    Each constituent log keeps its own data region; a shared commit header
    (version + every log's tail + CRC) makes a multi-append all-or-nothing:
    data for every log is written and flushed first, then one commit record
    flush publishes all the new tails. *)

type t

val format : Pmem.t -> base:int -> log_len:int -> logs:int -> unit
(** Initialize [logs] empty logs of [log_len] bytes each at [base]. *)

val attach : Pmem.t -> base:int -> log_len:int -> logs:int -> (t, string) result
(** Recover from a (possibly crashed) device: picks the newest commit
    header whose CRC validates. *)

val append_all : t -> string list -> (unit, string) result
(** One payload per log, committed atomically; [Error] when any log lacks
    space or the list length mismatches. *)

val tails : t -> int list
(** Current committed tail of each log. *)

val log_len : t -> int
(** Geometry, for callers (e.g. the IronKV durable layer's group commit)
    that must size batches against the remaining room. *)

val free_space : t -> int -> int
(** Bytes a single further append to the given log can still carry
    without hitting the no-wrap boundary. *)

val read : t -> log:int -> offset:int -> len:int -> (string, string) result
(** Read committed bytes back; [Error] outside the committed range. *)
