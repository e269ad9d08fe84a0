(** The simulated OS memory interface the allocator is built over — the
    trusted [mmap] specification of §4.2.4: coarse-grained, segment-aligned
    allocations only.

    Addresses are flat integers; each mapped segment is backed by real
    [Bytes], so allocator clients genuinely read and write the memory they
    are handed (the aliasing tests depend on this). *)

val segment_size : int
(** 4 MiB, the only granularity the OS hands out. *)

type t

val create : ?faults:Vbase.Faultplan.t -> ?max_segments:int -> unit -> t
(** [faults] arms the ["mmap.oom"] fault site: when it fires, the next
    {!mmap_opt} returns [None] ({!mmap} raises) — a transient allocation
    failure under memory pressure.  The mapping is refused, not consumed:
    a later call may succeed. *)

val mmap : t -> int
(** Returns the base address of a fresh zeroed segment.  Raises [Failure]
    on exhaustion or injected OOM — callers that can degrade gracefully
    should use {!mmap_opt}. *)

val mmap_opt : t -> int option
(** As {!mmap}, but [None] on exhaustion or injected transient OOM. *)

val oom_failures : t -> int
(** How many mappings the ["mmap.oom"] fault site has refused. *)

val munmap : t -> int -> unit
(** Base address must come from [mmap]; raises on double-unmap. *)

val write_byte : t -> int -> int -> unit
val blit_fill : t -> addr:int -> len:int -> byte:int -> unit
val check_fill : t -> addr:int -> len:int -> byte:int -> bool
val mapped_segments : t -> int
