(** The mimalloc-style allocator (§4.2.4): per-heap size-class pages carved
    from OS segments, local free lists for same-thread frees, and an atomic
    (Treiber-stack) delayed-free list per page for cross-thread
    deallocations — the structure whose ghost-permission protocol the paper
    verifies; {!Alloc_model} is that protocol as a VerusSync machine.

    Like the paper's Verus-mimalloc, allocations above 128 KiB are not
    supported (they fail with [Invalid_argument]).

    [checked = true] is the "verified allocator" configuration: it keeps
    per-block allocation bitmaps and validates every operation (double
    free, foreign pointer, size-class integrity) — the bookkeeping whose
    cost Figure 13 measures.  [checked = false] plays the role of the
    unverified C original. *)

type t

val create : ?checked:bool -> ?heaps:int -> Os_mem.t -> t

val max_alloc : int
(** 128 KiB. *)

val malloc : t -> heap:int -> int -> int
(** [malloc t ~heap size] returns the block address.  The block is
    exclusively owned until freed (the non-aliasing property the test
    suite checks).  Raises [Failure] when the OS refuses backing memory
    and no freed block can be reclaimed — use {!malloc_opt} to handle
    that case without an exception. *)

val malloc_opt : t -> heap:int -> int -> int option
(** As {!malloc}, but degrades gracefully under memory pressure: on a
    refused mapping (e.g. the ["mmap.oom"] fault site of {!Os_mem}) it
    first harvests every delayed-free stack in the size class, and
    returns [None] only if no block can be produced at all.  A later call
    may succeed — transient OOM does not poison the allocator. *)

val free : t -> heap:int -> int -> unit
(** May be called from a different heap than the allocating one
    (cross-thread deallocation path). *)

val usable_size : t -> int -> int
(** Size class capacity of an allocated block. *)


exception Heap_corruption of string
(** Raised by [checked] allocators on protocol violations. *)
