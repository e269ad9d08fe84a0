(** Simulated physical memory for the page-table case study (§4.2.3).

    Plays the role of the paper's trusted hardware/memory spec: 4 KiB
    frames of 64-bit words, a frame allocator, and word-granularity
    reads/writes at physical addresses.  The page-table implementation owns
    the frames it allocates — the encapsulation the paper's MMU spec
    provides via ghost ownership. *)

type t

val frame_size : int
(** Bytes per frame: 4096. *)

val words_per_frame : int
(** 64-bit words per frame: 512. *)

val create : ?frames:int -> unit -> t
(** Physical memory with an allocator over [frames] frames (default 65536). *)

val alloc_frame : t -> int
(** Returns the frame number of a zeroed 4 KiB frame; raises [Failure] when
    exhausted. *)

val free_frame : t -> int -> unit
(** Raises [Invalid_argument] on double-free or out-of-range frames. *)

val read_word : t -> int -> int64
(** [read_word mem pa]: [pa] must be 8-byte aligned and inside an
    allocated frame. *)

val write_word : t -> int -> int64 -> unit
