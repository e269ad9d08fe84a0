(** The verified-port page table: 4-level x86-64 tree over simulated
    physical memory, with map/unmap of 4 KiB frames.

    [unmap] reclaims page directories that become empty — the design choice
    responsible for the paper's Figure 12 unmap slowdown; [create
    ~reclaim:false] is the paper's "Unmap (Verif.*)" variant with
    reclamation disabled.  {!translate} is the trusted MMU walker
    specification: correctness of map/unmap is stated (and tested) against
    it. *)

type t

val create : ?reclaim:bool -> Phys_mem.t -> t

val map4k : t -> va:int -> frame:int -> writable:bool -> (unit, string) result
(** Fails if already mapped or va is out of canonical range. *)

val unmap4k : t -> va:int -> (unit, string) result
(** Fails if not mapped. *)

val translate : t -> int -> int option
(** The MMU specification walker: physical address for a virtual one. *)

val table_frames : t -> int
(** Frames currently used by page-table nodes (excludes mapped frames);
    exposes reclamation behaviour to tests. *)
