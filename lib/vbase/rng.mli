(** Deterministic pseudo-random numbers (splitmix64 core).

    Workload generators in the benchmarks must be reproducible across runs
    and independent of the global [Random] state, so every generator carries
    its own seeded stream. *)

type t

val create : seed:int -> t

(** Uniform in [0, bound); [bound > 0]. *)
val int : t -> int -> int

(** Raw 62-bit non-negative value. *)
val bits : t -> int

(** Uniform float in [0, 1). *)
val float : t -> float

val bool : t -> bool

(** [shuffle rng arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** {2 Zipf sampling}

    A precomputed inverse-CDF table for the Zipf(s, n) distribution over
    ranks [0 .. n-1] (rank 0 is the most frequent).  Sampling is a
    binary search over the table with one uniform draw, so a skewed
    workload is a pure function of the generator seed — the property the
    million-key IronKV workload mode relies on for replayable storms. *)

type zipf

val zipf : s:float -> n:int -> zipf
(** Build the table: weight of rank [i] is [1/(i+1)^s], normalized.
    [s = 0.0] degenerates to uniform.  O(n) time and space. *)

val zipf_draw : t -> zipf -> int
(** Sample a rank in [0, n).  Consumes exactly one uniform draw. *)

val zipf_pmf : zipf -> int -> float
(** Probability mass of a rank, as actually sampled (monotone
    non-increasing in the rank by construction). *)

