(** Content hashing for fingerprints: a one-shot 128-bit digest built from
    two 64-bit FNV-1a streams.

    The verification cache ({!Vcache} in [lib/core]) addresses entries by
    a digest of the canonical serialization of everything a solve depends
    on; certificate digests, result digests and ladder fingerprints use
    the same function.  Two independent FNV streams (different offset
    bases) are concatenated into a 128-bit hex fingerprint, which makes
    accidental collisions across a cache's lifetime implausible while
    staying dependency-free and byte-for-byte reproducible across
    platforms (all arithmetic is [Int64], overflow is modular by
    construction).  The output is part of every on-disk cache key, so it
    must never change. *)

val string128 : string -> string
(** 32 lowercase hex characters: the first stream (standard 64-bit offset
    basis) over the bytes, then the second (a distinct offset basis) over
    the same bytes followed by the decimal length and ['|']. *)

val bytes128 : Bytes.t -> int -> string
(** [bytes128 b n] is [string128] of the first [n] bytes of [b], read in
    place.  Raises [Invalid_argument] unless [0 <= n <= Bytes.length b]. *)
