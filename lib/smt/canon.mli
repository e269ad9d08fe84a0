(** Canonical term serialization — the byte sequence the verification
    cache fingerprints.

    {!Term.to_string} is fine for humans but unsuitable as a fingerprint
    input for two reasons:

    - {b Fresh-symbol counters are run-dependent.}  Symbols minted by
      [Term.Sym.fresh] print as ["name!N"] with a global counter, and under
      [jobs > 1] the counter interleaves between domains — the same logical
      VC would serialize differently run to run, destroying both cache hits
      and the determinism of hit/miss statistics.  Here every fresh symbol
      is renamed to ["name!k"] where [k] is the order of first occurrence
      {e within the serialized payload}: distinct symbols stay distinct,
      identical structure serializes identically, and the numbering no
      longer depends on global construction order.
    - {b Hash-consing orders commutative operands by term id.}
      [Term.eq] and [Term.mul] store their operands id-first, and ids
      depend on which terms the process happened to build before, so the
      same VC could be stored as [(= x 4242)] in one process and
      [(= 4242 x)] in another.  Here both operands are emitted in the
      order of a structural key that ignores ids (fresh symbols key by
      prefix), memoised per serializer.
    - {b Sorts are invisible.}  The pretty-printer renders applications by
      name only; a program edit that changes a symbol's sort while leaving
      the printed tree unchanged must not produce the same fingerprint, so
      this serialization annotates every application head and bound
      variable with its sort.

    One {!serializer} must span everything that ends up in one fingerprint
    (context axioms, hypotheses, goal): the fresh-symbol renaming table is
    shared, which is what keeps a constant appearing in both a hypothesis
    and the goal recognizably the same symbol.

    The text of a term that names no fresh symbol depends on the term
    alone, so each domain renders it once ({!add_term} copies it after
    that).  The table holding it is keyed on the term through an
    ephemeron, so it never keeps a term alive; terms naming fresh symbols,
    whose text depends on the payload's renaming, never enter it. *)

type serializer

val create : unit -> serializer
(** A fresh serializer with an empty fresh-symbol renaming table. *)

val add_term : serializer -> Term.t -> unit
(** Append the canonical rendering of one term to the payload. *)

val add_string : serializer -> string -> unit
(** Append a raw component (profile discriminants, budget renderings,
    section separators). *)

val contents : serializer -> string
(** The accumulated canonical payload. *)

val digest : (serializer -> unit) -> string
(** [digest fill] is {!Vbase.Hash.string128} of the payload [fill] adds to
    a serializer with an empty payload and an empty renaming table.  The
    serializer is only valid during [fill]: each domain reuses one
    between digests, so a digest copies no payload and builds no tables. *)
