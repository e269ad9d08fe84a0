(** Vcache — persistent, content-addressed incremental verification.

    Re-verifying an unchanged program should cost file I/O, not SMT time
    (cf. F*'s hint database and Dafny's verification caching).  Vcache
    keys every proof obligation by a {e fingerprint}: a 128-bit digest of
    the canonical serialization ({!Smt.Canon}) of everything the solve's
    answer depends on —

    - the post-pruning context (theory axioms and spec-function
      definitions actually in scope for this VC),
    - the VC's hypotheses and goal,
    - the proof hint (default / EPR path / §3.3 custom mode), and for
      [by(compute)] obligations the interpreter-visible program surface
      (spec bodies and datatypes),
    - the solver-relevant profile facets and the full
      {!Smt.Solver.budget} ({!Profiles.solver_fingerprint}),
    - the certificate schema version ({!Smt.Cert.schema_version}), so a
      certificate-format bump invalidates every entry rather than letting
      a stored digest claim a certificate the current kernel never saw.

    Because the context is fingerprinted {e after} pruning, renaming or
    editing a function the VC does not depend on leaves the fingerprint —
    and the cache hit — intact; touching a spec function invalidates
    exactly the VCs whose pruned context contains its definition.  The
    soundness argument is containment: a hit is only valid because the
    fingerprint covers every input of the solve (see DESIGN.md,
    "Incremental verification").

    Storage is one {!Vbase.Store} document ([verus-cache/1]) per cache
    directory: atomically replaced (write-temp-rename), corruption-
    tolerant (truncated/garbage files and malformed entries degrade to
    misses, never failures), deterministically serialized (entries sorted
    by fingerprint).

    Lookups consult only the snapshot loaded at {!open_} — entries stored
    during the current run are kept aside until {!flush} — so hit/miss
    statistics are identical however many workers race ([jobs > 1]).

    A hit costs a lookup.  {!open_} reads the store's bytes and, when
    they equal the bytes of the last document an open parsed, reuses
    that parse; only the first open after a flush parses the document.
    Reuse is keyed on content rather than on the file's inode, size and
    mtime, which a same-size rewrite within one mtime tick leaves
    unchanged.  {!fingerprint} renders into a per-domain serializer and
    hashes it in place ({!Smt.Canon.digest}); the text of each context
    axiom (any term naming no fresh symbol) is rendered once per domain
    and copied after that, from a table keyed on the term through an
    ephemeron, so it never keeps a term alive. *)

val schema_version : string
(** ["verus-cache/1"] — the on-disk document schema. *)

val file_name : string
(** The document's file name inside the cache directory. *)

(** Where the cache lives. *)
type config = { dir : string }

(** What a cached solve remembers.  [e_detail], [e_bytes] and [e_time_s]
    reproduce the original {!Driver.vc_result} verbatim on a hit (so warm
    results are byte-identical to the cold run that filled the cache);
    [e_profile] is present when the filling run profiled. *)
type entry = {
  e_answer : Smt.Solver.answer;
  e_detail : string;
  e_bytes : int;
  e_time_s : float;  (** wall-clock of the original solve *)
  e_profile : Smt.Profile.t option;
  e_cert_digest : string option;
      (** {!Smt.Cert.digest} of the kernel-checked certificate the filling
          run produced (present only when it ran with [--certify] and the
          answer is Unsat) — what makes a warm hit a checked claim *)
  e_rung : int option;
      (** the escalation-ladder rung that produced the answer (present
          only when the filling run had an explicit ladder) — what lets a
          later cold-ish run jump straight to the winning rung *)
}

(** Per-run counters, deterministic under [jobs > 1]. *)
type stats = {
  hits : int;
  misses : int;  (** obligations never seen before *)
  invalidations : int;
      (** obligations whose {e name} was cached but whose fingerprint
          changed — the "this edit re-solved N VCs" number *)
  stores : int;  (** distinct new entries recorded this run *)
  entries_loaded : int;  (** well-formed entries in the loaded snapshot *)
  entries_dropped : int;  (** malformed entries skipped at load *)
  corrupt_load : bool;  (** the whole document was unusable at load *)
}

type t

val open_ : config -> t
(** Load the snapshot from [config.dir].  Never fails: missing, truncated
    or corrupt stores open as empty caches (see [corrupt_load]/
    [entries_dropped] in {!stats}).  When the file holds exactly the bytes
    of the last document an open parsed, the handle shares that parse
    (it is never mutated) and reports the same counters a fresh parse
    would; a {!flush} never publishes its own tables for reuse. *)

val fingerprint :
  ?analyze:bool ->
  ?ladder:string ->
  profile:Profiles.t ->
  prog:Vir.program ->
  context:Smt.Term.t list ->
  Encode.vc ->
  string
(** The VC's cache key, as described above.  [context] must cover every
    axiom any attempt may ship: the post-pruning context normally, the
    full axiom set when a widening ladder ([Vladder.Ladder.widens]) runs
    under a pruning profile (containment is the soundness argument).
    [analyze] (default false) salts the key with {!Vflow.version}:
    prescreened runs ship a modified query (derived facts, dropped
    vacuous hypotheses), so their entries never alias plain ones and a
    Vflow version bump invalidates them.  [ladder] (the
    {!Vladder.Ladder.fingerprint} of an explicit escalation ladder)
    salts the key so entries recorded under one ladder never satisfy a
    lookup under another — or under no ladder at all. *)

val lookup :
  t -> name:string -> fp:string -> profile_wanted:bool -> certified_wanted:bool -> entry option
(** Consult the snapshot.  [Some] and a hit is counted only when the entry
    exists {e and} carries a profile if [profile_wanted] (an unprofiled
    entry cannot serve a profiled run; it re-solves and upgrades) {e and},
    if [certified_wanted], any Unsat entry carries a certificate digest
    (an uncertified Unsat cannot serve a [--certify] run; it re-solves,
    re-checks and upgrades).  On [None], a miss or — when [name] was
    cached under a different fingerprint — an invalidation is counted. *)

val store : t -> name:string -> fp:string -> entry -> unit
(** Record a freshly solved obligation.  Not visible to {!lookup} until
    the next {!open_} (run-snapshot isolation; see module doc). *)

val rung_hint : t -> fp:string -> int option
(** The winning rung a snapshot entry under [fp] recorded, if any —
    consulted (without touching the hit/miss counters) when {!lookup}
    gated the entry out, e.g. an unprofiled entry under a profiled run:
    the answer must be re-derived, but the climb can still start at the
    rung that won last time. *)

val stats : t -> stats

val flush : t -> (unit, string) result
(** Merge fresh entries into the snapshot and atomically rewrite the
    store (also after corruption or dropped entries, repairing the file).
    No-op when nothing changed.  Flushes are serialized, within the process
    and across processes (a [lockf] lock on [store.lock] in the cache
    directory); a store another handle saved since {!open_} is re-read and
    its entries kept, so overlapping writers lose nothing.  I/O failures
    are reported, not raised. *)

val clear : dir:string -> (unit, string) result
(** Delete the store document (keeps the directory). *)

(** Offline summary of a cache directory, for [verus_cli cache stats]. *)
type disk_stats = {
  ds_exists : bool;  (** a store document is present *)
  ds_entries : int;
  ds_dropped : int;  (** malformed entries in the document *)
  ds_corrupt : bool;  (** document present but unusable *)
  ds_bytes : int;  (** document size on disk *)
  ds_answers : (string * int) list;
      (** entry count per answer kind (["unsat"], ["sat"], ["unknown"]),
          sorted by kind *)
}

val disk_stats : dir:string -> disk_stats
