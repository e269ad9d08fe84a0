(** A versioned, corruption-tolerant, atomically-updated on-disk JSON
    store: the persistence substrate of the verification cache.

    A store is one JSON document in a directory:

    {v
    { "schema": "<name>/<version>",
      "entries": { "<key>": <value>, ... } }
    v}

    Design constraints (they are the whole point):
    - {b Atomic updates.}  {!save} writes to a temp file of its own in
      the same directory and [rename]s it over the target, so a crash
      mid-write leaves either the old document or the new one, never a
      torn mix, and two concurrent saves never share a temp file (the
      last rename wins; callers that merge serialize their saves).
    - {b Corruption tolerance.}  {!load} never raises and never fails a
      caller: a missing file is an empty store; an unparseable file, a
      wrong or missing schema tag, or a malformed entries table degrade to
      an empty store with [corrupt = true]; individual entries that are not
      well-formed are dropped and counted.  Cache consumers turn all of
      these into misses.
    - {b Determinism.}  {!save} sorts entries by key, so equal contents
      produce byte-identical files regardless of insertion (or worker
      completion) order. *)

type loaded = {
  entries : (string * Json.t) list;  (** surviving entries, load order *)
  dropped : int;  (** malformed entries skipped (non-object table rows) *)
  corrupt : bool;
      (** the document itself was unusable (parse error / wrong schema);
          [entries] is [[]] in that case *)
}

val load : dir:string -> file:string -> schema:string -> loaded
(** Read [dir/file] expecting the given schema tag.  Never raises.
    Equal to {!parse} of the bytes {!read} returns, or to {!read}'s
    [Error]. *)

val read : dir:string -> file:string -> (string, loaded) result
(** The document's bytes, or, when there are none to parse, what {!load}
    returns: the empty store for a missing file, a corrupt one for an
    unreadable file.  Never raises. *)

val parse : schema:string -> string -> loaded
(** What {!load} returns for a document holding these bytes. *)

val save :
  dir:string -> file:string -> schema:string -> (string * Json.t) list -> (unit, string) result
(** Atomically replace [dir/file] with a document holding the entries
    (sorted by key; later bindings of a duplicated key win).  Creates
    [dir] — including missing ancestors — if needed.  I/O failures are
    reported as [Error], never raised. *)

val mkdir_p : string -> unit
(** Create a directory and its missing ancestors.  Raises [Sys_error]. *)

val wipe : dir:string -> file:string -> (unit, string) result
(** Remove the store file (and its temp leftovers) if present; the
    directory itself is kept.  [Ok] when the file did not exist. *)
