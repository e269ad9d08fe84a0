let schema_version = "verus-cache/1"
let file_name = "store.json"

type config = { dir : string }

type entry = {
  e_answer : Smt.Solver.answer;
  e_detail : string;
  e_bytes : int;
  e_time_s : float;
  e_profile : Smt.Profile.t option;
  e_cert_digest : string option;
  e_rung : int option;
}

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  stores : int;
  entries_loaded : int;
  entries_dropped : int;
  corrupt_load : bool;
}

(* Inode, size and mtime of the store file: a save renames a new document
   over it, so any other writer's flush changes the stamp. *)
type stamp = int * int * float

let disk_stamp dir =
  match Unix.stat (Filename.concat dir file_name) with
  | st -> Some (st.Unix.st_ino, st.Unix.st_size, st.Unix.st_mtime)
  | exception Unix.Unix_error _ -> None

type t = {
  dir : string;
  lock : Mutex.t;
  (* fingerprint -> (vc name, entry); immutable after open_ *)
  snapshot : (string, string * entry) Hashtbl.t;
  (* vc name -> a fingerprint it was cached under; immutable after open_ *)
  names : (string, string) Hashtbl.t;
  (* entries recorded this run, invisible to lookup until the next open_ *)
  fresh : (string, string * entry) Hashtbl.t;
  (* the store file's identity when the snapshot was loaded *)
  stamp : stamp option;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  entries_loaded : int;
  entries_dropped : int;
  corrupt_load : bool;
}

(* ----- entry (de)serialization ----- *)

let answer_kind = function
  | Smt.Solver.Unsat -> "unsat"
  | Smt.Solver.Sat -> "sat"
  | Smt.Solver.Unknown _ -> "unknown"

let entry_to_json name (e : entry) : Vbase.Json.t =
  let base =
    [
      ("name", Vbase.Json.String name);
      ("answer", Vbase.Json.String (answer_kind e.e_answer));
      ("detail", Vbase.Json.String e.e_detail);
      ("bytes", Vbase.Json.Int e.e_bytes);
      ("time_s", Vbase.Json.Float e.e_time_s);
    ]
  in
  let reason =
    match e.e_answer with
    | Smt.Solver.Unknown r -> [ ("reason", Vbase.Json.String r) ]
    | _ -> []
  in
  let prof =
    match e.e_profile with
    | None -> []
    | Some p -> [ ("profile", Smt.Profile.to_json p) ]
  in
  let cert =
    match e.e_cert_digest with
    | None -> []
    | Some d -> [ ("cert", Vbase.Json.String d) ]
  in
  let rung =
    match e.e_rung with None -> [] | Some r -> [ ("rung", Vbase.Json.Int r) ]
  in
  Vbase.Json.Obj (base @ reason @ prof @ cert @ rung)

let entry_of_json (j : Vbase.Json.t) : (string * entry) option =
  let ( let* ) = Option.bind in
  let str k = match Vbase.Json.member k j with Some (Vbase.Json.String s) -> Some s | _ -> None in
  let* name = str "name" in
  let* kind = str "answer" in
  let* answer =
    match kind with
    | "unsat" -> Some Smt.Solver.Unsat
    | "sat" -> Some Smt.Solver.Sat
    | "unknown" -> Some (Smt.Solver.Unknown (Option.value (str "reason") ~default:"cached"))
    | _ -> None
  in
  let* detail = str "detail" in
  let* bytes = match Vbase.Json.member "bytes" j with Some (Vbase.Json.Int n) -> Some n | _ -> None in
  let* time_s = Option.bind (Vbase.Json.member "time_s" j) Vbase.Json.to_float in
  let* profile =
    match Vbase.Json.member "profile" j with
    | None -> Some None
    | Some pj -> (
      (* a malformed profile poisons the whole entry: dropping just the
         profile would let a profiled warm run silently serve stale data *)
      match Smt.Profile.of_json pj with Ok p -> Some (Some p) | Error _ -> None)
  in
  let* cert_digest =
    match Vbase.Json.member "cert" j with
    | None -> Some None
    | Some (Vbase.Json.String d) -> Some (Some d)
    | Some _ -> None
  in
  let* rung =
    (* additive key: entries written before the ladder existed have no
       "rung"; a mistyped one poisons the entry like a mistyped profile *)
    match Vbase.Json.member "rung" j with
    | None -> Some None
    | Some (Vbase.Json.Int r) when r >= 0 -> Some (Some r)
    | Some _ -> None
  in
  Some
    ( name,
      {
        e_answer = answer;
        e_detail = detail;
        e_bytes = bytes;
        e_time_s = time_s;
        e_profile = profile;
        e_cert_digest = cert_digest;
        e_rung = rung;
      } )

(* ----- open / lookup / store / flush ----- *)

(* The well-formed entries of a store document, and how many were not. *)
let decode (loaded : Vbase.Store.loaded) =
  let dropped = ref loaded.Vbase.Store.dropped in
  let entries =
    List.filter_map
      (fun (fp, j) ->
        match entry_of_json j with
        | None ->
          incr dropped;
          None
        | Some ne -> Some (fp, ne))
      loaded.Vbase.Store.entries
  in
  (entries, !dropped, loaded.Vbase.Store.corrupt)

let load dir = decode (Vbase.Store.load ~dir ~file:file_name ~schema:schema_version)

(* What [open_] builds from one store document.  Never mutated once
   built, so handles share it. *)
type parsed = {
  p_snapshot : (string, string * entry) Hashtbl.t;
  p_names : (string, string) Hashtbl.t;
  p_dropped : int;
  p_corrupt : bool;
}

let of_loaded loaded =
  let entries, dropped, corrupt = decode loaded in
  let n = List.length entries in
  let snapshot = Hashtbl.create n in
  let names = Hashtbl.create n in
  List.iter
    (fun (fp, (name, e)) ->
      Hashtbl.replace snapshot fp (name, e);
      Hashtbl.replace names name fp)
    entries;
  { p_snapshot = snapshot; p_names = names; p_dropped = dropped; p_corrupt = corrupt }

(* The last document [open_] parsed and the bytes it was parsed from.  An
   open whose file holds exactly those bytes reuses it: a parse depends on
   the bytes alone.  The key is the content, not the file's stamp: a
   same-size rewrite inside one mtime tick keeps the stamp.  Only parses
   of what is on disk enter here, never a flush's merged tables, whose
   floats have not yet been through the document's rounding.  One slot:
   the CLI, the daemon and the benchmark each open one directory at a
   time. *)
let last_parsed_lock = Mutex.create ()
let last_parsed : (string * parsed) option ref = ref None

let parse_store dir =
  match Vbase.Store.read ~dir ~file:file_name with
  | Error loaded -> of_loaded loaded
  | Ok text -> (
    match Mutex.protect last_parsed_lock (fun () -> !last_parsed) with
    | Some (seen, p) when String.equal seen text -> p
    | _ ->
      let p = of_loaded (Vbase.Store.parse ~schema:schema_version text) in
      Mutex.protect last_parsed_lock (fun () -> last_parsed := Some (text, p));
      p)

let open_ (cfg : config) : t =
  (* Stamp first: a save landing between the two only costs a re-read. *)
  let stamp = disk_stamp cfg.dir in
  let p = parse_store cfg.dir in
  {
    dir = cfg.dir;
    lock = Mutex.create ();
    snapshot = p.p_snapshot;
    names = p.p_names;
    fresh = Hashtbl.create 64;
    stamp;
    hits = 0;
    misses = 0;
    invalidations = 0;
    entries_loaded = Hashtbl.length p.p_snapshot;
    entries_dropped = p.p_dropped;
    corrupt_load = p.p_corrupt;
  }

let lookup t ~name ~fp ~profile_wanted ~certified_wanted =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.snapshot fp with
    | Some (_, e)
      when ((not profile_wanted) || e.e_profile <> None)
           && ((not certified_wanted)
              || e.e_answer <> Smt.Solver.Unsat
              || e.e_cert_digest <> None) ->
      t.hits <- t.hits + 1;
      Some e
    | Some _ ->
      (* entry present but missing what the run wants — unprofiled under a
         profiled run, or an uncertified Unsat under --certify: re-solve
         and upgrade; a miss, not an invalidation (nothing changed) *)
      t.misses <- t.misses + 1;
      None
    | None ->
      (* the name's loaded fingerprint, if any, necessarily differs from
         [fp] here — otherwise the snapshot lookup would have found it *)
      if Hashtbl.mem t.names name then t.invalidations <- t.invalidations + 1
      else t.misses <- t.misses + 1;
      None
  in
  Mutex.unlock t.lock;
  r

let rung_hint t ~fp =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.snapshot fp with
    | Some (_, e) -> e.e_rung
    | None -> None
  in
  Mutex.unlock t.lock;
  r

let store t ~name ~fp (e : entry) =
  Mutex.lock t.lock;
  if not (Hashtbl.mem t.fresh fp) then Hashtbl.replace t.fresh fp (name, e);
  Mutex.unlock t.lock

let stats t : stats =
  Mutex.lock t.lock;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      invalidations = t.invalidations;
      stores = Hashtbl.length t.fresh;
      entries_loaded = t.entries_loaded;
      entries_dropped = t.entries_dropped;
      corrupt_load = t.corrupt_load;
    }
  in
  Mutex.unlock t.lock;
  s

(* Flushes are serialized within the process by [flush_mutex] and across
   processes by a [lockf] lock on [lock_name] in the cache directory; the
   mutex is needed because a [lockf] lock belongs to the whole process. *)
let flush_mutex = Mutex.create ()
let lock_name = "store.lock"

let with_dir_lock dir f =
  Mutex.protect flush_mutex (fun () ->
      Vbase.Store.mkdir_p dir;
      let fd = Unix.openfile (Filename.concat dir lock_name) [ O_RDWR; O_CREAT; O_CLOEXEC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.lockf fd F_LOCK 0;
          f ()))

let flush t =
  Mutex.lock t.lock;
  let dirty = Hashtbl.length t.fresh > 0 || t.corrupt_load || t.entries_dropped > 0 in
  let write () =
    (* The snapshot, then what other writers saved since [open_] (the
       disk is re-read only when its stamp changed), then this run's
       entries, later ones winning.  Entries are content-addressed, so
       the union is safe. *)
    let merged = Hashtbl.copy t.snapshot in
    if disk_stamp t.dir <> t.stamp then begin
      let on_disk, _, _ = load t.dir in
      List.iter (fun (fp, ne) -> Hashtbl.replace merged fp ne) on_disk
    end;
    Hashtbl.iter (fun fp ne -> Hashtbl.replace merged fp ne) t.fresh;
    let entries =
      Hashtbl.fold (fun fp (name, e) acc -> (fp, entry_to_json name e) :: acc) merged []
    in
    Vbase.Store.save ~dir:t.dir ~file:file_name ~schema:schema_version entries
  in
  let r =
    if not dirty then Ok ()
    else
      try with_dir_lock t.dir write with
      | Sys_error m -> Error m
      | Unix.Unix_error (e, fn, _) -> Error (fn ^ ": " ^ Unix.error_message e)
  in
  Mutex.unlock t.lock;
  r

let clear ~dir = Vbase.Store.wipe ~dir ~file:file_name

(* ----- fingerprinting ----- *)

(* Canonical rendering of the VIR surface a [by(compute)] solve can
   observe: the interpreter evaluates the assert expression against spec
   bodies and datatype declarations directly, bypassing the SMT encoding,
   so its cache key must cover that surface rather than the encoded
   terms. *)

let add_ty b ty = Buffer.add_string b (Vir.ty_to_string ty)

let binop_tag : Vir.binop -> string = function
  | Vir.Add -> "+"
  | Vir.Sub -> "-"
  | Vir.Mul -> "*"
  | Vir.Div -> "div"
  | Vir.Mod -> "mod"
  | Vir.Lt -> "<"
  | Vir.Le -> "<="
  | Vir.Gt -> ">"
  | Vir.Ge -> ">="
  | Vir.Eq -> "="
  | Vir.Ne -> "!="
  | Vir.And -> "and"
  | Vir.Or -> "or"
  | Vir.Implies -> "=>"
  | Vir.BitAnd -> "bitand"
  | Vir.BitOr -> "bitor"
  | Vir.BitXor -> "bitxor"
  | Vir.Shl -> "shl"
  | Vir.Shr -> "shr"

let rec add_expr b (e : Vir.expr) =
  let list tag xs =
    Buffer.add_char b '(';
    Buffer.add_string b tag;
    List.iter
      (fun x ->
        Buffer.add_char b ' ';
        add_expr b x)
      xs;
    Buffer.add_char b ')'
  in
  match e with
  | Vir.EVar x -> Buffer.add_string b x
  | Vir.EOld x ->
    Buffer.add_string b "(old ";
    Buffer.add_string b x;
    Buffer.add_char b ')'
  | Vir.EBool v -> Buffer.add_string b (if v then "true" else "false")
  | Vir.EInt n -> Buffer.add_string b (string_of_int n)
  | Vir.EUnop (Vir.Not, x) -> list "not" [ x ]
  | Vir.EUnop (Vir.Neg, x) -> list "neg" [ x ]
  | Vir.EBinop (op, x, y) -> list (binop_tag op) [ x; y ]
  | Vir.EIte (c, x, y) -> list "ite" [ c; x; y ]
  | Vir.ECall (f, xs) -> list ("call:" ^ f) xs
  | Vir.ECtor (d, v, xs) -> list (Printf.sprintf "ctor:%s.%s" d v) xs
  | Vir.EField (x, f) -> list ("field:" ^ f) [ x ]
  | Vir.EIs (x, v) -> list ("is:" ^ v) [ x ]
  | Vir.ESeq s -> add_seq b s
  | Vir.EForall (vars, trig, body) -> add_quant b "forall" vars trig body
  | Vir.EExists (vars, trig, body) -> add_quant b "exists" vars trig body

and add_seq b (s : Vir.seq_op) =
  let list tag xs =
    Buffer.add_char b '(';
    Buffer.add_string b tag;
    List.iter
      (fun x ->
        Buffer.add_char b ' ';
        add_expr b x)
      xs;
    Buffer.add_char b ')'
  in
  match s with
  | Vir.SeqEmpty ty ->
    Buffer.add_string b "(seq-empty ";
    add_ty b ty;
    Buffer.add_char b ')'
  | Vir.SeqLen x -> list "seq-len" [ x ]
  | Vir.SeqIndex (x, i) -> list "seq-index" [ x; i ]
  | Vir.SeqPush (x, v) -> list "seq-push" [ x; v ]
  | Vir.SeqSkip (x, k) -> list "seq-skip" [ x; k ]
  | Vir.SeqTake (x, k) -> list "seq-take" [ x; k ]
  | Vir.SeqUpdate (x, i, v) -> list "seq-update" [ x; i; v ]
  | Vir.SeqAppend (x, y) -> list "seq-append" [ x; y ]

and add_quant b kw vars trig body =
  Buffer.add_char b '(';
  Buffer.add_string b kw;
  Buffer.add_string b " (";
  List.iteri
    (fun i (x, ty) ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b x;
      Buffer.add_char b ':';
      add_ty b ty)
    vars;
  Buffer.add_char b ')';
  (match trig with
  | Vir.Term_auto -> ()
  | Vir.Term_explicit groups ->
    List.iter
      (fun group ->
        Buffer.add_string b " :pattern (";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ' ';
            add_expr b x)
          group;
        Buffer.add_char b ')')
      groups);
  Buffer.add_char b ' ';
  add_expr b body;
  Buffer.add_char b ')'

let compute_surface (prog : Vir.program) (expr : Vir.expr option) : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun (d : Vir.datatype) ->
      Buffer.add_string b ("datatype " ^ d.Vir.dname);
      List.iter
        (fun (v, fields) ->
          Buffer.add_string b (" | " ^ v ^ "(");
          List.iteri
            (fun i (f, ty) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_string b f;
              Buffer.add_char b ':';
              add_ty b ty)
            fields;
          Buffer.add_char b ')')
        d.Vir.variants;
      Buffer.add_char b '\n')
    prog.Vir.datatypes;
  List.iter
    (fun (f : Vir.fndecl) ->
      match f.Vir.spec_body with
      | None -> ()
      | Some body ->
        Buffer.add_string b ("spec " ^ f.Vir.fname ^ "(");
        List.iteri
          (fun i (p : Vir.param) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b p.Vir.pname;
            Buffer.add_char b ':';
            add_ty b p.Vir.pty)
          f.Vir.params;
        Buffer.add_string b ") = ";
        add_expr b body;
        Buffer.add_char b '\n')
    prog.Vir.functions;
  (match expr with
  | None -> ()
  | Some e ->
    Buffer.add_string b "expr: ";
    add_expr b e;
    Buffer.add_char b '\n');
  Buffer.contents b

let hint_tag : Vir.proof_hint -> string = function
  | Vir.H_default -> "default"
  | Vir.H_bit_vector -> "bit_vector"
  | Vir.H_nonlinear -> "nonlinear"
  | Vir.H_integer_ring -> "integer_ring"
  | Vir.H_compute -> "compute"

(* [Profiles.solver_fingerprint] prints the budget with [Printf], and a run
   asks for it once per obligation of the same profile value.  Each domain
   keeps the last profile it rendered; profiles are immutable, so a
   physically equal one renders the same. *)
let last_solver_fp : (Profiles.t * string) option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let solver_fingerprint profile =
  let slot = Domain.DLS.get last_solver_fp in
  match Atomic.get slot with
  | Some (p, fp) when p == profile -> fp
  | _ ->
    let fp = Profiles.solver_fingerprint profile in
    Atomic.set slot (Some (profile, fp));
    fp

let fingerprint ?(analyze = false) ?ladder ~(profile : Profiles.t) ~(prog : Vir.program)
    ~(context : Smt.Term.t list) (vc : Encode.vc) : string =
  Smt.Canon.digest @@ fun s ->
  (* /2: the entry schema gained the winning-rung key and ladder-salted
     keys joined the space — pre-ladder entries must re-solve rather than
     replay under a key computed by different rules. *)
  Smt.Canon.add_string s "verus-cache-fp/3";
  (* The certificate schema is part of the key: bumping the cert format
     must invalidate every entry, or a warm hit could claim its stored
     digest names a certificate the current kernel would accept. *)
  Smt.Canon.add_string s ("cert-schema=" ^ Smt.Cert.schema_version);
  (* Prescreened solves ship a different query (derived facts appended,
     vacuous hypotheses dropped), so their entries must not alias plain
     ones; the analysis version is in the salt so a Vflow bump re-solves
     rather than replaying stale residue. *)
  if analyze then Smt.Canon.add_string s ("analyze=" ^ Vflow.version);
  (* An escalation ladder changes which configurations may produce the
     answer, so entries recorded under one ladder never satisfy a lookup
     under another (or under no ladder at all). *)
  (match ladder with
  | None -> ()
  | Some lfp -> Smt.Canon.add_string s ("ladder=" ^ lfp));
  Smt.Canon.add_string s (solver_fingerprint profile);
  Smt.Canon.add_string s ("hint=" ^ hint_tag vc.Encode.vc_hint);
  (match vc.Encode.vc_hint with
  | Vir.H_compute -> Smt.Canon.add_string s (compute_surface prog vc.Encode.vc_expr)
  | _ -> ());
  Smt.Canon.add_string s "context:";
  List.iter (Smt.Canon.add_term s) context;
  Smt.Canon.add_string s "hyps:";
  List.iter (Smt.Canon.add_term s) vc.Encode.vc_hyps;
  Smt.Canon.add_string s "goal:";
  Smt.Canon.add_term s vc.Encode.vc_goal

(* ----- offline inspection ----- *)

type disk_stats = {
  ds_exists : bool;
  ds_entries : int;
  ds_dropped : int;
  ds_corrupt : bool;
  ds_bytes : int;
  ds_answers : (string * int) list;
}

let disk_stats ~dir : disk_stats =
  let path = Filename.concat dir file_name in
  let exists = Sys.file_exists path in
  let bytes =
    if not exists then 0
    else try In_channel.with_open_bin path In_channel.length |> Int64.to_int with Sys_error _ -> 0
  in
  let entries, dropped, corrupt = load dir in
  let counts = Hashtbl.create 4 in
  List.iter
    (fun (_, (_, e)) ->
      let k = answer_kind e.e_answer in
      Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
    entries;
  let answers =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    ds_exists = exists;
    ds_entries = List.fold_left (fun acc (_, n) -> acc + n) 0 answers;
    ds_dropped = dropped;
    ds_corrupt = corrupt;
    ds_bytes = bytes;
    ds_answers = answers;
  }
