type serializer = {
  (* the payload is [Bytes.sub buf 0 len] *)
  mutable buf : Bytes.t;
  mutable len : int;
  (* the next fresh-symbol alias; aliases are assigned in order of first
     occurrence in the payload *)
  mutable next_alias : int;
  (* symbol sid -> its application head ["name:Sort"], and whether the
     name is a fresh symbol's alias; see [head] *)
  heads : (string * bool) Term.Id_tbl.t;
  (* term id -> structural key, see [key] *)
  keys : int Term.Id_tbl.t;
  (* set when a rendering names a fresh symbol, see [add_term] *)
  mutable named_fresh : bool;
}

let create () =
  {
    buf = Bytes.create 256;
    len = 0;
    next_alias = 0;
    heads = Term.Id_tbl.create 32;
    keys = Term.Id_tbl.create 64;
    named_fresh = false;
  }

let put_char s c =
  if s.len = Bytes.length s.buf then begin
    let b = Bytes.create (2 * Bytes.length s.buf) in
    Bytes.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  Bytes.unsafe_set s.buf s.len c;
  s.len <- s.len + 1

let put s x =
  let n = String.length x in
  if s.len + n > Bytes.length s.buf then begin
    let b = Bytes.create (max (2 * Bytes.length s.buf) (s.len + n)) in
    Bytes.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  Bytes.unsafe_blit_string x 0 s.buf s.len n;
  s.len <- s.len + n

(* A symbol is "fresh" when its name carries a ['!' digits] suffix — the
   shape [Term.Sym.fresh] mints and nothing else produces (declared
   symbols come from source-level names). *)
let fresh_prefix name =
  match String.rindex_opt name '!' with
  | None -> None
  | Some i ->
    let n = String.length name in
    let rec digits j = j >= n || (name.[j] >= '0' && name.[j] <= '9' && digits (j + 1)) in
    if i + 1 < n && digits (i + 1) then Some (String.sub name 0 i) else None

(* An application's head, ["name:Sort"], where a fresh symbol's name is
   its alias, assigned at the symbol's first occurrence. *)
let head s (f : Term.sym) =
  match Term.Id_tbl.find_opt s.heads f.Term.sid with
  | Some h -> h
  | None ->
    let name, fresh =
      match fresh_prefix f.Term.sname with
      | None -> (f.Term.sname, false)
      | Some prefix ->
        let a = prefix ^ "!" ^ string_of_int s.next_alias in
        s.next_alias <- s.next_alias + 1;
        (a, true)
    in
    let h = (name ^ ":" ^ Sort.to_string f.Term.sret, fresh) in
    Term.Id_tbl.add s.heads f.Term.sid h;
    h

let put_head s f =
  let h, fresh = head s f in
  if fresh then s.named_fresh <- true;
  put s h

let bvop_tag : Term.bvop -> string = function
  | Term.Band -> "bvand"
  | Term.Bor -> "bvor"
  | Term.Bxor -> "bvxor"
  | Term.Bnot -> "bvnot"
  | Term.Badd -> "bvadd"
  | Term.Bsub -> "bvsub"
  | Term.Bmul -> "bvmul"
  | Term.Bneg -> "bvneg"
  | Term.Bshl -> "bvshl"
  | Term.Blshr -> "bvlshr"
  | Term.Bule -> "bvule"
  | Term.Bult -> "bvult"
  | Term.Bconcat -> "concat"
  | Term.Bextract (hi, lo) -> Printf.sprintf "extract:%d:%d" hi lo

(* The rendering of a term that names no fresh symbol depends on the term
   alone, not on the serializer's aliases, so each domain renders it once
   and copies the text after that.  The table is keyed on the term through
   an ephemeron: it never keeps a term alive, and an entry goes when its
   term does (today the hash-cons table keeps every term for the life of
   the process).  Terms naming fresh symbols are rendered every time and
   never enter it; as nearly every hypothesis and goal names one, the
   table holds little more than the program axioms.  One table per
   domain, so domains never wait on each other; the lock is for the
   systhreads a domain may run. *)
module Rendered = Ephemeron.K1.Make (struct
  type t = Term.t

  let equal = ( == )
  let hash (t : Term.t) = t.Term.tid
end)

let rendered : (Mutex.t * string Rendered.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (Mutex.create (), Rendered.create 256))

let find_rendered t =
  let lock, memo = Domain.DLS.get rendered in
  Mutex.lock lock;
  let r = Rendered.find_opt memo t in
  Mutex.unlock lock;
  r

let remember_rendered t text =
  let lock, memo = Domain.DLS.get rendered in
  Mutex.lock lock;
  Rendered.replace memo t text;
  Mutex.unlock lock

(* The digits of an integer literal.  Values beyond the native [int]
   range (the u64 bound, say) print by limb division, so their text is
   kept with the other renderings; a literal names no fresh symbol. *)
let digits (t : Term.t) v =
  match Vbase.Bigint.to_int_opt v with
  | Some n -> string_of_int n
  | None -> (
    match find_rendered t with
    | Some text -> text
    | None ->
      let text = Vbase.Bigint.to_string v in
      remember_rendered t text;
      text)

(* [mix (Hashtbl.hash tag) ks] folds the keys [ks] into a tag's hash, one
   [step] per key; the tags' hashes are computed once below. *)
let step h k = (h * 1_000_003) lxor k
let mix h ks = List.fold_left step h ks
let h_true = Hashtbl.hash "true"
let h_false = Hashtbl.hash "false"
let h_app = Hashtbl.hash "app"
let h_eq = Hashtbl.hash "="
let h_mul = Hashtbl.hash "*"
let h_not = Hashtbl.hash "not"
let h_and = Hashtbl.hash "and"
let h_or = Hashtbl.hash "or"
let h_implies = Hashtbl.hash "=>"
let h_iff = Hashtbl.hash "iff"
let h_ite = Hashtbl.hash "ite"
let h_add = Hashtbl.hash "+"
let h_sub = Hashtbl.hash "-"
let h_neg = Hashtbl.hash "neg"
let h_le = Hashtbl.hash "<="
let h_lt = Hashtbl.hash "<"
let h_div = Hashtbl.hash "div"
let h_mod = Hashtbl.hash "mod"
let h_forall = Hashtbl.hash "forall"
let h_exists = Hashtbl.hash "exists"
let h_pattern = Hashtbl.hash "pattern"

(* A structural key that ignores hash-cons ids: [Term.eq] and [Term.mul]
   store their operands in id order, and ids depend on which terms the
   process built first, so emitting them as stored would make the payload
   depend on process history.  Fresh symbols key by prefix (their aliases
   are assigned in emission order, which this key decides), and the
   operands of [Eq]/[Mul] key as an unordered pair. *)
let rec key s (t : Term.t) =
  match Term.Id_tbl.find_opt s.keys t.Term.tid with
  | Some k -> k
  | None ->
    let keys h xs = List.fold_left (fun h x -> step h (key s x)) h xs in
    let pair h a x =
      let ka = key s a and kx = key s x in
      step (step h (min ka kx)) (max ka kx)
    in
    let sym (f : Term.sym) =
      Hashtbl.hash
        ( (match fresh_prefix f.Term.sname with Some p -> p | None -> f.Term.sname),
          Sort.to_string f.Term.sret )
    in
    let k =
      match t.Term.node with
      | Term.True -> h_true
      | Term.False -> h_false
      | Term.Int_lit v -> Hashtbl.hash (digits t v)
      | Term.Bv_lit { width; value } -> step (Hashtbl.hash (Vbase.Bigint.to_string value)) width
      | Term.Bvar (x, srt) -> step (Hashtbl.hash x) (Hashtbl.hash (Sort.to_string srt))
      | Term.App (f, xs) -> keys (step h_app (sym f)) xs
      | Term.Eq (a, x) -> pair h_eq a x
      | Term.Mul (a, x) -> pair h_mul a x
      | Term.Not a -> step h_not (key s a)
      | Term.And xs -> keys h_and xs
      | Term.Or xs -> keys h_or xs
      | Term.Implies (a, x) -> keys h_implies [ a; x ]
      | Term.Iff (a, x) -> keys h_iff [ a; x ]
      | Term.Ite (a, x, y) -> keys h_ite [ a; x; y ]
      | Term.Add xs -> keys h_add xs
      | Term.Sub (a, x) -> keys h_sub [ a; x ]
      | Term.Neg a -> step h_neg (key s a)
      | Term.Le (a, x) -> keys h_le [ a; x ]
      | Term.Lt (a, x) -> keys h_lt [ a; x ]
      | Term.Idiv (a, x) -> keys h_div [ a; x ]
      | Term.Imod (a, x) -> keys h_mod [ a; x ]
      | Term.Bv_op (o, xs) -> keys (Hashtbl.hash (bvop_tag o)) xs
      | Term.Forall q | Term.Exists q ->
        mix
          (match t.Term.node with Term.Forall _ -> h_forall | _ -> h_exists)
          (List.map (fun (x, srt) -> Hashtbl.hash (x, Sort.to_string srt)) q.Term.qvars
          @ List.map (fun pats -> keys h_pattern pats) q.Term.triggers
          @ [ key s q.Term.body ])
    in
    Term.Id_tbl.add s.keys t.Term.tid k;
    k

(* ["(tag x1 ... xn)"]. *)
let rec emit_list s tag xs =
  put_char s '(';
  put s tag;
  List.iter
    (fun x ->
      put_char s ' ';
      emit s x)
    xs;
  put_char s ')'

(* A commutative pair in key order; a tie keeps the stored order. *)
and emit_ordered s tag a x =
  let a, x = if key s x < key s a then (x, a) else (a, x) in
  put_char s '(';
  put s tag;
  put_char s ' ';
  emit s a;
  put_char s ' ';
  emit s x;
  put_char s ')'

and emit s (t : Term.t) =
  match t.Term.node with
  | Term.True -> put s "true"
  | Term.False -> put s "false"
  | Term.Int_lit v -> put s (digits t v)
  | Term.Bv_lit { width; value } ->
    put s (Printf.sprintf "#bv%d:%s" width (Vbase.Bigint.to_string value))
  | Term.Bvar (x, srt) ->
    put s x;
    put_char s ':';
    put s (Sort.to_string srt)
  | Term.App (f, []) -> put_head s f
  | Term.App (f, xs) ->
    put_char s '(';
    put_head s f;
    List.iter
      (fun x ->
        put_char s ' ';
        emit s x)
      xs;
    put_char s ')'
  | Term.Eq (a, x) -> emit_ordered s "=" a x
  | Term.Not a -> emit_list s "not" [ a ]
  | Term.And xs -> emit_list s "and" xs
  | Term.Or xs -> emit_list s "or" xs
  | Term.Implies (a, x) -> emit_list s "=>" [ a; x ]
  | Term.Iff (a, x) -> emit_list s "iff" [ a; x ]
  | Term.Ite (a, x, y) -> emit_list s "ite" [ a; x; y ]
  | Term.Add xs -> emit_list s "+" xs
  | Term.Sub (a, x) -> emit_list s "-" [ a; x ]
  | Term.Mul (a, x) -> emit_ordered s "*" a x
  | Term.Neg a -> emit_list s "neg" [ a ]
  | Term.Le (a, x) -> emit_list s "<=" [ a; x ]
  | Term.Lt (a, x) -> emit_list s "<" [ a; x ]
  | Term.Idiv (a, x) -> emit_list s "div" [ a; x ]
  | Term.Imod (a, x) -> emit_list s "mod" [ a; x ]
  | Term.Bv_op (o, xs) -> emit_list s (bvop_tag o) xs
  | Term.Forall q | Term.Exists q ->
    put_char s '(';
    put s (match t.Term.node with Term.Forall _ -> "forall" | _ -> "exists");
    put s " (";
    List.iteri
      (fun i (x, srt) ->
        if i > 0 then put_char s ' ';
        put s x;
        put_char s ':';
        put s (Sort.to_string srt))
      q.Term.qvars;
    put_char s ')';
    List.iter
      (fun pats ->
        put s " :pattern ";
        emit_list s "" pats)
      q.Term.triggers;
    put_char s ' ';
    emit s q.Term.body;
    put_char s ')'

let add_term s t =
  (match find_rendered t with
  | Some text -> put s text
  | None ->
    let start = s.len in
    s.named_fresh <- false;
    emit s t;
    if not s.named_fresh then remember_rendered t (Bytes.sub_string s.buf start (s.len - start)));
  put_char s '\n'

let add_string s x =
  put s x;
  put_char s '\n'

let contents s = Bytes.sub_string s.buf 0 s.len

(* Each domain keeps one serializer for [digest] and clears it between
   uses, so a digest allocates no payload buffer or tables of its own.  A
   digest takes it out of the slot while it runs: a nested digest, or one
   on another systhread of the domain, finds the slot empty and builds its
   own. *)
let spare : serializer option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let digest fill =
  let slot = Domain.DLS.get spare in
  let s =
    match Atomic.exchange slot None with
    | None -> create ()
    | Some s ->
      s.len <- 0;
      s.next_alias <- 0;
      Term.Id_tbl.clear s.heads;
      Term.Id_tbl.clear s.keys;
      s
  in
  fill s;
  let d = Vbase.Hash.bytes128 s.buf s.len in
  Atomic.set slot (Some s);
  d
