type serializer = {
  buf : Buffer.t;
  (* fresh symbol sid -> canonical alias, assigned in order of first
     occurrence in the payload *)
  alias : (int, string) Hashtbl.t;
  mutable next_alias : int;
  (* term id -> structural key, see [key] *)
  keys : (int, int) Hashtbl.t;
}

let create () =
  { buf = Buffer.create 4096; alias = Hashtbl.create 32; next_alias = 0; keys = Hashtbl.create 64 }

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

let sym_name s (f : Term.sym) =
  match fresh_prefix f.Term.sname with
  | None -> f.Term.sname
  | Some prefix -> (
    match Hashtbl.find_opt s.alias f.Term.sid with
    | Some a -> a
    | None ->
      let a = Printf.sprintf "%s!%d" prefix s.next_alias in
      s.next_alias <- s.next_alias + 1;
      Hashtbl.add s.alias f.Term.sid a;
      a)

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

let mix tag ks = List.fold_left (fun h k -> (h * 1_000_003) lxor k) (Hashtbl.hash tag) ks

(* A structural key that ignores hash-cons ids: [Term.eq] and [Term.mul]
   store their operands in id order, and ids depend on which terms the
   process built first, so emitting them as stored would make the payload
   depend on process history.  Fresh symbols key by prefix (their aliases
   are assigned in emission order, which this key decides), and the
   operands of [Eq]/[Mul] key as an unordered pair. *)
let rec key s (t : Term.t) =
  match Hashtbl.find_opt s.keys t.Term.tid with
  | Some k -> k
  | None ->
    let keys = List.map (key s) in
    let pair tag a x =
      let ka = key s a and kx = key s x in
      mix tag [ min ka kx; max ka kx ]
    in
    let sym (f : Term.sym) =
      Hashtbl.hash
        ( (match fresh_prefix f.Term.sname with Some p -> p | None -> f.Term.sname),
          Sort.to_string f.Term.sret )
    in
    let k =
      match t.Term.node with
      | Term.True -> mix "true" []
      | Term.False -> mix "false" []
      | Term.Int_lit v -> mix (Vbase.Bigint.to_string v) []
      | Term.Bv_lit { width; value } -> mix (Vbase.Bigint.to_string value) [ width ]
      | Term.Bvar (x, srt) -> mix x [ Hashtbl.hash (Sort.to_string srt) ]
      | Term.App (f, xs) -> mix "app" (sym f :: keys xs)
      | Term.Eq (a, x) -> pair "=" a x
      | Term.Mul (a, x) -> pair "*" a x
      | Term.Not a -> mix "not" [ key s a ]
      | Term.And xs -> mix "and" (keys xs)
      | Term.Or xs -> mix "or" (keys xs)
      | Term.Implies (a, x) -> mix "=>" (keys [ a; x ])
      | Term.Iff (a, x) -> mix "iff" (keys [ a; x ])
      | Term.Ite (a, x, y) -> mix "ite" (keys [ a; x; y ])
      | Term.Add xs -> mix "+" (keys xs)
      | Term.Sub (a, x) -> mix "-" (keys [ a; x ])
      | Term.Neg a -> mix "neg" [ key s a ]
      | Term.Le (a, x) -> mix "<=" (keys [ a; x ])
      | Term.Lt (a, x) -> mix "<" (keys [ a; x ])
      | Term.Idiv (a, x) -> mix "div" (keys [ a; x ])
      | Term.Imod (a, x) -> mix "mod" (keys [ a; x ])
      | Term.Bv_op (o, xs) -> mix (bvop_tag o) (keys xs)
      | Term.Forall q | Term.Exists q ->
        mix
          (match t.Term.node with Term.Forall _ -> "forall" | _ -> "exists")
          (List.map (fun (x, srt) -> Hashtbl.hash (x, Sort.to_string srt)) q.Term.qvars
          @ List.map (fun pats -> mix "pattern" (keys pats)) q.Term.triggers
          @ [ key s q.Term.body ])
    in
    Hashtbl.add s.keys t.Term.tid k;
    k

(* A commutative pair in key order; a tie keeps the stored order. *)
let ordered s a x = if key s x < key s a then [ x; a ] else [ a; x ]

let rec emit s (t : Term.t) =
  let b = s.buf in
  let list tag xs =
    Buffer.add_char b '(';
    Buffer.add_string b tag;
    List.iter
      (fun x ->
        Buffer.add_char b ' ';
        emit s x)
      xs;
    Buffer.add_char b ')'
  in
  match t.Term.node with
  | Term.True -> Buffer.add_string b "true"
  | Term.False -> Buffer.add_string b "false"
  | Term.Int_lit v -> Buffer.add_string b (Vbase.Bigint.to_string v)
  | Term.Bv_lit { width; value } ->
    Buffer.add_string b (Printf.sprintf "#bv%d:%s" width (Vbase.Bigint.to_string value))
  | Term.Bvar (x, srt) ->
    Buffer.add_string b x;
    Buffer.add_char b ':';
    Buffer.add_string b (Sort.to_string srt)
  | Term.App (f, []) ->
    Buffer.add_string b (sym_name s f);
    Buffer.add_char b ':';
    Buffer.add_string b (Sort.to_string f.Term.sret)
  | Term.App (f, xs) -> list (sym_name s f ^ ":" ^ Sort.to_string f.Term.sret) xs
  | Term.Eq (a, x) -> list "=" (ordered s a x)
  | Term.Not a -> list "not" [ a ]
  | Term.And xs -> list "and" xs
  | Term.Or xs -> list "or" xs
  | Term.Implies (a, x) -> list "=>" [ a; x ]
  | Term.Iff (a, x) -> list "iff" [ a; x ]
  | Term.Ite (a, x, y) -> list "ite" [ a; x; y ]
  | Term.Add xs -> list "+" xs
  | Term.Sub (a, x) -> list "-" [ a; x ]
  | Term.Mul (a, x) -> list "*" (ordered s a x)
  | Term.Neg a -> list "neg" [ a ]
  | Term.Le (a, x) -> list "<=" [ a; x ]
  | Term.Lt (a, x) -> list "<" [ a; x ]
  | Term.Idiv (a, x) -> list "div" [ a; x ]
  | Term.Imod (a, x) -> list "mod" [ a; x ]
  | Term.Bv_op (o, xs) -> list (bvop_tag o) xs
  | Term.Forall q | Term.Exists q ->
    let kw = match t.Term.node with Term.Forall _ -> "forall" | _ -> "exists" in
    Buffer.add_char b '(';
    Buffer.add_string b kw;
    Buffer.add_string b " (";
    List.iteri
      (fun i (x, srt) ->
        if i > 0 then Buffer.add_char b ' ';
        Buffer.add_string b x;
        Buffer.add_char b ':';
        Buffer.add_string b (Sort.to_string srt))
      q.Term.qvars;
    Buffer.add_char b ')';
    List.iter
      (fun pats ->
        Buffer.add_string b " :pattern ";
        list "" pats)
      q.Term.triggers;
    Buffer.add_char b ' ';
    emit s q.Term.body;
    Buffer.add_char b ')'

let add_term s t =
  emit s t;
  Buffer.add_char s.buf '\n'

let add_string s x =
  Buffer.add_string s.buf x;
  Buffer.add_char s.buf '\n'

let contents s = Buffer.contents s.buf

let term_to_string t =
  let s = create () in
  emit s t;
  contents s
