module Rat = Vbase.Rat
module Bigint = Vbase.Bigint

type budget = {
  deadline_s : float;
      (* wall-clock budget per solve; exceeded -> Unknown "timeout" *)
  max_rounds : int;
  max_instances_per_round : int;
  max_instances_per_quant : int;
      (* fuel-style cap per quantifier, bounding definitional unfolding
         chains (Dafny's fuel plays this role) *)
  sat_conflict_budget : int;
  bb_budget : int;
  combination_pairs_per_round : int;
  ring_pairs_budget : int;
}

let default_budget =
  {
    deadline_s = 300.0;
    max_rounds = 12;
    max_instances_per_round = 600;
    max_instances_per_quant = 120;
    sat_conflict_budget = 400_000;
    bb_budget = 2000;
    combination_pairs_per_round = 24;
    ring_pairs_budget = 2000;
  }

type config = {
  trigger_policy : Triggers.policy;
  budget : budget;
  certify : bool;
      (* record a replayable proof certificate for Unsat answers; off by
         default (emission threads extra bookkeeping through the SAT and
         LIA cores) *)
}

let default_config =
  { trigger_policy = Triggers.Conservative; budget = default_budget; certify = false }

(* The canonical one-line rendering of a budget, a component of the
   verification cache's fingerprints: a cached answer obtained under one
   budget must not satisfy a query running under another (a looser budget
   might succeed where the recorded solve gave up). *)
let budget_fingerprint (b : budget) =
  Printf.sprintf "deadline=%h;rounds=%d;ipr=%d;ipq=%d;sat=%d;bb=%d;comb=%d;ring=%d"
    b.deadline_s b.max_rounds b.max_instances_per_round b.max_instances_per_quant
    b.sat_conflict_budget b.bb_budget b.combination_pairs_per_round b.ring_pairs_budget

type answer = Unsat | Sat | Unknown of string

type stats = {
  rounds : int;
  instances : int;
  matches_tried : int;
  conflicts : int;
  decisions : int;
  query_bytes : int;
  time_s : float;
}

type result = {
  answer : answer;
  stats : stats;
  model : (string * string) list;
  profile : Profile.t;
  cert : Cert.t option;
      (* present iff [answer = Unsat] and the solve ran with
         [config.certify = true] *)
}

(* A theory atom and its value in the SAT model the current final check
   examines. *)
type atom = { var : int; term : Term.t; mutable value : bool }

(* What final checks need of an atom beyond its value, derived once, when
   the first final check that sees the atom reaches it. *)
type atom_form = {
  tid : int; (* the atom's term id *)
  mark : int; (* E-graph size once this atom's terms are registered *)
  role : euf_role;
  apps : Term.t list; (* its non-nullary applications, in fold_subterms order *)
  mutable prep_pos : Lia.prepared list option; (* its LIA bounds when true *)
  mutable prep_neg : Lia.prepared list option; (* ... and when false *)
}

and euf_role =
  | Euf_eq of int * int (* an equality over these E-graph nodes *)
  | Euf_pred of int (* a predicate application, equal to true or false *)
  | Euf_none

type state = {
  cfg : config;
  sat : Sat.t;
  bb : Bitblast.t;
  em : Ematch.t;
  lit_of : (int, int) Hashtbl.t; (* formula tid -> SAT literal (Tseitin) *)
  atoms : atom Vbase.Vecbuf.t; (* theory atoms in creation order; only grows *)
  forms : atom_form Vbase.Vecbuf.t; (* forms.(i) belongs to atoms.(i) *)
  quant_guard : (int, int) Hashtbl.t; (* forall tid -> guard SAT literal *)
  eq_split_done : unit Term.Id_tbl.t; (* Eq atom tid -> split lemma added *)
  comb_pairs_done : unit Term.Id_tbl.t; (* [pair_key] of term pairs split by combination *)
  (* Theory combination's applications by symbol id, newest first, from
     the atoms below [comb_atoms], and the set of their term ids: an
     atom's applications never change, so adding each atom's once gives
     every round the table (insertion order included) it would build
     from scratch. *)
  comb_by_sym : (int, Term.t list ref) Hashtbl.t;
  comb_seen : unit Term.Id_tbl.t;
  mutable comb_atoms : int;
  proxy_of : (int, Term.t) Hashtbl.t; (* purification proxies by tid *)
  divmod_of : (int, Term.t * Term.t) Hashtbl.t; (* Idiv/Imod tid -> (q, r) *)
  ite_of : (int, Term.t) Hashtbl.t;
  mutable pending : Term.t list; (* assertions awaiting processing *)
  mutable query_bytes : int;
  mutable const_true_lit : int option;
  mutable has_quants : bool;
  mutable t_sat : float;
  mutable t_ematch : float;
  (* Fine-grained phase accounting inside the theory final check
     (t_euf + t_lia + t_comb), plus per-theory conflict and lemma
     counters.  Always on: a handful of gettimeofday
     calls per final check is noise next to the check itself, and it is
     what makes every result carry a Profile without a config switch. *)
  mutable t_euf : float;
  mutable t_lia : float;
  mutable t_comb : float;
  mutable n_euf_conflicts : int;
  mutable n_lia_conflicts : int;
  mutable n_theory_lemmas : int;
  mutable inst_rounds : int;
  (* The theories persist across the rounds of one solve: the E-graph
     keeps its node table and replays each atom's registration up to its
     [mark]; LIA keeps variables, tableau and slack forms. *)
  euf : Euf.t;
  lia : Lia.t;
  lin_cache : (int, (Rat.t * Term.t) list * Rat.t) Hashtbl.t;
  mutable deadline : float; (* absolute wall deadline for this solve *)
  cert : Cert.builder option; (* Some iff cfg.certify *)
  justs : (int, Cert.just) Hashtbl.t; (* proof step id -> theory justification *)
  mutable input_tag : int; (* current Cert input-step tag for trusted clauses *)
}

let create_state cfg =
  let sat = Sat.create () in
  let lia = Lia.create () in
  if cfg.certify then begin
    Sat.enable_proof sat;
    Lia.set_certify lia true
  end;
  {
    cfg;
    sat;
    bb = Bitblast.create sat;
    em = Ematch.create cfg.trigger_policy;
    lit_of = Hashtbl.create 256;
    atoms = Vbase.Vecbuf.create ~dummy:{ var = -1; term = Term.tru; value = false };
    forms =
      Vbase.Vecbuf.create
        ~dummy:{ tid = -1; mark = 0; role = Euf_none; apps = []; prep_pos = None; prep_neg = None };
    quant_guard = Hashtbl.create 16;
    eq_split_done = Term.Id_tbl.create 16;
    comb_pairs_done = Term.Id_tbl.create 16;
    comb_by_sym = Hashtbl.create 64;
    comb_seen = Term.Id_tbl.create 256;
    comb_atoms = 0;
    proxy_of = Hashtbl.create 64;
    divmod_of = Hashtbl.create 16;
    ite_of = Hashtbl.create 16;
    pending = [];
    query_bytes = 0;
    const_true_lit = None;
    has_quants = false;
    t_sat = 0.0;
    t_ematch = 0.0;
    t_euf = 0.0;
    t_lia = 0.0;
    t_comb = 0.0;
    n_euf_conflicts = 0;
    n_lia_conflicts = 0;
    n_theory_lemmas = 0;
    inst_rounds = 0;
    euf = Euf.create ();
    lia;
    lin_cache = Hashtbl.create 256;
    deadline = infinity;
    cert = (if cfg.certify then Some (Cert.create_builder ()) else None);
    justs = Hashtbl.create 64;
    input_tag = 0;
  }

(* Run [f] with input steps tagged [tag] (instantiation = 1, bit-blasting
   = 2); restores the enclosing tag, so a bit-blasted atom created while
   asserting an instance ends up tagged 2, and Tseitin clauses after it
   revert to the instance tag. *)
let with_input_tag st tag f =
  match st.cert with
  | None -> f ()
  | Some _ ->
    let old = st.input_tag in
    st.input_tag <- tag;
    Sat.set_input_tag st.sat tag;
    let r = f () in
    st.input_tag <- old;
    Sat.set_input_tag st.sat old;
    r

(* Attach a theory justification to the clause just passed to
   [Sat.add_clause] (a no-op when certification is off or the clause was
   dropped as a tautology). *)
let justify st (just : unit -> Cert.just) =
  match st.cert with
  | None -> ()
  | Some _ ->
    let step = Sat.last_input_step st.sat in
    if step >= 0 then Hashtbl.replace st.justs step (just ())

let lit_true st =
  match st.const_true_lit with
  | Some l -> l
  | None ->
    let v = Sat.new_var st.sat in
    Sat.add_clause st.sat [ Sat.pos v ];
    st.const_true_lit <- Some (Sat.pos v);
    Sat.pos v

(* ------------------------------------------------------------------ *)
(* Preprocessing: purification, div/mod and ite compilation            *)
(* ------------------------------------------------------------------ *)

let is_composite_int (t : Term.t) =
  Sort.equal t.Term.sort Sort.Int
  &&
  match t.Term.node with
  | Term.Add _ | Term.Sub _ | Term.Mul _ | Term.Neg _ | Term.Idiv _ | Term.Imod _ | Term.Ite _ ->
    true
  | _ -> false

(* Rewrites a term bottom-up; [emit] receives side assertions (already in
   purified form). *)
let rec purify st ~emit (t : Term.t) : Term.t =
  let recur x = purify st ~emit x in
  match t.Term.node with
  | Term.True | Term.False | Term.Int_lit _ | Term.Bv_lit _ | Term.Bvar _ -> t
  | Term.Forall q ->
    (* Under binders, only rewrite what stays ground. *)
    Term.forall ~triggers:q.Term.triggers q.Term.qvars (recur q.Term.body)
  | Term.Exists q -> Term.exists ~triggers:q.Term.triggers q.Term.qvars (recur q.Term.body)
  | Term.Ite (c, a, b)
    when (not (Sort.equal t.Term.sort Sort.Bool))
         && (match t.Term.sort with Sort.Bv _ -> false | _ -> true)
         && Term.is_ground t -> (
    match Hashtbl.find_opt st.ite_of t.Term.tid with
    | Some k -> k
    | None ->
      let c = recur c and a = recur a and b = recur b in
      let k = Term.const (Term.Sym.fresh "ite" [] t.Term.sort) in
      Hashtbl.add st.ite_of t.Term.tid k;
      emit (Term.implies c (Term.eq k a));
      emit (Term.implies (Term.not_ c) (Term.eq k b));
      k)
  | Term.Idiv (a, b) | Term.Imod (a, b) -> (
    let is_div = match t.Term.node with Term.Idiv _ -> true | _ -> false in
    match b.Term.node with
    | Term.Int_lit v when (not (Bigint.is_zero v)) && Term.is_ground a -> (
      let q, r =
        match Hashtbl.find_opt st.divmod_of (Term.hash (Term.idiv a b)) with
        | Some qr -> qr
        | None ->
          let a' = recur a in
          let q = Term.const (Term.Sym.fresh "divq" [] Sort.Int) in
          let r = Term.const (Term.Sym.fresh "divr" [] Sort.Int) in
          Hashtbl.add st.divmod_of (Term.hash (Term.idiv a b)) (q, r);
          (* a = q*b + r /\ 0 <= r < |b|   (Euclidean) *)
          emit (Term.eq a' (Term.add [ Term.mul q b; r ]));
          emit (Term.le (Term.int_of 0) r);
          emit (Term.lt r (Term.int_lit (Bigint.abs v)));
          (q, r)
      in
      if is_div then q else r)
    | _ ->
      let a = recur a and b = recur b in
      if is_div then Term.idiv a b else Term.imod a b)
  | Term.App (f, args) when args <> [] ->
    let args = List.map recur args in
    let args =
      List.map
        (fun (a : Term.t) ->
          if is_composite_int a && Term.is_ground a then begin
            match Hashtbl.find_opt st.proxy_of a.Term.tid with
            | Some p -> p
            | None ->
              let p = Term.const (Term.Sym.fresh "pur" [] Sort.Int) in
              Hashtbl.add st.proxy_of a.Term.tid p;
              emit (Term.eq p a);
              p
          end
          else a)
        args
    in
    Term.app f args
  | _ ->
    (* Structural recursion via children rebuild. *)
    rebuild_children st ~emit t

and rebuild_children st ~emit t =
  let recur x = purify st ~emit x in
  match t.Term.node with
  | Term.App (f, args) -> Term.app f (List.map recur args)
  | Term.Eq (a, b) -> Term.eq (recur a) (recur b)
  | Term.Not a -> Term.not_ (recur a)
  | Term.And xs -> Term.and_ (List.map recur xs)
  | Term.Or xs -> Term.or_ (List.map recur xs)
  | Term.Implies (a, b) -> Term.implies (recur a) (recur b)
  | Term.Iff (a, b) -> Term.iff (recur a) (recur b)
  | Term.Ite (a, b, c) -> Term.ite (recur a) (recur b) (recur c)
  | Term.Add xs -> Term.add (List.map recur xs)
  | Term.Sub (a, b) -> Term.sub (recur a) (recur b)
  | Term.Mul (a, b) -> Term.mul (recur a) (recur b)
  | Term.Neg a -> Term.neg (recur a)
  | Term.Le (a, b) -> Term.le (recur a) (recur b)
  | Term.Lt (a, b) -> Term.lt (recur a) (recur b)
  | Term.Bv_op (o, xs) -> Term.bv_op o (List.map recur xs)
  | _ -> t

(* ------------------------------------------------------------------ *)
(* NNF with polarity-driven skolemization                              *)
(* ------------------------------------------------------------------ *)

(* [env] holds enclosing universal variables (for skolem arguments). *)
let rec nnf_pol pol (env : (string * Sort.t) list) (t : Term.t) : Term.t =
  match t.Term.node with
  | Term.Not a -> nnf_pol (not pol) env a
  | Term.And xs ->
    if pol then Term.and_ (List.map (nnf_pol pol env) xs)
    else Term.or_ (List.map (nnf_pol pol env) xs)
  | Term.Or xs ->
    if pol then Term.or_ (List.map (nnf_pol pol env) xs)
    else Term.and_ (List.map (nnf_pol pol env) xs)
  | Term.Implies (a, b) ->
    if pol then Term.or_ [ nnf_pol false env a; nnf_pol true env b ]
    else Term.and_ [ nnf_pol true env a; nnf_pol false env b ]
  | Term.Iff (a, b) ->
    (* (a -> b) /\ (b -> a), then by polarity. *)
    nnf_pol pol env (Term.and_ [ Term.implies a b; Term.implies b a ])
  | Term.Ite (c, a, b) when Sort.equal t.Term.sort Sort.Bool ->
    nnf_pol pol env (Term.and_ [ Term.implies c a; Term.implies (Term.not_ c) b ])
  | Term.Forall q ->
    if pol then
      let env' = env @ q.Term.qvars in
      Term.forall ~triggers:q.Term.triggers q.Term.qvars (nnf_pol true env' q.Term.body)
    else skolemize pol env q
  | Term.Exists q ->
    if pol then skolemize pol env q
    else
      let env' = env @ q.Term.qvars in
      Term.forall q.Term.qvars (nnf_pol false env' q.Term.body)
  | _ -> if pol then t else Term.not_ t

and skolemize pol env (q : Term.quant) =
  (* Replace each bound var with a skolem function of the enclosing
     universals. *)
  let args = List.map (fun (x, s) -> Term.bvar x s) env in
  let arg_sorts = List.map snd env in
  let bindings =
    List.map
      (fun (x, s) ->
        let f = Term.Sym.fresh ("sk_" ^ x) arg_sorts s in
        (x, Term.app f args))
      q.Term.qvars
  in
  nnf_pol pol env (Term.subst bindings q.Term.body)

let nnf t = nnf_pol true [] t

(* ------------------------------------------------------------------ *)
(* Tseitin encoding                                                    *)
(* ------------------------------------------------------------------ *)

let is_bv_atom (t : Term.t) =
  match t.Term.node with
  | Term.Eq (a, _) -> ( match a.Term.sort with Sort.Bv _ -> true | _ -> false)
  | Term.Bv_op ((Term.Bule | Term.Bult), _) -> true
  | _ -> false

let rec formula_lit st (t : Term.t) : int =
  match Hashtbl.find_opt st.lit_of t.Term.tid with
  | Some l -> l
  | None ->
    let l =
      match t.Term.node with
      | Term.True -> lit_true st
      | Term.False -> Sat.lit_negate (lit_true st)
      | Term.Not a -> Sat.lit_negate (formula_lit st a)
      | Term.And xs ->
        let ls = List.map (formula_lit st) xs in
        let p = Sat.pos (Sat.new_var st.sat) in
        List.iter (fun l -> Sat.add_clause st.sat [ Sat.lit_negate p; l ]) ls;
        Sat.add_clause st.sat (p :: List.map Sat.lit_negate ls);
        p
      | Term.Or xs ->
        let ls = List.map (formula_lit st) xs in
        let p = Sat.pos (Sat.new_var st.sat) in
        List.iter (fun l -> Sat.add_clause st.sat [ p; Sat.lit_negate l ]) ls;
        Sat.add_clause st.sat (Sat.lit_negate p :: ls);
        p
      | Term.Forall _ ->
        st.has_quants <- true;
        let g = Sat.pos (Sat.new_var st.sat) in
        Hashtbl.replace st.quant_guard t.Term.tid g;
        Ematch.add_quant st.em ~guard:(Some g) t;
        g
      | Term.Exists _ -> invalid_arg "Solver: exists survived NNF"
      | _ when is_bv_atom t -> with_input_tag st 2 (fun () -> Bitblast.atom_literal st.bb t)
      | Term.Eq _ | Term.Le _ | Term.Lt _ | Term.App _ | Term.Iff _ | Term.Implies _
      | Term.Ite _ -> (
        match t.Term.node with
        | Term.Iff (a, b) ->
          let la = formula_lit st a and lb = formula_lit st b in
          let p = Sat.pos (Sat.new_var st.sat) in
          Sat.add_clause st.sat [ Sat.lit_negate p; Sat.lit_negate la; lb ];
          Sat.add_clause st.sat [ Sat.lit_negate p; la; Sat.lit_negate lb ];
          Sat.add_clause st.sat [ p; la; lb ];
          Sat.add_clause st.sat [ p; Sat.lit_negate la; Sat.lit_negate lb ];
          p
        | Term.Implies (a, b) -> formula_lit st (Term.or_ [ Term.not_ a; b ])
        | Term.Ite (c, a, b) ->
          formula_lit st (Term.and_ [ Term.implies c a; Term.implies (Term.not_ c) b ])
        | _ ->
          (* Theory atom. *)
          let v = Sat.new_var st.sat in
          Vbase.Vecbuf.push st.atoms { var = v; term = t; value = false };
          Ematch.add_ground st.em t;
          Sat.pos v)
      | _ ->
        invalid_arg ("Solver: cannot encode as formula: " ^ Term.to_string t)
    in
    Hashtbl.replace st.lit_of t.Term.tid l;
    l

(* Assert a preprocessed formula, optionally under a guard literal. *)
let rec assert_nnf st ~guard (t : Term.t) =
  match t.Term.node with
  | Term.And xs -> List.iter (assert_nnf st ~guard) xs
  | Term.Forall _ when guard = None ->
    st.has_quants <- true;
    Ematch.add_quant st.em ~guard:None t
  | Term.Or xs when guard = None ->
    Sat.add_clause st.sat (List.map (formula_lit st) xs)
  | Term.True -> ()
  | _ -> (
    let l = formula_lit st t in
    match guard with
    | None -> Sat.add_clause st.sat [ l ]
    | Some g -> Sat.add_clause st.sat [ Sat.lit_negate g; l ])

(* Full pipeline for a new assertion. *)
let assert_formula st ~guard (t : Term.t) =
  st.query_bytes <- st.query_bytes + Term.printed_size t;
  let side = ref [] in
  let t = purify st ~emit:(fun a -> side := a :: !side) t in
  assert_nnf st ~guard (nnf t);
  (* Side conditions (purification definitions) are unconditional. *)
  List.iter (fun a -> assert_nnf st ~guard:None (nnf a)) !side

(* ------------------------------------------------------------------ *)
(* Theory final check                                                  *)
(* ------------------------------------------------------------------ *)

(* Linearize an Int term into (coeffs over opaque terms, constant). *)
let rec linearize (t : Term.t) : (Rat.t * Term.t) list * Rat.t =
  match t.Term.node with
  | Term.Int_lit v -> ([], Rat.of_bigint v)
  | Term.Add xs ->
    List.fold_left
      (fun (cs, k) x ->
        let cs', k' = linearize x in
        (cs' @ cs, Rat.add k k'))
      ([], Rat.zero) xs
  | Term.Sub (a, b) ->
    let ca, ka = linearize a in
    let cb, kb = linearize b in
    (ca @ List.map (fun (c, v) -> (Rat.neg c, v)) cb, Rat.sub ka kb)
  | Term.Neg a ->
    let ca, ka = linearize a in
    (List.map (fun (c, v) -> (Rat.neg c, v)) ca, Rat.neg ka)
  | Term.Mul (a, b) -> (
    match (a.Term.node, b.Term.node) with
    | Term.Int_lit v, _ ->
      let cb, kb = linearize b in
      let r = Rat.of_bigint v in
      (List.map (fun (c, x) -> (Rat.mul r c, x)) cb, Rat.mul r kb)
    | _, Term.Int_lit v ->
      let ca, ka = linearize a in
      let r = Rat.of_bigint v in
      (List.map (fun (c, x) -> (Rat.mul r c, x)) ca, Rat.mul r ka)
    | _ -> ([ (Rat.one, t) ], Rat.zero))
  | _ -> ([ (Rat.one, t) ], Rat.zero)

(* An unordered pair of terms as one [Term.Id_tbl] key.  Ids count live
   hash-consed terms, so they stay far below 2^31. *)
let pair_key (x : Term.t) (y : Term.t) =
  let a = Term.hash x and b = Term.hash y in
  let lo = min a b and hi = max a b in
  assert (hi < 1 lsl 31);
  (lo lsl 31) lor hi

(* Raised by theory combination's candidate scan at the pair it splits. *)
exception Split of Term.t * Term.t

type round_outcome =
  | R_continue (* lemma/blocking clause added; re-solve *)
  | R_model_ok of Euf.t (* theories agree; the E-graph feeds E-matching *)
  | R_unknown of string

exception Give_up of string

(* The form of atom [i], derived on first sight.  Final checks reach
   atoms in index order and atoms only grow, so a first sight happens with
   every earlier atom replayed into the E-graph: registering this atom's
   application subterms (in the order the E-graph was always fed them) and
   its sides then creates the node ids a fresh E-graph fed atoms 0..i
   would, and [mark] records where to replay up to. *)
let atom_form st i (atom : Term.t) =
  if i < Vbase.Vecbuf.length st.forms then begin
    let f = Vbase.Vecbuf.get st.forms i in
    assert (f.tid = atom.Term.tid);
    f
  end
  else begin
    let euf = st.euf in
    let apps_rev =
      Term.fold_subterms
        (fun acc s -> match s.Term.node with Term.App _ -> s :: acc | _ -> acc)
        [] atom
    in
    List.iter (fun s -> ignore (Euf.node euf s)) apps_rev;
    let role =
      match atom.Term.node with
      | Term.Eq (a, b) when not (is_bv_atom atom) ->
        let a = Euf.node euf a in
        let b = Euf.node euf b in
        Euf_eq (a, b)
      | Term.App _ when Sort.equal atom.Term.sort Sort.Bool -> Euf_pred (Euf.node euf atom)
      | _ -> Euf_none
    in
    let apps =
      List.fold_left
        (fun acc (s : Term.t) ->
          match s.Term.node with Term.App (_, _ :: _) -> s :: acc | _ -> acc)
        [] apps_rev
    in
    let f =
      { tid = atom.Term.tid; mark = Euf.size euf; role; apps; prep_pos = None; prep_neg = None }
    in
    Vbase.Vecbuf.push st.forms f;
    f
  end

let final_check st =
  (* Refresh the values of the theory atoms from the SAT model. *)
  let atoms = st.atoms in
  let n_atoms = Vbase.Vecbuf.length atoms in
  for i = 0 to n_atoms - 1 do
    let a = Vbase.Vecbuf.get atoms i in
    a.value <- Sat.value st.sat a.var
  done;
  (* The literal under which atom [i] holds. *)
  let atom_lit i =
    let a = Vbase.Vecbuf.get atoms i in
    if a.value then Sat.pos a.var else Sat.neg a.var
  in
  (* The clause refuting a reason set (atom indices; internal reasons are
     negative and drop out). *)
  let blocking core =
    List.filter_map (fun i -> if i < 0 then None else Some (Sat.lit_negate (atom_lit i))) core
  in
  (* Certificate bookkeeping.  [euf_assumption] records the theory meaning
     of an atom's literal in the certificate's atom table and returns the
     literal; [None] if the atom is outside the certified EUF fragment (the
     justification then degrades to a trusted step). *)
  let euf_assumption bd i =
    let { term = atom; value; _ } = Vbase.Vecbuf.get atoms i in
    let lit = atom_lit i in
    match atom.Term.node with
    | Term.Eq (x, y) when not (is_bv_atom atom) ->
      Cert.lit_eq bd lit (value, Cert.intern_term bd x, Cert.intern_term bd y);
      Some lit
    | Term.App _ when Sort.equal atom.Term.sort Sort.Bool ->
      let rhs = if value then Term.tru else Term.fls in
      Cert.lit_eq bd lit (true, Cert.intern_term bd atom, Cert.intern_term bd rhs);
      Some lit
    | _ -> None
  in
  let euf_just bd core =
    let ok = ref true in
    let lits =
      List.filter_map
        (fun i ->
          if i < 0 then None
          else
            match euf_assumption bd i with
            | Some l -> Some l
            | None ->
              ok := false;
              None)
        core
    in
    if !ok then Cert.J_euf lits else Cert.J_trusted "euf"
  in
  (* --- EUF: replay every atom into the reset E-graph, then check --- *)
  let euf_t0 = Unix.gettimeofday () in
  let euf = st.euf in
  Euf.reset euf;
  let tru = Euf.node euf Term.tru in
  let fls = Euf.node euf Term.fls in
  Euf.assert_diseq euf tru fls ~reason:(-2);
  for i = 0 to n_atoms - 1 do
    let a = Vbase.Vecbuf.get atoms i in
    let f = atom_form st i a.term in
    Euf.activate euf f.mark;
    match f.role with
    | Euf_eq (x, y) ->
      if a.value then Euf.merge euf x y ~reason:i else Euf.assert_diseq euf x y ~reason:i
    | Euf_pred p -> Euf.merge euf p (if a.value then tru else fls) ~reason:i
    | Euf_none -> ()
  done;
  let euf_verdict = Euf.check euf in
  st.t_euf <- st.t_euf +. (Unix.gettimeofday () -. euf_t0);
  match euf_verdict with
  | Error core ->
    st.n_euf_conflicts <- st.n_euf_conflicts + 1;
    Sat.add_clause st.sat (blocking core);
    justify st (fun () -> euf_just (Option.get st.cert) core);
    R_continue
  | Ok () -> (
    (* --- LIA --- *)
    let lia_build_t0 = Unix.gettimeofday () in
    let lia = st.lia in
    Lia.reset_bounds lia;
    let progress = ref false in
    let to_lia_coeffs cs = List.map (fun (c, tm) -> (c, Lia.var_of_term lia tm)) cs in
    let linearize_cached (a : Term.t) (b : Term.t) key =
      match Hashtbl.find_opt st.lin_cache key with
      | Some r -> r
      | None ->
        let r = linearize (Term.sub a b) in
        Hashtbl.replace st.lin_cache key r;
        r
    in
    (* The LIA bounds of an arithmetic atom ([a - b] against zero) under
       [value], prepared over its linear form [cs . x <= bound] (or [>=])
       on first use and kept in its form per polarity. *)
    let bounds f (atom : Term.t) value =
      match if value then f.prep_pos else f.prep_neg with
      | Some ps -> ps
      | None ->
        let ps =
          match atom.Term.node with
          | Term.Le (a, b) | Term.Lt (a, b) ->
            let strict = match atom.Term.node with Term.Lt _ -> true | _ -> false in
            let cs, k = linearize_cached a b atom.Term.tid in
            let cs = to_lia_coeffs cs and bound = Rat.neg k in
            (* value true: sum <= bound (or <); false: negation. *)
            if value then [ Lia.prepare lia cs bound ~strict ~is_upper:true ]
            else [ Lia.prepare lia cs bound ~strict:(not strict) ~is_upper:false ]
          | Term.Eq (a, b) when value ->
            let cs, k = linearize_cached a b atom.Term.tid in
            Lia.prepare_eq lia (to_lia_coeffs cs) (Rat.neg k)
          | _ -> invalid_arg "Solver: no LIA bounds for this atom"
        in
        if value then f.prep_pos <- Some ps else f.prep_neg <- Some ps;
        ps
    in
    let rec assert_bounds i = function
      | [] -> ()
      | p :: ps ->
        Lia.assert_prepared lia p ~reason:i;
        assert_bounds i ps
    in
    (* The trichotomy lemma [x = y \/ x < y \/ y < x] over [eq_atom]
       ([x = y]).  Its certificate: the equality pins [cs . x] to exactly
       [bound], and the negated strict inequalities are the two non-strict
       bounds; both <=-form views are registered so the kernel can match
       the (f, d) / (-f, -d) pair. *)
    let trichotomy (eq_atom : Term.t) x y =
      let l_eq = formula_lit st eq_atom in
      let l_lt1 = formula_lit st (Term.lt x y) in
      let l_lt2 = formula_lit st (Term.lt y x) in
      Term.Id_tbl.replace st.eq_split_done eq_atom.Term.tid ();
      Sat.add_clause st.sat [ l_eq; l_lt1; l_lt2 ];
      justify st (fun () ->
          let bd = Option.get st.cert in
          let cs, k = linearize_cached x y eq_atom.Term.tid in
          let bound = Rat.neg k and cs = to_lia_coeffs cs in
          let v_up = Lia.atom_view cs bound ~strict:false ~is_upper:true in
          let v_lo = Lia.atom_view cs bound ~strict:false ~is_upper:false in
          let add lit (c, b) = ignore (Cert.lit_view bd lit c b) in
          add l_eq v_up;
          add l_eq v_lo;
          add (Sat.lit_negate l_lt1) v_lo;
          add (Sat.lit_negate l_lt2) v_up;
          Cert.J_trichotomy (l_eq, l_lt1, l_lt2))
    in
    for i = 0 to n_atoms - 1 do
      let { term = atom; value; _ } = Vbase.Vecbuf.get atoms i in
      let f = Vbase.Vecbuf.get st.forms i in
      match atom.Term.node with
      | Term.Le _ | Term.Lt _ -> assert_bounds i (bounds f atom value)
      | Term.Eq (a, b) when Sort.equal a.Term.sort Sort.Int ->
        if value then assert_bounds i (bounds f atom true)
        else if not (Term.Id_tbl.mem st.eq_split_done atom.Term.tid) then begin
          (* not (a = b)  ==>  a < b \/ b < a *)
          trichotomy atom a b;
          progress := true
        end
      | _ -> ()
    done;
    st.t_lia <- st.t_lia +. (Unix.gettimeofday () -. lia_build_t0);
    if !progress then begin
      (* Progress here means eq-split lemmas were added. *)
      st.n_theory_lemmas <- st.n_theory_lemmas + 1;
      R_continue
    end
    else begin
      let lia_check_t0 = Unix.gettimeofday () in
      let lia_verdict = Lia.check ~max_branch:st.cfg.budget.bb_budget lia in
      st.t_lia <- st.t_lia +. (Unix.gettimeofday () -. lia_check_t0);
      match lia_verdict with
      | Lia.Conflict core ->
        st.n_lia_conflicts <- st.n_lia_conflicts + 1;
        Sat.add_clause st.sat (blocking core);
        justify st (fun () ->
            let bd = Option.get st.cert in
            match Lia.last_cert lia with
            | Some entries ->
              Cert.J_farkas
                (List.map
                   (fun (e : Lia.centry) ->
                     let lit = atom_lit e.Lia.ce_reason in
                     let ix = Cert.lit_view bd lit e.Lia.ce_coeffs e.Lia.ce_bound in
                     (lit, e.Lia.ce_lambda, ix))
                   entries)
            | None -> Cert.J_trusted "lia-search");
        R_continue
      | Lia.Unknown -> R_unknown "arithmetic budget exhausted"
      | Lia.Sat -> (
        (* --- model-based theory combination --- *)
        let comb_t0 = Unix.gettimeofday () in
        let lemma_added = ref false in
        (* Arithmetic value of a term in the current LIA model, if it has
           one: literals evaluate to themselves; other terms must already
           be registered LIA variables. *)
        let lia_value (tm : Term.t) =
          match tm.Term.node with
          | Term.Int_lit v -> Some (Rat.of_bigint v)
          | _ -> Option.map (Lia.model_value lia) (Lia.find_var lia tm)
        in
        (* EUF -> LIA: congruence-implied equalities the arithmetic model
           misses become lemmas.  In each class, every later integer
           member is held against the first. *)
        let is_int n = Sort.equal (Euf.term euf n).Term.sort Sort.Int in
        let rec against rep = function
          | [] -> ()
          | n :: rest ->
            (if (not !lemma_added) && is_int n then
               let m = Euf.term euf n in
               match (lia_value rep, lia_value m) with
               | Some vr, Some vm when not (Rat.equal vr vm) ->
                 (* explanation => rep = m *)
                 let expl = Euf.explain euf rep m in
                 let l_eq = formula_lit st (Term.eq rep m) in
                 (* Only a real lemma if the equality atom is not
                    already forced true under this assignment. *)
                 Sat.add_clause st.sat (l_eq :: blocking expl);
                 justify st (fun () ->
                     let bd = Option.get st.cert in
                     let head = Sat.lit_negate l_eq in
                     Cert.lit_eq bd head (false, Cert.intern_term bd rep, Cert.intern_term bd m);
                     match euf_just bd expl with
                     | Cert.J_euf lits -> Cert.J_euf (head :: lits)
                     | j -> j);
                 if not (Sat.value st.sat (Sat.lit_var l_eq) && l_eq land 1 = 0) then begin
                   st.n_theory_lemmas <- st.n_theory_lemmas + 1;
                   lemma_added := true
                 end
               | _ -> ());
            against rep rest
        in
        let rec first_int = function
          | [] -> ()
          | n :: rest -> if is_int n then against (Euf.term euf n) rest else first_int rest
        in
        Euf.iter_classes euf (fun members -> if not !lemma_added then first_int members);
        (* LIA -> EUF: shared terms with equal model values the congruence
           graph has not merged get a three-way split lemma. *)
        if not !lemma_added then begin
          (* Congruence-relevant pairs: arguments at the same position of
             two applications of the same symbol whose classes differ.
             Merging such a pair can fire a congruence; other equalities
             cannot help EUF, so guessing them is wasted work. *)
          let by_sym = st.comb_by_sym and seen = st.comb_seen in
          for i = st.comb_atoms to n_atoms - 1 do
            List.iter
              (fun (s : Term.t) ->
                if not (Term.Id_tbl.mem seen s.Term.tid) then begin
                  Term.Id_tbl.add seen s.Term.tid ();
                  match s.Term.node with
                  | Term.App (f, _) -> (
                    match Hashtbl.find_opt by_sym f.Term.sid with
                    | Some r -> r := s :: !r
                    | None -> Hashtbl.add by_sym f.Term.sid (ref [ s ]))
                  | _ -> ()
                end)
              (Vbase.Vecbuf.get st.forms i).apps
          done;
          st.comb_atoms <- n_atoms;
          (* Candidates come from a scan in [by_sym] order, over each
             symbol's (at most 41 newest) applications [i < j] and their
             argument positions; the split goes to the last candidate in
             that order whose arithmetic values are equal and that was not
             split before.  Scanning in reverse stops at it.  (A round
             splits at most one pair, so the per-round budget only turns
             this step off, at 0.) *)
          let split_candidate x y =
            (not (Term.Id_tbl.mem st.comb_pairs_done (pair_key x y)))
            &&
            match (lia_value x, lia_value y) with
            | Some vx, Some vy -> Rat.equal vx vy
            | _ -> false
          in
          (* Argument pairs from the last position back. *)
          let rec scan_args args1 args2 =
            match (args1, args2) with
            | (a1 : Term.t) :: r1, a2 :: r2 ->
              scan_args r1 r2;
              if
                Sort.equal a1.Term.sort Sort.Int
                && (not (Term.equal a1 a2))
                && (not (Euf.are_equal euf a1 a2))
                && split_candidate a1 a2
              then raise (Split (a1, a2))
            | _ -> ()
          in
          let scan_apps apps =
            let arr = Array.of_list !apps in
            let n = min (Array.length arr) 41 in
            (* Each application's class, looked up once rather than per
               pair; the same test as [Euf.are_equal]. *)
            let cls = Array.init n (fun i -> Euf.class_id euf arr.(i)) in
            let same_class i j =
              match (cls.(i), cls.(j)) with
              | Some a, Some b -> a = b
              | _ -> Term.equal arr.(i) arr.(j)
            in
            for i = n - 1 downto 0 do
              for j = n - 1 downto i + 1 do
                if not (same_class i j) then
                  match (arr.(i).Term.node, arr.(j).Term.node) with
                  | Term.App (_, args1), Term.App (_, args2) -> scan_args args1 args2
                  | _ -> ()
              done
            done
          in
          if st.cfg.budget.combination_pairs_per_round > 0 then
            match
              List.iter scan_apps (Hashtbl.fold (fun _ apps acc -> apps :: acc) by_sym [])
            with
            | () -> ()
            | exception Split (x, y) ->
              Term.Id_tbl.add st.comb_pairs_done (pair_key x y) ();
              (* This three-way clause subsumes the eq-split lemma
                 (marked done); don't pay another round for it later. *)
              trichotomy (Term.eq x y) x y;
              st.n_theory_lemmas <- st.n_theory_lemmas + 1;
              lemma_added := true
        end;
        st.t_comb <- st.t_comb +. (Unix.gettimeofday () -. comb_t0);
        if !lemma_added then R_continue else R_model_ok euf)
    end)

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let extract_model st =
  (* Best effort: report boolean atoms over constants, newest first. *)
  Vbase.Vecbuf.fold
    (fun out a ->
      match a.term.Term.node with
      | Term.App (f, []) -> (f.Term.sname, string_of_bool (Sat.value st.sat a.var)) :: out
      | _ -> out)
    [] st.atoms

let solve ?(config = default_config) assertions =
  let t0 = Unix.gettimeofday () in
  let st = create_state config in
  let finish answer model =
    let cert =
      match (answer, st.cert) with
      | Unsat, Some bd ->
        Some
          (Cert.assemble bd
             ~steps:(Sat.proof_steps st.sat)
             ~empty:(Sat.empty_step st.sat) ~justs:st.justs)
      | _ -> None
    in
    {
      answer;
      cert;
      stats =
        {
          rounds = 0;
          instances = Ematch.stats_instances st.em;
          matches_tried = Ematch.stats_matches_tried st.em;
          conflicts = Sat.stats_conflicts st.sat;
          decisions = Sat.stats_decisions st.sat;
          query_bytes = st.query_bytes;
          time_s = Unix.gettimeofday () -. t0;
        };
      model;
      profile =
        {
          Profile.quants = Ematch.profile st.em;
          phase =
            {
              Profile.ph_sat = st.t_sat;
              ph_euf = st.t_euf;
              ph_lia = st.t_lia;
              ph_comb = st.t_comb;
              ph_ematch = st.t_ematch;
            };
          inst_rounds = st.inst_rounds;
          euf_conflicts = st.n_euf_conflicts;
          lia_conflicts = st.n_lia_conflicts;
          theory_lemmas = st.n_theory_lemmas;
        };
    }
  in
  try
    st.deadline <- t0 +. config.budget.deadline_s;
    List.iter (fun a -> assert_formula st ~guard:None a) assertions;
    let rounds = ref 0 in
    let inst_rounds = ref 0 in
    let answer = ref None in
    while !answer = None do
      incr rounds;
      if !rounds > 10_000 then raise (Give_up "round limit");
      if Unix.gettimeofday () > st.deadline then raise (Give_up "timeout");
      let ts = Unix.gettimeofday () in
      let sat_result = Sat.solve ~limit_conflicts:config.budget.sat_conflict_budget st.sat in
      st.t_sat <- st.t_sat +. (Unix.gettimeofday () -. ts);
      match sat_result with
      | Sat.Unsat -> answer := Some Unsat
      | Sat.Sat -> (
        match final_check st with
        | R_continue -> ()
        | R_unknown reason -> raise (Give_up reason)
        | R_model_ok euf ->
          (* Instantiate quantifiers. *)
          if not st.has_quants then answer := Some Sat
          else begin
            incr inst_rounds;
            st.inst_rounds <- !inst_rounds;
            if !inst_rounds > config.budget.max_rounds then
              raise (Give_up "instantiation round limit")
            else begin
              let te = Unix.gettimeofday () in
              let insts =
                Ematch.round ~euf ~max_per_quant:config.budget.max_instances_per_quant st.em
                  ~max_instances:config.budget.max_instances_per_round
              in
              st.t_ematch <- st.t_ematch +. (Unix.gettimeofday () -. te);
              (* Only act on instances whose guard is currently true (or
                 unguarded); others are irrelevant to this model. *)
              if insts = [] then raise (Give_up "quantifiers: no more instances (candidate model)")
              else
                List.iter
                  (fun (inst : Ematch.instance) ->
                    st.query_bytes <- st.query_bytes + Term.printed_size inst.Ematch.body;
                    with_input_tag st 1 (fun () ->
                        assert_formula st ~guard:inst.Ematch.guard inst.Ematch.body))
                  insts
            end
          end)
    done;
    let a = Option.get !answer in
    let model = match a with Sat -> extract_model st | _ -> [] in
    let r = finish a model in
    { r with stats = { r.stats with rounds = !rounds } }
  with
  | Give_up reason -> finish (Unknown reason) (extract_model st)
  | Sat.Budget_exceeded -> finish (Unknown "SAT conflict budget") []

let check_valid ?(config = default_config) ?(hyps = []) goal =
  solve ~config (hyps @ [ Term.not_ goal ])
