(* Abstract interpretation of one VC (hypotheses + goal) over hash-
   consed SMT terms.  The environment maps term ids to abstract values;
   evaluation is structural, with the environment consulted (by meet)
   at every node, so facts learned about compound terms sharpen later
   evaluations too.  All verdicts are term-structure-deterministic. *)

module T = Smt.Term
module Sort = Smt.Sort
module B = Vbase.Bigint

type verdict = Proved | Refuted | Unknown

type result = {
  verdict : verdict;
  vacuous : bool;
  facts : T.t list;
  drop : T.t list;
  passes : int;
}

let verdict_string = function
  | Proved -> "proved"
  | Refuted -> "refuted"
  | Unknown -> "unknown"

type state = {
  env : (int, T.t * Dom.t) Hashtbl.t;  (* tid -> (term, abstract value) *)
  memo : (int, Dom.t) Hashtbl.t;  (* per-pass evaluation cache *)
  mutable changed : bool;
  mutable contra : bool;
}

let default_of_sort (s : Sort.t) =
  match s with
  | Sort.Int -> Dom.top_int
  | Sort.Bool -> Dom.Abool Dom.Bmaybe
  | Sort.Bv _ | Sort.Usort _ -> Dom.Top

let env_value st (t : T.t) =
  match Hashtbl.find_opt st.env t.T.tid with
  | Some (_, v) -> v
  | None -> default_of_sort t.T.sort

(* ----------------------------- evaluation --------------------------- *)

let rec eval st (t : T.t) : Dom.t =
  match Hashtbl.find_opt st.memo t.T.tid with
  | Some v -> v
  | None ->
    let structural =
      match t.T.node with
      | T.True -> Dom.Abool Dom.Btrue
      | T.False -> Dom.Abool Dom.Bfalse
      | T.Int_lit n -> Dom.of_bigint n
      | T.Bv_lit _ -> Dom.Top
      | T.Bvar (_, s) -> default_of_sort s
      | T.App _ -> default_of_sort t.T.sort
      | T.Eq (a, b) ->
        if T.equal a b then Dom.Abool Dom.Btrue
        else Dom.Abool (Dom.eq3 (eval st a) (eval st b))
      | T.Not a -> Dom.Abool (Dom.not3 (Dom.truth (eval st a)))
      | T.And ts ->
        Dom.Abool
          (List.fold_left (fun acc x -> Dom.and3 acc (Dom.truth (eval st x))) Dom.Btrue ts)
      | T.Or ts ->
        Dom.Abool
          (List.fold_left (fun acc x -> Dom.or3 acc (Dom.truth (eval st x))) Dom.Bfalse ts)
      | T.Implies (a, b) ->
        Dom.Abool (Dom.implies3 (Dom.truth (eval st a)) (Dom.truth (eval st b)))
      | T.Iff (a, b) -> Dom.Abool (Dom.iff3 (Dom.truth (eval st a)) (Dom.truth (eval st b)))
      | T.Ite (c, a, b) -> (
        match Dom.truth (eval st c) with
        | Dom.Btrue -> eval st a
        | Dom.Bfalse -> eval st b
        | Dom.Bmaybe -> Dom.join (eval st a) (eval st b))
      | T.Add ts -> List.fold_left (fun acc x -> Dom.add acc (eval st x)) (Dom.of_int 0) ts
      | T.Sub (a, b) -> Dom.sub (eval st a) (eval st b)
      | T.Mul (a, b) -> Dom.mul (eval st a) (eval st b)
      | T.Neg a -> Dom.neg_ (eval st a)
      | T.Le (a, b) -> Dom.Abool (Dom.le3 (eval st a) (eval st b))
      | T.Lt (a, b) -> Dom.Abool (Dom.lt3 (eval st a) (eval st b))
      | T.Idiv (a, b) -> Dom.ediv (eval st a) (eval st b)
      | T.Imod (a, b) -> Dom.emod (eval st a) (eval st b)
      | T.Bv_op _ -> Dom.Top
      | T.Forall _ | T.Exists _ -> Dom.Abool Dom.Bmaybe
    in
    let v =
      match Hashtbl.find_opt st.env t.T.tid with
      | Some (_, ev) ->
        let m = Dom.meet structural ev in
        (* A bottom here means the path constraints are contradictory
           with the structure; surface as contradiction, evaluate
           conservatively. *)
        if Dom.is_bot m then (
          st.contra <- true;
          structural)
        else m
      | None -> structural
    in
    Hashtbl.replace st.memo t.T.tid v;
    v

(* ----------------------------- refinement --------------------------- *)

(* Record that term [t]'s value lies in [v].  Literals just get a
   membership check (a failed one is a contradiction). *)
let refine st (t : T.t) (v : Dom.t) =
  match t.T.node with
  | T.True -> if not (Dom.mem_bool true v) then st.contra <- true
  | T.False -> if not (Dom.mem_bool false v) then st.contra <- true
  | T.Int_lit n -> if not (Dom.mem_int n v) then st.contra <- true
  | _ ->
    let cur = env_value st t in
    let nv = Dom.meet cur v in
    if Dom.is_bot nv then st.contra <- true
    else if not (Dom.leq cur nv) then (
      Hashtbl.replace st.env t.T.tid (t, nv);
      st.changed <- true)

let itv_or_top v =
  match Dom.itv_of v with
  | Some i -> i
  | None -> { Dom.lo = Dom.NegInf; hi = Dom.PosInf }

(* Push an upper bound [t <= b] (resp. lower bound) through linear
   structure, refining sub-terms: x + c <= b gives x <= b - c, etc. *)
let rec bound_upper st depth (t : T.t) (b : Dom.bound) =
  if b <> Dom.PosInf then begin
    refine st t (Dom.range Dom.NegInf b);
    if depth > 0 then
      match t.T.node with
      | T.Add ts ->
        List.iteri
          (fun i ti ->
            let rest_lo =
              List.fold_left
                (fun acc (j, tj) ->
                  match acc with
                  | None -> None
                  | Some s -> (
                    if i = j then Some s
                    else
                      match (itv_or_top (eval st tj)).Dom.lo with
                      | Dom.Fin l -> Some (B.add s l)
                      | _ -> None))
                (Some B.zero)
                (List.mapi (fun j tj -> (j, tj)) ts)
            in
            match rest_lo with
            | Some s -> bound_upper st (depth - 1) ti (Dom.bound_add b (B.neg s))
            | None -> ())
          ts
      | T.Sub (x, y) ->
        (match (itv_or_top (eval st y)).Dom.hi with
        | Dom.Fin hy -> bound_upper st (depth - 1) x (Dom.bound_add b hy)
        | _ -> ());
        (match ((itv_or_top (eval st x)).Dom.lo, b) with
        | Dom.Fin lx, Dom.Fin bv -> bound_lower st (depth - 1) y (Dom.Fin (B.sub lx bv))
        | _ -> ())
      | T.Neg x -> bound_lower st (depth - 1) x (Dom.bound_neg b)
      | _ -> ()
  end

and bound_lower st depth (t : T.t) (b : Dom.bound) =
  if b <> Dom.NegInf then begin
    refine st t (Dom.range b Dom.PosInf);
    if depth > 0 then
      match t.T.node with
      | T.Add ts ->
        List.iteri
          (fun i ti ->
            let rest_hi =
              List.fold_left
                (fun acc (j, tj) ->
                  match acc with
                  | None -> None
                  | Some s -> (
                    if i = j then Some s
                    else
                      match (itv_or_top (eval st tj)).Dom.hi with
                      | Dom.Fin h -> Some (B.add s h)
                      | _ -> None))
                (Some B.zero)
                (List.mapi (fun j tj -> (j, tj)) ts)
            in
            match rest_hi with
            | Some s -> bound_lower st (depth - 1) ti (Dom.bound_add b (B.neg s))
            | None -> ())
          ts
      | T.Sub (x, y) ->
        (match (itv_or_top (eval st y)).Dom.lo with
        | Dom.Fin ly -> bound_lower st (depth - 1) x (Dom.bound_add b ly)
        | _ -> ());
        (match ((itv_or_top (eval st x)).Dom.hi, b) with
        | Dom.Fin hx, Dom.Fin bv -> bound_upper st (depth - 1) y (Dom.Fin (B.sub hx bv))
        | _ -> ())
      | T.Neg x -> bound_upper st (depth - 1) x (Dom.bound_neg b)
      | _ -> ()
  end

let push_depth = 4

let assume_cmp st ~strict a b =
  (* a <= b, or a < b when strict *)
  let va = eval st a and vb = eval st b in
  let ib = itv_or_top vb and ia = itv_or_top va in
  let hi = if strict then Dom.bound_add ib.Dom.hi B.minus_one else ib.Dom.hi in
  let lo = if strict then Dom.bound_add ia.Dom.lo B.one else ia.Dom.lo in
  bound_upper st push_depth a hi;
  bound_lower st push_depth b lo

(* Propagate one hypothesis: constrain the environment so that [t]
   evaluates to [want] in every surviving concretisation. *)
let rec assume st (t : T.t) (want : bool) =
  match t.T.node with
  | T.True -> if not want then st.contra <- true
  | T.False -> if want then st.contra <- true
  | T.Not a -> assume st a (not want)
  | T.And ts when want -> List.iter (fun x -> assume st x true) ts
  | T.And ts (* not want *) -> (
    (* ¬(a ∧ b ∧ …): only informative once all but one conjunct is
       definitely true. *)
    let undecided =
      List.filter (fun x -> Dom.truth (eval st x) <> Dom.Btrue) ts
    in
    match undecided with
    | [ x ] -> assume st x false
    | [] -> st.contra <- true
    | _ -> ())
  | T.Or ts when not want -> List.iter (fun x -> assume st x false) ts
  | T.Or ts (* want *) -> (
    let undecided = List.filter (fun x -> Dom.truth (eval st x) <> Dom.Bfalse) ts in
    match undecided with
    | [ x ] -> assume st x true
    | [] -> st.contra <- true
    | _ -> ())
  | T.Implies (a, b) when want -> (
    match Dom.truth (eval st a) with
    | Dom.Btrue -> assume st b true
    | Dom.Bfalse -> ()
    | Dom.Bmaybe ->
      if Dom.truth (eval st b) = Dom.Bfalse then assume st a false)
  | T.Implies (a, b) (* not want *) ->
    assume st a true;
    assume st b false
  | T.Iff (a, b) -> (
    let pa = Dom.truth (eval st a) and pb = Dom.truth (eval st b) in
    match (want, pa, pb) with
    | true, Dom.Btrue, _ -> assume st b true
    | true, Dom.Bfalse, _ -> assume st b false
    | true, _, Dom.Btrue -> assume st a true
    | true, _, Dom.Bfalse -> assume st a false
    | false, Dom.Btrue, _ -> assume st b false
    | false, Dom.Bfalse, _ -> assume st b true
    | false, _, Dom.Btrue -> assume st a false
    | false, _, Dom.Bfalse -> assume st a true
    | _ -> ())
  | T.Ite (c, a, b) -> (
    match Dom.truth (eval st c) with
    | Dom.Btrue -> assume st a want
    | Dom.Bfalse -> assume st b want
    | Dom.Bmaybe -> ())
  | T.Eq (a, b) when want ->
    let m = Dom.meet (eval st a) (eval st b) in
    if Dom.is_bot m then st.contra <- true
    else begin
      refine st a m;
      refine st b m;
      (match Dom.itv_of m with
      | Some i ->
        bound_upper st push_depth a i.Dom.hi;
        bound_lower st push_depth a i.Dom.lo;
        bound_upper st push_depth b i.Dom.hi;
        bound_lower st push_depth b i.Dom.lo
      | None -> ())
    end
  | T.Eq (a, b) (* not want *) -> (
    if T.equal a b then st.contra <- true
    else
      (* Disequality only shaves an interval end-point pinned to the
         other side's constant. *)
      let shave atom other =
        match Dom.const_int (eval st other) with
        | None -> ()
        | Some c -> (
          match Dom.itv_of (env_value st atom) with
          | Some i when i.Dom.lo = Dom.Fin c ->
            refine st atom (Dom.range (Dom.Fin (B.add c B.one)) Dom.PosInf)
          | Some i when i.Dom.hi = Dom.Fin c ->
            refine st atom (Dom.range Dom.NegInf (Dom.Fin (B.sub c B.one)))
          | _ -> ())
      in
      shave a b;
      shave b a)
  | T.Le (a, b) when want -> assume_cmp st ~strict:false a b
  | T.Le (a, b) (* not want: b < a *) -> assume_cmp st ~strict:true b a
  | T.Lt (a, b) when want -> assume_cmp st ~strict:true a b
  | T.Lt (a, b) (* not want: b <= a *) -> assume_cmp st ~strict:false b a
  | T.App _ when Sort.equal t.T.sort Sort.Bool ->
    refine st t (Dom.Abool (if want then Dom.Btrue else Dom.Bfalse))
  | _ -> ()

(* ------------------------------- check ------------------------------ *)

let fresh_state () =
  { env = Hashtbl.create 64; memo = Hashtbl.create 256; changed = false; contra = false }

let snapshot st = Hashtbl.copy st.env

let restore st saved =
  Hashtbl.reset st.env;
  Hashtbl.iter (fun k v -> Hashtbl.replace st.env k v) saved;
  Hashtbl.reset st.memo

(* Prove the goal under the current environment, descending through
   implications (assuming antecedents) and conjunctions. *)
let rec prove st (g : T.t) : verdict =
  match g.T.node with
  | T.Implies (a, b) ->
    let saved = snapshot st and saved_contra = st.contra in
    st.contra <- false;
    assume st a true;
    Hashtbl.reset st.memo;
    let r = if st.contra then Proved (* infeasible path *) else prove st b in
    restore st saved;
    st.contra <- saved_contra;
    r
  | T.And ts ->
    List.fold_left
      (fun acc x ->
        match (acc, prove st x) with
        | Refuted, _ | _, Refuted -> Refuted
        | Proved, Proved -> Proved
        | _ -> Unknown)
      Proved ts
  | _ -> (
    match Dom.truth (eval st g) with
    | Dom.Btrue -> Proved
    | Dom.Bfalse -> Refuted
    | Dom.Bmaybe -> Unknown)

(* Conjuncts of the hypothesis list with top-level ∧ flattened — used to
   avoid emitting facts that merely restate a hypothesis. *)
let rec conjuncts acc (t : T.t) =
  match t.T.node with
  | T.And ts -> List.fold_left conjuncts acc ts
  | _ -> t :: acc

let max_facts = 64

let derive_facts st ~hyps =
  let known = List.fold_left conjuncts [] hyps in
  let mem f = List.exists (T.equal f) known in
  let fact_of _tid ((t : T.t), (v : Dom.t)) acc =
    match t.T.node with
    | T.App (_, _) -> (
      match v with
      | Dom.Aint (i, c) ->
        let acc =
          match Dom.const_int v with
          | Some cst ->
            let f = T.eq t (T.int_lit cst) in
            if mem f then acc else f :: acc
          | None ->
            let acc =
              match i.Dom.lo with
              | Dom.Fin l ->
                let f = T.le (T.int_lit l) t in
                if mem f then acc else f :: acc
              | _ -> acc
            in
            let acc =
              match i.Dom.hi with
              | Dom.Fin h ->
                let f = T.le t (T.int_lit h) in
                if mem f then acc else f :: acc
              | _ -> acc
            in
            let acc =
              if (not (B.is_zero c.Dom.m)) && B.compare c.Dom.m B.one > 0 then
                let f = T.eq (T.imod t (T.int_lit c.Dom.m)) (T.int_lit c.Dom.r) in
                if mem f then acc else f :: acc
              else acc
            in
            acc
        in
        acc
      | Dom.Abool Dom.Btrue -> if mem t then acc else t :: acc
      | Dom.Abool Dom.Bfalse ->
        let f = T.not_ t in
        if mem f then acc else f :: acc
      | _ -> acc)
    | _ -> acc
  in
  let facts = Hashtbl.fold fact_of st.env [] in
  (* Sort by rendering, never by hash-cons id: ids vary across runs and
     scheduling, renderings do not. *)
  let sorted = List.sort (fun a b -> String.compare (T.to_string a) (T.to_string b)) facts in
  let rec take n = function [] -> [] | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl in
  take max_facts sorted

let vacuous_hyps st ~hyps =
  List.filter
    (fun (h : T.t) ->
      match h.T.node with
      | T.Implies (a, _) -> Dom.truth (eval st a) = Dom.Bfalse
      | _ -> false)
    hyps

(* Propagation passes before giving up on a fixpoint. *)
let max_passes = 6

let check ~hyps ~goal () =
  let st = fresh_state () in
  let passes = ref 0 in
  let continue_ = ref true in
  while !continue_ && !passes < max_passes && not st.contra do
    st.changed <- false;
    Hashtbl.reset st.memo;
    List.iter (fun h -> assume st h true) hyps;
    incr passes;
    if not st.changed then continue_ := false
  done;
  Hashtbl.reset st.memo;
  if st.contra then
    { verdict = Proved; vacuous = true; facts = []; drop = []; passes = !passes }
  else
    let verdict = prove st goal in
    Hashtbl.reset st.memo;
    let facts = if verdict = Proved then [] else derive_facts st ~hyps in
    let drop = if verdict = Proved then [] else vacuous_hyps st ~hyps in
    { verdict; vacuous = false; facts; drop; passes = !passes }
