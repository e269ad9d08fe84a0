module T = Smt.Term
module S = Smt.Sort
module B = Vbase.Bigint
module Rat = Vbase.Rat

type outcome = Proved | Refuted of string | Unsupported of string

exception Untranslatable of string

(* ------------------------------------------------------------------ *)
(* bit_vector mode                                                     *)
(* ------------------------------------------------------------------ *)

let pow2_log v =
  (* Position of the highest set bit. *)
  let rec go i = if B.testbit v i then i else go (i - 1) in
  go 200

let exact_pow2 v =
  (* Some k with v = 2^k, if any. *)
  if B.sign v <= 0 then None
  else begin
    let k = pow2_log v in
    if B.equal v (B.pow B.two k) then Some k else None
  end

(* Translate an integer-semantics boolean term into bit-vector semantics. *)
let translate_bv ~width (goal : T.t) : T.t =
  let cache = Hashtbl.create 64 in
  let max_plus1 = B.pow B.two width in
  let bv_of_int v =
    if B.sign v < 0 || B.compare v max_plus1 >= 0 then
      raise (Untranslatable (Printf.sprintf "literal %s out of bv%d range" (B.to_string v) width));
    T.bv_lit ~width v
  in
  let rec tr_int (t : T.t) : T.t =
    match Hashtbl.find_opt cache t.T.tid with
    | Some r -> r
    | None ->
      let r =
        match t.T.node with
        | T.Int_lit v -> bv_of_int v
        | T.App (f, []) ->
          (* Integer constant reinterpreted as a BV constant. *)
          T.const (T.Sym.declare (f.T.sname ^ "$bv" ^ string_of_int width) [] (S.Bv width))
        | T.Bvar (x, S.Int) -> T.bvar (x ^ "$bv") (S.Bv width)
        | T.App (f, [ a; b ]) -> (
          (* The uninterpreted bounded bit operations become real ones. *)
          let op_of_name n =
            if Filename.check_suffix n ".and" then Some `And
            else if Filename.check_suffix n ".or" then Some `Or
            else if Filename.check_suffix n ".xor" then Some `Xor
            else if Filename.check_suffix n ".shl" then Some `Shl
            else if Filename.check_suffix n ".shr" then Some `Shr
            else None
          in
          match op_of_name f.T.sname with
          | Some `And -> T.bv_op T.Band [ tr_int a; tr_int b ]
          | Some `Or -> T.bv_op T.Bor [ tr_int a; tr_int b ]
          | Some `Xor -> T.bv_op T.Bxor [ tr_int a; tr_int b ]
          | Some `Shl -> (
            match b.T.node with
            | T.Int_lit k -> T.bv_op T.Bshl [ tr_int a; T.int_lit k ]
            | _ -> raise (Untranslatable "shift by non-literal"))
          | Some `Shr -> (
            match b.T.node with
            | T.Int_lit k -> T.bv_op T.Blshr [ tr_int a; T.int_lit k ]
            | _ -> raise (Untranslatable "shift by non-literal"))
          | None -> raise (Untranslatable ("uninterpreted int function " ^ f.T.sname)))
        | T.Add xs ->
          List.fold_left
            (fun acc x -> T.bv_op T.Badd [ acc; tr_int x ])
            (bv_of_int B.zero) xs
        | T.Sub (a, b) -> T.bv_op T.Bsub [ tr_int a; tr_int b ]
        | T.Mul (a, b) -> T.bv_op T.Bmul [ tr_int a; tr_int b ]
        | T.Neg a -> T.bv_op T.Bneg [ tr_int a ]
        | T.Imod (a, b) -> (
          match b.T.node with
          | T.Int_lit v -> (
            match exact_pow2 v with
            | Some _ ->
              (* x mod 2^k = x & (2^k - 1) *)
              T.bv_op T.Band [ tr_int a; bv_of_int (B.sub v B.one) ]
            | None -> raise (Untranslatable "mod by non-power-of-two"))
          | _ -> raise (Untranslatable "mod by non-literal"))
        | T.Idiv (a, b) -> (
          match b.T.node with
          | T.Int_lit v -> (
            match exact_pow2 v with
            | Some k -> T.bv_op T.Blshr [ tr_int a; T.int_of k ]
            | None -> raise (Untranslatable "div by non-power-of-two"))
          | _ -> raise (Untranslatable "div by non-literal"))
        | T.Ite (c, a, b) -> T.ite (tr_bool c) (tr_int a) (tr_int b)
        | _ -> raise (Untranslatable ("no bv translation for " ^ T.to_string t))
      in
      Hashtbl.replace cache t.T.tid r;
      r
  and tr_bool (t : T.t) : T.t =
    match t.T.node with
    | T.True | T.False -> t
    | T.Not a -> T.not_ (tr_bool a)
    | T.And xs -> T.and_ (List.map tr_bool xs)
    | T.Or xs -> T.or_ (List.map tr_bool xs)
    | T.Implies (a, b) -> T.implies (tr_bool a) (tr_bool b)
    | T.Iff (a, b) -> T.iff (tr_bool a) (tr_bool b)
    | T.Ite (c, a, b) -> T.ite (tr_bool c) (tr_bool a) (tr_bool b)
    | T.Eq (a, b) when S.equal (T.sort_of a) S.Int -> T.eq (tr_int a) (tr_int b)
    | T.Le (a, b) -> T.bv_op T.Bule [ tr_int a; tr_int b ]
    | T.Lt (a, b) -> T.bv_op T.Bult [ tr_int a; tr_int b ]
    | T.Forall q ->
      (* forall x:int ... over u64 range: the BV variable covers the whole
         range, so the quantifier becomes a BV quantifier; validity
         checking skolemizes it away. *)
      T.forall
        (List.map (fun (x, s) -> if S.equal s S.Int then (x ^ "$bv", S.Bv width) else (x, s)) q.T.qvars)
        (tr_bool q.T.body)
    | _ -> raise (Untranslatable ("no bv translation for formula " ^ T.to_string t))
  in
  tr_bool goal

(* Every mode that searches takes the same {!Smt.Solver.budget} record
   the main solver, the EPR grounding and the ladder rungs use; a mode with
   nothing to bound ([compute]) still accepts it so the driver can thread
   one budget everywhere uniformly. *)
let solver_config budget =
  match budget with
  | None -> Smt.Solver.default_config
  | Some b -> { Smt.Solver.default_config with Smt.Solver.budget = b }

(* Shared solver dispatch for the search-based modes.  With [certify] the
   isolated query runs with proof recording on and the Unsat certificate
   rides back with the outcome; certify-off callers pay nothing. *)
let solve_outcome ~certify ~budget ~refuted assertions =
  let base = solver_config budget in
  let config = if certify then { base with Smt.Solver.certify = true } else base in
  let r = Smt.Solver.solve ~config assertions in
  match r.Smt.Solver.answer with
  | Smt.Solver.Unsat -> (Proved, r.Smt.Solver.cert)
  | Smt.Solver.Sat -> (Refuted refuted, None)
  | Smt.Solver.Unknown reason -> (Unsupported ("solver: " ^ reason), None)

let bit_vector ~certify ?budget ~width goal =
  match translate_bv ~width goal with
  | exception Untranslatable msg -> (Unsupported msg, None)
  | bv_goal ->
    solve_outcome ~certify ~budget ~refuted:"bit-vector countermodel exists"
      [ T.not_ bv_goal ]

let prove_bit_vector ?budget ?(width = 64) goal =
  fst (bit_vector ~certify:false ?budget ~width goal)

let prove_bit_vector_cert ?budget ?(width = 64) goal =
  bit_vector ~certify:true ?budget ~width goal

(* ------------------------------------------------------------------ *)
(* nonlinear_arith mode                                                *)
(* ------------------------------------------------------------------ *)

(* Collect nonlinear product subterms (Mul with two non-literal sides). *)
let products_of (t : T.t) =
  T.fold_subterms
    (fun acc s ->
      match s.T.node with
      | T.Mul (a, b) -> (
        match (a.T.node, b.T.node) with
        | T.Int_lit _, _ | _, T.Int_lit _ -> acc
        | _ -> (s, a, b) :: acc)
      | _ -> acc)
    [] t

let int_literals_of (t : T.t) =
  let found =
    T.fold_subterms
      (fun acc s -> match s.T.node with T.Int_lit v -> v :: acc | _ -> acc)
      [] t
  in
  (* Include negations and small defaults: monotonicity lemmas against a
     literal k are useful for either comparison direction. *)
  List.concat_map (fun v -> [ v; B.neg v ]) found @ [ B.zero; B.one; B.two ]
  |> List.sort_uniq B.compare

let nonlinear_lemmas goal =
  let products = products_of goal in
  let lits = int_literals_of goal in
  let zero = T.int_of 0 in
  let lemmas = ref [] in
  let push l = lemmas := l :: !lemmas in
  List.iter
    (fun (p, a, b) ->
      (* Squares are nonnegative. *)
      if T.equal a b then push (T.ge p zero);
      (* Sign rules. *)
      push (T.implies (T.and_ [ T.ge a zero; T.ge b zero ]) (T.ge p zero));
      push (T.implies (T.and_ [ T.le a zero; T.le b zero ]) (T.ge p zero));
      push (T.implies (T.and_ [ T.ge a zero; T.le b zero ]) (T.le p zero));
      push (T.implies (T.and_ [ T.gt a zero; T.gt b zero ]) (T.gt p zero));
      (* Monotonicity against the literals in the goal: for literal k,
         0 <= a /\ k <= b ==> k*a <= a*b, and dually. *)
      List.iter
        (fun k ->
          let kt = T.int_lit k in
          push
            (T.implies (T.and_ [ T.ge a zero; T.le kt b ]) (T.le (T.mul kt a) p));
          push
            (T.implies (T.and_ [ T.ge a zero; T.le b kt ]) (T.le p (T.mul kt a)));
          push
            (T.implies (T.and_ [ T.ge b zero; T.le kt a ]) (T.le (T.mul kt b) p));
          push
            (T.implies (T.and_ [ T.ge b zero; T.le a kt ]) (T.le p (T.mul kt b))))
        lits)
    products;
  (* Pairwise monotonicity for products sharing a factor:
     0 <= a /\ b <= c ==> a*b <= a*c. *)
  List.iter
    (fun (p1, a1, b1) ->
      List.iter
        (fun (p2, a2, b2) ->
          if not (T.equal p1 p2) then begin
            let shared =
              if T.equal a1 a2 then Some (a1, b1, b2)
              else if T.equal a1 b2 then Some (a1, b1, a2)
              else if T.equal b1 a2 then Some (b1, a1, b2)
              else if T.equal b1 b2 then Some (b1, a1, a2)
              else None
            in
            match shared with
            | Some (shared_factor, x, y) ->
              push
                (T.implies
                   (T.and_ [ T.ge shared_factor zero; T.le x y ])
                   (T.le p1 p2));
              push
                (T.implies
                   (T.and_ [ T.ge shared_factor zero; T.le y x ])
                   (T.le p2 p1))
            | None -> ()
          end)
        products)
    products;
  !lemmas

(* Normalize polynomial (in)equalities: move everything to one side and
   rebuild in polynomial normal form, so ring identities hold
   definitionally. *)
let rec normalize_goal (t : T.t) : T.t =
  let resolve_tbl : (string, T.t) Hashtbl.t = Hashtbl.create 16 in
  let remember (x : T.t) =
    match x.T.node with
    | T.App (f, []) -> Hashtbl.replace resolve_tbl f.T.sname x
    | _ -> Hashtbl.replace resolve_tbl (Printf.sprintf "$t%d" x.T.tid) x
  in
  let norm_side a b mk =
    ignore (T.fold_subterms (fun () s -> remember s) () a);
    ignore (T.fold_subterms (fun () s -> remember s) () b);
    let d = Poly.sub (Poly.of_term a) (Poly.of_term b) in
    (* Clear denominators (coefficients may be rational). *)
    let lcm_den =
      List.fold_left
        (fun acc (_, c) ->
          let den = (c : Rat.t).Rat.den in
          B.mul acc (fst (B.div_rem den (B.gcd acc den))))
        B.one d
    in
    let d = Poly.scale (Rat.of_bigint lcm_den) d in
    let resolve x =
      match Hashtbl.find_opt resolve_tbl x with
      | Some t -> t
      | None -> T.const (T.Sym.declare x [] S.Int)
    in
    mk (Poly.to_term resolve d) (T.int_of 0)
  in
  match t.T.node with
  | T.Eq (a, b) when S.equal (T.sort_of a) S.Int -> norm_side a b T.eq
  | T.Le (a, b) -> norm_side a b T.le
  | T.Lt (a, b) -> norm_side a b T.lt
  | T.Not a -> T.not_ (normalize_goal a)
  | T.And xs -> T.and_ (List.map normalize_goal xs)
  | T.Or xs -> T.or_ (List.map normalize_goal xs)
  | T.Implies (a, b) -> T.implies (normalize_goal a) (normalize_goal b)
  | T.Iff (a, b) -> T.iff (normalize_goal a) (normalize_goal b)
  | _ -> t

let nonlinear ~certify ?budget ~hyps goal =
  let goal = normalize_goal goal in
  let lemmas = nonlinear_lemmas goal in
  solve_outcome ~certify ~budget
    ~refuted:"nonlinear countermodel exists (under lemma approximation)"
    (hyps @ lemmas @ [ T.not_ goal ])

let prove_nonlinear ?budget ?(hyps = []) goal =
  fst (nonlinear ~certify:false ?budget ~hyps goal)

let prove_nonlinear_cert ?budget ?(hyps = []) goal =
  nonlinear ~certify:true ?budget ~hyps goal

(* ------------------------------------------------------------------ *)
(* integer_ring mode                                                   *)
(* ------------------------------------------------------------------ *)

(* Split an implication chain into premises and conclusion. *)
let rec split_implications (t : T.t) =
  match t.T.node with
  | T.Implies (a, b) ->
    let prems, concl = split_implications b in
    let conj = match a.T.node with T.And xs -> xs | _ -> [ a ] in
    (conj @ prems, concl)
  | _ -> ([], t)

(* A ring fact is an equality or a [t % c == 0]; translate to polynomial
   generators (with fresh quotient variables for mod facts). *)
let counter = ref 0

let ring_poly_of_fact (t : T.t) : (Poly.t * Poly.t option, string) result =
  (* Returns (generator polynomial, Some modulus polynomial when the fact
     is a mod-zero fact). *)
  match t.T.node with
  | T.Eq (a, b) -> (
    match (a.T.node, b.T.node) with
    | T.Imod (x, c), T.Int_lit z when B.is_zero z ->
      incr counter;
      let k = Poly.var (Printf.sprintf "$k%d" !counter) in
      let cp = Poly.of_term c in
      (* x mod c = 0  ~~>  x - k*c = 0 *)
      Ok (Poly.sub (Poly.of_term x) (Poly.mul k cp), Some cp)
    | T.Int_lit z, T.Imod (x, c) when B.is_zero z ->
      incr counter;
      let k = Poly.var (Printf.sprintf "$k%d" !counter) in
      let cp = Poly.of_term c in
      Ok (Poly.sub (Poly.of_term x) (Poly.mul k cp), Some cp)
    | _ ->
      if S.equal (T.sort_of a) S.Int then Ok (Poly.sub (Poly.of_term a) (Poly.of_term b), None)
      else Error "non-integer equality"
  )
  | _ -> Error ("not a ring fact: " ^ T.to_string t)

(* {!Smt.Cert.groebner} wants (coefficient, monomial) pairs. *)
let cert_poly (p : Poly.t) = List.map (fun (m, c) -> (c, m)) p

let integer_ring ~certify ?budget goal =
  let max_pairs =
    match budget with
    | None -> None
    | Some b -> Some b.Smt.Solver.ring_pairs_budget
  in
  let prems, concl = split_implications goal in
  let gens = ref [] in
  let errors = ref [] in
  List.iter
    (fun prem ->
      match ring_poly_of_fact prem with
      | Ok (g, _) -> gens := g :: !gens
      | Error e -> errors := e :: !errors)
    prems;
  if !errors <> [] then (Unsupported (String.concat "; " !errors), None)
  else begin
    match ring_poly_of_fact concl with
    | Error e -> (Unsupported e, None)
    | Ok (target, modulus) -> (
      (* For a mod-zero conclusion the quotient variable is existential:
         the claim is target' ∈ ideal(gens ∪ {modulus}) where target' is
         the left-hand side without the quotient term. *)
      let target, gens =
        match (modulus, concl.T.node) with
        | Some cp, T.Eq (a, b) ->
          let x = match (a.T.node, b.T.node) with
            | T.Imod (x, _), _ -> x
            | _, T.Imod (x, _) -> x
            | _ -> assert false
          in
          (Poly.of_term x, cp :: !gens)
        | _ -> (target, !gens)
      in
      if certify then
        match Groebner.ideal_member_cert ?max_pairs target gens with
        | Some q ->
          let cert =
            Smt.Cert.groebner ~target:(cert_poly target)
              ~gens:(List.map cert_poly gens)
              ~cofactors:(Array.to_list q |> List.map cert_poly)
          in
          (Proved, Some cert)
        | None -> (Refuted "polynomial is not in the hypothesis ideal", None)
        | exception Failure msg -> (Unsupported msg, None)
      else
        match Groebner.ideal_member ?max_pairs target gens with
        | true -> (Proved, None)
        | false -> (Refuted "polynomial is not in the hypothesis ideal", None)
        | exception Failure msg -> (Unsupported msg, None))
  end

let prove_integer_ring ?budget goal = fst (integer_ring ~certify:false ?budget goal)
let prove_integer_ring_cert ?budget goal = integer_ring ~certify:true ?budget goal

(* ------------------------------------------------------------------ *)
(* compute mode                                                        *)
(* ------------------------------------------------------------------ *)

let prove_compute ?budget prog expr =
  ignore budget;
  match Interp.eval_expr ~quant_bound:0 prog [] expr with
  | Interp.VBool true -> Proved
  | Interp.VBool false -> Refuted "expression evaluates to false"
  | v -> Unsupported ("expression computes to non-boolean " ^ Interp.value_to_string v)
  | exception Interp.Runtime_error msg -> Unsupported ("evaluation failed: " ^ msg)

let prove_compute_cert ?budget prog expr =
  (* The interpreter has no sub-structure to log: its verdict enters the
     trusted computing base explicitly as a trusted certificate. *)
  match prove_compute ?budget prog expr with
  | Proved -> (Proved, Some (Smt.Cert.trusted "compute"))
  | o -> (o, None)
