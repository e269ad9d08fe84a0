(* Tests for the SMT substrate: SAT solver vs. brute force, terms, and (as
   they land) the theory solvers and the full solver loop. *)

module Sat = Smt.Sat
module T = Smt.Term
module S = Smt.Sort

(* ------------------------------------------------------------------ *)
(* SAT                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sat_trivial () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a; Sat.pos b ];
  Sat.add_clause s [ Sat.neg a ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "b true" true (Sat.value s b);
  Alcotest.(check bool) "a false" false (Sat.value s a);
  Sat.add_clause s [ Sat.neg b ];
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_pigeonhole () =
  (* 4 pigeons, 3 holes: classically unsat, needs real search. *)
  let s = Sat.create () in
  let np = 4 and nh = 3 in
  let v = Array.init np (fun _ -> Array.init nh (fun _ -> Sat.new_var s)) in
  for p = 0 to np - 1 do
    Sat.add_clause s (List.init nh (fun h -> Sat.pos v.(p).(h)))
  done;
  for h = 0 to nh - 1 do
    for p1 = 0 to np - 1 do
      for p2 = p1 + 1 to np - 1 do
        Sat.add_clause s [ Sat.neg v.(p1).(h); Sat.neg v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php unsat" true (Sat.solve s = Sat.Unsat)

(* Brute-force CNF satisfiability for up to ~15 vars. *)
let brute_force nvars clauses =
  let rec go assignment v =
    if v = nvars then
      List.for_all
        (fun clause ->
          List.exists
            (fun lit ->
              let var = lit / 2 and negated = lit land 1 = 1 in
              if negated then not assignment.(var) else assignment.(var))
            clause)
        clauses
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make nvars false) 0

let cnf_gen =
  (* Random 3-CNF-ish instances near the phase transition. *)
  QCheck.Gen.(
    let* nvars = int_range 3 10 in
    let* nclauses = int_range 1 (4 * nvars) in
    let* clauses =
      list_size (return nclauses)
        (list_size (int_range 1 3)
           (let* v = int_range 0 (nvars - 1) in
            let* s = bool in
            return ((2 * v) + if s then 1 else 0)))
    in
    return (nvars, clauses))

let prop_sat_matches_brute_force =
  QCheck.Test.make ~name:"cdcl agrees with brute force" ~count:300
    (QCheck.make cnf_gen) (fun (nvars, clauses) ->
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      List.iter (fun c -> Sat.add_clause s c) clauses;
      let got = Sat.solve s = Sat.Sat in
      let expected = brute_force nvars clauses in
      if got <> expected then false
      else if got then
        (* The produced model must actually satisfy the clauses. *)
        List.for_all
          (fun clause ->
            List.exists
              (fun lit ->
                let var = lit / 2 and negated = lit land 1 = 1 in
                if negated then not (Sat.value s var) else Sat.value s var)
              clause)
          clauses
      else true)

let prop_sat_incremental =
  QCheck.Test.make ~name:"incremental clause addition stays correct" ~count:100
    (QCheck.make cnf_gen) (fun (nvars, clauses) ->
      (* Add clauses one at a time, solving after each; result must match
         brute force on the prefix. *)
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      let rec go prefix = function
        | [] -> true
        | c :: rest ->
          let prefix = c :: prefix in
          Sat.add_clause s c;
          let got = Sat.solve s = Sat.Sat in
          let expected = brute_force nvars prefix in
          got = expected && go prefix rest
      in
      go [] clauses)

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let test_term_hashcons () =
  let x = T.const (T.Sym.declare "tx" [] S.Int) in
  let y = T.const (T.Sym.declare "ty" [] S.Int) in
  Alcotest.(check bool) "same term shared" true (T.equal (T.add [ x; y ]) (T.add [ x; y ]));
  Alcotest.(check bool) "eq canonical order" true (T.equal (T.eq x y) (T.eq y x));
  Alcotest.(check bool) "and flattening" true
    (T.equal
       (T.and_ [ T.le x y; T.and_ [ T.le y x; T.tru ] ])
       (T.and_ [ T.le x y; T.le y x ]))

let test_term_folding () =
  Alcotest.(check string) "add fold" "5" (T.to_string (T.add [ T.int_of 2; T.int_of 3 ]));
  Alcotest.(check string) "mul fold" "6" (T.to_string (T.mul (T.int_of 2) (T.int_of 3)));
  Alcotest.(check bool) "lt fold" true (T.equal (T.lt (T.int_of 2) (T.int_of 3)) T.tru);
  Alcotest.(check bool) "ite fold" true
    (T.equal (T.ite T.fls (T.int_of 1) (T.int_of 2)) (T.int_of 2));
  Alcotest.(check bool) "not not" true
    (T.equal (T.not_ (T.not_ (T.le (T.int_of 0) (T.int_of 1)))) T.tru);
  (* Euclidean semantics for div/mod folding. *)
  Alcotest.(check string) "ediv" "(- 3)" (T.to_string (T.idiv (T.int_of (-7)) (T.int_of 3)));
  Alcotest.(check string) "emod" "2" (T.to_string (T.imod (T.int_of (-7)) (T.int_of 3)))

let test_term_bv_folding () =
  let bv v = T.bv_lit ~width:8 (Vbase.Bigint.of_int v) in
  let check name expected t =
    Alcotest.(check bool) name true (T.equal (bv expected) t)
  in
  check "and" 0b1000 (T.bv_op T.Band [ bv 0b1100; bv 0b1010 ]);
  check "or" 0b1110 (T.bv_op T.Bor [ bv 0b1100; bv 0b1010 ]);
  check "xor" 0b0110 (T.bv_op T.Bxor [ bv 0b1100; bv 0b1010 ]);
  check "add wrap" 4 (T.bv_op T.Badd [ bv 250; bv 10 ]);
  check "sub wrap" 246 (T.bv_op T.Bsub [ bv 0; bv 10 ]);
  check "mul wrap" 144 (T.bv_op T.Bmul [ bv 20; bv 20 ]);
  check "not" 0b00110011 (T.bv_op T.Bnot [ bv 0b11001100 ]);
  check "shl" 0b11000 (T.bv_op T.Bshl [ bv 0b110; T.int_of 2 ]);
  check "lshr" 0b1 (T.bv_op T.Blshr [ bv 0b110; T.int_of 2 ]);
  Alcotest.(check bool) "ule" true (T.equal (T.bv_op T.Bule [ bv 3; bv 3 ]) T.tru);
  Alcotest.(check bool) "ult" true (T.equal (T.bv_op T.Bult [ bv 3; bv 3 ]) T.fls);
  (* extract/concat *)
  Alcotest.(check bool) "extract" true
    (T.equal
       (T.bv_op (T.Bextract (5, 2)) [ bv 0b110100 ])
       (T.bv_lit ~width:4 (Vbase.Bigint.of_int 0b1101)));
  Alcotest.(check bool) "concat" true
    (T.equal
       (T.bv_op T.Bconcat [ T.bv_lit ~width:4 (Vbase.Bigint.of_int 0xA); T.bv_lit ~width:4 (Vbase.Bigint.of_int 0x5) ])
       (T.bv_lit ~width:8 (Vbase.Bigint.of_int 0xA5)))

let test_term_subst () =
  let f = T.Sym.declare "tf" [ S.Int ] S.Int in
  let x = T.bvar "xs" S.Int in
  let body = T.le (T.app f [ x ]) x in
  let inst = T.subst [ ("xs", T.int_of 5) ] body in
  Alcotest.(check bool) "subst" true (T.equal inst (T.le (T.app f [ T.int_of 5 ]) (T.int_of 5)));
  (* Shadowing: inner binder protects its variable. *)
  let c = T.const (T.Sym.declare "tc_subst" [] S.Int) in
  let inner = T.forall [ ("xs", S.Int) ] (T.le x c) in
  let outer = T.and_ [ T.le x c; inner ] in
  let sub = T.subst [ ("xs", T.int_of 7) ] outer in
  (match sub.T.node with
  | T.And [ a; b ] ->
    Alcotest.(check bool) "outer substituted" true (T.equal a (T.le (T.int_of 7) c));
    Alcotest.(check bool) "inner untouched" true (T.equal b inner)
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check (list string)) "free vars" [ "xs" ] (List.map fst (T.free_bvars body))

let test_term_sizes () =
  let x = T.const (T.Sym.declare "tsx" [] S.Int) in
  let t = T.add [ x; x ] in
  Alcotest.(check int) "dag size" 2 (T.size t);
  Alcotest.(check int) "tree size" 3 (T.tree_size t);
  Alcotest.(check bool) "printed size positive" true (T.printed_size t > 0)


(* ------------------------------------------------------------------ *)
(* Solver: ground EUF + LIA + combination                              *)
(* ------------------------------------------------------------------ *)

module Solver = Smt.Solver

let ic name = T.const (T.Sym.declare name [] S.Int)
let uc name srt = T.const (T.Sym.declare name [] srt)

let is_unsat r = match r.Solver.answer with Solver.Unsat -> true | _ -> false
let is_sat r = match r.Solver.answer with Solver.Sat -> true | _ -> false

let check_unsat name assertions =
  let r = Solver.solve assertions in
  Alcotest.(check bool) (name ^ " unsat") true (is_unsat r)

let check_sat name assertions =
  let r = Solver.solve assertions in
  (match r.Solver.answer with
  | Solver.Unknown reason -> Printf.printf "unknown: %s\n" reason
  | _ -> ());
  Alcotest.(check bool) (name ^ " sat") true (is_sat r)

let test_solver_lia () =
  let x = ic "slx" and y = ic "sly" in
  check_unsat "x<y<x" [ T.lt x y; T.lt y x ];
  check_sat "x<y" [ T.lt x y ];
  check_unsat "bounds" [ T.le (T.int_of 5) x; T.le x (T.int_of 4) ];
  (* Integrality: 2x = 3 has no integer solution. *)
  check_unsat "2x=3" [ T.eq (T.mul (T.int_of 2) x) (T.int_of 3) ];
  (* 2x + 2y = 1 unsat over Z but sat over Q. *)
  check_unsat "parity" [ T.eq (T.add [ T.mul (T.int_of 2) x; T.mul (T.int_of 2) y ]) (T.int_of 1) ];
  (* x >= 0, y >= 0, x + y <= 1, x + y >= 2 *)
  check_unsat "sum bounds"
    [ T.ge x (T.int_of 0); T.ge y (T.int_of 0); T.le (T.add [ x; y ]) (T.int_of 1);
      T.ge (T.add [ x; y ]) (T.int_of 2) ];
  (* Strictness over ints: x < y /\ y < x + 2 /\ x < z < y is unsat
     (no integer strictly between x and x+1). *)
  check_unsat "between"
    [ T.lt x y; T.lt y (T.add [ x; T.int_of 2 ]);
      (let z = ic "slz" in T.and_ [ T.lt x z; T.lt z y ]) ]

let test_solver_euf () =
  let srt = S.Usort "E" in
  let a = uc "sea" srt and b = uc "seb" srt and c = uc "sec" srt in
  let f = T.Sym.declare "sef" [ srt ] srt in
  let app1 t = T.app f [ t ] in
  check_unsat "transitivity" [ T.eq a b; T.eq b c; T.neq a c ];
  check_unsat "congruence" [ T.eq a b; T.neq (app1 a) (app1 b) ];
  check_sat "diseq ok" [ T.neq a b; T.eq b c ];
  (* f(f(f(a))) = a, f(f(f(f(f(a))))) = a |- f(a) = a  (classic) *)
  let rec fn n t = if n = 0 then t else fn (n - 1) (app1 t) in
  check_unsat "f3 f5"
    [ T.eq (fn 3 a) a; T.eq (fn 5 a) a; T.neq (app1 a) a ];
  (* Predicate congruence: a = b, P(a), not P(b). *)
  let p = T.Sym.declare "sep" [ srt ] S.Bool in
  check_unsat "pred congruence" [ T.eq a b; T.app p [ a ]; T.not_ (T.app p [ b ]) ]

let test_solver_combination () =
  (* EUF over Int with arithmetic: x <= y, y <= x |- f(x) = f(y). *)
  let x = ic "scx" and y = ic "scy" in
  let f = T.Sym.declare "scf" [ S.Int ] S.Int in
  check_unsat "NO combination"
    [ T.le x y; T.le y x; T.neq (T.app f [ x ]) (T.app f [ y ]) ];
  (* Purification: f(x+1) = f(1+x) must hold (same term after smart
     constructors? x+1 and 1+x normalize to the same Add); use
     f(x+1) vs f(y) with y = x + 1. *)
  check_unsat "purified args"
    [ T.eq y (T.add [ x; T.int_of 1 ]);
      T.neq (T.app f [ T.add [ x; T.int_of 1 ] ]) (T.app f [ y ]) ];
  (* f(x) = x + 2, f(f(x)) = x + 4 consistency. *)
  check_unsat "chained"
    [ T.eq (T.app f [ x ]) (T.add [ x; T.int_of 2 ]);
      T.eq (T.app f [ T.app f [ x ] ])
        (T.add [ T.app f [ x ]; T.int_of 2 ]);
      T.neq (T.app f [ T.app f [ x ] ]) (T.add [ x; T.int_of 4 ]) ]

let test_solver_bool_structure () =
  let p = uc "sbp" S.Bool and q = uc "sbq" S.Bool in
  check_unsat "modus ponens" [ T.implies p q; p; T.not_ q ];
  check_sat "iff sat" [ T.iff p q; p; q ];
  check_unsat "iff unsat" [ T.iff p q; p; T.not_ q ];
  let x = ic "sbx" in
  check_unsat "ite"
    [ T.eq (T.ite p (T.int_of 1) (T.int_of 2)) x; p; T.neq x (T.int_of 1) ]

let test_solver_divmod () =
  let x = ic "sdx" in
  (* x mod 4 = 3 and x mod 2 = 0 is impossible. *)
  check_unsat "mod parity"
    [ T.eq (T.imod x (T.int_of 4)) (T.int_of 3);
      T.eq (T.imod x (T.int_of 2)) (T.int_of 0) ];
  check_sat "mod sat" [ T.eq (T.imod x (T.int_of 4)) (T.int_of 3) ];
  (* Euclidean division: x = 4*(x div 4) + (x mod 4). *)
  check_unsat "div identity"
    [ T.neq x (T.add [ T.mul (T.int_of 4) (T.idiv x (T.int_of 4)); T.imod x (T.int_of 4) ]) ]

let test_solver_bv () =
  let bv8 v = T.bv_lit ~width:8 (Vbase.Bigint.of_int v) in
  let x = uc "svx" (S.Bv 8) in
  (* x & 0x0F <= 15 always: negation unsat. *)
  check_unsat "mask bound"
    [ T.not_ (T.bv_op T.Bule [ T.bv_op T.Band [ x; bv8 0x0F ]; bv8 15 ]) ];
  (* x + 1 = 0 has the solution x = 255. *)
  check_sat "wraparound" [ T.eq (T.bv_op T.Badd [ x; bv8 1 ]) (bv8 0) ];
  (* x ^ x = 0 always. *)
  check_unsat "xor self" [ T.neq (T.bv_op T.Bxor [ x; x ]) (bv8 0) ];
  (* x & 7 = x mod 8 as bit-vectors: (x & 7) <u 8 always. *)
  check_unsat "low bits"
    [ T.not_ (T.bv_op T.Bult [ T.bv_op T.Band [ x; bv8 7 ]; bv8 8 ]) ]

let test_solver_quant () =
  let srt = S.Usort "Q" in
  let f = T.Sym.declare "sqf" [ srt ] S.Int in
  let a = uc "sqa" srt and b = uc "sqb" srt in
  (* forall x. f(x) >= 0, with f(a) < 0: unsat via instantiation. *)
  let ax = T.forall [ ("x", srt) ] (T.ge (T.app f [ T.bvar "x" srt ]) (T.int_of 0)) in
  check_unsat "axiom instantiation" [ ax; T.lt (T.app f [ a ]) (T.int_of 0) ];
  (* forall x. f(x) = 1 and f(a) + f(b) = 3: unsat. *)
  let ax1 = T.forall [ ("x", srt) ] (T.eq (T.app f [ T.bvar "x" srt ]) (T.int_of 1)) in
  check_unsat "two instances"
    [ ax1; T.eq (T.add [ T.app f [ a ]; T.app f [ b ] ]) (T.int_of 3) ];
  (* Chained: forall x. g(x) = x allows g(g(c)) <> c to be refuted. *)
  let g = T.Sym.declare "sqg" [ srt ] srt in
  let axg = T.forall [ ("x", srt) ] (T.eq (T.app g [ T.bvar "x" srt ]) (T.bvar "x" srt)) in
  check_unsat "chained instantiation" [ axg; T.neq (T.app g [ T.app g [ a ] ]) a ];
  (* Satisfiable with quantifier: should be unknown, not unsat. *)
  let r = Solver.solve [ ax; T.ge (T.app f [ a ]) (T.int_of 0) ] in
  Alcotest.(check bool) "not unsat" false (is_unsat r)

let test_solver_exists () =
  let x = ic "sxx" in
  (* exists y. y > x  — satisfiable via skolemization. *)
  check_sat "exists skolem"
    [ T.exists [ ("y", S.Int) ] (T.gt (T.bvar "y" S.Int) x) ];
  (* not (exists y. y = x) is unsat: the negation is forall y. y <> x,
     instantiated with x itself. *)
  check_unsat "neg exists"
    [ T.not_ (T.exists [ ("y", S.Int) ] (T.eq (T.bvar "y" S.Int) x)) ]

let test_check_valid () =
  let x = ic "svalx" in
  let r = Solver.check_valid ~hyps:[ T.ge x (T.int_of 0) ] (T.ge (T.add [ x; T.int_of 1 ]) (T.int_of 1)) in
  Alcotest.(check bool) "valid" true (is_unsat r);
  let r2 = Solver.check_valid ~hyps:[ T.ge x (T.int_of 0) ] (T.ge x (T.int_of 1)) in
  Alcotest.(check bool) "invalid" false (is_unsat r2)


(* ------------------------------------------------------------------ *)
(* EUF directly                                                        *)
(* ------------------------------------------------------------------ *)

module Euf = Smt.Euf

let test_euf_direct () =
  let srt = S.Usort "ED" in
  let a = uc "eda" srt and b = uc "edb" srt and c = uc "edc" srt in
  let f = T.Sym.declare "edf" [ srt ] srt in
  let e = Euf.create () in
  let node = Euf.node e in
  let merge x y ~reason =
    let x = node x in
    let y = node y in
    Euf.merge e x y ~reason
  in
  merge a b ~reason:1;
  merge b c ~reason:2;
  Alcotest.(check bool) "trans" true (Euf.are_equal e a c);
  (* Congruence after the fact. *)
  ignore (node (T.app f [ a ]));
  ignore (node (T.app f [ c ]));
  Alcotest.(check bool) "check ok" true (Euf.check e = Ok ());
  Alcotest.(check bool) "congruent" true (Euf.are_equal e (T.app f [ a ]) (T.app f [ c ]));
  (* Explanation is exactly the two input reasons. *)
  Alcotest.(check (list int)) "explain" [ 1; 2 ] (Euf.explain e (T.app f [ a ]) (T.app f [ c ]));
  (* Disequality conflict with a small core. *)
  Euf.assert_diseq e (node (T.app f [ a ])) (node (T.app f [ c ])) ~reason:3;
  (match Euf.check e with
  | Error core -> Alcotest.(check (list int)) "core" [ 1; 2; 3 ] core
  | Ok () -> Alcotest.fail "missed conflict");
  (* class_members exposes the merged class. *)
  Alcotest.(check int) "class size" 3 (List.length (Euf.class_members e a))

(* A reused E-graph answers like a fresh one.  Random ground atoms over a
   few symbols (equalities weighted double) go through several rounds of
   random polarities, with atoms appended between some rounds.  Each
   round replays the reused instance the way the solver's final check
   does (reset, then per atom: activate up to the size recorded at its
   first sight and assert on the recorded node ids) in step with a fresh
   instance fed every registration again: the classes must agree after
   every atom, and the check result, class ids and explanations at the
   end. *)
let prop_euf_reuse_matches_fresh =
  let srt = S.Usort "EUFR" in
  let c = Array.init 4 (fun i -> uc (Printf.sprintf "eufr.c%d" i) srt) in
  let f = T.Sym.declare "eufr.f" [ srt ] srt in
  let g = T.Sym.declare "eufr.g" [ srt; srt ] srt in
  let p = T.Sym.declare "eufr.p" [ srt ] S.Bool in
  let h = T.Sym.declare "eufr.h" [ srt ] S.Int in
  let f1 x = T.app f [ x ] and g2 x y = T.app g [ x; y ] in
  let pool =
    [|
      c.(0); c.(1); c.(2); c.(3); f1 c.(0); f1 c.(1); f1 (f1 c.(0)); g2 c.(0) c.(1);
      g2 c.(1) c.(0); g2 (f1 c.(0)) c.(2); f1 (g2 c.(0) c.(1)); f1 c.(3);
    |]
  in
  let atom (kind, x, y) =
    match kind with
    | 0 | 1 -> T.eq pool.(x) pool.(y)
    | 2 -> T.app p [ pool.(x) ]
    | _ -> T.eq (T.app h [ pool.(x) ]) (T.int_of (y mod 2))
  in
  (* First sight, as the solver registers an atom: its application
     subterms, then the sides it asserts on. *)
  let register e (atom : T.t) =
    List.iter
      (fun s -> ignore (Euf.node e s))
      (T.fold_subterms (fun acc s -> match s.T.node with T.App _ -> s :: acc | _ -> acc) [] atom);
    match atom.T.node with
    | T.Eq (a, b) ->
      let a = Euf.node e a in
      let b = Euf.node e b in
      `Eq (a, b)
    | T.App _ -> `Pred (Euf.node e atom)
    | _ -> `None
  in
  let assert_atom e ~tru ~fls i role value =
    match role with
    | `Eq (a, b) -> if value then Euf.merge e a b ~reason:i else Euf.assert_diseq e a b ~reason:i
    | `Pred n -> Euf.merge e n (if value then tru else fls) ~reason:i
    | `None -> ()
  in
  let start e =
    let tru = Euf.node e T.tru in
    let fls = Euf.node e T.fls in
    Euf.assert_diseq e tru fls ~reason:(-2);
    (tru, fls)
  in
  let classes e =
    let out = ref [] in
    Euf.iter_classes e (fun ms -> out := List.map (fun n -> (Euf.term e n).T.tid) ms :: !out);
    !out
  in
  let terms =
    Array.to_list pool @ List.map (fun x -> T.app h [ x ]) (Array.to_list pool)
    @ [ T.tru; T.fls; T.int_of 0; T.int_of 1 ]
  in
  QCheck.Test.make ~name:"a reset-and-replayed E-graph answers like a fresh one" ~count:500
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 2 10)
           (triple (int_range 0 3) (int_range 0 11) (int_range 0 11)))
        (list_of_size (QCheck.Gen.int_range 3 8) (pair (int_range 0 2) (int_range 0 0xFFFF))))
    (fun (specs, rounds) ->
      let atoms = Array.of_list (List.map atom specs) in
      let reused = Euf.create () in
      let seen = ref [||] in
      let visible = ref 1 in
      List.for_all
        (fun (appended, bits) ->
          visible := min (Array.length atoms) (!visible + appended);
          let value i = (bits lsr (i mod 16)) land 1 = 1 in
          Euf.reset reused;
          let fresh = Euf.create () in
          let r_tru, r_fls = start reused and f_tru, f_fls = start fresh in
          let same_steps = ref true in
          for i = 0 to !visible - 1 do
            if i = Array.length !seen then begin
              let role = register reused atoms.(i) in
              seen := Array.append !seen [| (Euf.size reused, role) |]
            end;
            let mark, role = !seen.(i) in
            Euf.activate reused mark;
            assert_atom reused ~tru:r_tru ~fls:r_fls i role (value i);
            assert_atom fresh ~tru:f_tru ~fls:f_fls i (register fresh atoms.(i)) (value i);
            same_steps := !same_steps && classes reused = classes fresh
          done;
          !same_steps
          && Euf.check reused = Euf.check fresh
          && classes reused = classes fresh
          && List.for_all
               (fun a ->
                 Euf.class_id reused a = Euf.class_id fresh a
                 && List.for_all
                      (fun b ->
                        Euf.are_equal reused a b = Euf.are_equal fresh a b
                        && (Euf.class_id fresh a = None
                           || Euf.class_id fresh b = None
                           || (not (Euf.are_equal fresh a b))
                           || Euf.explain reused a b = Euf.explain fresh a b))
                      terms)
               terms)
        rounds)

(* ------------------------------------------------------------------ *)
(* LIA directly                                                        *)
(* ------------------------------------------------------------------ *)

module Lia = Smt.Lia
module Rat = Vbase.Rat

(* Assert [sum coeffs <= c] (upper) or [>= c] (lower) the way the solver
   does: prepare the bound, then assert it under [reason]. *)
let assert_bound l ?(strict = false) ~is_upper coeffs c ~reason =
  Lia.assert_prepared l (Lia.prepare l coeffs c ~strict ~is_upper) ~reason

let test_lia_direct () =
  let l = Lia.create () in
  let x = Lia.var_of_term l (ic "ldx") in
  let y = Lia.var_of_term l (ic "ldy") in
  (* x + y <= 4, x >= 3, y >= 2: conflict with all three reasons. *)
  assert_bound l ~is_upper:true [ (Rat.one, x); (Rat.one, y) ] (Rat.of_int 4) ~reason:0;
  assert_bound l ~is_upper:false [ (Rat.one, x) ] (Rat.of_int 3) ~reason:1;
  assert_bound l ~is_upper:false [ (Rat.one, y) ] (Rat.of_int 2) ~reason:2;
  (match Lia.check l with
  | Lia.Conflict core -> Alcotest.(check (list int)) "farkas core" [ 0; 1; 2 ] (List.sort compare core)
  | _ -> Alcotest.fail "expected conflict");
  (* Fresh instance: satisfiable system has an integral model. *)
  let l2 = Lia.create () in
  let x = Lia.var_of_term l2 (ic "ld2x") in
  let y = Lia.var_of_term l2 (ic "ld2y") in
  assert_bound l2 ~is_upper:false [ (Rat.one, x) ] (Rat.of_int 1) ~reason:0;
  assert_bound l2 ~is_upper:true [ (Rat.of_int 2, x); (Rat.of_int 3, y) ] (Rat.of_int 12) ~reason:1;
  assert_bound l2 ~is_upper:false [ (Rat.one, y) ] (Rat.of_int 2) ~reason:2;
  (match Lia.check l2 with
  | Lia.Sat ->
    let vx = Lia.model_value l2 x and vy = Lia.model_value l2 y in
    Alcotest.(check bool) "integral" true (Rat.is_integer vx && Rat.is_integer vy);
    Alcotest.(check bool) "satisfies" true
      (Rat.compare vx Rat.one >= 0
      && Rat.compare vy (Rat.of_int 2) >= 0
      && Rat.compare (Rat.add (Rat.mul (Rat.of_int 2) vx) (Rat.mul (Rat.of_int 3) vy)) (Rat.of_int 12) <= 0)
  | _ -> Alcotest.fail "expected sat");
  (* reset_bounds keeps the tableau but drops constraints. *)
  Lia.reset_bounds l2;
  (match Lia.check l2 with Lia.Sat -> () | _ -> Alcotest.fail "reset not clean")

(* A random constraint [a/da x + b/db y (<= | < | >= | >) c/dc]: rational
   coefficients and bound, either direction, strict or not. *)
type box_constraint = {
  a : int; da : int; b : int; db : int; c : int; dc : int; strict : bool; is_upper : bool;
}

let arb_box_constraint =
  let open QCheck.Gen in
  let frac lo hi dmax = pair (int_range lo hi) (int_range 1 dmax) in
  let gen =
    map
      (fun (((a, da), (b, db)), (c, dc), strict, is_upper) ->
        { a; da; b; db; c; dc; strict; is_upper })
      (quad (pair (frac (-3) 3 3) (frac (-3) 3 3)) (frac (-6) 6 2) bool bool)
  in
  let print k =
    Printf.sprintf "%d/%d x + %d/%d y %s %d/%d" k.a k.da k.b k.db
      (match (k.is_upper, k.strict) with
      | true, false -> "<=" | true, true -> "<" | false, false -> ">=" | false, true -> ">")
      k.c k.dc
  in
  QCheck.make ~print gen

(* The constraint at an integer point, exactly: scaled by da*db*dc > 0. *)
let box_holds k x y =
  let lhs = (k.a * k.db * k.dc * x) + (k.b * k.da * k.dc * y) and rhs = k.c * k.da * k.db in
  match (k.is_upper, k.strict) with
  | true, false -> lhs <= rhs
  | true, true -> lhs < rhs
  | false, false -> lhs >= rhs
  | false, true -> lhs > rhs

let box_coeffs k x y = [ (Rat.of_ints k.a k.da, x); (Rat.of_ints k.b k.db, y) ]

let prop_lia_vs_bruteforce =
  (* Random small integer constraint systems, asserted the way the solver
     asserts them: compare against brute force over a bounded box.  Each
     constraint's [atom_view] must also admit exactly its integer points
     on the box. *)
  QCheck.Test.make ~name:"lia agrees with brute force on box problems" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 5) arb_box_constraint)
    (fun constraints ->
      let l = Lia.create () in
      let xt = ic "pbx" and yt = ic "pby" in
      let x = Lia.var_of_term l xt and y = Lia.var_of_term l yt in
      (* Bound the box so brute force is exact. *)
      assert_bound l ~is_upper:false [ (Rat.one, x) ] (Rat.of_int (-5)) ~reason:100;
      assert_bound l ~is_upper:true [ (Rat.one, x) ] (Rat.of_int 5) ~reason:101;
      assert_bound l ~is_upper:false [ (Rat.one, y) ] (Rat.of_int (-5)) ~reason:102;
      assert_bound l ~is_upper:true [ (Rat.one, y) ] (Rat.of_int 5) ~reason:103;
      List.iteri
        (fun i k ->
          assert_bound l ~strict:k.strict ~is_upper:k.is_upper (box_coeffs k x y)
            (Rat.of_ints k.c k.dc) ~reason:i)
        constraints;
      let box = List.init 11 (fun i -> i - 5) in
      let points = List.concat_map (fun vx -> List.map (fun vy -> (vx, vy)) box) box in
      let brute =
        List.exists (fun (vx, vy) -> List.for_all (fun k -> box_holds k vx vy) constraints) points
      in
      let view_exact k =
        let view, bound =
          Lia.atom_view (box_coeffs k x y) (Rat.of_ints k.c k.dc) ~strict:k.strict
            ~is_upper:k.is_upper
        in
        List.for_all
          (fun (vx, vy) ->
            let value v = if v = x then vx else if v = y then vy else assert false in
            let lhs =
              List.fold_left
                (fun acc (v, c) -> Rat.add acc (Rat.mul (Rat.of_bigint c) (Rat.of_int (value v))))
                Rat.zero view
            in
            box_holds k vx vy = (Rat.compare lhs bound <= 0))
          points
      in
      List.for_all view_exact constraints
      &&
      match Lia.check l with
      | Lia.Sat -> brute
      | Lia.Conflict _ -> not brute
      | Lia.Unknown -> true (* budget; cannot judge *))

(* The simplex invariant [Lia.check] relies on instead of re-evaluating
   its rows: one instance runs several rounds, each resetting the bounds,
   asserting random rational constraints over three variables inside a
   box and checking (pivots, branch and bound with its bound restores);
   after every check each basic value equals its row at the current
   assignment, and the verdict agrees with brute force over the box. *)
let prop_lia_rows_stay_exact =
  let xt = ic "prx" and yt = ic "pry" and zt = ic "prz" in
  QCheck.Test.make ~name:"simplex basic values equal their rows across rounds" ~count:150
    (QCheck.list_of_size (QCheck.Gen.int_range 1 5)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 5)
          (QCheck.pair (QCheck.int_range 0 2) arb_box_constraint)))
    (fun rounds ->
      let l = Lia.create () in
      let x = Lia.var_of_term l xt and y = Lia.var_of_term l yt and z = Lia.var_of_term l zt in
      let vars = [| (x, y); (y, z); (x, z) |] in
      let box = List.init 7 (fun i -> i - 3) in
      List.for_all
        (fun constraints ->
          Lia.reset_bounds l;
          List.iteri
            (fun i v ->
              assert_bound l ~is_upper:false [ (Rat.one, v) ] (Rat.of_int (-3)) ~reason:(100 + i);
              assert_bound l ~is_upper:true [ (Rat.one, v) ] (Rat.of_int 3) ~reason:(110 + i))
            [ x; y; z ];
          List.iteri
            (fun i (pair, k) ->
              let u, v = vars.(pair) in
              assert_bound l ~strict:k.strict ~is_upper:k.is_upper (box_coeffs k u v)
                (Rat.of_ints k.c k.dc) ~reason:i)
            constraints;
          let verdict = Lia.check ~max_branch:200 l in
          let holds vx vy vz =
            List.for_all
              (fun (pair, k) ->
                match pair with
                | 0 -> box_holds k vx vy
                | 1 -> box_holds k vy vz
                | _ -> box_holds k vx vz)
              constraints
          in
          let brute =
            List.exists
              (fun vx -> List.exists (fun vy -> List.exists (fun vz -> holds vx vy vz) box) box)
              box
          in
          Lia.tableau_consistent l
          &&
          match verdict with
          | Lia.Sat -> brute
          | Lia.Conflict _ -> not brute
          | Lia.Unknown -> true)
        rounds)

(* ------------------------------------------------------------------ *)
(* BV bit-blasting vs. native evaluation                               *)
(* ------------------------------------------------------------------ *)

let prop_bv_vs_native =
  (* Random width-8 expressions over two variables with pinned values:
     the bit-blaster must prove the natively computed result and must
     find the countermodel for an off-by-one claim.  Ground BV is
     decidable here, so Sat (not Unknown) is required on the wrong
     claim. *)
  QCheck.Test.make ~name:"bitblaster agrees with native u8 evaluation" ~count:60
    QCheck.(triple (int_range 0 255) (int_range 0 255) (list_of_size (QCheck.Gen.int_range 1 4) (int_range 0 7)))
    (fun (va, vb, opcodes) ->
      let w = 8 in
      let lit v = T.bv_lit ~width:w (Vbase.Bigint.of_int (v land 0xFF)) in
      let a = T.const (T.Sym.declare "bvp.a" [] (S.Bv w)) in
      let b = T.const (T.Sym.declare "bvp.b" [] (S.Bv w)) in
      (* Fold the opcode list into an expression tree and its native value. *)
      let step (t, v) code =
        match code with
        | 0 -> (T.bv_op T.Band [ t; b ], v land vb)
        | 1 -> (T.bv_op T.Bor [ t; b ], v lor vb)
        | 2 -> (T.bv_op T.Bxor [ t; b ], v lxor vb)
        | 3 -> (T.bv_op T.Badd [ t; b ], (v + vb) land 0xFF)
        | 4 -> (T.bv_op T.Bsub [ t; b ], (v - vb) land 0xFF)
        | 5 -> (T.bv_op T.Bmul [ t; b ], v * vb land 0xFF)
        | 6 -> (T.bv_op T.Bshl [ t; T.int_of 3 ], v lsl 3 land 0xFF)
        | _ -> (T.bv_op T.Blshr [ t; T.int_of 2 ], (v land 0xFF) lsr 2)
      in
      let expr, value = List.fold_left step (a, va) opcodes in
      let hyps = [ T.eq a (lit va); T.eq b (lit vb) ] in
      let right = Smt.Solver.check_valid ~hyps (T.eq expr (lit value)) in
      let wrong = Smt.Solver.check_valid ~hyps (T.eq expr (lit (value + 1))) in
      right.Smt.Solver.answer = Smt.Solver.Unsat
      && wrong.Smt.Solver.answer = Smt.Solver.Sat)

(* ------------------------------------------------------------------ *)
(* EUF vs. union-find model                                            *)
(* ------------------------------------------------------------------ *)

let prop_euf_vs_unionfind =
  (* Random ground equalities over 6 constants: the solver must decide
     ci = cj (and f(ci) = f(cj)) valid exactly when a reference
     union-find connects i and j.  Ground EUF is decidable, so the
     negative cases must come back Sat. *)
  QCheck.Test.make ~name:"euf decides ground equalities like union-find" ~count:80
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 0 8) (pair (int_range 0 5) (int_range 0 5)))
        (pair (int_range 0 5) (int_range 0 5)))
    (fun (eqs, (qi, qj)) ->
      let srt = S.Usort "EUFP" in
      let c = Array.init 6 (fun i -> T.const (T.Sym.declare (Printf.sprintf "eufp.c%d" i) [] srt)) in
      let f = T.Sym.declare "eufp.f" [ srt ] srt in
      let hyps = List.map (fun (i, j) -> T.eq c.(i) c.(j)) eqs in
      (* Reference union-find. *)
      let parent = Array.init 6 (fun i -> i) in
      let rec find i = if parent.(i) = i then i else find parent.(i) in
      List.iter (fun (i, j) -> parent.(find i) <- find j) eqs;
      let connected = find qi = find qj in
      let r1 = Smt.Solver.check_valid ~hyps (T.eq c.(qi) c.(qj)) in
      let r2 = Smt.Solver.check_valid ~hyps (T.eq (T.app f [ c.(qi) ]) (T.app f [ c.(qj) ])) in
      if connected then
        r1.Smt.Solver.answer = Smt.Solver.Unsat && r2.Smt.Solver.answer = Smt.Solver.Unsat
      else
        (* Distinct constants are not forced equal, and congruence must
           not invent the equality either. *)
        r1.Smt.Solver.answer = Smt.Solver.Sat && r2.Smt.Solver.answer = Smt.Solver.Sat)

(* ------------------------------------------------------------------ *)
(* Trigger selection                                                   *)
(* ------------------------------------------------------------------ *)

let test_triggers () =
  let srt = S.Usort "TG" in
  let f = T.Sym.declare "tgf" [ srt ] S.Int in
  let g = T.Sym.declare "tgg" [ srt ] S.Int in
  let x = T.bvar "x" srt in
  let body = T.implies (T.ge (T.app f [ x ]) (T.int_of 0)) (T.ge (T.app g [ x ]) (T.int_of 1)) in
  let q = match (T.forall [ ("x", srt) ] body).T.node with T.Forall q -> q | _ -> assert false in
  let cons = Smt.Triggers.select Smt.Triggers.Conservative q in
  let lib = Smt.Triggers.select Smt.Triggers.Liberal q in
  (* Both policies find covering groups; liberal never selects fewer. *)
  Alcotest.(check bool) "conservative nonempty" true (cons <> []);
  Alcotest.(check bool) "liberal >= conservative" true (List.length lib >= List.length cons);
  List.iter (fun gp -> Alcotest.(check int) "singleton groups" 1 (List.length gp)) cons;
  (* Explicit triggers are honoured verbatim. *)
  let q2 =
    match
      (T.forall ~triggers:[ [ T.app f [ x ] ] ] [ ("x", srt) ] body).T.node
    with
    | T.Forall q -> q
    | _ -> assert false
  in
  Alcotest.(check int) "explicit respected" 1
    (List.length (Smt.Triggers.select Smt.Triggers.Liberal q2))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "smt"
    [
      ( "sat",
        [
          Alcotest.test_case "trivial" `Quick test_sat_trivial;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
        ] );
      qsuite "sat-props" [ prop_sat_matches_brute_force; prop_sat_incremental ];
      ( "solver",
        [
          Alcotest.test_case "lia" `Quick test_solver_lia;
          Alcotest.test_case "euf" `Quick test_solver_euf;
          Alcotest.test_case "combination" `Quick test_solver_combination;
          Alcotest.test_case "bool" `Quick test_solver_bool_structure;
          Alcotest.test_case "divmod" `Quick test_solver_divmod;
          Alcotest.test_case "bv" `Quick test_solver_bv;
          Alcotest.test_case "quant" `Quick test_solver_quant;
          Alcotest.test_case "exists" `Quick test_solver_exists;
          Alcotest.test_case "check_valid" `Quick test_check_valid;
        ] );
      ( "euf-lia",
        [
          Alcotest.test_case "euf direct" `Quick test_euf_direct;
          Alcotest.test_case "lia direct" `Quick test_lia_direct;
          Alcotest.test_case "triggers" `Quick test_triggers;
        ] );
      qsuite "lia-props" [ prop_lia_vs_bruteforce; prop_lia_rows_stay_exact ];
      qsuite "theory-props"
        [ prop_bv_vs_native; prop_euf_vs_unionfind; prop_euf_reuse_matches_fresh ];
      ( "term",
        [
          Alcotest.test_case "hashcons" `Quick test_term_hashcons;
          Alcotest.test_case "folding" `Quick test_term_folding;
          Alcotest.test_case "bv folding" `Quick test_term_bv_folding;
          Alcotest.test_case "subst" `Quick test_term_subst;
          Alcotest.test_case "sizes" `Quick test_term_sizes;
        ] );
    ]
