(* Core verifier tests: front-end checkers reject bad programs, the proof
   modes decide their fragments, Gröbner/poly algebra, EPR decides and
   rejects correctly, the driver verifies/refutes VIR programs, and the
   interpreter agrees with the specs on random traffic. *)

module T = Smt.Term
module S = Smt.Sort
open Verus

(* ------------------------------------------------------------------ *)
(* Poly / Groebner                                                     *)
(* ------------------------------------------------------------------ *)

let test_poly () =
  let x = Poly.var "x" and y = Poly.var "y" in
  let p = Poly.mul (Poly.add x y) (Poly.add x y) in
  (* (x+y)^2 = x^2 + 2xy + y^2 *)
  let q =
    Poly.add
      (Poly.add (Poly.mul x x) (Poly.scale (Vbase.Rat.of_int 2) (Poly.mul x y)))
      (Poly.mul y y)
  in
  Alcotest.(check bool) "binomial" true (Poly.equal p q);
  Alcotest.(check bool) "sub to zero" true (Poly.is_zero (Poly.sub p q));
  Alcotest.(check string) "print" "x^2 + 2*x*y + y^2" (Poly.to_string p)

let test_groebner () =
  let x = Poly.var "x" and y = Poly.var "y" in
  (* Ideal <x - y>: x^2 - y^2 is a member, x + y is not. *)
  let gens = [ Poly.sub x y ] in
  Alcotest.(check bool) "member" true
    (Groebner.ideal_member (Poly.sub (Poly.mul x x) (Poly.mul y y)) gens);
  Alcotest.(check bool) "non-member" false (Groebner.ideal_member (Poly.add x y) gens);
  (* S-polynomial case needing completion: <xy - 1, y^2 - 1> contains x - y...
     x*y^2 - x = x(y^2-1) and also (xy-1)y = xy^2 - y => x - y in ideal. *)
  let gens2 = [ Poly.sub (Poly.mul x y) (Poly.const Vbase.Rat.one); Poly.sub (Poly.mul y y) (Poly.const Vbase.Rat.one) ] in
  Alcotest.(check bool) "completion" true (Groebner.ideal_member (Poly.sub x y) gens2)

(* ------------------------------------------------------------------ *)
(* Proof modes                                                         *)
(* ------------------------------------------------------------------ *)

let ic name = T.const (T.Sym.declare ("tv." ^ name) [] S.Int)

let test_mode_bitvector () =
  let band a b = T.app (T.Sym.declare "u64.and" [ S.Int; S.Int ] S.Int) [ a; b ] in
  let x = ic "bx" in
  Alcotest.(check bool) "paper example" true
    (Modes.prove_bit_vector (T.eq (band x (T.int_of 511)) (T.imod x (T.int_of 512))) = Modes.Proved);
  (* A falsehood is refuted, not proved. *)
  Alcotest.(check bool) "refutes" true
    (match Modes.prove_bit_vector (T.eq (band x (T.int_of 3)) (T.int_of 7)) with
    | Modes.Refuted _ -> true
    | _ -> false);
  (* Unsupported constructs are reported, not mis-proved. *)
  Alcotest.(check bool) "unsupported" true
    (match Modes.prove_bit_vector (T.eq (T.imod x (ic "by")) (T.int_of 0)) with
    | Modes.Unsupported _ -> true
    | _ -> false)

let test_mode_nonlinear () =
  let a = ic "na" and q = ic "nq" in
  let t = T.add [ T.mul a a; T.int_of 1 ] in
  Alcotest.(check bool) "paper example" true
    (Modes.prove_nonlinear
       (T.implies (T.gt q (T.int_of 2)) (T.ge (T.mul t q) (T.mul t (T.int_of 2))))
    = Modes.Proved);
  Alcotest.(check bool) "square nonneg" true
    (Modes.prove_nonlinear (T.ge (T.mul a a) (T.int_of 0)) = Modes.Proved);
  Alcotest.(check bool) "ring identity" true
    (Modes.prove_nonlinear
       (T.eq
          (T.mul (T.add [ a; q ]) (T.add [ a; q ]))
          (T.add [ T.mul a a; T.mul (T.int_of 2) (T.mul a q); T.mul q q ]))
    = Modes.Proved);
  Alcotest.(check bool) "false is not proved" true
    (Modes.prove_nonlinear (T.ge (T.mul a q) (T.int_of 0)) <> Modes.Proved)

let test_mode_integer_ring () =
  let a = ic "ra" and b = ic "rb" and c = ic "rc" in
  (* The paper's subtract_mod_eq_zero. *)
  Alcotest.(check bool) "paper example" true
    (Modes.prove_integer_ring
       (T.implies
          (T.and_
             [ T.eq (T.imod a c) (T.int_of 0); T.eq (T.imod b c) (T.int_of 0) ])
          (T.eq (T.imod (T.sub b a) c) (T.int_of 0)))
    = Modes.Proved);
  (* (a+b)^2 - (a^2 + 2ab + b^2) = 0 as a pure equality. *)
  Alcotest.(check bool) "equality" true
    (Modes.prove_integer_ring
       (T.eq
          (T.mul (T.add [ a; b ]) (T.add [ a; b ]))
          (T.add [ T.mul a a; T.mul (T.int_of 2) (T.mul a b); T.mul b b ]))
    = Modes.Proved);
  Alcotest.(check bool) "non-theorem rejected" true
    (Modes.prove_integer_ring (T.eq (T.imod (T.add [ a; T.int_of 1 ]) c) (T.int_of 0))
    <> Modes.Proved)

let test_mode_compute () =
  let prog = Plog.Crc_proof.spec_program in
  ignore prog;
  (* Simple ground arithmetic. *)
  let p = { Vir.datatypes = []; functions = [] } in
  Alcotest.(check bool) "ground true" true
    (Modes.prove_compute p Vir.(EBinop (Eq, i 6 *: i 7, i 42)) = Modes.Proved);
  Alcotest.(check bool) "ground false" true
    (match Modes.prove_compute p Vir.(EBinop (Eq, i 6 *: i 7, i 41)) with
    | Modes.Refuted _ -> true
    | _ -> false);
  (* Three sampled CRC entries (the full battery runs in fig9/test_plog). *)
  List.iter
    (fun idx ->
      Alcotest.(check bool)
        (Printf.sprintf "crc entry %d" idx)
        true
        (Plog.Crc_proof.check_entry idx = Modes.Proved))
    [ 0; 1; 255 ]

(* ------------------------------------------------------------------ *)
(* EPR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dlock_epr () =
  let obs = Dlock_epr.run () in
  List.iter
    (fun (o : Dlock_epr.obligation) ->
      Alcotest.(check bool) o.Dlock_epr.name true (o.Dlock_epr.answer = Smt.Solver.Unsat))
    obs;
  Alcotest.(check bool) "all proved" true (Dlock_epr.all_proved obs)

let test_epr () =
  let node = S.Usort "TNode" in
  let edge = T.Sym.declare "t.edge" [ node; node ] S.Bool in
  let a = T.const (T.Sym.declare "t.na" [] node) in
  let b = T.const (T.Sym.declare "t.nb" [] node) in
  let x = T.bvar "x" node and y = T.bvar "y" node in
  let sym_ax =
    T.forall [ ("x", node); ("y", node) ]
      (T.implies (T.app edge [ x; y ]) (T.app edge [ y; x ]))
  in
  (* Symmetric closure: definitively unsat / valid answers. *)
  let r = Smt.Epr.check_valid ~hyps:[ sym_ax; T.app edge [ a; b ] ] (T.app edge [ b; a ]) in
  Alcotest.(check bool) "valid" true (r.Smt.Solver.answer = Smt.Solver.Unsat);
  (* And a definitive SAT (not provable): edge(b,a) without symmetry. *)
  let r2 = Smt.Epr.check_valid ~hyps:[ T.app edge [ a; b ] ] (T.app edge [ b; a ]) in
  Alcotest.(check bool) "definitive countermodel" true (r2.Smt.Solver.answer = Smt.Solver.Sat);
  (* Fragment rejection: arithmetic. *)
  Alcotest.(check bool) "rejects arithmetic" true
    (Result.is_error (Smt.Epr.check_fragment [ T.le (T.int_of 0) (ic "ep") ]));
  (* Fragment rejection: function cycle (f : node -> node). *)
  let f = T.Sym.declare "t.nf" [ node ] node in
  let cyc = T.forall [ ("x", node) ] (T.not_ (T.eq (T.app f [ x ]) x)) in
  Alcotest.(check bool) "rejects sort cycle" true (Result.is_error (Smt.Epr.check_fragment [ cyc ]))

(* EPR skolemizes a problem once: the fresh symbols one check_valid mints
   on a forall-exists query, counted as the gap between two probe
   symbols, are exactly its skolems. *)
let test_epr_skolemizes_once () =
  let a_sort = S.Usort "TSkA" and b_sort = S.Usort "TSkB" in
  let r = T.Sym.declare "t.skr" [ a_sort; b_sort ] S.Bool in
  let p = T.Sym.declare "t.skp" [ b_sort ] S.Bool in
  let c = T.const (T.Sym.declare "t.skc" [] a_sort) in
  let d = T.const (T.Sym.declare "t.skd" [] b_sort) in
  let x = T.bvar "x" a_sort and y = T.bvar "y" b_sort and z = T.bvar "z" b_sort in
  (* forall x. exists y z. r(x, y) /\ r(x, z): two skolems, y(x) and z(x);
     [d] keeps the grounding from minting a witness for sort B. *)
  let hyp =
    T.forall [ ("x", a_sort) ]
      (T.exists [ ("y", b_sort); ("z", b_sort) ] (T.and_ [ T.app r [ x; y ]; T.app r [ x; z ] ]))
  in
  let goal = T.exists [ ("y", b_sort) ] (T.app r [ c; y ]) in
  let probe () = (T.Sym.fresh "probe" [] S.Bool).T.sid in
  let before = probe () in
  let res = Smt.Epr.check_valid ~hyps:[ hyp; T.app p [ d ] ] goal in
  let minted = probe () - before - 1 in
  Alcotest.(check bool) "valid" true (res.Smt.Solver.answer = Smt.Solver.Unsat);
  Alcotest.(check int) "one skolem per existential" 2 minted

(* An outside-EPR reason names its fresh symbols by first occurrence, so
   const_cond's Ivy digest is the same whatever the process ran before. *)
let test_ivy_digest_history_free () =
  let ivy_digest () = Driver.result_digest (Driver.verify_program Profiles.ivy Bench_programs.const_cond) in
  let first = ivy_digest () in
  ignore (Driver.verify_program Profiles.verus Bench_programs.const_cond);
  ignore (Driver.verify_program Profiles.ivy Bench_programs.singly_linked);
  Alcotest.(check string) "same digest after other runs" first (ivy_digest ())

(* ------------------------------------------------------------------ *)
(* Front-end rejection                                                 *)
(* ------------------------------------------------------------------ *)

let test_typecheck_rejects () =
  let bad_fn body =
    {
      Vir.fname = "t_bad";
      fmode = Vir.Exec;
      params = [];
      ret = Some ("r", Vir.TInt Vir.I_u64);
      requires = [];
      ensures = [];
      body = Some body;
      spec_body = None;
      attrs = [];
    }
  in
  let check_error body =
    match Typecheck.check_program { Vir.datatypes = []; functions = [ bad_fn body ] } with
    | Error _ -> true
    | Ok () -> false
  in
  Alcotest.(check bool) "unbound var" true (check_error [ Vir.SReturn (Some (Vir.v "nope")) ]);
  Alcotest.(check bool) "bool arith" true
    (check_error [ Vir.SReturn (Some Vir.(EBool true +: i 1)) ]);
  Alcotest.(check bool) "shadowing" true
    (check_error
       [ Vir.SLet ("x", Vir.TInt Vir.I_u64, Vir.i 1); Vir.SLet ("x", Vir.TInt Vir.I_u64, Vir.i 2) ]);
  Alcotest.(check bool) "good one passes" true
    (Typecheck.check_program
       { Vir.datatypes = []; functions = [ bad_fn [ Vir.SReturn (Some (Vir.i 1)) ] ] }
    = Ok ())

let test_ownership_rejects () =
  (* Use-after-move of a datatype value. *)
  let dt = { Vir.dname = "TBox"; variants = [ ("TBox", [ ("tval", Vir.TInt Vir.I_u64) ]) ] } in
  let consume =
    {
      Vir.fname = "t_consume";
      fmode = Vir.Exec;
      params = [ { Vir.pname = "b"; pty = Vir.TData "TBox"; pmut = false } ];
      ret = None;
      requires = [];
      ensures = [];
      body = Some [];
      spec_body = None;
      attrs = [];
    }
  in
  let double_use =
    {
      Vir.fname = "t_double";
      fmode = Vir.Exec;
      params = [ { Vir.pname = "b"; pty = Vir.TData "TBox"; pmut = false } ];
      ret = None;
      requires = [];
      ensures = [];
      body =
        Some [ Vir.SCall (None, "t_consume", [ Vir.v "b" ]); Vir.SCall (None, "t_consume", [ Vir.v "b" ]) ];
      spec_body = None;
      attrs = [];
    }
  in
  (match Ownership.check_program { Vir.datatypes = [ dt ]; functions = [ consume; double_use ] } with
  | Error (e :: _) ->
    Alcotest.(check bool) "mentions move" true
      (try ignore (Str.search_forward (Str.regexp "move") e 0); true with Not_found -> false)
  | _ -> Alcotest.fail "double move accepted");
  (* Loop moving an outer value is rejected. *)
  let loop_move =
    {
      double_use with
      Vir.fname = "t_loopmove";
      body =
        Some
          [
            Vir.SWhile
              {
                cond = Vir.EBool true;
                invariants = [];
                decreases = None;
                body = [ Vir.SCall (None, "t_consume", [ Vir.v "b" ]) ];
              };
          ];
    }
  in
  Alcotest.(check bool) "loop move rejected" true
    (Result.is_error
       (Ownership.check_program { Vir.datatypes = [ dt ]; functions = [ consume; loop_move ] }))

(* ------------------------------------------------------------------ *)
(* Driver: refutation and verification                                 *)
(* ------------------------------------------------------------------ *)

let test_driver_refutes () =
  (* A function with a false postcondition must fail. *)
  let bad =
    {
      Vir.fname = "t_wrongpost";
      fmode = Vir.Exec;
      params = [ { Vir.pname = "x"; pty = Vir.TInt Vir.I_u64; pmut = false } ];
      ret = Some ("r", Vir.TInt Vir.I_u64);
      requires = [];
      ensures = [ Vir.(v "r" >: v "x") ];
      body = Some [ Vir.SReturn (Some (Vir.v "x")) ];
      spec_body = None;
      attrs = [];
    }
  in
  let r = Driver.verify_program Profiles.verus { Vir.datatypes = []; functions = [ bad ] } in
  Alcotest.(check bool) "refuted" false r.Driver.pr_ok;
  (* Overflow obligations: x + 1 on u64 without a bound must fail... *)
  let overflow =
    {
      bad with
      Vir.fname = "t_overflow";
      ensures = [];
      body = Some [ Vir.SReturn (Some Vir.(v "x" +: i 1)) ];
    }
  in
  let r2 = Driver.verify_program Profiles.verus { Vir.datatypes = []; functions = [ overflow ] } in
  Alcotest.(check bool) "overflow caught" false r2.Driver.pr_ok;
  (* ... and pass with the right precondition. *)
  let bounded =
    {
      overflow with
      Vir.fname = "t_bounded";
      requires = [ Vir.(v "x" <: i 1000) ];
    }
  in
  let r3 = Driver.verify_program Profiles.verus { Vir.datatypes = []; functions = [ bounded ] } in
  Alcotest.(check bool) "bounded ok" true r3.Driver.pr_ok;
  (* Division by zero. *)
  let div =
    {
      overflow with
      Vir.fname = "t_div";
      requires = [];
      body = Some [ Vir.SReturn (Some Vir.(EBinop (Div, i 100, v "x"))) ];
    }
  in
  let r4 = Driver.verify_program Profiles.verus { Vir.datatypes = []; functions = [ div ] } in
  Alcotest.(check bool) "div by zero caught" false r4.Driver.pr_ok

let test_vstd_lemmas () =
  let r = Vstd_seq.verify () in
  List.iter
    (fun (f : Driver.fn_result) ->
      Alcotest.(check bool) f.Driver.fnr_name true f.Driver.fnr_ok)
    r.Driver.pr_fns;
  Alcotest.(check int) "15 lemmas" 15 (List.length r.Driver.pr_fns)

let test_vstd_map () =
  let obs = Vstd_map.run () in
  List.iter
    (fun (o : Vstd_map.obligation) ->
      Alcotest.(check bool) (o.Vstd_map.name ^ " " ^ o.Vstd_map.detail) true o.Vstd_map.proved)
    obs;
  Alcotest.(check bool) "13 map lemmas" true (List.length obs >= 13)

let test_vstd_set () =
  let obs = Vstd_set.run () in
  List.iter
    (fun (o : Vstd_set.obligation) ->
      Alcotest.(check bool) (o.Vstd_set.name ^ " " ^ o.Vstd_set.detail) true o.Vstd_set.proved)
    obs;
  Alcotest.(check bool) "15 set lemmas" true (List.length obs >= 15)

let test_vstd_map_refute () =
  (* A wrong statement must never be proved.  With quantified axioms in
     context the solver cannot soundly answer Sat after saturation, so the
     expected outcome is anything but Unsat (here: a candidate model). *)
  let module T = Smt.Term in
  let m = T.const (T.Sym.declare "vmr.m" [] Vstd_map.map_sort) in
  let k = T.const (T.Sym.declare "vmr.k" [] Smt.Sort.Int) in
  let r =
    Smt.Solver.check_valid ~hyps:Vstd_map.axioms
      (T.eq (Vstd_map.sel (Vstd_map.store m k (T.int_of 3)) k) (T.int_of 4))
  in
  Alcotest.(check bool) "wrong read not proved" true (r.Smt.Solver.answer <> Smt.Solver.Unsat);
  (* On a quantifier-free consequence of the ground axioms the solver can
     and does answer Sat outright. *)
  let r2 =
    Smt.Solver.check_valid
      (T.eq (T.add [ T.const (T.Sym.declare "vmr.x" [] Smt.Sort.Int); T.int_of 1 ])
         (T.int_of 0))
  in
  Alcotest.(check bool) "qf wrong claim is Sat" true (r2.Smt.Solver.answer = Smt.Solver.Sat)

let test_driver_dlock () =
  let r = Driver.verify_program Profiles.verus Bench_programs.dlock_default in
  Alcotest.(check bool) "distributed lock verified" true r.Driver.pr_ok

let test_driver_break_programs () =
  List.iter
    (fun (name, prog) ->
      let r = Driver.verify_program Profiles.verus prog in
      Alcotest.(check bool) (name ^ " fails as intended") false r.Driver.pr_ok)
    [ ("break_pop", Bench_programs.break_pop); ("break_index", Bench_programs.break_index) ]

(* ------------------------------------------------------------------ *)
(* Interpreter vs specs (differential)                                 *)
(* ------------------------------------------------------------------ *)

let prop_interp_sll =
  (* At most 1,000 elements.  Every push and pop re-checks contracts that
     walk the whole list, so a list of n elements costs about n^2 steps
     and the few longest lists decide the property's time; [QCheck.list]
     draws up to 10,000 elements for one case in twenty, which made that
     time swing by minutes from seed to seed. *)
  QCheck.Test.make ~name:"interpreted SLL satisfies its contracts" ~count:60
    QCheck.(list_of_size Gen.(0 -- 1000) (int_range 0 1000))
    (fun xs ->
      (* Random pushes then pops with dynamic contract checking on; any
         contract violation raises. *)
      let prog = Bench_programs.singly_linked in
      let open Interp in
      let l = ref (VData ("Nil", [])) in
      (try
         List.iter
           (fun x ->
             let _, muts = run_fn prog "push_front" [ !l; VInt (Vbase.Bigint.of_int x) ] in
             l := List.assoc "self" muts)
           xs;
         (* Pop everything back: LIFO order. *)
         let popped = ref [] in
         List.iter
           (fun _ ->
             let res, muts = run_fn prog "pop_front" [ !l ] in
             l := List.assoc "self" muts;
             match res with
             | Some (VInt v) -> popped := Vbase.Bigint.to_int_exn v :: !popped
             | _ -> failwith "bad pop result")
           xs;
         !popped = xs
       with Assertion_failed m -> QCheck.Test.fail_report ("contract violated: " ^ m)))

let prop_vstd_map_ground =
  (* Differential: a random chain of store/remove, then a read at a random
     key must be decided by the solver exactly as the OCaml model says
     (valid when equal to the model's answer, not provable when off by
     one). *)
  QCheck.Test.make ~name:"vstd map ground chains match OCaml model" ~count:12
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 6) (triple (int_range 0 4) (int_range 0 50) bool)) (int_range 0 4))
    (fun (ops, probe) ->
      let module Vm = Vstd_map in
      let term = ref Vm.empty and model = ref [] in
      List.iter
        (fun (k, v, is_store) ->
          if is_store then (
            term := Vm.store !term (T.int_of k) (T.int_of v);
            model := (k, v) :: List.remove_assoc k !model)
          else (
            term := Vm.remove !term (T.int_of k);
            model := List.remove_assoc k !model))
        ops;
      let in_dom = List.mem_assoc probe !model in
      let dom_goal = Vm.dom !term (T.int_of probe) in
      let r =
        Smt.Solver.check_valid ~hyps:Vm.axioms
          (if in_dom then dom_goal else T.not_ dom_goal)
      in
      let dom_ok = r.Smt.Solver.answer = Smt.Solver.Unsat in
      let sel_ok =
        if not in_dom then true
        else
          let v = List.assoc probe !model in
          let good =
            Smt.Solver.check_valid ~hyps:Vm.axioms
              (T.eq (Vm.sel !term (T.int_of probe)) (T.int_of v))
          in
          let bad =
            Smt.Solver.check_valid ~hyps:Vm.axioms
              (T.eq (Vm.sel !term (T.int_of probe)) (T.int_of (v + 1)))
          in
          (* The wrong read must not be provable; with quantified axioms in
             context the solver reports a candidate model (Unknown) rather
             than claiming Sat. *)
          good.Smt.Solver.answer = Smt.Solver.Unsat
          && bad.Smt.Solver.answer <> Smt.Solver.Unsat
      in
      dom_ok && sel_ok)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "verus-core"
    [
      ( "algebra",
        [
          Alcotest.test_case "poly" `Quick test_poly;
          Alcotest.test_case "groebner" `Quick test_groebner;
        ] );
      ( "modes",
        [
          Alcotest.test_case "bit_vector" `Quick test_mode_bitvector;
          Alcotest.test_case "nonlinear" `Quick test_mode_nonlinear;
          Alcotest.test_case "integer_ring" `Quick test_mode_integer_ring;
          Alcotest.test_case "compute" `Quick test_mode_compute;
        ] );
      ( "epr",
        [
          Alcotest.test_case "decide + reject" `Quick test_epr;
          Alcotest.test_case "distributed lock (EPR mode)" `Quick test_dlock_epr;
          Alcotest.test_case "skolemizes once" `Quick test_epr_skolemizes_once;
          Alcotest.test_case "Ivy digest ignores earlier runs" `Quick test_ivy_digest_history_free;
        ] );
      ( "front-end",
        [
          Alcotest.test_case "typecheck rejects" `Quick test_typecheck_rejects;
          Alcotest.test_case "ownership rejects" `Quick test_ownership_rejects;
        ] );
      ( "driver",
        [
          Alcotest.test_case "refutations" `Slow test_driver_refutes;
          Alcotest.test_case "distributed lock" `Slow test_driver_dlock;
          Alcotest.test_case "vstd seq lemmas" `Slow test_vstd_lemmas;
          Alcotest.test_case "vstd map lemmas" `Slow test_vstd_map;
          Alcotest.test_case "vstd set lemmas" `Slow test_vstd_set;
          Alcotest.test_case "vstd map refutes" `Quick test_vstd_map_refute;
          Alcotest.test_case "broken programs fail" `Slow test_driver_break_programs;
        ] );
      qsuite "interp" [ prop_interp_sll ];
      qsuite "vstd-ground" [ prop_vstd_map_ground ];
    ]
