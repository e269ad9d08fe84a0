(* Vflow tests: the abstract domains (hand-computed transfer cases plus
   qcheck soundness sweeps against concrete arithmetic), the VIR abstract
   interpreter (over-approximation of the concrete Interp, widening
   termination on adversarial loop nests, invariant-guided narrowing),
   the VC-level prescreen verdicts, the driver integration (discharge,
   digest stability, certify demotion, cache salt), the VL040–VL046 lint
   codes with a static-vs-dynamic pin on the bundled constant-condition
   program, and the verus-lint/1 + verus-analyze-bench/1 schemas. *)

module B = Vbase.Bigint
module J = Vbase.Json
module T = Smt.Term
module S = Smt.Sort
module D = Vflow.Dom
module P = Vflow.Prescreen
open Verus
open Vir

let fin n = D.Fin (B.of_int n)

let dom_equal a b = D.leq a b && D.leq b a

let check_dom name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s ≡ %s" name (D.to_string a) (D.to_string b))
    true (dom_equal a b)

let mem n a = D.mem_int (B.of_int n) a

let check_mem name n a expected =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d ∈ %s" name n (D.to_string a))
    expected (mem n a)

let b3 = Alcotest.testable (Fmt.of_to_string (function
  | D.Btrue -> "Btrue" | D.Bfalse -> "Bfalse" | D.Bmaybe -> "Bmaybe")) ( = )

(* Minimal program scaffolding, as in test_vlint. *)
let p name ty = { pname = name; pty = ty; pmut = false }

let fn ?(mode = Exec) ?(params = []) ?ret ?(requires = []) ?(ensures = []) ?body ?spec_body
    ?(attrs = []) name =
  { fname = name; fmode = mode; params; ret; requires; ensures; body; spec_body; attrs }

let prog ?(datatypes = []) functions = { datatypes; functions }
let empty_prog = prog []
let int_ = TInt I_math

let has code ds = List.exists (fun d -> String.equal d.Vlint.code code) ds
let check_has name code ds = Alcotest.(check bool) (name ^ " fires " ^ code) true (has code ds)

let check_not name code ds =
  Alcotest.(check bool) (name ^ " silent on " ^ code) false (has code ds)

(* ------------------------------------------------------------------ *)
(* Dom: hand-computed transfer cases                                   *)
(* ------------------------------------------------------------------ *)

let test_dom_interval () =
  check_dom "add" (D.add (D.range_i 0 10) (D.range_i 5 7)) (D.range_i 5 17);
  check_dom "sub" (D.sub (D.range_i 0 10) (D.range_i 5 7)) (D.range_i (-7) 5);
  check_dom "mul signs" (D.mul (D.range_i (-2) 3) (D.range_i 4 5)) (D.range_i (-10) 15);
  check_dom "const fold" (D.mul (D.of_int 6) (D.of_int 7)) (D.of_int 42);
  Alcotest.(check (option string))
    "const_int" (Some "42")
    (Option.map B.to_string (D.const_int (D.mul (D.of_int 6) (D.of_int 7))));
  (* Euclidean division: 7/4 = 1, 19/4 = 4. *)
  let q = D.ediv (D.range_i 7 19) (D.of_int 4) in
  check_mem "ediv lo" 1 q true;
  check_mem "ediv hi" 4 q true;
  Alcotest.(check bool) "ediv within [1,4]" true (D.leq q (D.range_i 1 4));
  (* Remainders land in [0, divisor). *)
  Alcotest.(check bool) "emod range" true
    (D.leq (D.emod D.top_int (D.of_int 8)) (D.range_i 0 7));
  check_dom "neg" (D.neg_ (D.range_i 2 5)) (D.range_i (-5) (-2));
  (* Meets: overlapping intervals intersect, disjoint ones are Bot. *)
  check_dom "meet" (D.meet (D.range_i 0 10) (D.range_i 5 20)) (D.range_i 5 10);
  Alcotest.(check bool) "disjoint meet is Bot" true
    (D.is_bot (D.meet (D.range_i 0 4) (D.range_i 5 9)));
  check_dom "clamp_le" (D.clamp_le D.top_int (fin 5)) (D.range D.NegInf (fin 5))

let even = D.mk_int { D.lo = D.NegInf; hi = D.PosInf } { D.m = B.two; r = B.zero }
let odd = D.mk_int { D.lo = D.NegInf; hi = D.PosInf } { D.m = B.two; r = B.one }

let test_dom_congruence () =
  check_mem "even" 4 even true;
  check_mem "even excludes odd" 3 even false;
  (* even + even = even; even * anything = even. *)
  check_mem "even+even" 3 (D.add even even) false;
  check_mem "even*top" 3 (D.mul even D.top_int) false;
  check_mem "even*top keeps evens" 6 (D.mul even D.top_int) true;
  (* (≡1 mod 3) + (≡2 mod 3) ≡ 0 (mod 3). *)
  let c1 = D.mk_int { D.lo = D.NegInf; hi = D.PosInf } { D.m = B.of_int 3; r = B.one } in
  let c2 = D.mk_int { D.lo = D.NegInf; hi = D.PosInf } { D.m = B.of_int 3; r = B.two } in
  check_mem "cong add hit" 6 (D.add c1 c2) true;
  check_mem "cong add miss" 7 (D.add c1 c2) false;
  (* join of two even constants keeps parity: 3 ∉ join(2,4). *)
  let j = D.join (D.of_int 2) (D.of_int 4) in
  check_mem "join parity" 3 j false;
  check_mem "join lo" 2 j true;
  check_mem "join hi" 4 j true;
  (* mk_int reduces the interval against the congruence. *)
  let r = D.mk_int { D.lo = fin 1; hi = fin 9 } { D.m = B.of_int 4; r = B.zero } in
  check_dom "reduce vs cong"
    r
    (D.meet (D.range_i 4 8)
       (D.mk_int { D.lo = D.NegInf; hi = D.PosInf } { D.m = B.of_int 4; r = B.zero }))

let test_dom_lattice () =
  (* Widening: the unstable bound escapes to infinity, the stable one stays. *)
  let w = D.widen (D.range_i 0 10) (D.range_i 0 11) in
  check_mem "widen keeps lo" (-1) w false;
  check_mem "widen opens hi" 1000000 w true;
  check_dom "widen stable" (D.widen (D.range_i 0 10) (D.range_i 0 10)) (D.range_i 0 10);
  Alcotest.(check bool) "widen above join" true
    (D.leq (D.join (D.range_i 0 10) (D.range_i 0 11)) w);
  (* Comparisons are definite only when they hold for every member. *)
  Alcotest.check b3 "disjoint eq3" D.Bfalse (D.eq3 (D.range_i 0 4) (D.range_i 5 9));
  Alcotest.check b3 "parity eq3" D.Bfalse (D.eq3 even odd);
  Alcotest.check b3 "const eq3" D.Btrue (D.eq3 (D.of_int 3) (D.of_int 3));
  Alcotest.check b3 "le3 touching" D.Btrue (D.le3 (D.range_i 0 4) (D.range_i 4 9));
  Alcotest.check b3 "lt3 touching" D.Bmaybe (D.lt3 (D.range_i 0 4) (D.range_i 4 9));
  Alcotest.check b3 "lt3 separated" D.Btrue (D.lt3 (D.range_i 0 3) (D.range_i 4 9));
  (* Three-valued connectives: Kleene tables, spot-checked. *)
  Alcotest.check b3 "and3 absorbs false" D.Bfalse (D.and3 D.Bmaybe D.Bfalse);
  Alcotest.check b3 "or3 absorbs true" D.Btrue (D.or3 D.Bmaybe D.Btrue);
  Alcotest.check b3 "not3 maybe" D.Bmaybe (D.not3 D.Bmaybe);
  Alcotest.check b3 "implies3 false premise" D.Btrue (D.implies3 D.Bfalse D.Bmaybe);
  Alcotest.check b3 "iff3" D.Btrue (D.iff3 D.Bfalse D.Bfalse)

(* ------------------------------------------------------------------ *)
(* Dom: qcheck soundness — abstract ops over-approximate concrete ones *)
(* ------------------------------------------------------------------ *)

(* A concrete integer together with an abstract value that contains it:
   an interval slop around the point, optionally meeted with the exact
   congruence class the point lives in. *)
let gen_member =
  QCheck.Gen.(
    int_range (-50) 50 >>= fun n ->
    int_range 0 20 >>= fun dl ->
    int_range 0 20 >>= fun dh ->
    int_range 0 6 >>= fun m ->
    let base = D.range_i (n - dl) (n + dh) in
    let a =
      if m < 2 then base
      else
        let r = ((n mod m) + m) mod m in
        D.meet base
          (D.mk_int { D.lo = D.NegInf; hi = D.PosInf }
             { D.m = B.of_int m; r = B.of_int r })
    in
    return (n, a))

let euclid a b =
  let q, r = B.ediv_rem (B.of_int a) (B.of_int b) in
  (q, r)

let qcheck_dom_sound =
  QCheck.Test.make ~name:"abstract arithmetic over-approximates ints" ~count:2000
    (QCheck.make QCheck.Gen.(pair gen_member gen_member))
    (fun ((x, a), (y, b)) ->
      let memb v d = D.mem_int v d in
      let ops =
        [
          ("add", B.add, D.add);
          ("sub", B.sub, D.sub);
          ("mul", B.mul, D.mul);
        ]
      in
      List.iter
        (fun (nm, c, abs_op) ->
          if not (memb (c (B.of_int x) (B.of_int y)) (abs_op a b)) then
            QCheck.Test.fail_reportf "%s unsound on %d, %d" nm x y)
        ops;
      (if y <> 0 then begin
         let q, r = euclid x y in
         if not (memb q (D.ediv a b)) then
           QCheck.Test.fail_reportf "ediv unsound on %d, %d" x y;
         if not (memb r (D.emod a b)) then
           QCheck.Test.fail_reportf "emod unsound on %d, %d" x y
       end);
      (* Definite comparison verdicts must agree with the concrete pair. *)
      (match D.le3 a b with
      | D.Btrue when not (x <= y) -> QCheck.Test.fail_reportf "le3 Btrue but %d > %d" x y
      | D.Bfalse when x <= y -> QCheck.Test.fail_reportf "le3 Bfalse but %d <= %d" x y
      | _ -> ());
      (match D.eq3 a b with
      | D.Btrue when x <> y -> QCheck.Test.fail_reportf "eq3 Btrue but %d <> %d" x y
      | D.Bfalse when x = y -> QCheck.Test.fail_reportf "eq3 Bfalse but both %d" x
      | _ -> ());
      (* Lattice: join keeps both members, widen sits above join. *)
      if not (memb (B.of_int x) (D.join a b) && memb (B.of_int y) (D.join a b)) then
        QCheck.Test.fail_reportf "join lost a member";
      if not (D.leq (D.join a b) (D.widen a b)) then
        QCheck.Test.fail_reportf "widen below join";
      true)

(* ------------------------------------------------------------------ *)
(* Absint.eval_expr: over-approximates the concrete interpreter        *)
(* ------------------------------------------------------------------ *)

(* Random VIR expressions over two integer variables.  Division and
   modulus keep constant nonzero divisors so the concrete run cannot
   fault; everything else composes freely. *)
let gen_iexpr =
  QCheck.Gen.(
    fix (fun self n ->
        let leaf =
          oneof
            [ map (fun k -> EInt k) (int_range (-20) 20); oneofl [ v "x"; v "y" ] ]
        in
        if n <= 0 then leaf
        else
          let sub = self (n / 2) in
          frequency
            [
              (2, leaf);
              (3, map2 ( +: ) sub sub);
              (2, map2 ( -: ) sub sub);
              (2, map2 ( *: ) sub sub);
              (1, map (fun e -> EUnop (Neg, e)) sub);
              ( 1,
                map2 (fun e k -> EBinop (Div, e, i k)) sub (oneofl [ 2; 3; 5; 7; -4 ]) );
              (1, map2 (fun e k -> EBinop (Mod, e, i k)) sub (oneofl [ 2; 3; 5; 7 ]));
            ]))

let gen_bexpr =
  QCheck.Gen.(
    let cmp =
      map3
        (fun op a b -> EBinop (op, a, b))
        (oneofl [ Lt; Le; Gt; Ge; Eq; Ne ])
        (gen_iexpr 3) (gen_iexpr 3)
    in
    frequency
      [
        (4, cmp);
        (1, map2 ( &&: ) cmp cmp);
        (1, map2 ( ||: ) cmp cmp);
        (1, map enot cmp);
        (1, map2 ( ==>: ) cmp cmp);
      ])

let gen_expr =
  QCheck.Gen.(
    frequency
      [
        (3, gen_iexpr 5);
        (2, gen_bexpr);
        (1, map3 (fun c a b -> EIte (c, a, b)) gen_bexpr (gen_iexpr 3) (gen_iexpr 3));
      ])

let qcheck_absint_sound =
  QCheck.Test.make ~name:"Absint.eval_expr over-approximates Interp" ~count:2000
    (QCheck.make
       QCheck.Gen.(
         gen_expr >>= fun e ->
         int_range (-10) 10 >>= fun xv ->
         int_range (-10) 10 >>= fun yv ->
         int_range 0 5 >>= fun dx ->
         int_range 0 5 >>= fun dy ->
         return (e, xv, yv, dx, dy)))
    (fun (e, xv, yv, dx, dy) ->
      let cenv =
        [ ("x", Interp.VInt (B.of_int xv)); ("y", Interp.VInt (B.of_int yv)) ]
      in
      let aenv =
        [ ("x", D.range_i (xv - dx) (xv + dx)); ("y", D.range_i (yv - dy) (yv + dy)) ]
      in
      let concrete = Interp.eval_expr empty_prog cenv e in
      let abstract = Vflow.Absint.eval_expr empty_prog aenv e in
      match concrete with
      | Interp.VInt n ->
        if D.mem_int n abstract then true
        else
          QCheck.Test.fail_reportf "concrete %s escapes %s" (B.to_string n)
            (D.to_string abstract)
      | Interp.VBool b ->
        if D.mem_bool b abstract then true
        else
          QCheck.Test.fail_reportf "concrete %b escapes %s" b (D.to_string abstract)
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Absint: widening termination and invariant-guided narrowing         *)
(* ------------------------------------------------------------------ *)

(* Adversarial loop nests: counters that grow without bound, oscillate
   in sign, and feed each other across nesting levels — every loop head
   must still reach a fixpoint through widening. *)
let test_widening_terminates () =
  let rec nest d =
    if d = 0 then
      [ SAssign ("x", v "x" +: v "y"); SAssign ("y", i 0 -: v "y" +: i 1) ]
    else
      [
        SWhile
          {
            cond = v "x" <: i 1000000;
            invariants = [];
            decreases = None;
            body = nest (d - 1) @ [ SAssign ("x", v "x" +: i 1) ];
          };
      ]
  in
  let f =
    fn
      ~body:([ SLet ("x", int_, i 0); SLet ("y", int_, i 1) ] @ nest 5)
      "nest"
  in
  let findings = Vflow.Absint.analyze_fn (prog [ f ]) f in
  Alcotest.(check bool) "deep nest reaches a fixpoint" true (List.length findings >= 0);
  (* A loop that never stabilises without widening: x doubles forever. *)
  let g =
    fn
      ~body:
        [
          SLet ("x", int_, i 1);
          SWhile
            {
              cond = EBool true;
              invariants = [];
              decreases = None;
              body = [ SAssign ("x", v "x" *: i 2) ];
            };
        ]
      "doubler"
  in
  let findings = Vflow.Absint.analyze_fn (prog [ g ]) g in
  Alcotest.(check bool) "doubling loop reaches a fixpoint" true (List.length findings >= 0)

(* After `while (i < 10) invariant i <= 10 { i += 1 }` starting at 0,
   narrowing the widened head against the invariant pins i = 10 at loop
   exit — observable as VL045 on the following assert.  Without the
   invariant the widened head is [0, +inf) and the assert stays Bmaybe. *)
let test_narrowing () =
  let body inv =
    [
      SLet ("j", int_, i 0);
      SWhile
        {
          cond = v "j" <: i 10;
          invariants = inv;
          decreases = None;
          body = [ SAssign ("j", v "j" +: i 1) ];
        };
      SAssert (v "j" ==: i 10, H_default);
    ]
  in
  let with_inv = fn "f" ~body:(body [ v "j" <=: i 10 ]) in
  check_has "narrowed exit state proves assert" "VL045"
    (Vflow.Absint.analyze_fn (prog [ with_inv ]) with_inv
    |> List.map (fun (f : Vflow.Absint.finding) ->
           { Vlint.code = f.Vflow.Absint.f_code; severity = Vlint.Info;
             fn = Some f.Vflow.Absint.f_fn; message = f.Vflow.Absint.f_msg }));
  let without = fn "f" ~body:(body []) in
  let ds =
    Vflow.Absint.analyze_fn (prog [ without ]) without
    |> List.filter (fun (f : Vflow.Absint.finding) -> f.Vflow.Absint.f_code = "VL045")
  in
  Alcotest.(check int) "widened head alone cannot prove it" 0 (List.length ds)

(* ------------------------------------------------------------------ *)
(* Prescreen: VC-level verdicts                                        *)
(* ------------------------------------------------------------------ *)

let xi = T.const (T.Sym.declare "pv_x" [] S.Int)
let yi = T.const (T.Sym.declare "pv_y" [] S.Int)
let box lo hi t = [ T.ge t (T.int_of lo); T.le t (T.int_of hi) ]

let verdict_of ~hyps ~goal = (P.check ~hyps ~goal ()).P.verdict

let test_prescreen_verdicts () =
  let hyps = box 0 10 xi in
  Alcotest.(check string) "range goal proved" "proved"
    (P.verdict_string (verdict_of ~hyps ~goal:(T.le xi (T.int_of 20))));
  Alcotest.(check string) "tight goal unknown" "unknown"
    (P.verdict_string (verdict_of ~hyps ~goal:(T.le xi (T.int_of 5))));
  Alcotest.(check string) "impossible goal refuted" "refuted"
    (P.verdict_string (verdict_of ~hyps ~goal:(T.ge xi (T.int_of 11))));
  (* Arithmetic propagates through definitions: y = x + 5 with x in
     [0,10] proves y <= 15. *)
  let hyps = T.eq yi (T.add [ xi; T.int_of 5 ]) :: box 0 10 xi in
  Alcotest.(check string) "derived range proved" "proved"
    (P.verdict_string (verdict_of ~hyps ~goal:(T.le yi (T.int_of 15))))

let test_prescreen_vacuous () =
  let r =
    P.check ~hyps:[ T.ge xi (T.int_of 5); T.le xi (T.int_of 3) ] ~goal:(T.eq yi (T.int_of 99)) ()
  in
  Alcotest.(check string) "contradictory hyps prove anything" "proved"
    (P.verdict_string r.P.verdict);
  Alcotest.(check bool) "and are flagged vacuous" true r.P.vacuous

let test_prescreen_residue () =
  (* A guarded hypothesis whose guard is abstractly false is prunable. *)
  let dead = T.implies (T.lt xi (T.int_of 0)) (T.eq yi (T.int_of 99)) in
  let r =
    P.check
      ~hyps:(dead :: T.eq yi (T.add [ xi; xi ]) :: box 0 10 xi)
      ~goal:(T.le yi (T.int_of 5)) ()
  in
  Alcotest.(check string) "goal stays unknown" "unknown" (P.verdict_string r.P.verdict);
  Alcotest.(check bool) "dead guard lands in drop" true
    (List.exists (T.equal dead) r.P.drop);
  (* Facts are ground, sorted by rendering, and not already hypotheses. *)
  let rendered = List.map T.to_string r.P.facts in
  Alcotest.(check (list string)) "facts sorted" (List.sort compare rendered) rendered;
  List.iter
    (fun f ->
      Alcotest.(check bool) "fact is ground" true (T.free_bvars f = []);
      Alcotest.(check bool) "fact not already a hypothesis" false
        (List.exists (T.equal f) (dead :: box 0 10 xi)))
    r.P.facts;
  (* Determinism: same inputs, same verdict/facts/pass count. *)
  let r2 =
    P.check
      ~hyps:(dead :: T.eq yi (T.add [ xi; xi ]) :: box 0 10 xi)
      ~goal:(T.le yi (T.int_of 5)) ()
  in
  Alcotest.(check int) "pass count deterministic" r.P.passes r2.P.passes;
  Alcotest.(check (list string)) "facts deterministic" rendered
    (List.map T.to_string r2.P.facts)

(* ------------------------------------------------------------------ *)
(* Driver integration                                                  *)
(* ------------------------------------------------------------------ *)

let test_driver_discharge () =
  let run config = Driver.verify_program ~config Profiles.verus Bench_programs.const_cond in
  let plain = run Driver.Config.default in
  let pre = run Driver.Config.(default |> with_analyze true) in
  Alcotest.(check bool) "verifies with prescreen" true pre.Driver.pr_ok;
  Alcotest.(check bool) "discharges at rung 0" true (Driver.prescreen_discharged pre > 0);
  List.iter
    (fun (fr : Driver.fn_result) ->
      List.iter
        (fun (vr : Driver.vc_result) ->
          if vr.Driver.vcr_source = Driver.Src_prescreen then
            Alcotest.(check int) "prescreen ships zero query bytes" 0 vr.Driver.vcr_bytes)
        fr.Driver.fnr_vcs)
    pre.Driver.pr_fns;
  (* The prescreen changes cost, never the digest. *)
  Alcotest.(check string) "digest matches plain run" (Driver.result_digest plain)
    (Driver.result_digest pre);
  let pre2 = run Driver.Config.(default |> with_analyze true |> with_jobs 2) in
  Alcotest.(check string) "digest stable under jobs=2" (Driver.result_digest pre)
    (Driver.result_digest pre2);
  (* Under --certify the prescreen is demoted: every proof must carry a
     replayable certificate, so everything goes to the solver. *)
  let cert = run Driver.Config.(default |> with_analyze true |> with_certify true) in
  Alcotest.(check bool) "certify run still verifies" true cert.Driver.pr_ok;
  Alcotest.(check int) "certify demotes the prescreen" 0 (Driver.prescreen_discharged cert)

let test_fingerprint_salt () =
  let fd = find_fn Bench_programs.const_cond "clamp_add" in
  let vc = List.hd (Encode.encode_function Profiles.verus Bench_programs.const_cond fd) in
  let context = Driver.context_for Profiles.verus Bench_programs.const_cond vc in
  let fp ?analyze () =
    Vcache.fingerprint ?analyze ~profile:Profiles.verus ~prog:Bench_programs.const_cond
      ~context vc
  in
  Alcotest.(check bool) "analyze salts the fingerprint" false
    (String.equal (fp ()) (fp ~analyze:true ()));
  Alcotest.(check string) "salted fingerprint deterministic" (fp ~analyze:true ())
    (fp ~analyze:true ())

let test_vl047_refuted_advisory () =
  (* With x <= 10 the assertion x >= 11 is definitely false in the
     interval domain: the prescreen returns an advisory [Refuted], the
     obligation still goes to the solver (which agrees it fails), and
     under a lint mode the driver surfaces the advisory as VL047. *)
  let refute_prog =
    prog
      [
        fn "refute_me"
          ~params:[ p "x" (TInt I_u64) ]
          ~requires:[ v "x" <=: i 10 ]
          ~body:[ SAssert (v "x" >=: i 11, H_default) ];
      ]
  in
  let run config = Driver.verify_program ~config Profiles.verus refute_prog in
  let warned = run Driver.Config.(default |> with_analyze true |> with_lint Lint_warn) in
  Alcotest.(check bool) "refuted obligation fails" false warned.Driver.pr_ok;
  Alcotest.(check bool) "advisory recorded on the obligation" true
    (List.exists
       (fun (fr : Driver.fn_result) ->
         List.exists
           (fun (vr : Driver.vc_result) -> vr.Driver.vcr_prescreen_refuted)
           fr.Driver.fnr_vcs)
       warned.Driver.pr_fns);
  let vl047 =
    List.filter (fun (d : Vlint.diag) -> String.equal d.Vlint.code "VL047")
      warned.Driver.pr_lint
  in
  Alcotest.(check bool) "VL047 fires under lint" true (vl047 <> []);
  List.iter
    (fun (d : Vlint.diag) ->
      Alcotest.(check bool) "VL047 is Info severity" true (d.Vlint.severity = Vlint.Info))
    vl047;
  (* Advisory only: with lint off it stays silent, and it never reaches
     the result digest (decisions-only). *)
  let quiet = run Driver.Config.(default |> with_analyze true) in
  Alcotest.(check bool) "silent without a lint mode" false
    (List.exists (fun (d : Vlint.diag) -> String.equal d.Vlint.code "VL047")
       quiet.Driver.pr_lint);
  Alcotest.(check string) "digest excludes the advisory" (Driver.result_digest quiet)
    (Driver.result_digest warned);
  (* And a plain (unanalyzed) run decides identically: the prescreen
     changes provenance, never truth. *)
  let plain = run Driver.Config.default in
  Alcotest.(check string) "digest matches unanalyzed run" (Driver.result_digest plain)
    (Driver.result_digest warned)

(* ------------------------------------------------------------------ *)
(* VL040–VL046: seeded positives, a clean negative                     *)
(* ------------------------------------------------------------------ *)

let flow = Vlint.check_flow

let test_vl040_vl043 () =
  let bad =
    prog
      [
        fn "f" ~ret:("r", int_)
          ~body:[ SIf (EBool true, [ SReturn (Some (i 1)) ], [ SReturn (Some (i 0)) ]) ];
      ]
  in
  check_has "literal condition" "VL043" (flow bad);
  check_has "dead else" "VL040" (flow bad);
  (* Constant by typing, not by literal: a u8 is always < 256. *)
  let typed =
    prog
      [
        fn "g" ~params:[ p "x" (TInt I_u8) ] ~ret:("r", int_)
          ~body:
            [ SIf (v "x" <: i 256, [ SReturn (Some (i 1)) ], [ SReturn (Some (i 0)) ]) ];
      ]
  in
  check_has "type-range condition" "VL043" (flow typed);
  check_has "its dead else" "VL040" (flow typed)

let test_vl041 () =
  let bad =
    prog
      [
        fn "f" ~params:[ p "x" (TInt I_u64) ]
          ~body:
            [
              SWhile
                {
                  cond = v "x" <: i 10;
                  invariants = [ v "x" >=: i 0 ];
                  decreases = None;
                  body = [ SAssign ("x", v "x" +: i 1) ];
                };
            ];
      ]
  in
  check_has "u64 nonnegativity invariant is dead weight" "VL041" (flow bad)

let test_vl042 () =
  let contradiction =
    prog
      [ fn "f" ~params:[ p "x" int_ ] ~requires:[ v "x" >=: i 5; v "x" <=: i 3 ] ~body:[] ]
  in
  check_has "contradictory requires" "VL042" (flow contradiction);
  let literal = prog [ fn "g" ~requires:[ EBool false ] ~body:[] ] in
  check_has "literally false requires" "VL042" (flow literal);
  (* VL042 is the one Warn-severity flow code: contradictory requires
     makes every obligation vacuous, which deserves more than Info. *)
  let d = List.find (fun d -> d.Vlint.code = "VL042") (flow literal) in
  Alcotest.(check string) "VL042 severity" "warn" (Vlint.severity_to_string d.Vlint.severity)

let test_vl044 () =
  check_has "clamp_add u64 sum fits" "VL044" (flow Bench_programs.const_cond);
  let u8 =
    prog
      [
        fn "f"
          ~params:[ p "a" (TInt I_u8); p "b" (TInt I_u8) ]
          ~requires:[ v "a" <=: i 10; v "b" <=: i 10 ]
          ~body:[ SLet ("s", TInt I_u8, v "a" +: v "b") ];
      ]
  in
  check_has "bounded u8 sum fits" "VL044" (flow u8);
  (* Without the requires the sum can reach 510 > 255: no finding. *)
  let hot =
    prog
      [
        fn "f"
          ~params:[ p "a" (TInt I_u8); p "b" (TInt I_u8) ]
          ~body:[ SLet ("s", TInt I_u8, v "a" +: v "b") ];
      ]
  in
  check_not "unbounded u8 sum" "VL044" (flow hot)

let test_vl045 () =
  let bad =
    prog
      [
        fn "f" ~params:[ p "x" (TInt I_u64) ]
          ~body:[ SAssert (v "x" >=: i 0, H_default) ];
      ]
  in
  check_has "range-vacuous assert" "VL045" (flow bad)

let test_vl046 () =
  (* x <> 5 holds on entry (x = 0) but the interval fixpoint loses it
     once x sweeps [1, 10] — true, not rung-0-inductive. *)
  let bad =
    prog
      [
        fn "f"
          ~body:
            [
              SLet ("x", int_, i 0);
              SWhile
                {
                  cond = v "x" <: i 10;
                  invariants = [ v "x" <>: i 5 ];
                  decreases = None;
                  body = [ SAssign ("x", v "x" +: i 1) ];
                };
            ];
      ]
  in
  check_has "non-inductive invariant" "VL046" (flow bad)

let test_flow_clean () =
  let clean =
    prog [ fn "id" ~params:[ p "x" int_ ] ~ret:("r", int_) ~ensures:[ v "r" ==: v "x" ]
             ~body:[ SReturn (Some (v "x")) ] ]
  in
  let ds = flow clean in
  List.iter (fun c -> check_not "unbounded identity" c ds)
    [ "VL040"; "VL041"; "VL042"; "VL043"; "VL044"; "VL045"; "VL046" ]

(* ------------------------------------------------------------------ *)
(* VL043 static-vs-dynamic pin on the bundled program                  *)
(* ------------------------------------------------------------------ *)

(* Static claim: the else-branch of clamp_add (returning the 4242
   sentinel) is dead.  Dynamic check: run the interpreter over the whole
   precondition box's corners plus random interior points — the sentinel
   must never come back. *)
let test_vl043_pin () =
  let ds = flow Bench_programs.const_cond in
  check_has "clamp_add constant condition" "VL043" ds;
  check_has "clamp_add dead branch" "VL040" ds;
  let run a bnd =
    match
      Interp.run_fn Bench_programs.const_cond "clamp_add"
        [ Interp.VInt (B.of_int a); Interp.VInt (B.of_int bnd) ]
    with
    | Some (Interp.VInt r), _ -> r
    | _ -> Alcotest.fail "clamp_add returned no integer"
  in
  let cases =
    [ (0, 0); (0, 999); (999, 0); (999, 999) ]
    @ List.init 50 (fun k -> ((k * 131) mod 1000, (k * 277) mod 1000))
  in
  List.iter
    (fun (a, bnd) ->
      let r = run a bnd in
      Alcotest.(check bool)
        (Printf.sprintf "clamp_add %d %d avoids the dead branch" a bnd)
        true
        (B.equal r (B.of_int (a + bnd)) && not (B.equal r (B.of_int 4242))))
    cases

(* ------------------------------------------------------------------ *)
(* verus-lint/1 and verus-analyze-bench/1 schemas                      *)
(* ------------------------------------------------------------------ *)

let test_lint_report_schema () =
  List.iter
    (fun (name, prog) ->
      let ds = Vlint.lint Profiles.verus prog in
      match
        Vlint.validate_report (Vlint.report_to_json ~prog_name:name ~profile_name:"Verus" ds)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s report invalid: %s" name e)
    [
      ("const_cond", Bench_programs.const_cond);
      ("singly_linked", Bench_programs.singly_linked);
    ]

let lint_doc ?(schema = Vlint.report_schema) ?(code = "VL043") ?(sev = "info") ?(info = 1) ()
    =
  J.Obj
    [
      ("schema", J.String schema);
      ("program", J.String "p");
      ("profile", J.String "Verus");
      ( "counts",
        J.Obj [ ("error", J.Int 0); ("warn", J.Int 0); ("info", J.Int info) ] );
      ( "findings",
        J.List
          [
            J.Obj
              [
                ("code", J.String code);
                ("severity", J.String sev);
                ("fn", J.Null);
                ("message", J.String "m");
              ];
          ] );
    ]

let check_rejects what doc =
  match Vlint.validate_report doc with
  | Ok () -> Alcotest.failf "validator accepted %s" what
  | Error _ -> ()

let test_lint_schema_negatives () =
  (match Vlint.validate_report (lint_doc ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "minimal doc rejected: %s" e);
  check_rejects "a wrong schema tag" (lint_doc ~schema:"verus-lint/2" ());
  check_rejects "an unknown code" (lint_doc ~code:"VL999" ());
  check_rejects "a bad severity" (lint_doc ~sev:"fatal" ());
  check_rejects "mismatched counts" (lint_doc ~info:2 ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "vflow"
    [
      ( "dom",
        [
          Alcotest.test_case "intervals" `Quick test_dom_interval;
          Alcotest.test_case "congruences" `Quick test_dom_congruence;
          Alcotest.test_case "lattice" `Quick test_dom_lattice;
          QCheck_alcotest.to_alcotest qcheck_dom_sound;
        ] );
      ( "absint",
        [
          QCheck_alcotest.to_alcotest qcheck_absint_sound;
          Alcotest.test_case "widening terminates" `Quick test_widening_terminates;
          Alcotest.test_case "invariant-guided narrowing" `Quick test_narrowing;
        ] );
      ( "prescreen",
        [
          Alcotest.test_case "verdicts" `Quick test_prescreen_verdicts;
          Alcotest.test_case "vacuous hypotheses" `Quick test_prescreen_vacuous;
          Alcotest.test_case "residue and determinism" `Quick test_prescreen_residue;
        ] );
      ( "driver",
        [
          Alcotest.test_case "discharge and digests" `Quick test_driver_discharge;
          Alcotest.test_case "cache salt" `Quick test_fingerprint_salt;
          Alcotest.test_case "VL047 refuted advisory" `Quick test_vl047_refuted_advisory;
        ] );
      ( "lint",
        [
          Alcotest.test_case "VL040/VL043" `Quick test_vl040_vl043;
          Alcotest.test_case "VL041" `Quick test_vl041;
          Alcotest.test_case "VL042" `Quick test_vl042;
          Alcotest.test_case "VL044" `Quick test_vl044;
          Alcotest.test_case "VL045" `Quick test_vl045;
          Alcotest.test_case "VL046" `Quick test_vl046;
          Alcotest.test_case "clean function" `Quick test_flow_clean;
          Alcotest.test_case "VL043 static-vs-dynamic pin" `Quick test_vl043_pin;
        ] );
      ( "schemas",
        [
          Alcotest.test_case "lint report round-trip" `Quick test_lint_report_schema;
          Alcotest.test_case "lint report negatives" `Quick test_lint_schema_negatives;
        ] );
    ]
