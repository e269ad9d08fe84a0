(* Tests for the solver/driver observability layer (PR 3):

   - Smt.Profile: label stability, merge algebra, and hand-computable
     per-quantifier counters driven directly through Ematch;
   - Smt.Solver: every result carries a populated profile;
   - Driver: per-program hot-spot aggregation is deterministic and
     identical under jobs=1 and jobs=2;
   - Profile_report: the JSON document validates against its own schema,
     and corrupted documents are rejected;
   - the VL010 cross-validation: on a pointer-linked program under the
     liberal-trigger heap profile, the *measured* #1 instantiation
     hot-spot shares a trigger head with the matching loop Vlint
     *predicts* statically. *)

module T = Smt.Term
module S = Smt.Sort
module P = Smt.Profile
module J = Vbase.Json

let ic name = T.const (T.Sym.declare name [] S.Int)
let uc name srt = T.const (T.Sym.declare name [] srt)

(* Multi-line substring check ([Str]'s ['.'] stops at newlines). *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)
(* ------------------------------------------------------------------ *)

let test_label_masks_fresh () =
  let srt = S.Usort "PL" in
  let f = T.Sym.declare "plf" [ srt ] S.Int in
  let k = T.const (T.Sym.fresh "plk" [] srt) in
  let lbl = P.label_of ~nvars:1 ~patterns:[ T.app f [ k ] ] in
  Alcotest.(check bool)
    (Printf.sprintf "fresh counter masked (got %s)" lbl)
    true
    (Str.string_match (Str.regexp ".*plk!\\*.*") lbl 0);
  Alcotest.(check bool) "no raw counter survives" false
    (Str.string_match (Str.regexp ".*plk![0-9].*") lbl 0);
  (* Two fresh constants with different counters produce the SAME label:
     that is what makes aggregation keys stable across runs. *)
  let k2 = T.const (T.Sym.fresh "plk" [] srt) in
  let lbl2 = P.label_of ~nvars:1 ~patterns:[ T.app f [ k2 ] ] in
  Alcotest.(check string) "stable across fresh counters" lbl lbl2;
  (* No trigger: the label says so instead of being empty. *)
  let none = P.label_of ~nvars:2 ~patterns:[] in
  Alcotest.(check bool) "no-trigger label" true
    (Str.string_match (Str.regexp "forall/2 {<no trigger.*") none 0)

(* ------------------------------------------------------------------ *)
(* Hand-computable Ematch counters                                     *)
(* ------------------------------------------------------------------ *)

let test_ematch_counters () =
  (* Index: f(a), f(b), g(a).  Quantifiers Q1 = forall x. f(x) = x
     (trigger f(x)) and Q2 = forall y. g(y) >= 0 (trigger g(y)).

     Round 1: Q1 matches f(a) and f(b) -> 2 instances; Q2 matches g(a)
     -> 1 instance.  Round 2 re-finds exactly the same candidates, all
     discarded by the dedup table (we never index the produced bodies,
     standing in for a solver round that learned nothing new). *)
  let srt = S.Usort "EMC" in
  let f = T.Sym.declare "emcf" [ srt ] srt in
  let g = T.Sym.declare "emcg" [ srt ] S.Int in
  let a = uc "emca" srt and b = uc "emcb" srt in
  let x = T.bvar "x" srt and y = T.bvar "y" srt in
  let q1 = T.forall [ ("x", srt) ] (T.eq (T.app f [ x ]) x) in
  let q2 = T.forall [ ("y", srt) ] (T.ge (T.app g [ y ]) (T.int_of 0)) in
  let em = Smt.Ematch.create Smt.Triggers.Conservative in
  Smt.Ematch.add_quant em ~guard:None q1;
  Smt.Ematch.add_quant em ~guard:None q2;
  Smt.Ematch.add_ground em (T.app f [ a ]);
  Smt.Ematch.add_ground em (T.app f [ b ]);
  Smt.Ematch.add_ground em (T.app g [ a ]);
  let r1 = Smt.Ematch.round em ~max_instances:100 in
  Alcotest.(check int) "round 1 emits 3 instances" 3 (List.length r1);
  let r2 = Smt.Ematch.round em ~max_instances:100 in
  Alcotest.(check int) "round 2 emits nothing new" 0 (List.length r2);
  let prof = Smt.Ematch.profile em in
  Alcotest.(check int) "two quantifiers profiled" 2 (List.length prof);
  let find frag =
    match
      List.find_opt
        (fun (q : P.quant_profile) ->
          Str.string_match (Str.regexp (".*" ^ Str.quote frag ^ ".*")) q.P.q_label 0)
        prof
    with
    | Some q -> q
    | None -> Alcotest.failf "no profiled quantifier mentions %s" frag
  in
  let p1 = find "emcf" and p2 = find "emcg" in
  Alcotest.(check int) "Q1 instances" 2 p1.P.q_instances;
  Alcotest.(check int) "Q1 matched (2 fresh + 2 dups)" 4 p1.P.q_matched;
  Alcotest.(check int) "Q1 duplicates" 2 p1.P.q_duplicates;
  Alcotest.(check int) "Q1 first round" 1 p1.P.q_first_round;
  Alcotest.(check int) "Q1 last round" 1 p1.P.q_last_round;
  Alcotest.(check int) "Q1 nvars" 1 p1.P.q_nvars;
  Alcotest.(check int) "Q2 instances" 1 p2.P.q_instances;
  Alcotest.(check int) "Q2 matched (1 fresh + 1 dup)" 2 p2.P.q_matched;
  Alcotest.(check int) "Q2 duplicates" 1 p2.P.q_duplicates;
  (* Sorted hottest-first: Q1 (2 instances) before Q2 (1). *)
  (match prof with
  | first :: _ -> Alcotest.(check int) "hottest first" 2 first.P.q_instances
  | [] -> Alcotest.fail "empty profile");
  Alcotest.(check int) "total_instances"
    3
    (P.total_instances { P.empty with P.quants = prof })

(* ------------------------------------------------------------------ *)
(* Merge algebra                                                       *)
(* ------------------------------------------------------------------ *)

let qp ?(heads = []) label ~inst ~matched ~dup ~first ~last =
  {
    P.q_label = label;
    q_heads = heads;
    q_nvars = 1;
    q_instances = inst;
    q_matched = matched;
    q_duplicates = dup;
    q_first_round = first;
    q_last_round = last;
  }

let test_merge () =
  let a =
    {
      P.quants = [ qp "A" ~inst:3 ~matched:5 ~dup:2 ~first:1 ~last:2 ];
      phase = { P.ph_sat = 0.5; ph_euf = 1.0; ph_lia = 0.0; ph_comb = 0.25; ph_ematch = 0.125 };
      inst_rounds = 2;
      euf_conflicts = 1;
      lia_conflicts = 2;
      theory_lemmas = 3;
    }
  in
  let b =
    {
      P.quants =
        [
          qp "A" ~inst:1 ~matched:2 ~dup:1 ~first:3 ~last:4;
          qp "B" ~inst:10 ~matched:11 ~dup:0 ~first:1 ~last:1;
        ];
      phase = { P.ph_sat = 0.5; ph_euf = 0.0; ph_lia = 2.0; ph_comb = 0.0; ph_ematch = 0.125 };
      inst_rounds = 4;
      euf_conflicts = 10;
      lia_conflicts = 20;
      theory_lemmas = 30;
    }
  in
  let check_m m =
    Alcotest.(check int) "rows" 2 (List.length m.P.quants);
    (* B (10 instances) sorts before the combined A (4). *)
    (match m.P.quants with
    | b' :: a' :: _ ->
      Alcotest.(check string) "hottest label" "B" b'.P.q_label;
      Alcotest.(check int) "A instances summed" 4 a'.P.q_instances;
      Alcotest.(check int) "A matched summed" 7 a'.P.q_matched;
      Alcotest.(check int) "A dups summed" 3 a'.P.q_duplicates;
      Alcotest.(check int) "A first = min nonzero" 1 a'.P.q_first_round;
      Alcotest.(check int) "A last = max" 4 a'.P.q_last_round
    | _ -> Alcotest.fail "unexpected merge shape");
    Alcotest.(check (float 1e-9)) "sat adds" 1.0 m.P.phase.P.ph_sat;
    Alcotest.(check (float 1e-9)) "lia adds" 2.0 m.P.phase.P.ph_lia;
    Alcotest.(check int) "rounds add" 6 m.P.inst_rounds;
    Alcotest.(check int) "euf conflicts add" 11 m.P.euf_conflicts;
    Alcotest.(check int) "theory lemmas add" 33 m.P.theory_lemmas
  in
  check_m (P.merge a b);
  (* Commutative up to the deterministic re-sort. *)
  check_m (P.merge b a);
  (* Identity. *)
  let id = P.merge a P.empty in
  Alcotest.(check int) "merge with empty keeps rows" 1 (List.length id.P.quants)

(* ------------------------------------------------------------------ *)
(* Solver results always carry a profile                               *)
(* ------------------------------------------------------------------ *)

let test_solver_profile () =
  let srt = S.Usort "SP" in
  let g = T.Sym.declare "spg" [ srt ] srt in
  let a = uc "spa" srt in
  (* g(g(a)) <> a against forall x. g(x) = x: refuted after chained
     instantiation — at least two instances over at least one round. *)
  let axg = T.forall [ ("x", srt) ] (T.eq (T.app g [ T.bvar "x" srt ]) (T.bvar "x" srt)) in
  let r = Smt.Solver.solve [ axg; T.neq (T.app g [ T.app g [ a ] ]) a ] in
  Alcotest.(check bool) "unsat" true (r.Smt.Solver.answer = Smt.Solver.Unsat);
  let p = r.Smt.Solver.profile in
  Alcotest.(check bool) "some instantiation" true (P.total_instances p >= 2);
  Alcotest.(check bool) "at least one round" true (p.P.inst_rounds >= 1);
  Alcotest.(check bool) "quantifier attributed" true
    (List.exists
       (fun (q : P.quant_profile) ->
         Str.string_match (Str.regexp ".*spg.*") q.P.q_label 0 && q.P.q_instances >= 2)
       p.P.quants);
  let ph = p.P.phase in
  List.iter
    (fun (n, v) ->
      Alcotest.(check bool) (n ^ " finite and non-negative") true (v >= 0.0 && v < 3600.0))
    [
      ("sat", ph.P.ph_sat);
      ("euf", ph.P.ph_euf);
      ("lia", ph.P.ph_lia);
      ("comb", ph.P.ph_comb);
      ("ematch", ph.P.ph_ematch);
    ];
  (* Quantifier-free solves profile as all-quiet, not as an error. *)
  let x = ic "spx" in
  let r0 = Smt.Solver.solve [ T.ge x (T.int_of 0); T.lt x (T.int_of 0) ] in
  Alcotest.(check bool) "qf unsat" true (r0.Smt.Solver.answer = Smt.Solver.Unsat);
  Alcotest.(check int) "qf: no quantifier fired" 0
    (P.total_instances r0.Smt.Solver.profile)

(* ------------------------------------------------------------------ *)
(* Driver aggregation: determinism across jobs                         *)
(* ------------------------------------------------------------------ *)

let hotspot_fingerprint (r : Verus.Driver.program_result) =
  match r.Verus.Driver.pr_prof with
  | None -> Alcotest.fail "no profile on profiled run"
  | Some pp ->
    ( List.map
        (fun (q : P.quant_profile) -> (q.P.q_label, q.P.q_instances, q.P.q_matched))
        pp.Verus.Driver.pp_smt.P.quants,
      List.map
        (fun (a : Verus.Driver.axiom_cost) ->
          (a.Verus.Driver.ac_index, a.Verus.Driver.ac_label, a.Verus.Driver.ac_bytes,
           a.Verus.Driver.ac_contexts))
        pp.Verus.Driver.pp_axiom_costs,
      pp.Verus.Driver.pp_vcs )

let test_driver_jobs_stable () =
  let prog = Verus.Bench_programs.singly_linked in
  let p = Verus.Profiles.verus in
  let cfg jobs = Verus.Driver.Config.(default |> with_jobs jobs |> with_profile true) in
  let r1 = Verus.Driver.verify_program ~config:(cfg 1) p prog in
  let r2 = Verus.Driver.verify_program ~config:(cfg 2) p prog in
  Alcotest.(check bool) "jobs=1 verifies" true r1.Verus.Driver.pr_ok;
  Alcotest.(check bool) "jobs=2 verifies" true r2.Verus.Driver.pr_ok;
  let q1, a1, v1 = hotspot_fingerprint r1 in
  let q2, a2, v2 = hotspot_fingerprint r2 in
  Alcotest.(check int) "same VC count" v1 v2;
  Alcotest.(check bool) "some quantifier rows" true (q1 <> []);
  Alcotest.(check bool) "identical hot-spot table" true (q1 = q2);
  Alcotest.(check bool) "identical axiom attribution" true (a1 = a2);
  (* Labels are parallel-safe: no unmasked fresh counter in any key. *)
  List.iter
    (fun (lbl, _, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "masked label %s" lbl)
        false
        (Str.string_match (Str.regexp ".*![0-9].*") lbl 0))
    q1;
  (* The aggregate is sorted by the documented order. *)
  let rec sorted = function
    | (l1, i1, m1) :: ((l2, i2, m2) :: _ as rest) ->
      (i1 > i2 || (i1 = i2 && (m1 > m2 || (m1 = m2 && l1 <= l2)))) && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "deterministic order" true (sorted q1)

let test_driver_profile_off () =
  (* The opt-in really is opt-in: no retained profile unless requested. *)
  let r =
    Verus.Driver.verify_program Verus.Profiles.verus Verus.Bench_programs.singly_linked
  in
  Alcotest.(check bool) "no profile by default" true (r.Verus.Driver.pr_prof = None);
  List.iter
    (fun (f : Verus.Driver.fn_result) ->
      Alcotest.(check bool) "no per-fn profile" true (f.Verus.Driver.fnr_prof = None))
    r.Verus.Driver.pr_fns

(* ------------------------------------------------------------------ *)
(* Report schema                                                       *)
(* ------------------------------------------------------------------ *)

let profiled_result () =
  let config =
    Verus.Driver.Config.(default |> with_profile true |> with_lint Verus.Driver.Lint_warn)
  in
  Verus.Driver.verify_program ~config Verus.Profiles.verus Verus.Bench_programs.singly_linked

let test_report_json_validates () =
  let r = profiled_result () in
  let j = Verus.Profile_report.to_json ~prog_name:"singly_linked" r in
  (match Verus.Profile_report.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-emitted document rejected: %s" e);
  (* Round-trips through the actual printer and parser.  Float printing
     is not bit-lossless (%.6g), so the check is the print fixpoint:
     parse(print(j)) prints identically, and still validates. *)
  let text = J.to_string ~indent:true j in
  (match J.of_string text with
  | Ok j' -> (
    Alcotest.(check string) "print fixpoint" text (J.to_string ~indent:true j');
    match Verus.Profile_report.validate j' with
    | Ok () -> ()
    | Error e -> Alcotest.failf "round-tripped document rejected: %s" e)
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e);
  (* Every required key is genuinely checked: deleting any one of them
     turns the document invalid. *)
  List.iter
    (fun key ->
      let stripped =
        match j with
        | J.Obj kvs -> J.Obj (List.filter (fun (k, _) -> k <> key) kvs)
        | _ -> Alcotest.fail "document is not an object"
      in
      match Verus.Profile_report.validate stripped with
      | Ok () -> Alcotest.failf "dropping %S went unnoticed" key
      | Error _ -> ())
    Verus.Profile_report.required_keys;
  (* A wrong schema version is rejected. *)
  let wrong =
    match j with
    | J.Obj kvs ->
      J.Obj
        (List.map (fun (k, v) -> if k = "schema" then (k, J.String "bogus/9") else (k, v)) kvs)
    | _ -> assert false
  in
  match Verus.Profile_report.validate wrong with
  | Ok () -> Alcotest.fail "wrong schema version accepted"
  | Error _ -> ()

let test_report_text () =
  let r = profiled_result () in
  let text = Verus.Profile_report.render_text ~prog_name:"singly_linked" r in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "text mentions %S" frag) true (contains text frag))
    [
      "VERIFIED";
      "quantifiers by instantiation";
      "context bytes by axiom";
      "per-function";
      "lint cross-check";
      "list_index";
    ];
  (* An unprofiled result renders an explanation, not an empty string. *)
  let bare =
    Verus.Driver.verify_program Verus.Profiles.verus Verus.Bench_programs.singly_linked
  in
  let msg = Verus.Profile_report.render_text ~prog_name:"singly_linked" bare in
  Alcotest.(check bool) "explains missing profile" true (contains msg "no profile collected")

(* ------------------------------------------------------------------ *)
(* VL010 cross-validation: static prediction == dynamic measurement    *)
(* ------------------------------------------------------------------ *)

let test_vl010_cross_validation () =
  (* mem4 builds on the pointer-linked List datatype; under the liberal-
     trigger heap profile its axiom set contains the alloc-reachability /
     view-unfolding matching loop VL010 flags.  Verify with tight solver
     budgets (the VCs degrade to Unknown instead of hanging) and check
     the measured #1 instantiation hot-spot shares a trigger head with
     the static finding — the Axiom-Profiler-style agreement the paper's
     trigger story predicts. *)
  let profile = Verus.Profiles.liberal Verus.Profiles.dafny in
  Alcotest.(check string) "liberal naming" "Dafny-liberal" profile.Verus.Profiles.name;
  (* The deadline leaves the loop a clear lead.  The cut is wall-clock,
     so load shrinks the work done: at 1 s of work the flagged loop led
     the unflagged [seq.int$h.len] axiom by 384 to 359 instances, and at
     0.5 s it trailed; at 2-3 s the top two are both flagged. *)
  let profile =
    Verus.Profiles.with_budget
      { (Verus.Profiles.budget profile) with Smt.Solver.max_rounds = 5; deadline_s = 3.0 }
      profile
  in
  let prog = Verus.Bench_programs.memory_reasoning 4 in
  (* Static side: VL010 fires and names trigger heads. *)
  let static_heads = Verus.Vlint.vl010_heads (Verus.Vlint.lint profile prog) in
  Alcotest.(check bool) "VL010 fires statically" true (static_heads <> []);
  (* Dynamic side: the profiled run's top hot-spot. *)
  let r =
    Verus.Driver.verify_program
      ~config:Verus.Driver.Config.(default |> with_lint Verus.Driver.Lint_warn |> with_profile true)
      profile prog
  in
  (match Verus.Profile_report.vl010_cross_check r with
  | Some (heads, matches) ->
    Alcotest.(check (list string)) "same heads via the result" static_heads heads;
    Alcotest.(check bool) "top hot-spot matches the flagged loop" true matches
  | None -> Alcotest.fail "no quantifier activity in the profiled run");
  (* And the conservative control: the stock Dafny profile lints clean
     on the same program (the curated triggers break the cycle). *)
  Alcotest.(check (list string))
    "curated triggers: no VL010" []
    (Verus.Vlint.vl010_heads (Verus.Vlint.lint Verus.Profiles.dafny prog))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "profile"
    [
      ( "labels",
        [ Alcotest.test_case "fresh-counter masking" `Quick test_label_masks_fresh ] );
      ( "ematch",
        [ Alcotest.test_case "hand-computed counters" `Quick test_ematch_counters ] );
      ("merge", [ Alcotest.test_case "merge algebra" `Quick test_merge ]);
      ( "solver",
        [ Alcotest.test_case "result carries profile" `Quick test_solver_profile ] );
      ( "driver",
        [
          Alcotest.test_case "jobs=1 == jobs=2 aggregation" `Quick test_driver_jobs_stable;
          Alcotest.test_case "profile is opt-in" `Quick test_driver_profile_off;
        ] );
      ( "report",
        [
          Alcotest.test_case "JSON validates + round-trips" `Quick test_report_json_validates;
          Alcotest.test_case "text rendering" `Quick test_report_text;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "VL010 static == profiler dynamic" `Slow
            test_vl010_cross_validation;
        ] );
    ]
