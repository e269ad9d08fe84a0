(* Tests for the certificate pipeline: the solver's emission side
   (Smt.Cert) against the independent replay kernel (Vcheck).

   The adversarial half mutates real certificates — dropping resolution
   antecedents, perturbing Farkas coefficients, splicing congruence
   chains across unrelated terms, truncating the derivation — and
   demands the kernel reject each with the right code.  A checker that
   accepts a damaged proof is strictly worse than no checker. *)

module T = Smt.Term
module S = Smt.Sort
module Solver = Smt.Solver
module Cert = Smt.Cert
module Json = Vbase.Json

let certify_config = { Solver.default_config with certify = true }

let icon name = T.const (T.Sym.fresh name [] S.Int)
let bcon name = T.const (T.Sym.fresh name [] S.Bool)

(* Solve with certification on; the assertions must be unsat, and the
   result must carry a certificate. *)
let cert_of assertions =
  let r = Solver.solve ~config:certify_config assertions in
  Alcotest.(check bool) "unsat" true (r.Solver.answer = Solver.Unsat);
  match r.Solver.cert with
  | Some c -> c
  | None -> Alcotest.fail "no certificate on Unsat result"

let check_ok what c =
  match Vcheck.check (Cert.to_json c) with
  | Vcheck.Checked _ -> ()
  | Vcheck.Rejected { code; reason } ->
    Alcotest.fail (Printf.sprintf "%s: rejected %s: %s" what code reason)

(* ------------------------------------------------------------------ *)
(* End-to-end: emit and replay                                         *)
(* ------------------------------------------------------------------ *)

let test_prop_unsat () =
  (* Purely propositional: exercises input + learned (RUP) steps. *)
  let p = bcon "p" and q = bcon "q" in
  let c = cert_of [ T.or_ [ p; q ]; T.or_ [ T.not_ p; q ]; T.or_ [ p; T.not_ q ];
                    T.or_ [ T.not_ p; T.not_ q ] ] in
  check_ok "prop" c

let test_euf_unsat () =
  let f = T.Sym.fresh "f" [ S.Int ] S.Int in
  let a = icon "a" and b = icon "b" and c = icon "c" in
  let cert =
    cert_of
      [ T.eq (T.app f [ a ]) b; T.eq a c; T.not_ (T.eq (T.app f [ c ]) b) ]
  in
  check_ok "euf" cert

let test_lia_pair_unsat () =
  let x = icon "x" in
  let c = cert_of [ T.le x (T.int_of 3); T.le (T.int_of 5) x ] in
  check_ok "lia-pair" c

let test_lia_simplex_unsat () =
  let x = icon "x" and y = icon "y" in
  let c =
    cert_of
      [
        T.le (T.add [ x; y ]) (T.int_of 2);
        T.le (T.int_of 2) x;
        T.le (T.int_of 1) y;
      ]
  in
  check_ok "lia-simplex" c

let test_eq_split_unsat () =
  (* Forces the trichotomy path: x <> y with x and y pinned equal. *)
  let x = icon "x" and y = icon "y" in
  let c =
    cert_of
      [ T.not_ (T.eq x y); T.le x y; T.le y x ]
  in
  check_ok "eq-split" c

let test_mixed_unsat () =
  (* EUF and LIA cooperating: f(x) = 1, f(y) = 2, x = y. *)
  let f = T.Sym.fresh "g" [ S.Int ] S.Int in
  let x = icon "mx" and y = icon "my" in
  let c =
    cert_of
      [
        T.eq (T.app f [ x ]) (T.int_of 1);
        T.eq (T.app f [ y ]) (T.int_of 2);
        T.eq x y;
      ]
  in
  check_ok "mixed" c

let test_quant_unsat () =
  (* Instantiation: (forall i. f(i) <= 10) /\ f(7) > 10. *)
  let f = T.Sym.fresh "h" [ S.Int ] S.Int in
  let i = T.bvar "i" S.Int in
  let body = T.le (T.app f [ i ]) (T.int_of 10) in
  let q = T.forall [ ("i", S.Int) ] body in
  let c = cert_of [ q; T.lt (T.int_of 10) (T.app f [ T.int_of 7 ]) ] in
  check_ok "quant" c

let test_digest_stable () =
  let x = icon "x" in
  let mk () = cert_of [ T.le x (T.int_of 3); T.le (T.int_of 5) x ] in
  let d1 = Cert.digest (mk ()) and d2 = Cert.digest (mk ()) in
  Alcotest.(check string) "digest deterministic" d1 d2

(* ------------------------------------------------------------------ *)
(* Mutations: every damaged certificate must be rejected               *)
(* ------------------------------------------------------------------ *)

let expect_reject what code j =
  match Vcheck.check j with
  | Vcheck.Checked _ -> Alcotest.fail (what ^ ": damaged certificate was accepted")
  | Vcheck.Rejected { code = got; reason = _ } ->
    Alcotest.(check string) (what ^ " code") code got

(* Map over the steps array of an smt certificate. *)
let map_steps f j =
  match j with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (function
           | "steps", Json.List steps -> ("steps", Json.List (f steps))
           | kv -> kv)
         fields)
  | _ -> Alcotest.fail "not an object"

let with_field k v j =
  match j with
  | Json.Obj fields ->
    Json.Obj (List.map (function k', _ when k' = k -> (k, v) | kv -> kv) fields)
  | _ -> Alcotest.fail "not an object"

let test_mutation_drop_antecedent () =
  (* Removing one antecedent from a resolution step must break restricted
     unit propagation. *)
  let p = bcon "dp" and q = bcon "dq" in
  let c = cert_of [ T.or_ [ p; q ]; T.or_ [ T.not_ p; q ]; T.or_ [ p; T.not_ q ];
                    T.or_ [ T.not_ p; T.not_ q ] ] in
  let j = Cert.to_json c in
  let mutated = ref false in
  let j' =
    map_steps
      (List.map (fun step ->
           match step with
           | Json.List [ lits; Json.List (Json.String "r" :: (_ :: _ :: _ as antes)) ]
             when not !mutated ->
             mutated := true;
             Json.List [ lits; Json.List (Json.String "r" :: List.tl antes) ]
           | s -> s))
      j
  in
  Alcotest.(check bool) "found a resolution step to damage" true !mutated;
  expect_reject "drop-antecedent" "CK002" j'

let test_mutation_perturb_farkas () =
  (* Bumping one multiplier breaks the cancellation. *)
  let x = icon "fx" and y = icon "fy" in
  let c =
    cert_of
      [
        T.le (T.add [ x; y ]) (T.int_of 2);
        T.le (T.int_of 2) x;
        T.le (T.int_of 1) y;
      ]
  in
  let j = Cert.to_json c in
  let mutated = ref false in
  let j' =
    map_steps
      (List.map (fun step ->
           match step with
           | Json.List [ lits; Json.List (Json.String "f" :: combo) ] when not !mutated ->
             mutated := true;
             let combo =
               match combo with
               | Json.List [ l; Json.String _; ix ] :: rest ->
                 Json.List [ l; Json.String "17/3"; ix ] :: rest
               | _ -> combo
             in
             Json.List [ lits; Json.List (Json.String "f" :: combo) ]
           | s -> s))
      j
  in
  Alcotest.(check bool) "found a Farkas step to damage" true !mutated;
  expect_reject "perturb-farkas" "CK005" j'

let test_mutation_wrapped_multiplier () =
  (* [3y <= x], [2^61 <= y], [x <= 3*2^61 - 1]: the refutation weights
     y's bound by 3, so its products leave the native int range and the
     kernel's arithmetic crosses into limbs. *)
  let module B = Vbase.Bigint in
  let x = icon "wx" and y = icon "wy" in
  let p61 = B.pow B.two 61 in
  let c =
    cert_of
      [
        T.le (T.mul (T.int_of 3) y) x;
        T.le (T.int_lit p61) y;
        T.le x (T.int_lit (B.sub (B.mul (B.of_int 3) p61) B.one));
      ]
  in
  check_ok "farkas-beyond-native" c;
  (* Raising that multiplier by exactly 2^63 leaves y uncancelled by
     2^63, which wrap-around 63-bit arithmetic would not see. *)
  let raised = B.to_string (B.add (B.of_int 3) (B.pow B.two 63)) in
  let mutated = ref false in
  let j' =
    map_steps
      (List.map (fun step ->
           match step with
           | Json.List [ lits; Json.List (Json.String "f" :: combo) ] ->
             let combo =
               List.map
                 (function
                   | Json.List [ l; Json.String "3"; ix ] when not !mutated ->
                     mutated := true;
                     Json.List [ l; Json.String raised; ix ]
                   | e -> e)
                 combo
             in
             Json.List [ lits; Json.List (Json.String "f" :: combo) ]
           | s -> s))
      (Cert.to_json c)
  in
  Alcotest.(check bool) "found the multiplier 3 to raise" true !mutated;
  expect_reject "wrapped-multiplier" "CK005" j'

let test_mutation_splice_euf () =
  (* Redirecting an equality meaning to unrelated nodes must make the
     congruence replay fall short. *)
  let f = T.Sym.fresh "sf" [ S.Int ] S.Int in
  let a = icon "sa" and b = icon "sb" and c = icon "sc" in
  let cert =
    cert_of [ T.eq (T.app f [ a ]) b; T.eq a c; T.not_ (T.eq (T.app f [ c ]) b) ]
  in
  let j = Cert.to_json cert in
  (* Point every positive-equality meaning at node pair (n, n): the merges
     become trivial and the disequality can no longer be violated. *)
  let j' =
    match Json.member "lits" j with
    | Some (Json.List lits) ->
      let lits =
        List.map
          (fun entry ->
            match entry with
            | Json.List [ l; Json.List [ Json.Bool true; Json.Int n; Json.Int _ ]; views ]
              ->
              Json.List [ l; Json.List [ Json.Bool true; Json.Int n; Json.Int n ]; views ]
            | e -> e)
          lits
      in
      with_field "lits" (Json.List lits) j
    | _ -> Alcotest.fail "no lits"
  in
  expect_reject "splice-euf" "CK004" j'

let test_mutation_truncate () =
  (* Cutting the tail of the log leaves the terminal empty-clause step
     dangling. *)
  let x = icon "tx" in
  let c = cert_of [ T.le x (T.int_of 3); T.le (T.int_of 5) x ] in
  let j = Cert.to_json c in
  let j' =
    map_steps
      (fun steps ->
        let n = List.length steps in
        List.filteri (fun i _ -> i < n - 1) steps)
      j
  in
  expect_reject "truncate" "CK007" j'

let test_mutation_garbage () =
  expect_reject "garbage" "CK001" (Json.Obj [ ("schema", Json.String "nope") ]);
  match Vcheck.check_string "{" with
  | Vcheck.Rejected { code = "CK001"; _ } -> ()
  | _ -> Alcotest.fail "unparseable certificate accepted"

(* ------------------------------------------------------------------ *)
(* End-to-end driver properties                                        *)
(* ------------------------------------------------------------------ *)

let test_jobs_determinism () =
  (* Certified replay is deterministic under parallel verification: the
     same program digests identically (including every certificate
     digest) at jobs=1 and jobs=4, and every obligation's certificate
     checks. *)
  let prog = Verus.Bench_programs.singly_linked in
  let profile = Verus.Profiles.verus in
  let config n =
    Verus.Driver.Config.(default |> with_jobs n |> with_certify true)
  in
  let r1 = Verus.Driver.verify_program ~config:(config 1) profile prog in
  let r4 = Verus.Driver.verify_program ~config:(config 4) profile prog in
  Alcotest.(check bool) "jobs=1 certified ok" true r1.Verus.Driver.pr_ok;
  Alcotest.(check bool) "jobs=4 certified ok" true r4.Verus.Driver.pr_ok;
  List.iter
    (fun (fnr : Verus.Driver.fn_result) ->
      List.iter
        (fun (v : Verus.Driver.vc_result) ->
          match v.Verus.Driver.vcr_cert with
          | Verus.Driver.Cert_checked _ -> ()
          | _ ->
            Alcotest.fail
              (Printf.sprintf "obligation %S lacks a checked certificate"
                 v.Verus.Driver.vcr_name))
        fnr.Verus.Driver.fnr_vcs)
    r1.Verus.Driver.pr_fns;
  Alcotest.(check string) "replay deterministic under jobs>1"
    (Verus.Driver.result_digest r1)
    (Verus.Driver.result_digest r4)

let test_kernel_independence () =
  (* The design constraint the dune stanza encodes: the kernel's entire
     dependency surface is vbase.  Linking lib/smt into lib/vcheck would
     silently collapse the two sides of the certification story. *)
  let rec find dir n =
    if n <= 0 then None
    else
      let p = Filename.concat dir "lib/vcheck/dune" in
      if Sys.file_exists p then Some p
      else
        let parent = Filename.dirname dir in
        if String.equal parent dir then None else find parent (n - 1)
  in
  match find (Sys.getcwd ()) 8 with
  | None -> Alcotest.fail "lib/vcheck/dune not found above the test cwd"
  | Some path ->
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let stanza =
      String.split_on_char '\n' s
      |> List.filter (fun l ->
             let l = String.trim l in
             not (String.length l > 0 && l.[0] = ';'))
      |> String.concat "\n"
    in
    let matches re =
      try
        ignore (Str.search_forward (Str.regexp re) stanza 0);
        true
      with Not_found -> false
    in
    Alcotest.(check bool) "vcheck libraries stanza is vbase alone" true
      (matches "(libraries[ \t\n]+vbase[ \t\n]*)");
    Alcotest.(check bool) "vcheck must not link the solver" false (matches "\\bsmt\\b")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "vcheck"
    [
      ( "replay",
        [
          Alcotest.test_case "prop" `Quick test_prop_unsat;
          Alcotest.test_case "euf" `Quick test_euf_unsat;
          Alcotest.test_case "lia-pair" `Quick test_lia_pair_unsat;
          Alcotest.test_case "lia-simplex" `Quick test_lia_simplex_unsat;
          Alcotest.test_case "eq-split" `Quick test_eq_split_unsat;
          Alcotest.test_case "mixed" `Quick test_mixed_unsat;
          Alcotest.test_case "quant" `Quick test_quant_unsat;
          Alcotest.test_case "digest-stable" `Quick test_digest_stable;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "drop-antecedent" `Quick test_mutation_drop_antecedent;
          Alcotest.test_case "perturb-farkas" `Quick test_mutation_perturb_farkas;
          Alcotest.test_case "wrapped-multiplier" `Quick test_mutation_wrapped_multiplier;
          Alcotest.test_case "splice-euf" `Quick test_mutation_splice_euf;
          Alcotest.test_case "truncate" `Quick test_mutation_truncate;
          Alcotest.test_case "garbage" `Quick test_mutation_garbage;
        ] );
      ( "driver",
        [
          Alcotest.test_case "jobs-determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "kernel-independence" `Quick test_kernel_independence;
        ] );
    ]
