(* The BENCH_*.json validators: minimal documents pass and near misses
   fail; a real (tiny) IronKV run rendered through kv_row/kv_doc passes;
   the committed BENCH files still validate. *)

module J = Vbase.Json
module S = Bench_schema

let bench_doc ?(schema = S.analyze_schema) ?(discharged = 1) ?(total_discharged = 1)
    ?(rate = 0.5) ?(verified = true) ?(rows = true) ?(totals = true) () =
  let row =
    J.Obj
      [
        ("profile", J.String "Verus");
        ("program", J.String "const_cond");
        ("vcs", J.Int 2);
        ("discharged", J.Int discharged);
        ("base_s", J.Float 1.0);
        ("analyze_s", J.Float 0.5);
        ("base_bytes", J.Int 10);
        ("analyze_bytes", J.Int 5);
        ("verified_equal", J.Bool verified);
      ]
  in
  J.Obj
    ([
       ("schema", J.String schema);
       ("analysis", J.String Vflow.version);
       ("rows", J.List (if rows then [ row ] else []));
     ]
    @
    if totals then
      [
        ( "totals",
          J.Obj
            [
              ("total_vcs", J.Int 2);
              ("total_discharged", J.Int total_discharged);
              ("discharge_rate", J.Float rate);
            ] );
      ]
    else [])

let rejects validate what doc =
  match validate doc with
  | Ok () -> Alcotest.failf "bench validator accepted %s" what
  | Error _ -> ()

let test_analyze_schema () =
  (match S.validate_analyze (bench_doc ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "minimal bench doc rejected: %s" e);
  let rejects = rejects S.validate_analyze in
  rejects "a wrong schema tag" (bench_doc ~schema:"verus-analyze-bench/0" ());
  rejects "a zero discharge total" (bench_doc ~total_discharged:0 ());
  rejects "an out-of-range rate" (bench_doc ~rate:1.5 ());
  rejects "a verification mismatch" (bench_doc ~verified:false ());
  rejects "empty rows" (bench_doc ~rows:false ());
  rejects "missing totals" (bench_doc ~totals:false ());
  rejects "row discharge above vcs" (bench_doc ~discharged:3 ())

let test_kv_schema () =
  let module W = Ironkv.Workload in
  let r = W.run ~hosts:2 ~clients:2 ~keys:200 ~payload:16 ~ops:60 ~style:`Inplace () in
  let doc = S.kv_doc [ S.kv_row ~name:"smoke" ~acked_write_loss:0 r ] in
  (match S.validate_kv doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("emitted doc rejected: " ^ e));
  (match J.of_string (J.to_string doc) with
  | Ok doc' -> (
    match S.validate_kv doc' with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("round-tripped doc rejected: " ^ e))
  | Error e -> Alcotest.fail ("round-trip parse failed: " ^ e));
  let rejects = rejects S.validate_kv in
  rejects "a wrong schema" (J.Obj [ ("schema", J.String "nope/9"); ("rows", J.List []) ]);
  rejects "empty rows" (S.kv_doc []);
  rejects "a missing field" (S.kv_doc [ J.Obj [ ("name", J.String "x") ] ])

let test_committed () =
  List.iter
    (fun (path, validate) ->
      match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok doc -> (
        match validate doc with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" path e))
    [ ("../BENCH_analyze.json", S.validate_analyze); ("../BENCH_ladder.json", S.validate_ladder) ]

let () =
  Alcotest.run "bench_schema"
    [
      ( "schemas",
        [
          Alcotest.test_case "analyze bench schema" `Quick test_analyze_schema;
          Alcotest.test_case "kv bench schema" `Quick test_kv_schema;
          Alcotest.test_case "committed documents" `Quick test_committed;
        ] );
    ]
