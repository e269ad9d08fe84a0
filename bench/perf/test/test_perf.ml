(* Tests of the benchmark itself: seeded request lists, the warm-edit
   edits' cache behaviour, span self time, the trace format, the metric
   names against BENCHMARK.json, and the statistics it reports. *)

open Verus
open Perf
module J = Vbase.Json
module W = Workload

let kinds reqs = List.map (fun (r : W.request) -> W.kind_name r.W.kind) reqs

let test_request_lists () =
  List.iter
    (fun (w : W.t) ->
      let a = W.requests w ~seed:7 ~quick:false ~rounds:3 in
      let b = W.requests w ~seed:7 ~quick:false ~rounds:3 in
      let c = W.requests w ~seed:8 ~quick:false ~rounds:3 in
      Alcotest.(check (list string)) (w.W.name ^ ": same seed, same list") (kinds a) (kinds b);
      Alcotest.(check bool) (w.W.name ^ ": another seed, another order") true (kinds a <> kinds c);
      Alcotest.(check (list string))
        (w.W.name ^ ": another seed, same mix")
        (List.sort compare (kinds a))
        (List.sort compare (kinds c));
      Alcotest.(check int) (w.W.name ^ ": whole rounds") (3 * W.round_size w ~quick:false) (List.length a))
    W.all

(* A fresh cache filled with singly_linked/Verus (two passes, as the
   benchmark's set-up does), then one edited request against it. *)
let edited edit =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "verus-perf-test-%s-%d" (W.edit_string edit) (Unix.getpid ()))
  in
  Run.clear_cache dir;
  let config = Driver.Config.(default |> with_cache dir |> with_certify true) in
  let verify prog = Driver.verify_program ~config Profiles.verus prog in
  let base = W.program "singly_linked" in
  let before = verify base in
  ignore (verify base);
  let req = { W.id = 41; kind = W.k ~edit "singly_linked" "Verus" } in
  let after = verify (W.request_program req) in
  let st = Option.get after.Driver.pr_cache in
  (before, after, st)

let test_rename () =
  let before, after, st = edited W.Rename in
  Alcotest.(check int) "no invalidations" 0 st.Vcache.invalidations;
  Alcotest.(check int) "no misses" 0 st.Vcache.misses;
  Alcotest.(check int) "every obligation hits" (Run.vcs_of before None) st.Vcache.hits;
  Alcotest.(check bool) "verdict unchanged" before.Driver.pr_ok after.Driver.pr_ok

let test_touch () =
  let before, after, st = edited W.Touch in
  let touched = Run.vcs_of after (Some (W.touched_fn "singly_linked")) in
  Alcotest.(check bool) "the touched function has obligations" true (touched > 0);
  Alcotest.(check int) "invalidations = the touched function's obligations" touched
    st.Vcache.invalidations;
  Alcotest.(check int) "no misses" 0 st.Vcache.misses;
  Alcotest.(check bool) "verdict unchanged" before.Driver.pr_ok after.Driver.pr_ok;
  Alcotest.(check bool) "still the table's answer" true
    (Answers.check ~program:"singly_linked" ~profile:"Verus" after = Ok ())

let span ~id ~parent t0 t1 = { Span.id; parent; name = Printf.sprintf "s%d" id; req = 0; tid = 0; t0; t1 }

let test_self_time () =
  let spans =
    [
      span ~id:1 ~parent:0 0.0 10.0;
      (* overlapping children cover [1, 5]; the last one is clipped to [8, 10] *)
      span ~id:2 ~parent:1 1.0 3.0;
      span ~id:3 ~parent:1 2.0 5.0;
      span ~id:4 ~parent:1 8.0 12.0;
      (* a grandchild counts against its parent only *)
      span ~id:5 ~parent:3 2.5 4.0;
    ]
  in
  let self = Span.self_times spans in
  let of_id id = snd (List.find (fun ((s : Span.t), _) -> s.Span.id = id) self) in
  Alcotest.(check (float 1e-9)) "parent" 4.0 (of_id 1);
  Alcotest.(check (float 1e-9)) "child without children" 2.0 (of_id 2);
  Alcotest.(check (float 1e-9)) "child with a grandchild" 1.5 (of_id 3);
  Alcotest.(check (float 1e-9)) "leaf" 1.5 (of_id 5)

let test_trace_format () =
  let r = Span.recorder () in
  Span.set_request r 3;
  Span.within r "request" (fun () -> Span.within r "smt" (fun () -> ignore (Sys.opaque_identity 1)));
  let spans = Span.spans r in
  let text = J.to_string (Span.to_chrome ~epoch:0.0 spans) in
  match J.of_string text with
  | Error e -> Alcotest.fail ("trace does not parse: " ^ e)
  | Ok doc ->
    Alcotest.(check (result int string)) "Chrome trace-event fields" (Ok 2) (Span.validate_chrome doc);
    let child = List.find (fun (s : Span.t) -> s.Span.name = "smt") spans in
    let parent = List.find (fun (s : Span.t) -> s.Span.name = "request") spans in
    Alcotest.(check int) "child points at its parent" parent.Span.id child.Span.parent;
    Alcotest.(check int) "spans carry the request id" 3 child.Span.req

(* BENCHMARK.json sits at the workspace root. *)
let benchmark = lazy (Result.get_ok (J.of_string (In_channel.with_open_text "../../../BENCHMARK.json" In_channel.input_all)))

let declared key =
  match J.member key (Lazy.force benchmark) with
  | Some (J.List ms) ->
    List.map
      (fun m ->
        match (J.member "name" m, J.member "unit" m, J.member "better" m) with
        | Some (J.String n), Some (J.String u), Some (J.String b) -> (n, u, b)
        | _ -> Alcotest.fail ("malformed metric in " ^ key))
      ms
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let rendered ms =
  List.map
    (fun (m : Metrics.m) ->
      (m.Metrics.name, m.Metrics.unit_, match m.Metrics.better with `Lower -> "lower" | `Higher -> "higher"))
    ms

(* The names a run prints: run a quick workload in both modes and parse
   the result line each prints. *)
let printed_names trace =
  let o =
    {
      Run.seed = 1;
      seconds = 1.0;
      quick = true;
      workdir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "verus-perf-test-%d" (Unix.getpid ()));
      trace_out = None;
    }
  in
  let r = (if trace then Run.traced else Run.untraced) W.cold_suite o in
  Alcotest.(check bool) "the quick run is correct" true r.Run.correct;
  let declared = if trace then Metrics.per_layer else Metrics.end_to_end in
  let line =
    Metrics.result_line ~correct:r.Run.correct ~attempted:r.Run.attempted ~failed:r.Run.failed ~declared
      r.Run.values
  in
  match J.of_string line with
  | Ok j -> (
    match J.member "metrics" j with
    | Some (J.Obj ms) -> List.map fst ms
    | _ -> Alcotest.fail "no metrics object")
  | Error e -> Alcotest.fail ("result line does not parse: " ^ e)

let test_metric_names () =
  Alcotest.(check (list (triple string string string))) "end_to_end as declared"
    (declared "end_to_end") (rendered Metrics.end_to_end);
  Alcotest.(check (list (triple string string string))) "per_layer as declared" (declared "per_layer")
    (rendered Metrics.per_layer);
  List.iter
    (fun trace ->
      let names = printed_names trace in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " is a valid name") true (Metrics.valid_name n);
          Alcotest.(check bool) (n ^ " is declared") true (Metrics.find n <> None))
        names;
      Alcotest.(check int) "every declared metric is printed"
        (List.length (if trace then Metrics.per_layer else Metrics.end_to_end))
        (List.length names))
    [ false; true ]

let test_statistics () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  let q1, q2, q3 = Stats.quartiles xs in
  Alcotest.(check (list (float 1e-9))) "Python's exclusive quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-9)) "symmetric median" 3.0 (Stats.median [ 5.; 1.; 3.; 2.; 4. ]);
  Alcotest.(check (float 1e-9)) "Harrell-Davis median of 1..10" 5.5 (Stats.median xs);
  Alcotest.(check bool) "p90 above p50" true (Stats.quantile xs 0.9 > Stats.quantile xs 0.5);
  Alcotest.(check (float 1e-9)) "geometric mean" 4.0 (Stats.geomean [ 2.; 8. ])

let test_compare_labels () =
  let a = [ 1.00; 1.01; 0.99; 1.02; 0.98 ] in
  let label b = Compare.label ~lower:true ~bound:0.1 a b in
  Alcotest.(check string) "20% slower" "worse" (label (List.map (fun x -> x *. 1.2) a));
  Alcotest.(check string) "every run faster" "improved" (label (List.map (fun x -> x *. 0.8) a));
  Alcotest.(check string) "same numbers" "unchanged" (label a);
  Alcotest.(check string) "spread wider than the bound" "unresolved" (label [ 0.6; 1.4; 0.7; 1.3; 1.0 ])

let () =
  Alcotest.run "perf"
    [
      ("workloads", [ Alcotest.test_case "seeded request lists" `Quick test_request_lists ]);
      ( "edits",
        [
          Alcotest.test_case "rename keeps every hit" `Quick test_rename;
          Alcotest.test_case "touch invalidates one function" `Quick test_touch;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "Chrome trace format" `Quick test_trace_format;
        ] );
      ("metrics", [ Alcotest.test_case "names match BENCHMARK.json" `Quick test_metric_names ]);
      ( "statistics",
        [
          Alcotest.test_case "quantiles" `Quick test_statistics;
          Alcotest.test_case "compare labels" `Quick test_compare_labels;
        ] );
    ]
