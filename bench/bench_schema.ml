(* The schemas of the paper-figure BENCH_*.json documents the bench
   harness writes and self-validates.  They live next to the harness, not
   in the libraries whose numbers they record. *)

module J = Vbase.Json

let ( let* ) = Result.bind

(* One set of accessors: [need what o key kind] is the value of [key] in
   [o], or an error naming [what] and [key]. *)
let str = function J.String s -> Some s | _ -> None
let num = J.to_float
let int_ = function J.Int n -> Some n | _ -> None
let bool_ = function J.Bool b -> Some b | _ -> None
let obj = function J.Obj _ as o -> Some o | _ -> None
let rows = function J.List (_ :: _ as l) -> Some l | _ -> None

let need what o key kind =
  match Option.bind (J.member key o) kind with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or mistyped %S" what key)

let check cond msg = if cond then Ok () else Error msg

let schema_is want j =
  match J.member "schema" j with
  | Some (J.String s) when s = want -> Ok ()
  | Some (J.String s) -> Error (Printf.sprintf "schema %S (expected %s)" s want)
  | _ -> Error "missing schema tag"

let each xs f = List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) xs

(* ------------------------- BENCH_analyze.json ------------------------ *)

let analyze_schema = "verus-analyze-bench/1"

let validate_analyze j =
  let* () = schema_is analyze_schema j in
  let* rs = need "doc" j "rows" rows in
  let* () =
    each rs (fun row ->
        let* _ = need "rows[]" row "profile" str in
        let* _ = need "rows[]" row "program" str in
        let* vcs = need "rows[]" row "vcs" int_ in
        let* disch = need "rows[]" row "discharged" int_ in
        let* () = check (disch >= 0 && disch <= vcs) "rows[]: discharged out of [0, vcs]" in
        let* _ = need "rows[]" row "base_s" num in
        let* _ = need "rows[]" row "analyze_s" num in
        let* _ = need "rows[]" row "base_bytes" int_ in
        let* _ = need "rows[]" row "analyze_bytes" int_ in
        let* ok = need "rows[]" row "verified_equal" bool_ in
        check ok "rows[]: verified_equal is false")
  in
  let* totals = need "doc" j "totals" obj in
  let* total = need "totals" totals "total_vcs" int_ in
  let* disch = need "totals" totals "total_discharged" int_ in
  let* rate = need "totals" totals "discharge_rate" num in
  let* () = check (rate >= 0.0 && rate <= 1.0) "discharge_rate out of [0,1]" in
  let* () = check (disch >= 0 && disch <= total) "total_discharged out of [0, total_vcs]" in
  check (disch > 0) "total_discharged is zero (prescreen discharged nothing)"

(* ------------------------- BENCH_ladder.json ------------------------- *)

let ladder_schema = "verus-ladder-bench/1"

(* Each row runs one program x profile three ways: monolithic, cold
   escalate ladder, warm profile-guided.  Beyond shape, the validator
   pins the soundness bits (the three digests agree, warm runs waste no
   lower-rung attempt) and the point of the exercise (some row's warm
   run beats its monolithic one). *)
let validate_ladder j =
  let* () = schema_is ladder_schema j in
  let* _ = need "doc" j "ladder" str in
  let* rs = need "doc" j "rows" rows in
  let* improved =
    List.fold_left
      (fun acc row ->
        let* improved = acc in
        let* _ = need "rows[]" row "program" str in
        let* _ = need "rows[]" row "profile" str in
        let* mono_s = need "rows[]" row "monolithic_s" num in
        let* _ = need "rows[]" row "ladder_s" num in
        let* warm_s = need "rows[]" row "warm_s" num in
        let* _ = need "rows[]" row "escalations" int_ in
        let* _ = need "rows[]" row "hint_starts" int_ in
        let* wasted = need "rows[]" row "warm_wasted_attempts" int_ in
        let* () =
          check (wasted = 0)
            (Printf.sprintf "rows[]: warm run wasted %d lower-rung attempts" wasted)
        in
        let* verdicts = need "rows[]" row "verdicts_equal" bool_ in
        let* wins = need "rows[]" row "wins_per_rung" rows in
        let wins = List.map int_ wins in
        let* () =
          check
            (List.for_all (function Some n -> n >= 0 | None -> false) wins)
            "rows[]: wins_per_rung missing or mistyped"
        in
        let* () =
          check
            (List.exists (function Some n -> n > 0 | None -> false) wins)
            "rows[]: no obligation won at any rung"
        in
        let* () = check verdicts "rows[]: verdicts_equal is false" in
        Ok (improved || warm_s < mono_s))
      (Ok false) rs
  in
  let* () = check improved "no row's warm profile-guided run beat the monolithic one" in
  let* warm = need "doc" j "warm" obj in
  let* _ = need "warm" warm "cache_hits" int_ in
  let* _ = need "warm" warm "hint_starts" int_ in
  let* wasted = need "warm" warm "wasted_lower_rung_attempts" int_ in
  let* () =
    check (wasted = 0) (Printf.sprintf "warm run wasted %d lower-rung attempts" wasted)
  in
  let* ok = need "warm" warm "digest_equal_cold" bool_ in
  check ok "warm.digest_equal_cold is false"

(* ------------------------- BENCH_daemon.json ------------------------- *)

let daemon_schema = "verus-daemon-bench/1"

(* The cold suite comparison (per-program rows with digest agreement),
   the warm shared-cache pass, and the burst queue-latency percentiles
   per domain count. *)
let validate_daemon j =
  let* () = schema_is daemon_schema j in
  let* cold = need "doc" j "cold" obj in
  let* _ = need "cold" cold "baseline_jobs" int_ in
  let* _ = need "cold" cold "baseline_total_s" num in
  let* _ = need "cold" cold "daemon_total_s" num in
  let* rs = need "cold" cold "rows" rows in
  let* () =
    each rs (fun row ->
        let* _ = need "cold.rows[]" row "program" str in
        let* _ = need "cold.rows[]" row "baseline_s" num in
        let* _ = need "cold.rows[]" row "daemon_s" num in
        let* ok = need "cold.rows[]" row "digest_equal" bool_ in
        check ok "cold.rows[]: digest_equal is false")
  in
  let* warm = need "doc" j "warm" obj in
  let* _ = need "warm" warm "hits" int_ in
  let* _ = need "warm" warm "misses" int_ in
  let* rate = need "warm" warm "hit_rate" num in
  let* () = check (rate >= 0.0 && rate <= 1.0) "warm.hit_rate out of [0,1]" in
  let* bursts = need "doc" j "burst" rows in
  each bursts (fun b ->
      let* _ = need "burst[]" b "domains" int_ in
      let* _ = need "burst[]" b "tasks" int_ in
      each [ "p50_us"; "p90_us"; "p99_us" ] (fun k -> Result.map ignore (need "burst[]" b k num)))

(* --------------------------- BENCH_kv.json --------------------------- *)

let kv_schema = "verus-kv-bench/1"

let kv_row ~name ~acked_write_loss (r : Ironkv.Workload.result) =
  J.Obj
    [
      ("name", J.String name);
      ("ops", J.Int r.Ironkv.Workload.ops_done);
      ("kops_per_s", J.Float r.Ironkv.Workload.kops_per_s);
      ("lat_p50_ms", J.Float r.Ironkv.Workload.lat_p50_ms);
      ("lat_p99_ms", J.Float r.Ironkv.Workload.lat_p99_ms);
      ("crashes", J.Int r.Ironkv.Workload.crashes);
      ("recoveries", J.Int r.Ironkv.Workload.recoveries);
      ("recovery_s", J.Float r.Ironkv.Workload.recovery_s);
      ("replayed", J.Int r.Ironkv.Workload.replayed);
      ("commits", J.Int r.Ironkv.Workload.commits);
      ("retransmissions", J.Int r.Ironkv.Workload.retransmissions);
      ("acked_write_loss", J.Int acked_write_loss);
    ]

let kv_doc rows = J.Obj [ ("schema", J.String kv_schema); ("rows", J.List rows) ]

let validate_kv j =
  let* () = schema_is kv_schema j in
  let* rs = need "doc" j "rows" rows in
  each rs (fun row ->
      let* _ = need "rows[]" row "name" str in
      each
        [
          "kops_per_s"; "lat_p50_ms"; "lat_p99_ms"; "crashes"; "recoveries"; "recovery_s";
          "acked_write_loss";
        ]
        (fun k ->
          let* v = need "rows[]" row k num in
          check (v >= 0.0) (Printf.sprintf "rows[]: %S is negative" k)))
