(* Every metric the benchmark prints, with its unit and direction.  The
   test suite checks these lists against BENCHMARK.json. *)

type m = { name : string; unit_ : string; better : [ `Lower | `Higher ] }

let m ?(better = `Lower) name unit_ = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s";
    m "wall_s" "s";
    m ~better:`Higher "vcs_per_s" "1/s";
    m "verdict_geomean_s" "s";
    m "verdict_p50_s" "s";
    m "verdict_p90_s" "s";
    m "peak_rss_mb" "MiB";
  ]

(* Seconds for the layers every workload's replay crosses; for the
   layers only some workloads cross (prescreen, cache, ladder, kernel,
   daemon), the share of the replay's wall time they took, so that a
   workload that bypasses a layer reads 0 of a share rather than a
   time. *)
let per_layer =
  [
    m "frontend.self_s" "s";
    m "encode.self_s" "s";
    m "encode.vcs" "count";
    m "context.self_s" "s";
    m "context.axioms_kept_ratio" "fraction";
    m "context.query_kb" "KiB";
    m "prescreen.share" "fraction";
    m ~better:`Higher "prescreen.discharged_ratio" "fraction";
    m "vcache.share" "fraction";
    m ~better:`Higher "vcache.hit_ratio" "fraction";
    m "vcache.invalidations" "count";
    m "vcache.store_kb" "KiB";
    m "vladder.attempts" "count";
    m "vladder.escalations" "count";
    m ~better:`Higher "vladder.useful_ratio" "fraction";
    m "vladder.escalated_share" "fraction";
    m "smt.self_s" "s";
    m "smt.sat_s" "s";
    m "smt.euf_s" "s";
    m "smt.lia_s" "s";
    m "smt.comb_s" "s";
    m "smt.ematch_s" "s";
    m "smt.instances" "count";
    m "smt.conflicts" "count";
    m "smt.rounds" "count";
    m "smt.unknown" "count";
    m "modes.calls" "count";
    m "vcheck.share" "fraction";
    m "vcheck.certs" "count";
    m "vcheck.rejected" "count";
    m "rpc.frames" "count";
    m "rpc.kb" "KiB";
    m "rpc.codec_share" "fraction";
    m "daemon.wait_ratio" "fraction";
    m "sched.stolen" "count";
    m "sched.executed" "count";
    m "trace.overhead_ratio" "fraction";
  ]

let all = end_to_end @ per_layer
let find name = List.find_opt (fun d -> d.name = name) all

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       s

(* The result line: exactly the declared metrics of the mode, in order.
   Values are printed with every digit ([%.17g]; Vbase.Json keeps six). *)
let result_line ~correct ~attempted ~failed ~(declared : m list) values =
  let metric d =
    match List.assoc_opt d.name values with
    | Some v when Float.is_finite v ->
      Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" d.name v d.unit_
    | Some _ -> invalid_arg ("metric is not a finite number: " ^ d.name)
    | None -> invalid_arg ("metric not computed: " ^ d.name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric declared))
