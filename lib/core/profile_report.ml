module J = Vbase.Json
module P = Smt.Profile

(* /2 added the "cache" key (verification-cache counters, null when the
   run had no cache configured). *)
let schema_version = "verus-profile/2"

let required_keys =
  [
    "schema";
    "program";
    "profile";
    "ok";
    "time_s";
    "query_bytes";
    "vcs_profiled";
    "phase";
    "inst_rounds";
    "euf_conflicts";
    "lia_conflicts";
    "theory_lemmas";
    "quantifiers";
    "axioms";
    "functions";
    "lint";
    "cache";
  ]

(* ------------------------------------------------------------------ *)
(* VL010 cross-check                                                   *)
(* ------------------------------------------------------------------ *)

let vl010_cross_check (r : Driver.program_result) =
  match r.Driver.pr_prof with
  | None -> None
  | Some pp -> (
    let heads = Vlint.vl010_heads r.Driver.pr_lint in
    match pp.Driver.pp_smt.P.quants with
    | [] -> None
    | top :: _ when top.P.q_instances = 0 -> None
    | top :: _ ->
      Some (heads, List.exists (fun h -> List.mem h top.P.q_heads) heads))

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)
(* ------------------------------------------------------------------ *)

let truncate_label width s =
  if String.length s <= width then s else String.sub s 0 (width - 3) ^ "..."

let render_text ?(top = 10) ~prog_name (r : Driver.program_result) =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  match r.Driver.pr_prof with
  | None ->
    pf
      "no profile collected for %s / %s (front-end rejection, strict lint abort, or \
       profiling not requested)\n"
      prog_name r.Driver.pr_profile;
    Buffer.contents b
  | Some pp ->
    let smt = pp.Driver.pp_smt in
    pf "== profile: %s / %s ==\n" prog_name r.Driver.pr_profile;
    pf "verdict: %s in %.3fs — %d function(s), %d VC(s) profiled, %d query bytes\n"
      (if r.Driver.pr_ok then "VERIFIED" else "NOT VERIFIED")
      r.Driver.pr_time_s
      (List.length r.Driver.pr_fns)
      pp.Driver.pp_vcs r.Driver.pr_bytes;
    let ph = smt.P.phase in
    pf
      "phase times: sat %.3fs | euf %.3fs | lia %.3fs | comb %.3fs | ematch %.3fs   \
       (inst rounds %d, euf conflicts %d, lia conflicts %d, theory lemmas %d)\n"
      ph.P.ph_sat ph.P.ph_euf ph.P.ph_lia ph.P.ph_comb ph.P.ph_ematch smt.P.inst_rounds
      smt.P.euf_conflicts smt.P.lia_conflicts smt.P.theory_lemmas;
    (* Quantifier hot-spots. *)
    pf "\ntop %d quantifiers by instantiation:\n" top;
    pf "  %4s %10s %10s %8s %7s  %s\n" "#" "instances" "matched" "dup" "rounds" "quantifier";
    let rows = P.top top smt in
    if rows = [] then pf "  (no quantifier ever fired)\n"
    else
      List.iteri
        (fun i (q : P.quant_profile) ->
          pf "  %4d %10d %10d %8d %3d..%-3d  %s\n" (i + 1) q.P.q_instances q.P.q_matched
            q.P.q_duplicates q.P.q_first_round q.P.q_last_round
            (truncate_label 100 q.P.q_label))
        rows;
    (* Axiom context-bytes attribution. *)
    pf "\ncontext bytes by axiom (printed size x contexts shipped in):\n";
    pf "  %4s %12s %10s %9s  %s\n" "ax#" "bytes" "contexts" "self" "axiom triggers";
    let axs = List.filteri (fun i _ -> i < top) pp.Driver.pp_axiom_costs in
    List.iter
      (fun (a : Driver.axiom_cost) ->
        pf "  %4d %12d %10d %9d  %s\n" a.Driver.ac_index a.Driver.ac_bytes a.Driver.ac_contexts
          a.Driver.ac_self_bytes
          (truncate_label 100 a.Driver.ac_label))
      axs;
    (* Per-function totals. *)
    pf "\nper-function:\n";
    pf "  %-28s %8s %12s %12s\n" "function" "ok" "time" "instances";
    List.iter
      (fun (f : Driver.fn_result) ->
        let insts =
          match f.Driver.fnr_prof with Some fp -> P.total_instances fp | None -> 0
        in
        pf "  %-28s %8s %11.3fs %12d\n" f.Driver.fnr_name
          (if f.Driver.fnr_ok then "ok" else "FAIL")
          f.Driver.fnr_time_s insts)
      r.Driver.pr_fns;
    (* VL010 cross-check. *)
    (match vl010_cross_check r with
    | None -> pf "\nlint cross-check: no quantifier activity to compare against VL010\n"
    | Some ([], _) ->
      pf
        "\nlint cross-check: no VL010 matching-loop findings to compare against (the axiom \
         set lints clean under this profile, or lint was not run)\n"
    | Some (heads, matches) ->
      pf "\nlint cross-check: VL010 flags trigger heads {%s} — top hot-spot %s\n"
        (String.concat ", " heads)
        (if matches then "MATCHES the flagged matching loop"
         else "does not share a head with the flagged loop"));
    Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let quant_json (q : P.quant_profile) =
  J.Obj
    [
      ("label", J.String q.P.q_label);
      ("heads", J.List (List.map (fun h -> J.String h) q.P.q_heads));
      ("nvars", J.Int q.P.q_nvars);
      ("instances", J.Int q.P.q_instances);
      ("matched", J.Int q.P.q_matched);
      ("duplicates", J.Int q.P.q_duplicates);
      ("first_round", J.Int q.P.q_first_round);
      ("last_round", J.Int q.P.q_last_round);
    ]

let axiom_json (a : Driver.axiom_cost) =
  J.Obj
    [
      ("index", J.Int a.Driver.ac_index);
      ("label", J.String a.Driver.ac_label);
      ("heads", J.List (List.map (fun h -> J.String h) a.Driver.ac_heads));
      ("self_bytes", J.Int a.Driver.ac_self_bytes);
      ("contexts", J.Int a.Driver.ac_contexts);
      ("bytes", J.Int a.Driver.ac_bytes);
    ]

let phase_json (ph : P.phase) =
  J.Obj
    [
      ("sat", J.Float ph.P.ph_sat);
      ("euf", J.Float ph.P.ph_euf);
      ("lia", J.Float ph.P.ph_lia);
      ("comb", J.Float ph.P.ph_comb);
      ("ematch", J.Float ph.P.ph_ematch);
    ]

let fn_json (f : Driver.fn_result) =
  let insts =
    match f.Driver.fnr_prof with Some fp -> P.total_instances fp | None -> 0
  in
  J.Obj
    [
      ("name", J.String f.Driver.fnr_name);
      ("ok", J.Bool f.Driver.fnr_ok);
      ("time_s", J.Float f.Driver.fnr_time_s);
      ("bytes", J.Int f.Driver.fnr_bytes);
      ("instances", J.Int insts);
      ("vcs", J.Int (List.length f.Driver.fnr_vcs));
    ]

let to_json ~prog_name (r : Driver.program_result) =
  let pp =
    match r.Driver.pr_prof with
    | Some pp -> pp
    | None ->
      { Driver.pp_smt = P.empty; pp_axiom_costs = []; pp_vcs = 0 }
  in
  let smt = pp.Driver.pp_smt in
  let lint =
    match vl010_cross_check r with
    | None -> J.Obj [ ("vl010_heads", J.List []); ("top_hotspot_matches_vl010", J.Null) ]
    | Some (heads, matches) ->
      J.Obj
        [
          ("vl010_heads", J.List (List.map (fun h -> J.String h) heads));
          ( "top_hotspot_matches_vl010",
            if heads = [] then J.Null else J.Bool matches );
        ]
  in
  J.Obj
    [
      ("schema", J.String schema_version);
      ("program", J.String prog_name);
      ("profile", J.String r.Driver.pr_profile);
      ("ok", J.Bool r.Driver.pr_ok);
      ("time_s", J.Float r.Driver.pr_time_s);
      ("query_bytes", J.Int r.Driver.pr_bytes);
      ("vcs_profiled", J.Int pp.Driver.pp_vcs);
      ("phase", phase_json smt.P.phase);
      ("inst_rounds", J.Int smt.P.inst_rounds);
      ("euf_conflicts", J.Int smt.P.euf_conflicts);
      ("lia_conflicts", J.Int smt.P.lia_conflicts);
      ("theory_lemmas", J.Int smt.P.theory_lemmas);
      ("quantifiers", J.List (List.map quant_json smt.P.quants));
      ("axioms", J.List (List.map axiom_json pp.Driver.pp_axiom_costs));
      ("functions", J.List (List.map fn_json r.Driver.pr_fns));
      ("lint", lint);
      ( "cache",
        match r.Driver.pr_cache with
        | None -> J.Null
        | Some cs ->
          J.Obj
            [
              ("hits", J.Int cs.Vcache.hits);
              ("misses", J.Int cs.Vcache.misses);
              ("invalidations", J.Int cs.Vcache.invalidations);
              ("stores", J.Int cs.Vcache.stores);
              ("entries_loaded", J.Int cs.Vcache.entries_loaded);
              ("entries_dropped", J.Int cs.Vcache.entries_dropped);
              ("corrupt_load", J.Bool cs.Vcache.corrupt_load);
            ] );
    ]

(* ------------------------------------------------------------------ *)
(* Validation (the CI smoke)                                           *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = Result.bind r f

let require_member key j =
  match J.member key j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing required key %S" key)

let require_number key j =
  match Option.bind (J.member key j) J.to_float with
  | Some _ -> Ok ()
  | None -> Error (Printf.sprintf "key %S missing or not a number" key)

let require_string key j =
  match J.member key j with
  | Some (J.String _) -> Ok ()
  | _ -> Error (Printf.sprintf "key %S missing or not a string" key)

let validate_rows kind required j =
  match j with
  | J.List rows ->
    List.fold_left
      (fun acc row ->
        let* () = acc in
        match row with
        | J.Obj _ ->
          List.fold_left
            (fun acc k ->
              let* () = acc in
              match J.member k row with
              | Some _ -> Ok ()
              | None -> Error (Printf.sprintf "%s row missing key %S" kind k))
            (Ok ()) required
        | _ -> Error (kind ^ " row is not an object"))
      (Ok ()) rows
  | _ -> Error (kind ^ " is not an array")

let validate j =
  let* () =
    match j with J.Obj _ -> Ok () | _ -> Error "document is not a JSON object"
  in
  let* () =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        let* _ = require_member k j in
        Ok ())
      (Ok ()) required_keys
  in
  let* () =
    match J.member "schema" j with
    | Some (J.String s) when s = schema_version -> Ok ()
    | Some (J.String s) -> Error (Printf.sprintf "schema %S, expected %S" s schema_version)
    | _ -> Error "schema key is not a string"
  in
  let* () = require_string "program" j in
  let* () = require_string "profile" j in
  let* phase = require_member "phase" j in
  let* () =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        require_number k phase)
      (Ok ())
      [ "sat"; "euf"; "lia"; "comb"; "ematch" ]
  in
  let* quants = require_member "quantifiers" j in
  let* () =
    validate_rows "quantifier"
      [ "label"; "heads"; "instances"; "matched"; "duplicates" ]
      quants
  in
  let* axioms = require_member "axioms" j in
  let* () = validate_rows "axiom" [ "index"; "label"; "bytes"; "contexts" ] axioms in
  let* fns = require_member "functions" j in
  let* () = validate_rows "function" [ "name"; "ok"; "time_s"; "instances" ] fns in
  let* lint = require_member "lint" j in
  let* _ = require_member "vl010_heads" lint in
  let* _ = require_member "top_hotspot_matches_vl010" lint in
  let* cache = require_member "cache" j in
  let* () =
    match cache with
    | J.Null -> Ok ()
    | J.Obj _ ->
      List.fold_left
        (fun acc k ->
          let* () = acc in
          require_number k cache)
        (Ok ())
        [ "hits"; "misses"; "invalidations"; "stores" ]
    | _ -> Error "cache is neither null nor an object"
  in
  Ok ()
