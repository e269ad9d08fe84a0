(* Rung/Ladder: named, fingerprintable solver configurations arranged
   into per-obligation escalation sequences.  See vladder.mli for the
   design; the driver in lib/core owns the retry loop, the steering and
   the cache integration — this module is pure data + arithmetic, so the
   same ladder means the same thing to the CLI, the daemon and the
   bench harness. *)

module Rung = struct
  type triggers = T_profile | T_conservative | T_liberal
  type pruning = P_profile | P_prune | P_full

  type budget_spec =
    | B_profile
    | B_scaled of { deadline : float; rounds : float; instances : float }

  type t = {
    r_name : string;
    r_triggers : triggers;
    r_pruning : pruning;
    r_budget : budget_spec;
  }

  let profile_rung =
    { r_name = "full"; r_triggers = T_profile; r_pruning = P_profile; r_budget = B_profile }

  let triggers_tag = function
    | T_profile -> "profile"
    | T_conservative -> "conservative"
    | T_liberal -> "liberal"

  let pruning_tag = function
    | P_profile -> "profile"
    | P_prune -> "on"
    | P_full -> "full-context"

  let budget_tag = function
    | B_profile -> "profile"
    | B_scaled { deadline; rounds; instances } ->
      (* %h: exact hex floats, so the rendering (and therefore every cache
         fingerprint derived from it) never depends on decimal rounding. *)
      Printf.sprintf "scale:d=%h,r=%h,i=%h" deadline rounds instances

  (* The display name is deliberately excluded: renaming a rung must not
     invalidate cache entries recorded under it, mirroring
     Profiles.solver_fingerprint. *)
  let fingerprint r =
    Printf.sprintf "trig=%s;prune=%s;budget=%s" (triggers_tag r.r_triggers)
      (pruning_tag r.r_pruning) (budget_tag r.r_budget)

  let scale_budget (b : Smt.Solver.budget) ~deadline ~rounds ~instances =
    let s frac x = max 1 (int_of_float (ceil (float_of_int x *. frac))) in
    {
      Smt.Solver.deadline_s = b.Smt.Solver.deadline_s *. deadline;
      max_rounds = s rounds b.Smt.Solver.max_rounds;
      max_instances_per_round = s instances b.Smt.Solver.max_instances_per_round;
      max_instances_per_quant = s instances b.Smt.Solver.max_instances_per_quant;
      sat_conflict_budget = s instances b.Smt.Solver.sat_conflict_budget;
      bb_budget = s instances b.Smt.Solver.bb_budget;
      combination_pairs_per_round = s instances b.Smt.Solver.combination_pairs_per_round;
      ring_pairs_budget = s instances b.Smt.Solver.ring_pairs_budget;
    }

  let apply_config r (cfg : Smt.Solver.config) =
    let cfg =
      match r.r_triggers with
      | T_profile -> cfg
      | T_conservative -> { cfg with Smt.Solver.trigger_policy = Smt.Triggers.Conservative }
      | T_liberal -> { cfg with Smt.Solver.trigger_policy = Smt.Triggers.Liberal }
    in
    match r.r_budget with
    | B_profile -> cfg
    | B_scaled { deadline; rounds; instances } ->
      {
        cfg with
        Smt.Solver.budget = scale_budget cfg.Smt.Solver.budget ~deadline ~rounds ~instances;
      }

  let apply_pruning r profile_prunes =
    match r.r_pruning with
    | P_profile -> profile_prunes
    | P_prune -> true
    | P_full -> false
end

module Ladder = struct
  type t = { l_name : string; l_rungs : Rung.t array }

  let make ?(name = "custom") rungs =
    if rungs = [] then invalid_arg "Vladder.Ladder.make: a ladder needs at least one rung";
    { l_name = name; l_rungs = Array.of_list rungs }

  let name l = l.l_name
  let rungs l = Array.copy l.l_rungs
  let length l = Array.length l.l_rungs
  let rung l i = l.l_rungs.(i)

  let schema_version = "verus-ladder/1"

  let fingerprint l =
    let b = Buffer.create 256 in
    Buffer.add_string b schema_version;
    Array.iter
      (fun r ->
        Buffer.add_char b '|';
        Buffer.add_string b (Rung.fingerprint r))
      l.l_rungs;
    Vbase.Hash.string128 (Buffer.contents b)

  let widens l =
    Array.exists (fun (r : Rung.t) -> r.Rung.r_pruning = Rung.P_full) l.l_rungs

  let identity = make ~name:"profile" [ Rung.profile_rung ]

  let quick =
    {
      Rung.r_name = "quick";
      r_triggers = Rung.T_conservative;
      r_pruning = Rung.P_prune;
      r_budget = Rung.B_scaled { deadline = 0.25; rounds = 0.25; instances = 0.25 };
    }

  let steady =
    {
      Rung.r_name = "steady";
      r_triggers = Rung.T_profile;
      r_pruning = Rung.P_profile;
      r_budget = Rung.B_scaled { deadline = 0.5; rounds = 0.5; instances = 0.5 };
    }

  let escalate = make ~name:"escalate" [ quick; steady; Rung.profile_rung ]

  let deep =
    make ~name:"deep"
      [
        quick;
        {
          Rung.r_name = "wide";
          r_triggers = Rung.T_liberal;
          r_pruning = Rung.P_profile;
          r_budget = Rung.B_profile;
        };
        Rung.profile_rung;
        {
          Rung.r_name = "boost";
          r_triggers = Rung.T_profile;
          r_pruning = Rung.P_profile;
          r_budget = Rung.B_scaled { deadline = 2.0; rounds = 2.0; instances = 2.0 };
        };
      ]

  let cautious =
    make ~name:"cautious"
      [
        {
          Rung.r_name = "narrow";
          r_triggers = Rung.T_conservative;
          r_pruning = Rung.P_prune;
          r_budget = Rung.B_profile;
        };
        Rung.profile_rung;
      ]

  let builtins = [ ("escalate", escalate); ("deep", deep); ("cautious", cautious) ]

  let by_name n = List.assoc_opt n builtins

  let pin l i =
    if i < 0 || i >= length l then
      Error
        (Printf.sprintf "ladder %s has rungs 0..%d, no rung %d" l.l_name (length l - 1) i)
    else
      Ok (make ~name:(Printf.sprintf "%s@%d" l.l_name i) [ l.l_rungs.(i) ])
end

(* --------------------- bench-document schema ----------------------- *)

module J = Vbase.Json

let bench_schema = "verus-ladder-bench/1"

(* BENCH_ladder.json: the escalation-ladder ablation.  Each row runs the
   same program x profile three ways — monolithic (ladder-free), cold
   escalate ladder (fills a cache), and warm profile-guided (jumps each
   obligation straight to its recorded winning rung).  The validator
   pins the soundness bits (all three digests equal, warm runs waste
   zero lower-rung attempts) and the point of the exercise (at least
   one row where the warm run beats the monolithic one). *)
let validate_ladder_bench (j : J.t) =
  let ( let* ) = Result.bind in
  let str o k = match J.member k o with Some (J.String s) -> Some s | _ -> None in
  let num o k = match J.member k o with Some v -> J.to_float v | None -> None in
  let int_ o k = match J.member k o with Some (J.Int n) -> Some n | _ -> None in
  let bool_ o k = match J.member k o with Some (J.Bool b) -> Some b | _ -> None in
  let need what o k f =
    match f o k with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing or mistyped %S" what k)
  in
  let* () =
    match str j "schema" with
    | Some s when s = bench_schema -> Ok ()
    | Some s -> Error (Printf.sprintf "schema %S (expected %s)" s bench_schema)
    | None -> Error "missing schema tag"
  in
  let* _ = need "doc" j "ladder" str in
  let* rows =
    match J.member "rows" j with
    | Some (J.List (_ :: _ as rows)) -> Ok rows
    | _ -> Error "rows: missing or empty"
  in
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
          if wasted = 0 then Ok ()
          else Error (Printf.sprintf "rows[]: warm run wasted %d lower-rung attempts" wasted)
        in
        let* verdicts = need "rows[]" row "verdicts_equal" bool_ in
        let* wins =
          match J.member "wins_per_rung" row with
          | Some (J.List (_ :: _ as ws))
            when List.for_all (function J.Int n -> n >= 0 | _ -> false) ws ->
            Ok ws
          | _ -> Error "rows[]: wins_per_rung missing or mistyped"
        in
        let* () =
          if List.exists (function J.Int n -> n > 0 | _ -> false) wins then Ok ()
          else Error "rows[]: no obligation won at any rung"
        in
        if verdicts then Ok (improved || warm_s < mono_s)
        else Error "rows[]: verdicts_equal is false")
      (Ok false) rows
  in
  let* () =
    if improved then Ok ()
    else Error "no row's warm profile-guided run beat the monolithic one"
  in
  let* warm =
    match J.member "warm" j with
    | Some (J.Obj _ as w) -> Ok w
    | _ -> Error "missing warm object"
  in
  let* _ = need "warm" warm "cache_hits" int_ in
  let* _ = need "warm" warm "hint_starts" int_ in
  let* wasted = need "warm" warm "wasted_lower_rung_attempts" int_ in
  let* () =
    if wasted = 0 then Ok ()
    else Error (Printf.sprintf "warm run wasted %d lower-rung attempts" wasted)
  in
  let* ok = need "warm" warm "digest_equal_cold" bool_ in
  if ok then Ok () else Error "warm.digest_equal_cold is false"
