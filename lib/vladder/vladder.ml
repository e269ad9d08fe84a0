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
