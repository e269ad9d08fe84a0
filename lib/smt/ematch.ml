type quant_entry = {
  qterm : Term.t;
  q : Term.quant;
  qguard : int option;
  groups : Term.t list list;
  label : string; (* stable profile identity (Profile.label_of) *)
  heads : string list; (* trigger head-symbol names, sorted *)
  mutable produced : int; (* instances generated so far (fuel accounting) *)
  mutable matched : int; (* candidate substitutions considered *)
  mutable duplicates : int; (* candidates discarded by the dedup table *)
  mutable first_round : int; (* 1-based round of first emission; 0 = never *)
  mutable last_round : int;
}

type instance = { quant : Term.t; guard : int option; body : Term.t }

type t = {
  policy : Triggers.policy;
  by_head : (int, Term.t list ref) Hashtbl.t; (* sym id -> ground app terms *)
  by_sort : (Sort.t, Term.t list ref) Hashtbl.t; (* ground leaf terms by sort *)
  indexed : (int, unit) Hashtbl.t; (* term tids already indexed *)
  mutable quants : quant_entry list;
  quant_ids : (int, unit) Hashtbl.t;
  seen_instances : (int * int list, unit) Hashtbl.t; (* (quant tid, arg ids) *)
  mutable n_instances : int;
  mutable n_matches_tried : int;
  mutable round_no : int; (* instantiation rounds run so far *)
}

let create policy =
  {
    policy;
    by_head = Hashtbl.create 64;
    by_sort = Hashtbl.create 16;
    indexed = Hashtbl.create 256;
    quants = [];
    quant_ids = Hashtbl.create 16;
    seen_instances = Hashtbl.create 256;
    n_instances = 0;
    n_matches_tried = 0;
    round_no = 0;
  }

let bucket tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add tbl key r;
    r

let add_ground t tm =
  Term.fold_subterms
    (fun () s ->
      if not (Hashtbl.mem t.indexed s.Term.tid) then begin
        match s.Term.node with
        | Term.Forall _ | Term.Exists _ -> ()
        | Term.App (f, args) when Term.is_ground s ->
          Hashtbl.add t.indexed s.Term.tid ();
          if args <> [] then begin
            let b = bucket t.by_head f.Term.sid in
            b := s :: !b
          end
          else begin
            let b = bucket t.by_sort s.Term.sort in
            b := s :: !b
          end
        | Term.Int_lit _ when Term.is_ground s ->
          Hashtbl.add t.indexed s.Term.tid ();
          let b = bucket t.by_sort s.Term.sort in
          b := s :: !b
        | _ -> ()
      end)
    () tm

let add_quant t ~guard tm =
  if not (Hashtbl.mem t.quant_ids tm.Term.tid) then begin
    Hashtbl.add t.quant_ids tm.Term.tid ();
    match tm.Term.node with
    | Term.Forall q ->
      let groups = Triggers.select t.policy q in
      let patterns = List.concat groups in
      let heads =
        List.filter_map
          (fun (p : Term.t) ->
            match p.Term.node with Term.App (f, _) -> Some f.Term.sname | _ -> None)
          patterns
        |> List.sort_uniq compare
      in
      let label = Profile.label_of ~nvars:(List.length q.Term.qvars) ~patterns in
      t.quants <-
        {
          qterm = tm;
          q;
          qguard = guard;
          groups;
          label;
          heads;
          produced = 0;
          matched = 0;
          duplicates = 0;
          first_round = 0;
          last_round = 0;
        }
        :: t.quants;
      (* Ground subterms of the body seed the index, so that axioms can
         instantiate even when no ground assertion mentions their symbols. *)
      add_ground t q.Term.body
    | _ -> invalid_arg "Ematch.add_quant: not a forall"
  end

(* --- congruence-aware matching -------------------------------------- *)

(* The optional [euf] makes matching work modulo the current E-graph (as in
   production SMT solvers): a pattern subterm can match any term in the
   candidate's equivalence class.  Member exploration is capped to keep
   matching linear-ish. *)

let members_cap = 12

let class_members euf (c : Term.t) =
  match euf with
  | None -> [ c ]
  | Some e ->
    let ms = Euf.class_members e c in
    let ms = if List.exists (Term.equal c) ms then ms else c :: ms in
    List.filteri (fun i _ -> i < members_cap) ms

let equal_mod euf a b =
  Term.equal a b
  ||
  match euf with
  | None -> false
  | Some e -> ( match (Euf.class_id e a, Euf.class_id e b) with
    | Some x, Some y -> x = y
    | _ -> false)

let rec pmatch t ~euf subst (pat : Term.t) (cand : Term.t) =
  t.n_matches_tried <- t.n_matches_tried + 1;
  match pat.Term.node with
  | Term.Bvar (x, s) -> (
    match List.assoc_opt x subst with
    | Some bound -> if equal_mod euf bound cand then Some subst else None
    | None -> if Sort.equal s cand.Term.sort then Some ((x, cand) :: subst) else None)
  | _ ->
    if Term.is_ground pat then
      if equal_mod euf pat cand then Some subst else None
    else
      (* Try a structural match against each member of the candidate's
         equivalence class. *)
      List.find_map (fun c' -> shape_match t ~euf subst pat c') (class_members euf cand)

and shape_match t ~euf subst (pat : Term.t) (cand : Term.t) =
  match (pat.Term.node, cand.Term.node) with
  | Term.App (f, ps), Term.App (g, cs) when Term.Sym.equal f g -> match_lists t ~euf subst ps cs
  | Term.Eq (p1, p2), Term.Eq (c1, c2) -> match_lists t ~euf subst [ p1; p2 ] [ c1; c2 ]
  | Term.Not p, Term.Not c -> pmatch t ~euf subst p c
  | Term.Add ps, Term.Add cs when List.length ps = List.length cs ->
    match_lists t ~euf subst ps cs
  | Term.Sub (p1, p2), Term.Sub (c1, c2)
  | Term.Mul (p1, p2), Term.Mul (c1, c2)
  | Term.Le (p1, p2), Term.Le (c1, c2)
  | Term.Lt (p1, p2), Term.Lt (c1, c2)
  | Term.Idiv (p1, p2), Term.Idiv (c1, c2)
  | Term.Imod (p1, p2), Term.Imod (c1, c2) -> match_lists t ~euf subst [ p1; p2 ] [ c1; c2 ]
  | Term.Neg p, Term.Neg c -> pmatch t ~euf subst p c
  | Term.Ite (p1, p2, p3), Term.Ite (c1, c2, c3) ->
    match_lists t ~euf subst [ p1; p2; p3 ] [ c1; c2; c3 ]
  | _ -> None

and match_lists t ~euf subst ps cs =
  match (ps, cs) with
  | [], [] -> Some subst
  | p :: ps, c :: cs -> (
    match pmatch t ~euf subst p c with
    | Some s -> match_lists t ~euf s ps cs
    | None -> None)
  | _ -> None

let pattern_candidates t (pat : Term.t) =
  match pat.Term.node with
  | Term.App (f, _ :: _) -> (
    match Hashtbl.find_opt t.by_head f.Term.sid with Some r -> !r | None -> [])
  | _ -> []

let group_matches t ~euf group =
  let rec go substs = function
    | [] -> substs
    | pat :: rest ->
      let cands = pattern_candidates t pat in
      let substs' =
        List.concat_map
          (fun subst ->
            (* A pattern's top-level candidates come straight from the
               head-symbol index (class exploration happens on children). *)
            List.filter_map (fun c -> shape_match t ~euf subst pat c) cands)
          substs
      in
      if substs' = [] then [] else go substs' rest
  in
  go [ [] ] group

let sort_enumeration t (q : Term.quant) ~cap =
  let rec go subst = function
    | [] -> [ subst ]
    | (x, s) :: rest ->
      let terms = match Hashtbl.find_opt t.by_sort s with Some r -> !r | None -> [] in
      let terms = List.filteri (fun i _ -> i < cap) terms in
      List.concat_map (fun c -> go ((x, c) :: subst) rest) terms
  in
  go [] q.Term.qvars

(* Dedup keys use plain term ids: EUF class ids are not stable across
   rounds (each final check rebuilds the closure), so keying on them can
   collide two genuinely different instances and silently suppress a
   needed one.  Congruent-duplicate instances are merely redundant. *)
let canon_id _euf (tm : Term.t) = Term.hash tm

let round ?euf ?(max_per_quant = max_int) t ~max_instances =
  t.round_no <- t.round_no + 1;
  (* Phase 1: collect fresh instances per quantifier (respecting fuel). *)
  let per_quant =
    List.map
      (fun entry ->
        let fresh = ref [] in
        let n_fresh = ref 0 in
        let consider subst =
          if entry.produced + !n_fresh < max_per_quant && !n_fresh < max_instances then begin
            entry.matched <- entry.matched + 1;
            let args =
              List.map
                (fun (x, _) ->
                  match List.assoc_opt x subst with Some u -> canon_id euf u | None -> min_int)
                entry.q.Term.qvars
            in
            let key = (entry.qterm.Term.tid, args) in
            if not (Hashtbl.mem t.seen_instances key) then begin
              Hashtbl.add t.seen_instances key ();
              incr n_fresh;
              fresh := (entry, subst) :: !fresh
            end
            else entry.duplicates <- entry.duplicates + 1
          end
        in
        (if entry.groups = [] then
           List.iter consider (sort_enumeration t entry.q ~cap:8)
         else
           List.iter
             (fun group -> List.iter consider (group_matches t ~euf group))
             entry.groups);
        List.rev !fresh)
      t.quants
  in
  (* Phase 2: emit fairly, round-robin across quantifiers, so noisy
     quantifiers cannot starve the others within the per-round budget. *)
  let queues = Array.of_list per_quant in
  let queues = Array.map (fun l -> ref l) queues in
  let out = ref [] in
  let n_out = ref 0 in
  let emitted = ref true in
  while !n_out < max_instances && !emitted do
    emitted := false;
    Array.iter
      (fun q ->
        match !q with
        | [] -> ()
        | (entry, subst) :: rest when !n_out < max_instances ->
          q := rest;
          emitted := true;
          let body = Term.subst subst entry.q.Term.body in
          let leftover =
            List.filter (fun (x, _) -> not (List.mem_assoc x subst)) entry.q.Term.qvars
          in
          let body = Term.forall leftover body in
          t.n_instances <- t.n_instances + 1;
          entry.produced <- entry.produced + 1;
          if entry.first_round = 0 then entry.first_round <- t.round_no;
          entry.last_round <- t.round_no;
          incr n_out;
          out := { quant = entry.qterm; guard = entry.qguard; body } :: !out
        | _ -> ())
      queues
  done;
  (* Instances collected but not emitted must be re-discoverable later. *)
  Array.iter
    (List.iter (fun (entry, subst) ->
         let args =
           List.map
             (fun (x, _) ->
               match List.assoc_opt x subst with Some u -> canon_id euf u | None -> min_int)
             entry.q.Term.qvars
         in
         Hashtbl.remove t.seen_instances (entry.qterm.Term.tid, args))
     )
    (Array.map (fun q -> !q) queues);
  !out

let stats_instances t = t.n_instances
let stats_matches_tried t = t.n_matches_tried

let profile t : Profile.quant_profile list =
  Profile.sort_quants
    (List.map
       (fun e ->
         {
           Profile.q_label = e.label;
           q_heads = e.heads;
           q_nvars = List.length e.q.Term.qvars;
           q_instances = e.produced;
           q_matched = e.matched;
           q_duplicates = e.duplicates;
           q_first_round = e.first_round;
           q_last_round = e.last_round;
         })
       t.quants)
