(* EPR: fragment check, skolemization (the solver's {!Solver.nnf}),
   sort-graph acyclicity, finite grounding. *)

(* ------------------------------------------------------------------ *)
(* Fragment check                                                      *)
(* ------------------------------------------------------------------ *)

(* An offending term as the cache fingerprints render it: fresh symbols
   numbered by first occurrence, commutative operands in structural order,
   so the reason (which result digests hash) does not depend on what the
   process ran before. *)
let render t =
  let s = Canon.create () in
  Canon.add_term s t;
  String.trim (Canon.contents s)

let rec first_error f = function
  | [] -> Ok ()
  | x :: rest -> ( match f x with Ok () -> first_error f rest | Error e -> Error e)

let rec check_term (t : Term.t) =
  match t.Term.node with
  | Term.Int_lit _ | Term.Add _ | Term.Sub _ | Term.Mul _ | Term.Neg _ | Term.Le _
  | Term.Lt _ | Term.Idiv _ | Term.Imod _ ->
    Error ("arithmetic is outside EPR: " ^ render t)
  | Term.Bv_lit _ | Term.Bv_op _ -> Error ("bit-vectors are outside EPR: " ^ render t)
  | Term.App (f, args) ->
    if Sort.equal f.Term.sret Sort.Int then
      Error ("integer-sorted symbol outside EPR: " ^ f.Term.sname)
    else first_error check_term args
  | Term.Forall q | Term.Exists q -> (
    match
      List.find_opt
        (fun (_, s) -> match s with Sort.Usort _ -> false | _ -> true)
        q.Term.qvars
    with
    | Some (x, s) ->
      Error (Printf.sprintf "quantified variable %s has non-EPR sort %s" x (Sort.to_string s))
    | None -> check_term q.Term.body)
  | Term.Eq (a, b) -> first_error check_term [ a; b ]
  | Term.Not a -> check_term a
  | Term.And xs | Term.Or xs -> first_error check_term xs
  | Term.Implies (a, b) | Term.Iff (a, b) -> first_error check_term [ a; b ]
  | Term.Ite (a, b, c) -> first_error check_term [ a; b; c ]
  | Term.True | Term.False | Term.Bvar _ -> Ok ()

(* Collect all function symbols appearing in the (skolemized) assertions. *)
let collect_syms ts =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun t ->
      ignore
        (Term.fold_subterms
           (fun () s ->
             match s.Term.node with
             | Term.App (f, _) -> Hashtbl.replace tbl f.Term.sid f
             | _ -> ())
           () t))
    ts;
  Hashtbl.fold (fun _ f acc -> f :: acc) tbl []

(* Sort graph acyclicity: for each symbol with arguments, edges from each
   argument sort to the return sort.  A cycle means an unbounded Herbrand
   universe.  The cycle check proper is the shared SCC machinery in
   [Vbase.Graph]: a sort participates in a cycle iff its strongly-connected
   component is cyclic. *)
let acyclic syms =
  (* Number the sorts that appear as argument or return of some symbol. *)
  let ids = Hashtbl.create 16 in
  let sorts = ref [] in
  let id_of s =
    match Hashtbl.find_opt ids s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids s i;
      sorts := s :: !sorts;
      i
  in
  let edges = ref [] in
  List.iter
    (fun (f : Term.sym) ->
      if f.Term.sargs <> [] && not (Sort.equal f.Term.sret Sort.Bool) then begin
        let ret = id_of f.Term.sret in
        List.iter (fun a -> edges := (id_of a, ret) :: !edges) f.Term.sargs
      end)
    syms;
  let n = Hashtbl.length ids in
  let g = Vbase.Graph.create n in
  List.iter (fun (u, v) -> Vbase.Graph.add_edge g u v) !edges;
  let sort_of = Array.make (max n 1) Sort.Bool in
  Hashtbl.iter (fun s i -> sort_of.(i) <- s) ids;
  match
    List.find_opt (Vbase.Graph.is_cyclic_component g) (Vbase.Graph.scc g)
  with
  | Some (v :: _) ->
    Error ("sort dependency cycle through " ^ Sort.to_string sort_of.(v))
  | Some [] | None -> Ok ()

(* Skolemized assertions that passed the fragment check. *)
type fragment = Term.t list

let check_fragment ts =
  match first_error check_term ts with
  | Error e -> Error e
  | Ok () ->
    (* Check acyclicity on the skolemized form (skolem functions count);
       that form is what [solve] grounds. *)
    let sk = List.map Solver.nnf ts in
    Result.map (fun () -> sk) (acyclic (collect_syms sk))

(* ------------------------------------------------------------------ *)
(* Finite universe and grounding                                       *)
(* ------------------------------------------------------------------ *)

exception Too_big

(* Grounding gives up past this many Herbrand terms. *)
let max_universe = 4000

(* Compute, per uninterpreted sort, the closed Herbrand universe. *)
let universe ts =
  let syms = collect_syms ts in
  let uni : (Sort.t, Term.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let total = ref 0 in
  let bucket s =
    match Hashtbl.find_opt uni s with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add uni s r;
      r
  in
  let add s tm =
    let b = bucket s in
    if not (List.exists (Term.equal tm) !b) then begin
      incr total;
      if !total > max_universe then raise Too_big;
      b := tm :: !b
    end
  in
  (* Constants first. *)
  List.iter
    (fun (f : Term.sym) ->
      if f.Term.sargs = [] && not (Sort.equal f.Term.sret Sort.Bool) then
        add f.Term.sret (Term.const f))
    syms;
  (* Sorts quantified over but empty get a witness. *)
  let need_witness = Hashtbl.create 8 in
  List.iter
    (fun t ->
      ignore
        (Term.fold_subterms
           (fun () s ->
             match s.Term.node with
             | Term.Forall q | Term.Exists q ->
               List.iter (fun (_, srt) -> Hashtbl.replace need_witness srt ()) q.Term.qvars
             | _ -> ())
           () t))
    ts;
  Hashtbl.iter
    (fun srt () ->
      if !(bucket srt) = [] then add srt (Term.const (Term.Sym.fresh "witness" [] srt)))
    need_witness;
  (* Saturate under function application (terminates by acyclicity). *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Term.sym) ->
        if f.Term.sargs <> [] && not (Sort.equal f.Term.sret Sort.Bool) then begin
          (* Enumerate argument tuples from the current universe. *)
          let rec tuples acc = function
            | [] -> [ List.rev acc ]
            | s :: rest ->
              List.concat_map (fun v -> tuples (v :: acc) rest) !(bucket s)
          in
          List.iter
            (fun args ->
              if List.length args = List.length f.Term.sargs then begin
                let tm = Term.app f args in
                let b = bucket f.Term.sret in
                if not (List.exists (Term.equal tm) !b) then begin
                  incr total;
                  if !total > max_universe then raise Too_big;
                  b := tm :: !b;
                  changed := true
                end
              end)
            (tuples [] f.Term.sargs)
        end)
      syms
  done;
  fun s -> ( match Hashtbl.find_opt uni s with Some r -> !r | None -> [])

(* Expand quantifiers over the universe. *)
let rec expand uni (t : Term.t) : Term.t =
  match t.Term.node with
  | Term.Forall q | Term.Exists q ->
    let rec enum subst = function
      | [] -> [ expand uni (Term.subst subst q.Term.body) ]
      | (x, s) :: rest ->
        List.concat_map (fun v -> enum ((x, v) :: subst) rest) (uni s)
    in
    let bodies = enum [] q.Term.qvars in
    (match t.Term.node with
    | Term.Forall _ -> Term.and_ bodies
    | _ -> Term.or_ bodies)
  | Term.And xs -> Term.and_ (List.map (expand uni) xs)
  | Term.Or xs -> Term.or_ (List.map (expand uni) xs)
  | Term.Not a -> Term.not_ (expand uni a)
  | _ -> t

(* A non-answer: the problem left the fragment or its universe is too big. *)
let unknown reason =
  {
    Solver.answer = Solver.Unknown reason;
    stats =
      {
        Solver.rounds = 0;
        instances = 0;
        matches_tried = 0;
        conflicts = 0;
        decisions = 0;
        query_bytes = 0;
        time_s = 0.0;
      };
    model = [];
    profile = Profile.empty;
    cert = None;
  }

let solve ?config sk =
  match universe sk with
  | uni -> Solver.solve ?config (List.map (expand uni) sk)
  | exception Too_big -> unknown "EPR universe too large"

let check_valid ?config ?(hyps = []) goal =
  match check_fragment (hyps @ [ Term.not_ goal ]) with
  | Error e -> unknown ("not in EPR: " ^ e)
  | Ok sk -> solve ?config sk
