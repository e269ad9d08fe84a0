module Json = Vbase.Json
module Rat = Vbase.Rat
module Bigint = Vbase.Bigint

let schema_version = "verus-cert/1"

type stats = {
  inputs : int;
  rup : int;
  euf : int;
  farkas : int;
  trichotomy : int;
  trusted : int;
}

type verdict = Checked of stats | Rejected of { code : string; reason : string }

exception Reject of string * string

let reject code fmt = Printf.ksprintf (fun m -> raise (Reject (code, m))) fmt

(* --- JSON decoding ----------------------------------------------------- *)

let as_int = function Json.Int i -> i | _ -> reject "CK001" "expected an integer"
let as_string = function Json.String s -> s | _ -> reject "CK001" "expected a string"
let as_list = function Json.List l -> l | _ -> reject "CK001" "expected an array"

let member k j =
  match Json.member k j with Some v -> v | None -> reject "CK001" "missing field %S" k

let rat_of_string s =
  match String.index_opt s '/' with
  | None -> Rat.of_bigint (Bigint.of_string s)
  | Some i ->
    Rat.make
      (Bigint.of_string (String.sub s 0 i))
      (Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)))

let rat_of_json j = try rat_of_string (as_string j) with Failure _ -> reject "CK001" "bad rational"
let big_of_json j = try Bigint.of_string (as_string j) with Failure _ -> reject "CK001" "bad integer"

(* --- certificate structures ------------------------------------------- *)

(* Two [Interp] nodes with different labels denote distinct values (the
   labels encode kind and literal value); [Opaque] nodes carry no such
   knowledge and can only conflict through a violated disequality. *)
type node = Interp of string | Appn of int * int array | Opaque

type view = (int * Bigint.t) array * Rat.t

type lsem = { eq : (bool * int * int) option; views : view array }

type just =
  | Input of int
  | Rup of int array
  | Jeuf of int array
  | Jfarkas of (int * Rat.t * int) array
  | Jtri of int * int * int
  | Jtrusted of string

type step = { lits : int array; just : just }

let parse_node id j =
  match as_list j with
  | [ Json.String "a"; Json.Int f; Json.List ch ] ->
    let ch =
      Array.of_list
        (List.map
           (fun c ->
             let c = as_int c in
             if c < 0 || c >= id then reject "CK001" "node %d: child %d out of order" id c;
             c)
           ch)
    in
    if f < 0 then reject "CK001" "node %d: negative symbol" id;
    Appn (f, ch)
  | [ Json.String "i"; Json.String v ] -> Interp ("i:" ^ v)
  | [ Json.String "v"; Json.Int w; Json.String v ] -> Interp (Printf.sprintf "v:%d:%s" w v)
  | [ Json.String "t" ] -> Interp "t"
  | [ Json.String "f" ] -> Interp "f"
  | [ Json.String "o"; Json.Int _ ] -> Opaque
  | _ -> reject "CK001" "node %d: unrecognized shape" id

let parse_view j =
  match as_list j with
  | [ Json.List coeffs; bound ] ->
    let cs =
      List.map
        (fun c ->
          match as_list c with
          | [ v; x ] -> (as_int v, big_of_json x)
          | _ -> reject "CK001" "bad view coefficient")
        coeffs
    in
    let cs = List.sort (fun (a, _) (b, _) -> compare a b) cs in
    (Array.of_list cs, rat_of_json bound)
  | _ -> reject "CK001" "bad view"

let parse_lit n_nodes j =
  match as_list j with
  | [ Json.Int l; eq; Json.List views ] ->
    let eq =
      match eq with
      | Json.Null -> None
      | Json.List [ Json.Bool b; Json.Int x; Json.Int y ] ->
        if x < 0 || x >= n_nodes || y < 0 || y >= n_nodes then
          reject "CK001" "literal %d: equality over unknown nodes" l;
        Some (b, x, y)
      | _ -> reject "CK001" "literal %d: bad equality meaning" l
    in
    if l < 0 then reject "CK001" "negative literal";
    (l, { eq; views = Array.of_list (List.map parse_view views) })
  | _ -> reject "CK001" "bad literal entry"

let parse_just = function
  | Json.Int tag ->
    if tag < 0 || tag > 2 then reject "CK001" "unknown input tag %d" tag;
    Input tag
  | Json.List (Json.String "r" :: antes) -> Rup (Array.of_list (List.map as_int antes))
  | Json.List (Json.String "e" :: lits) -> Jeuf (Array.of_list (List.map as_int lits))
  | Json.List (Json.String "f" :: combo) ->
    Jfarkas
      (Array.of_list
         (List.map
            (fun c ->
              match as_list c with
              | [ Json.Int l; lam; Json.Int ix ] -> (l, rat_of_json lam, ix)
              | _ -> reject "CK001" "bad Farkas entry")
            combo))
  | Json.List [ Json.String "3"; Json.Int leq; Json.Int l1; Json.Int l2 ] -> Jtri (leq, l1, l2)
  | Json.List [ Json.String "t"; Json.String tag ] -> Jtrusted tag
  | _ -> reject "CK001" "unrecognized justification"

let parse_step j =
  match as_list j with
  | [ Json.List lits; just ] ->
    let lits =
      Array.of_list
        (List.map
           (fun l ->
             let l = as_int l in
             if l < 0 then reject "CK001" "negative literal in clause";
             l)
           lits)
    in
    { lits; just = parse_just just }
  | _ -> reject "CK001" "bad step shape"

(* --- step replay -------------------------------------------------------- *)

let neg l = l lxor 1
let clause_has lits l = Array.exists (fun x -> x = l) lits

(* The clause must contain the negation of every assumption the
   justification consumed — a clause that is a superset of a valid clause
   is valid, so covering is all that soundness needs. *)
let check_covers i lits assumptions =
  Array.iter
    (fun a ->
      if not (clause_has lits (neg a)) then
        reject "CK003" "step %d: clause lacks the negation of assumption literal %d" i a)
    assumptions

(* Restricted RUP: assuming the negations of [lits], unit propagation
   confined to the antecedent clauses must reach a conflict.  Tautological
   clauses are vacuously fine. *)
let check_rup steps i lits antes =
  if Array.exists (fun l -> clause_has lits (neg l)) lits then ()
  else begin
    let true_lits = Hashtbl.create 16 in
    Array.iter (fun l -> Hashtbl.replace true_lits (neg l) ()) lits;
    let is_true l = Hashtbl.mem true_lits l in
    let is_false l = Hashtbl.mem true_lits (neg l) in
    Array.iter
      (fun a -> if a < 0 || a >= i then reject "CK001" "step %d: bad antecedent %d" i a)
      antes;
    let conflict = ref false in
    let changed = ref true in
    while !changed && not !conflict do
      changed := false;
      Array.iter
        (fun a ->
          if not !conflict then begin
            let cl = steps.(a).lits in
            let satisfied = ref false in
            let unassigned = ref (-1) in
            let n_unassigned = ref 0 in
            Array.iter
              (fun l ->
                if is_true l then satisfied := true
                else if not (is_false l) then begin
                  incr n_unassigned;
                  unassigned := l
                end)
              cl;
            if not !satisfied then
              if !n_unassigned = 0 then conflict := true
              else if !n_unassigned = 1 && not (is_true !unassigned) then begin
                Hashtbl.replace true_lits !unassigned ();
                changed := true
              end
          end)
        antes
    done;
    if not !conflict then
      reject "CK002" "step %d: restricted unit propagation found no conflict" i
  end

let find_lsem lits_tbl i l =
  match Hashtbl.find_opt lits_tbl l with
  | Some s -> s
  | None -> reject "CK009" "step %d: literal %d has no atom-table entry" i l

(* Congruence-closure replay from the assumption literals: union the
   asserted equalities, close under congruence, and require a violated
   disequality or two distinct interpreted constants in one class. *)
let check_euf nodes lits_tbl i lits assumptions =
  check_covers i lits assumptions;
  let n = Array.length nodes in
  let parent = Array.init n (fun x -> x) in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra = rb then false
    else begin
      parent.(ra) <- rb;
      true
    end
  in
  let diseqs = ref [] in
  Array.iter
    (fun a ->
      match (find_lsem lits_tbl i a).eq with
      | None -> reject "CK009" "step %d: literal %d has no equality meaning" i a
      | Some (true, x, y) -> ignore (union x y)
      | Some (false, x, y) -> diseqs := (x, y) :: !diseqs)
    assumptions;
  let changed = ref true in
  while !changed do
    changed := false;
    let sigs = Hashtbl.create 64 in
    Array.iteri
      (fun id nd ->
        match nd with
        | Appn (f, ch) -> (
          let key = (f, Array.to_list (Array.map find ch)) in
          match Hashtbl.find_opt sigs key with
          | Some other -> if union id other then changed := true
          | None -> Hashtbl.add sigs key id)
        | _ -> ())
      nodes
  done;
  let distinct_consts () =
    let label_of_root = Hashtbl.create 16 in
    let bad = ref false in
    Array.iteri
      (fun id nd ->
        match nd with
        | Interp s -> (
          let r = find id in
          match Hashtbl.find_opt label_of_root r with
          | Some s' -> if s' <> s then bad := true
          | None -> Hashtbl.add label_of_root r s)
        | _ -> ())
      nodes;
    !bad
  in
  if not (List.exists (fun (x, y) -> find x = find y) !diseqs || distinct_consts ()) then
    reject "CK004" "step %d: congruence replay reached no contradiction" i

(* Farkas: the cited views, scaled by strictly positive multipliers, must
   cancel every variable and sum the bounds to a negative constant. *)
let check_farkas lits_tbl i lits combo =
  if Array.length combo = 0 then reject "CK005" "step %d: empty Farkas combination" i;
  check_covers i lits (Array.map (fun (l, _, _) -> l) combo);
  let acc = Hashtbl.create 16 in
  let bound = ref Rat.zero in
  Array.iter
    (fun (l, lam, ix) ->
      if Rat.sign lam <= 0 then
        reject "CK005" "step %d: non-positive multiplier %s" i (Rat.to_string lam);
      let s = find_lsem lits_tbl i l in
      if ix < 0 || ix >= Array.length s.views then
        reject "CK009" "step %d: literal %d has no view %d" i l ix;
      let coeffs, b = s.views.(ix) in
      Array.iter
        (fun (v, c) ->
          let prev = Option.value ~default:Rat.zero (Hashtbl.find_opt acc v) in
          Hashtbl.replace acc v (Rat.add prev (Rat.mul lam (Rat.of_bigint c))))
        coeffs;
      bound := Rat.add !bound (Rat.mul lam b))
    combo;
  Hashtbl.iter
    (fun v s ->
      if not (Rat.is_zero s) then reject "CK005" "step %d: variable %d does not cancel" i v)
    acc;
  if Rat.sign !bound >= 0 then
    reject "CK005" "step %d: combined bound %s is not negative" i (Rat.to_string !bound)

let view_eq ((c1, b1) : view) ((c2, b2) : view) =
  Rat.equal b1 b2
  && Array.length c1 = Array.length c2
  && Array.for_all2 (fun (v1, x1) (v2, x2) -> v1 = v2 && Bigint.equal x1 x2) c1 c2

let view_neg ((c, b) : view) : view = (Array.map (fun (v, x) -> (v, Bigint.neg x)) c, Rat.neg b)

(* Trichotomy [eq \/ lt1 \/ lt2]: some bound pair (f, d) / (-f, -d) must
   appear in the equality's views, with (-f, -d) among the views of the
   negated first strict inequality and (f, d) among those of the negated
   second — then ~eq /\ ~lt1 /\ ~lt2 pins f.x to exactly d while denying
   it, which is contradictory.  Soundness leans on the atom table giving
   the equality's views exactly (see DESIGN.md). *)
let check_tri lits_tbl i lits (leq, l1, l2) =
  List.iter
    (fun l ->
      if not (clause_has lits l) then reject "CK003" "step %d: clause lacks literal %d" i l)
    [ leq; l1; l2 ];
  let views l = (find_lsem lits_tbl i l).views in
  let veq = views leq in
  let v1 = views (neg l1) in
  let v2 = views (neg l2) in
  let mem w vs = Array.exists (view_eq w) vs in
  let ok =
    Array.exists
      (fun w ->
        let nw = view_neg w in
        mem w veq && mem nw veq && mem nw v1 && mem w v2)
      veq
  in
  if not ok then reject "CK006" "step %d: no exact (f, d) / (-f, -d) bound pair" i

(* --- whole-certificate replay ------------------------------------------ *)

let check_smt j =
  let nodes =
    Array.of_list (List.mapi parse_node (as_list (member "nodes" j)))
  in
  let lits_tbl = Hashtbl.create 64 in
  List.iter
    (fun lj ->
      let l, s = parse_lit (Array.length nodes) lj in
      Hashtbl.replace lits_tbl l s)
    (as_list (member "lits" j));
  let steps = Array.of_list (List.map parse_step (as_list (member "steps" j))) in
  let empty = as_int (member "empty" j) in
  let st = ref { inputs = 0; rup = 0; euf = 0; farkas = 0; trichotomy = 0; trusted = 0 } in
  Array.iteri
    (fun i step ->
      match step.just with
      | Input _ -> st := { !st with inputs = !st.inputs + 1 }
      | Rup antes ->
        check_rup steps i step.lits antes;
        st := { !st with rup = !st.rup + 1 }
      | Jeuf assumptions ->
        check_euf nodes lits_tbl i step.lits assumptions;
        st := { !st with euf = !st.euf + 1 }
      | Jfarkas combo ->
        check_farkas lits_tbl i step.lits combo;
        st := { !st with farkas = !st.farkas + 1 }
      | Jtri (leq, l1, l2) ->
        check_tri lits_tbl i step.lits (leq, l1, l2);
        st := { !st with trichotomy = !st.trichotomy + 1 }
      | Jtrusted tag ->
        if tag = "" then reject "CK001" "step %d: empty trusted tag" i;
        st := { !st with trusted = !st.trusted + 1 })
    steps;
  if empty < 0 || empty >= Array.length steps then
    reject "CK007" "no step derives the empty clause";
  if Array.length steps.(empty).lits <> 0 then
    reject "CK007" "terminal step %d is not the empty clause" empty;
  !st

(* --- Gröbner cofactor identities --------------------------------------- *)

(* Polynomials over named variables with rational coefficients; monomials
   are sorted (var, exponent>0) lists.  The identity checked is
   [target = sum_i cofactor_i * gen_i], by exact arithmetic. *)
module P = struct
  type mono = (string * int) list

  let mono_norm (m : mono) : mono =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (v, e) ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
        Hashtbl.replace tbl v (prev + e))
      m;
    Hashtbl.fold (fun v e acc -> if e = 0 then acc else (v, e) :: acc) tbl []
    |> List.sort compare

  let mono_mul a b = mono_norm (a @ b)

  type t = (mono, Rat.t) Hashtbl.t

  let add_term (p : t) c m =
    let prev = Option.value ~default:Rat.zero (Hashtbl.find_opt p m) in
    let c = Rat.add prev c in
    if Rat.is_zero c then Hashtbl.remove p m else Hashtbl.replace p m c

  let add_mul_into (acc : t) (a : (Rat.t * mono) list) (b : (Rat.t * mono) list) =
    List.iter
      (fun (ca, ma) ->
        List.iter (fun (cb, mb) -> add_term acc (Rat.mul ca cb) (mono_mul ma mb)) b)
      a
end

let parse_poly j =
  List.map
    (fun t ->
      match as_list t with
      | [ c; Json.List mono ] ->
        let m =
          List.map
            (fun vm ->
              match as_list vm with
              | [ Json.String v; Json.Int e ] ->
                if e <= 0 then reject "CK001" "non-positive exponent" else (v, e)
              | _ -> reject "CK001" "bad monomial")
            mono
        in
        (rat_of_json c, m)
      | _ -> reject "CK001" "bad polynomial term")
    (as_list j)

let check_groebner j =
  let target = parse_poly (member "target" j) in
  let gens = List.map parse_poly (as_list (member "gens" j)) in
  let cofactors = List.map parse_poly (as_list (member "cofactors" j)) in
  if List.length gens <> List.length cofactors then
    reject "CK001" "generator/cofactor count mismatch";
  let acc = Hashtbl.create 32 in
  List.iter2 (fun g c -> P.add_mul_into acc c g) gens cofactors;
  (* acc - target must vanish. *)
  List.iter (fun (c, m) -> P.add_term acc (Rat.neg c) (P.mono_norm m)) target;
  if Hashtbl.length acc <> 0 then
    reject "CK008" "cofactor combination does not reproduce the target";
  { inputs = 0; rup = 0; euf = 0; farkas = 0; trichotomy = 0; trusted = 0 }

(* --- entry points ------------------------------------------------------- *)

let check j =
  try
    (match member "schema" j with
    | Json.String s when s = schema_version -> ()
    | Json.String s -> reject "CK001" "unknown schema %S" s
    | _ -> reject "CK001" "bad schema field");
    let stats =
      match as_string (member "kind" j) with
      | "smt" -> check_smt j
      | "groebner" -> check_groebner j
      | "trusted" ->
        if as_string (member "tag" j) = "" then reject "CK001" "empty trusted tag";
        { inputs = 0; rup = 0; euf = 0; farkas = 0; trichotomy = 0; trusted = 1 }
      | k -> reject "CK001" "unknown certificate kind %S" k
    in
    Checked stats
  with Reject (code, reason) -> Rejected { code; reason }

let check_string s =
  match Json.of_string s with
  | Error e -> Rejected { code = "CK001"; reason = "JSON parse error: " ^ e }
  | Ok j -> check j

