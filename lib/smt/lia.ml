module Rat = Vbase.Rat
module Bigint = Vbase.Bigint
module Tbl = Term.Id_tbl

type verdict = Sat | Conflict of int list | Unknown

(* One row of a Farkas infeasibility certificate: the constraint asserted
   under [ce_reason], expanded over term variables and normalized to
   <=-form ([ce_coeffs . x <= ce_bound]), with its non-negative multiplier.
   A valid certificate's rows sum to the contradiction [0 <= c], [c < 0]. *)
type centry = {
  ce_reason : int;
  ce_lambda : Rat.t;
  ce_coeffs : (int * Bigint.t) list;
  ce_bound : Rat.t;
}

type t = {
  mutable nvars : int;
  (* Bounds, flat: variable [x] has a lower bound iff [lo_reason.(x) <>
     no_bound], and then it is [lo_value.(x)], asserted under that reason;
     likewise above.  A value without its reason is stale. *)
  mutable lo_value : Rat.t array;
  mutable lo_reason : int array;
  mutable up_value : Rat.t array;
  mutable up_reason : int array;
  mutable beta : Rat.t array;
  mutable is_basic : bool array;
  (* The tableau.  Nothing depends on the order its tables iterate in:
     pivot candidates go by smallest index, conflict rows are sorted, and
     the rest only sums exactly. *)
  rows : Rat.t Tbl.t Tbl.t; (* basic var -> row over nonbasics *)
  cols : unit Tbl.t Tbl.t; (* nonbasic var -> rows that mention it *)
  var_by_term : int Tbl.t; (* term tid -> var *)
  slack_by_key : ((int * Bigint.t) list, int) Hashtbl.t; (* canonical lin form -> slack var *)
  slack_form : (int, (int * Bigint.t) list) Hashtbl.t; (* inverse of slack_by_key *)
  mutable conflict : int list option; (* detected during assertion *)
  mutable equations : ((int * Bigint.t) list * Bigint.t * int) list;
      (* integer equalities (canonical coeffs, rhs, reason) for the
         elimination-based integrality check *)
  mutable certify : bool; (* capture Farkas certificates at conflicts *)
  mutable last_cert : centry list option;
      (* certificate of the last conflict; [None] when a conflict has no
         Farkas witness (branch-and-bound unions, gcd elimination) *)
}

(* The reason slot of a missing bound; real reasons are atom indices and
   small negative internal tags. *)
let no_bound = min_int

let create () =
  {
    nvars = 0;
    lo_value = Array.make 32 Rat.zero;
    lo_reason = Array.make 32 no_bound;
    up_value = Array.make 32 Rat.zero;
    up_reason = Array.make 32 no_bound;
    beta = Array.make 32 Rat.zero;
    is_basic = Array.make 32 false;
    rows = Tbl.create 32;
    cols = Tbl.create 32;
    var_by_term = Tbl.create 32;
    slack_by_key = Hashtbl.create 32;
    slack_form = Hashtbl.create 32;
    conflict = None;
    equations = [];
    certify = false;
    last_cert = None;
  }

let set_certify t on = t.certify <- on
let last_cert t = t.last_cert

(* The defining linear form of a variable over term variables: slack
   variables expand to their canonical key, term variables to themselves.
   Bounds re-expressed through this expansion are exact consequences of
   the original assertions, which is what makes the captured certificates
   checkable without the tableau. *)
let expand_form t v =
  match Hashtbl.find_opt t.slack_form v with
  | Some f -> f
  | None -> [ (v, Bigint.one) ]

let centry_of_bound t ~reason ~lambda ~v ~is_upper ~bound =
  let f = expand_form t v in
  if is_upper then { ce_reason = reason; ce_lambda = lambda; ce_coeffs = f; ce_bound = bound }
  else
    {
      ce_reason = reason;
      ce_lambda = lambda;
      ce_coeffs = List.map (fun (x, c) -> (x, Bigint.neg c)) f;
      ce_bound = Rat.neg bound;
    }

(* Record a certificate for the conflict being reported; degrade to [None]
   (an uncertified conflict) if any row involves an internal reason such as
   a branch-and-bound marker. *)
let set_cert t entries =
  if t.certify then
    t.last_cert <-
      (if List.for_all (fun e -> e.ce_reason >= 0) entries then Some entries else None)

let clear_cert t = if t.certify then t.last_cert <- None

let ensure_capacity t n =
  let cap = Array.length t.beta in
  if n > cap then begin
    let newcap = max (2 * cap) n in
    let grow a fill =
      let b = Array.make newcap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.lo_value <- grow t.lo_value Rat.zero;
    t.lo_reason <- grow t.lo_reason no_bound;
    t.up_value <- grow t.up_value Rat.zero;
    t.up_reason <- grow t.up_reason no_bound;
    t.beta <- grow t.beta Rat.zero;
    t.is_basic <- grow t.is_basic false
  end

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  ensure_capacity t t.nvars;
  t.lo_reason.(v) <- no_bound;
  t.up_reason.(v) <- no_bound;
  t.beta.(v) <- Rat.zero;
  t.is_basic.(v) <- false;
  v

let var_of_term t tm =
  match Tbl.find_opt t.var_by_term (Term.hash tm) with
  | Some v -> v
  | None ->
    let v = new_var t in
    Tbl.add t.var_by_term (Term.hash tm) v;
    v

let find_var t tm = Tbl.find_opt t.var_by_term (Term.hash tm)

(* Reset for a fresh round of bound assertions: keeps variables, the
   tableau and the slack-form cache (the expensive parts), drops bounds,
   recorded equations and any assertion-time conflict. *)
let reset_bounds t =
  Array.fill t.lo_reason 0 t.nvars no_bound;
  Array.fill t.up_reason 0 t.nvars no_bound;
  t.conflict <- None;
  t.equations <- [];
  t.last_cert <- None

(* --- tableau ---------------------------------------------------------- *)

let col_of t v =
  match Tbl.find_opt t.cols v with
  | Some c -> c
  | None ->
    let c = Tbl.create 8 in
    Tbl.add t.cols v c;
    c

(* Install [row] (over nonbasic vars) as the definition of basic var [b]. *)
let install_row t b row =
  Tbl.replace t.rows b row;
  t.is_basic.(b) <- true;
  Tbl.iter (fun v _ -> Tbl.replace (col_of t v) b ()) row

(* beta of a linear form over current beta. *)
let eval_row t row =
  Tbl.fold (fun v c acc -> Rat.add acc (Rat.mul c t.beta.(v))) row Rat.zero

(* Pivot basic variable [bi] with nonbasic [nj]. *)
let pivot t bi nj =
  let row = Tbl.find t.rows bi in
  let a_ij = Tbl.find row nj in
  (* xj = (xi - sum_{k<>j} a_ik xk) / a_ij *)
  let new_row = Tbl.create (Tbl.length row) in
  Tbl.iter
    (fun v c -> if v <> nj then Tbl.replace new_row v (Rat.neg (Rat.div c a_ij)))
    row;
  Tbl.replace new_row bi (Rat.div Rat.one a_ij);
  (* Remove the old row. *)
  Tbl.remove t.rows bi;
  t.is_basic.(bi) <- false;
  Tbl.iter (fun v _ -> match Tbl.find_opt t.cols v with
      | Some c -> Tbl.remove c bi
      | None -> ()) row;
  (* Substitute xj := new_row into every other row that mentions xj. *)
  let mentioning = match Tbl.find_opt t.cols nj with Some c -> Tbl.fold (fun b () acc -> b :: acc) c [] | None -> [] in
  List.iter
    (fun bk ->
      match Tbl.find_opt t.rows bk with
      | None -> ()
      | Some rk ->
        (match Tbl.find_opt rk nj with
        | None -> ()
        | Some a_kj ->
          Tbl.remove rk nj;
          (match Tbl.find_opt t.cols nj with Some c -> Tbl.remove c bk | None -> ());
          Tbl.iter
            (fun v c ->
              let cur = match Tbl.find_opt rk v with Some x -> x | None -> Rat.zero in
              let nc = Rat.add cur (Rat.mul a_kj c) in
              if Rat.is_zero nc then begin
                Tbl.remove rk v;
                match Tbl.find_opt t.cols v with Some col -> Tbl.remove col bk | None -> ()
              end
              else begin
                Tbl.replace rk v nc;
                Tbl.replace (col_of t v) bk ()
              end)
            new_row))
    mentioning;
  install_row t nj new_row

(* Set beta of nonbasic var [x] to [v], updating dependent basic vars. *)
let update_nonbasic t x v =
  let delta = Rat.sub v t.beta.(x) in
  if not (Rat.is_zero delta) then begin
    t.beta.(x) <- v;
    match Tbl.find_opt t.cols x with
    | None -> ()
    | Some col ->
      Tbl.iter
        (fun b () ->
          match Tbl.find_opt t.rows b with
          | Some row -> (
            match Tbl.find_opt row x with
            | Some c -> t.beta.(b) <- Rat.add t.beta.(b) (Rat.mul c delta)
            | None -> ())
          | None -> ())
        col
  end

(* pivotAndUpdate from Dutertre-de Moura. *)
let pivot_and_update t bi nj v =
  let row = Tbl.find t.rows bi in
  let a_ij = Tbl.find row nj in
  let theta = Rat.div (Rat.sub v t.beta.(bi)) a_ij in
  t.beta.(bi) <- v;
  t.beta.(nj) <- Rat.add t.beta.(nj) theta;
  (match Tbl.find_opt t.cols nj with
  | None -> ()
  | Some col ->
    Tbl.iter
      (fun bk () ->
        if bk <> bi then
          match Tbl.find_opt t.rows bk with
          | Some rk -> (
            match Tbl.find_opt rk nj with
            | Some a_kj -> t.beta.(bk) <- Rat.add t.beta.(bk) (Rat.mul a_kj theta)
            | None -> ())
          | None -> ())
      col);
  pivot t bi nj

(* --- bounds ----------------------------------------------------------- *)

let has_lower t x = t.lo_reason.(x) <> no_bound
let has_upper t x = t.up_reason.(x) <> no_bound

let assert_lower t x value reason =
  if Option.is_none t.conflict then begin
    if has_upper t x && Rat.compare value t.up_value.(x) > 0 then begin
      set_cert t
        [
          centry_of_bound t ~reason ~lambda:Rat.one ~v:x ~is_upper:false ~bound:value;
          centry_of_bound t ~reason:t.up_reason.(x) ~lambda:Rat.one ~v:x ~is_upper:true
            ~bound:t.up_value.(x);
        ];
      t.conflict <- Some [ reason; t.up_reason.(x) ]
    end
    else if not (has_lower t x && Rat.compare t.lo_value.(x) value >= 0) then begin
      t.lo_value.(x) <- value;
      t.lo_reason.(x) <- reason;
      if (not t.is_basic.(x)) && Rat.compare t.beta.(x) value < 0 then update_nonbasic t x value
    end
  end

let assert_upper t x value reason =
  if Option.is_none t.conflict then begin
    if has_lower t x && Rat.compare value t.lo_value.(x) < 0 then begin
      set_cert t
        [
          centry_of_bound t ~reason ~lambda:Rat.one ~v:x ~is_upper:true ~bound:value;
          centry_of_bound t ~reason:t.lo_reason.(x) ~lambda:Rat.one ~v:x ~is_upper:false
            ~bound:t.lo_value.(x);
        ];
      t.conflict <- Some [ reason; t.lo_reason.(x) ]
    end
    else if not (has_upper t x && Rat.compare t.up_value.(x) value <= 0) then begin
      t.up_value.(x) <- value;
      t.up_reason.(x) <- reason;
      if (not t.is_basic.(x)) && Rat.compare t.beta.(x) value > 0 then update_nonbasic t x value
    end
  end

(* --- linear forms ------------------------------------------------------ *)

(* Combine duplicate vars, drop zeros; returns sorted (var, coeff) list. *)
let normalize_coeffs coeffs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, v) ->
      let cur = match Hashtbl.find_opt tbl v with Some x -> x | None -> Rat.zero in
      Hashtbl.replace tbl v (Rat.add cur c))
    coeffs;
  Hashtbl.fold (fun v c acc -> if Rat.is_zero c then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Scale to integer coefficients with gcd 1 and positive leading coeff.
   Returns (scaled list, scale factor as Rat, flipped). *)
let canonicalize coeffs =
  match coeffs with
  | [] -> ([], Rat.one, false)
  | (_, c0) :: _ ->
    let all_integral = List.for_all (fun (_, c) -> Rat.is_integer c) coeffs in
    let lcm_den =
      if all_integral then Bigint.one
      else
        List.fold_left
          (fun acc (_, c) ->
            let d = (c : Rat.t).Rat.den in
            Bigint.mul acc (fst (Bigint.div_rem d (Bigint.gcd acc d))))
          Bigint.one coeffs
    in
    let ints =
      if all_integral then List.map (fun (v, c) -> (v, (c : Rat.t).Rat.num)) coeffs
      else
        List.map (fun (v, c) -> (v, Rat.floor (Rat.mul c (Rat.of_bigint lcm_den)))) coeffs
    in
    let g = List.fold_left (fun acc (_, c) -> Bigint.gcd acc c) Bigint.zero ints in
    let g = if Bigint.is_zero g then Bigint.one else g in
    let ints = List.map (fun (v, c) -> (v, fst (Bigint.div_rem c g))) ints in
    let flipped = Rat.sign c0 < 0 in
    let ints = if flipped then List.map (fun (v, c) -> (v, Bigint.neg c)) ints else ints in
    let scale = Rat.div (Rat.of_bigint lcm_den) (Rat.of_bigint g) in
    let scale = if flipped then Rat.neg scale else scale in
    (ints, scale, flipped)

(* Get or create the variable representing the canonical integer form. *)
let form_var t ints =
  match ints with
  | [ (v, c) ] when Bigint.equal c Bigint.one -> v
  | _ ->
    let key = ints in
    (match Hashtbl.find_opt t.slack_by_key key with
    | Some s -> s
    | None ->
      let s = new_var t in
      Hashtbl.add t.slack_by_key key s;
      Hashtbl.add t.slack_form s key;
      let row = Tbl.create 8 in
      List.iter
        (fun (v, c) ->
          (* If v is itself basic, substitute its row. *)
          let c = Rat.of_bigint c in
          if t.is_basic.(v) then
            Tbl.iter
              (fun u cu ->
                let cur = match Tbl.find_opt row u with Some x -> x | None -> Rat.zero in
                let nc = Rat.add cur (Rat.mul c cu) in
                if Rat.is_zero nc then Tbl.remove row u else Tbl.replace row u nc)
              (Tbl.find t.rows v)
          else begin
            let cur = match Tbl.find_opt row v with Some x -> x | None -> Rat.zero in
            let nc = Rat.add cur c in
            if Rat.is_zero nc then Tbl.remove row v else Tbl.replace row v nc
          end)
        ints;
      install_row t s row;
      t.beta.(s) <- eval_row t row;
      s)

(* A constraint reduced to a single bound on a (possibly slack) variable;
   computing this involves normalization, gcd scaling and slack-variable
   lookup, so callers that re-assert the same atoms every round cache it.
   Constant constraints carry their <=-form bound ([0 <= b]) so a violation
   still yields a one-row Farkas certificate. *)
type prepared =
  | P_const of Rat.t (* the constant constraint [0 <= b]; violated iff b < 0 *)
  | P_up of int * Rat.t
  | P_lo of int * Rat.t
  | P_eq of (int * Bigint.t) list * Bigint.t
      (* an integer equality (canonical coefficients, right-hand side) for
         the elimination-based integrality check *)

(* The integer tightening of [sum coeffs <= c] (upper) or [>= c] (lower):
   the canonical integer coefficients, whether the canonical form is
   bounded above, and its bound rounded inward (one step further when the
   constraint is strict and the bound integral).  A constant constraint
   comes back as the upper form [0 <= b] with no coefficients. *)
let tighten coeffs c ~strict ~is_upper =
  match normalize_coeffs coeffs with
  | [] ->
    let b = if is_upper then c else Rat.neg c in
    ([], true, if strict && Rat.is_integer c then Rat.sub b Rat.one else b)
  | coeffs ->
    let ints, scale, flipped = canonicalize coeffs in
    let k = Rat.mul c scale in
    let step = strict && Rat.is_integer k in
    if is_upper <> flipped then
      (ints, true, if step then Rat.sub k Rat.one else Rat.of_bigint (Rat.floor k))
    else (ints, false, if step then Rat.add k Rat.one else Rat.of_bigint (Rat.ceil k))

let prepare t coeffs c ~strict ~is_upper : prepared =
  match tighten coeffs c ~strict ~is_upper with
  | [], _, b -> P_const b
  | ints, true, b -> P_up (form_var t ints, b)
  | ints, false, b -> P_lo (form_var t ints, b)

(* The <=-form view of a constraint, for certificate emission: the bound
   {!prepare} asserts, over term variables and without touching the
   tableau.  [(coeffs, b)] means [coeffs . x <= b]. *)
let atom_view coeffs c ~strict ~is_upper =
  match tighten coeffs c ~strict ~is_upper with
  | ints, true, b -> (ints, b)
  | ints, false, b -> (List.map (fun (v, x) -> (v, Bigint.neg x)) ints, Rat.neg b)

(* The two bounds of [sum coeffs = c], then the equality itself for the
   elimination-based integrality check (which catches parity/gcd conflicts
   that branch-and-bound cannot terminate on) when its canonical form has
   an integral right-hand side. *)
let prepare_eq t coeffs c =
  let up = prepare t coeffs c ~strict:false ~is_upper:true in
  let lo = prepare t coeffs c ~strict:false ~is_upper:false in
  let eq =
    match normalize_coeffs coeffs with
    | [] -> []
    | nc ->
      let ints, scale, _flipped = canonicalize nc in
      let rhs = Rat.mul c scale in
      if Rat.is_integer rhs then [ P_eq (ints, (rhs : Rat.t).Rat.num) ] else []
  in
  up :: lo :: eq

let assert_prepared t (p : prepared) ~reason =
  if Option.is_none t.conflict then begin
    match p with
    | P_const b ->
      if Rat.sign b < 0 then begin
        set_cert t [ { ce_reason = reason; ce_lambda = Rat.one; ce_coeffs = []; ce_bound = b } ];
        t.conflict <- Some [ reason ]
      end
    | P_up (s, b) -> assert_upper t s b reason
    | P_lo (s, b) -> assert_lower t s b reason
    | P_eq (ints, rhs) -> t.equations <- (ints, rhs, reason) :: t.equations
  end

(* Omega-style integer equality elimination: repeatedly solve equations
   with a unit coefficient and substitute; detect gcd conflicts.  Sound
   (returns conflicts only when a genuine integer infeasibility exists);
   incomplete without the full Omega mod-trick, which is fine because it
   backs up branch-and-bound rather than replacing it. *)
let eliminate_equations t =
  let norm coeffs =
    (* Combine duplicates, drop zeros, sort by var. *)
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (v, c) ->
        let cur = match Hashtbl.find_opt tbl v with Some x -> x | None -> Bigint.zero in
        Hashtbl.replace tbl v (Bigint.add cur c))
      coeffs;
    Hashtbl.fold (fun v c acc -> if Bigint.is_zero c then acc else (v, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let conflict = ref None in
  let eqs = ref (List.map (fun (cs, b, r) -> (norm cs, b, [ r ])) t.equations) in
  let progress = ref true in
  while !conflict = None && !progress do
    progress := false;
    (* gcd / triviality pass *)
    eqs :=
      List.filter_map
        (fun (cs, b, rs) ->
          match cs with
          | [] ->
            if not (Bigint.is_zero b) && !conflict = None then conflict := Some rs;
            None
          | _ ->
            let g = List.fold_left (fun acc (_, c) -> Bigint.gcd acc c) Bigint.zero cs in
            let q, r = Bigint.div_rem b g in
            if not (Bigint.is_zero r) then begin
              if !conflict = None then conflict := Some rs;
              None
            end
            else Some (List.map (fun (v, c) -> (v, fst (Bigint.div_rem c g))) cs, q, rs))
        !eqs;
    if !conflict = None then begin
      (* Find an equation with a +-1 coefficient and substitute it away. *)
      let rec split acc = function
        | [] -> None
        | ((cs, _, _) as eq) :: rest ->
          if List.exists (fun (_, c) -> Bigint.equal (Bigint.abs c) Bigint.one) cs then
            Some (eq, List.rev_append acc rest)
          else split (eq :: acc) rest
      in
      match split [] !eqs with
      | None -> ()
      | Some ((cs, b, rs), rest) ->
        progress := true;
        let x, cx = List.find (fun (_, c) -> Bigint.equal (Bigint.abs c) Bigint.one) cs in
        (* cx * x = b - sum(others)  =>  x = s * (b - others), s = cx. *)
        let others = List.filter (fun (v, _) -> v <> x) cs in
        let sub_into (cs2, b2, rs2) =
          match List.assoc_opt x cs2 with
          | None -> (cs2, b2, rs2)
          | Some c2 ->
            (* Replace c2*x by c2 * s * (b - others). *)
            let s = cx in
            let k = Bigint.mul c2 s in
            let cs2' = List.filter (fun (v, _) -> v <> x) cs2 in
            let cs2' = cs2' @ List.map (fun (v, c) -> (v, Bigint.neg (Bigint.mul k c))) others in
            (norm cs2', Bigint.sub b2 (Bigint.mul k b), List.sort_uniq compare (rs @ rs2))
        in
        eqs := List.map sub_into rest
    end
  done;
  !conflict

(* --- simplex core ------------------------------------------------------ *)

exception Found of int

(* Smallest-index basic variable outside its bounds (Bland's rule). *)
let find_violating t =
  try
    for v = 0 to t.nvars - 1 do
      if
        t.is_basic.(v)
        && ((has_lower t v && Rat.compare t.beta.(v) t.lo_value.(v) < 0)
           || (has_upper t v && Rat.compare t.beta.(v) t.up_value.(v) > 0))
      then raise (Found v)
    done;
    None
  with Found v -> Some v

let simplex_check t =
  let rec loop () =
    match find_violating t with
    | None -> Sat
    | Some bi ->
      let row = Tbl.find t.rows bi in
      let below = has_lower t bi && Rat.compare t.beta.(bi) t.lo_value.(bi) < 0 in
      let target = if below then t.lo_value.(bi) else t.up_value.(bi) in
      let own_reason = if below then t.lo_reason.(bi) else t.up_reason.(bi) in
      (* Moving [bi] toward [target] through a row entry [a * xj] moves
         [xj] up (against its upper bound) when this holds, else down. *)
      let wants_upper a = if below then Rat.sign a > 0 else Rat.sign a < 0 in
      let can_move xj a =
        Rat.sign a <> 0
        &&
        if wants_upper a then
          (not (has_upper t xj)) || Rat.compare t.beta.(xj) t.up_value.(xj) < 0
        else (not (has_lower t xj)) || Rat.compare t.beta.(xj) t.lo_value.(xj) > 0
      in
      (* The smallest-index entry that can move. *)
      let candidate =
        Tbl.fold (fun xj a best -> if xj < best && can_move xj a then xj else best) row max_int
      in
      if candidate < max_int then begin
        pivot_and_update t bi candidate target;
        loop ()
      end
      else begin
        (* Infeasible: core from the bounds blocking each row var. *)
        let entries = Tbl.fold (fun v c acc -> (v, c) :: acc) row [] in
        let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
        let blocking_reason (xj, a) =
          let r = if wants_upper a then t.up_reason.(xj) else t.lo_reason.(xj) in
          if r = no_bound then None else Some r
        in
        let core = List.filter_map blocking_reason entries in
        (if t.certify then begin
           (* Farkas witness: the violated bound of [bi] with multiplier 1
              plus each blocking bound with multiplier |a|; the row
              identity makes the combination cancel to [0 <= c], [c < 0]. *)
           let own =
             centry_of_bound t ~reason:own_reason ~lambda:Rat.one ~v:bi ~is_upper:(not below)
               ~bound:target
           in
           let rest =
             List.filter_map
               (fun ((xj, a) as e) ->
                 Option.map
                   (fun reason ->
                     let want_upper = wants_upper a in
                     centry_of_bound t ~reason ~lambda:(Rat.abs a) ~v:xj ~is_upper:want_upper
                       ~bound:(if want_upper then t.up_value.(xj) else t.lo_value.(xj)))
                   (blocking_reason e))
               entries
           in
           if List.length rest = List.length entries then set_cert t (own :: rest)
           else clear_cert t
         end);
        Conflict (List.sort_uniq compare (own_reason :: core))
      end
  in
  loop ()

(* --- integrality (branch and bound) ------------------------------------ *)

let save_bounds t =
  let n = t.nvars in
  ( Array.sub t.lo_value 0 n,
    Array.sub t.lo_reason 0 n,
    Array.sub t.up_value 0 n,
    Array.sub t.up_reason 0 n )

let restore_bounds t (lo_value, lo_reason, up_value, up_reason) =
  let n = Array.length lo_value in
  Array.blit lo_value 0 t.lo_value 0 n;
  Array.blit lo_reason 0 t.lo_reason 0 n;
  Array.blit up_value 0 t.up_value 0 n;
  Array.blit up_reason 0 t.up_reason 0 n

let find_fractional t =
  try
    for v = 0 to t.nvars - 1 do
      if not (Rat.is_integer t.beta.(v)) then raise (Found v)
    done;
    None
  with Found v -> Some v

let rec bb_check t budget =
  if !budget <= 0 then Unknown
  else begin
    decr budget;
    match simplex_check t with
    | Conflict c -> Conflict c
    | Unknown -> Unknown
    | Sat -> (
      match find_fractional t with
      | None -> Sat
      | Some v -> (
        let fl = Rat.of_bigint (Rat.floor t.beta.(v)) in
        let saved = save_bounds t in
        let saved_conflict = t.conflict in
        (* Branch x <= floor. *)
        assert_upper t v fl (-1);
        let left = match t.conflict with
          | Some c -> t.conflict <- saved_conflict; Conflict c
          | None -> bb_check t budget
        in
        restore_bounds t saved;
        t.conflict <- saved_conflict;
        match left with
        | Sat -> Sat
        | Unknown -> Unknown
        | Conflict c1 -> (
          (* Branch x >= floor + 1. *)
          assert_lower t v (Rat.add fl Rat.one) (-1);
          let right = match t.conflict with
            | Some c -> t.conflict <- saved_conflict; Conflict c
            | None -> bb_check t budget
          in
          restore_bounds t saved;
          t.conflict <- saved_conflict;
          match right with
          | Sat -> Sat
          | Unknown -> Unknown
          | Conflict c2 ->
            (* Both branches dead: union of cores, minus branch markers.
               No Farkas witness exists for the union — the replay kernel
               records it as a trusted branch step. *)
            clear_cert t;
            Conflict (List.sort_uniq compare (List.filter (fun r -> r >= 0) (c1 @ c2))))))
  end

let check ?(max_branch = 2000) t =
  match t.conflict with
  | Some c -> Conflict c
  | None -> (
    (* No re-evaluation of the basic values: every write to [beta]
       ([update_nonbasic], [pivot_and_update], [form_var]) keeps each basic
       value equal to its row at the current assignment, and bound resets
       and restores touch bounds only ({!tableau_consistent} checks it). *)
    match bb_check t (ref max_branch) with
    | Unknown -> (
      (* Branch-and-bound cannot terminate on gcd/parity infeasibilities;
         the elimination pass decides those.  Running it only here keeps
         the common Sat/Conflict path cheap. *)
      match eliminate_equations t with
      | Some core ->
        clear_cert t;
        Conflict (List.sort_uniq compare core)
      | None -> Unknown)
    | v -> v)

let model_value t v = t.beta.(v)

let tableau_consistent t =
  Tbl.fold (fun b row ok -> ok && Rat.equal t.beta.(b) (eval_row t row)) t.rows true
