module Bigint = Vbase.Bigint

type sym = { sid : int; sname : string; sargs : Sort.t list; sret : Sort.t }

type bvop =
  | Band
  | Bor
  | Bxor
  | Bnot
  | Badd
  | Bsub
  | Bmul
  | Bneg
  | Bshl
  | Blshr
  | Bule
  | Bult
  | Bconcat
  | Bextract of int * int

type t = { tid : int; node : node; sort : Sort.t }

and node =
  | True
  | False
  | Int_lit of Bigint.t
  | Bv_lit of { width : int; value : Bigint.t }
  | Bvar of string * Sort.t
  | App of sym * t list
  | Eq of t * t
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Ite of t * t * t
  | Add of t list
  | Sub of t * t
  | Mul of t * t
  | Neg of t
  | Le of t * t
  | Lt of t * t
  | Idiv of t * t
  | Imod of t * t
  | Bv_op of bvop * t list
  | Forall of quant
  | Exists of quant

and quant = { qvars : (string * Sort.t) list; triggers : t list list; body : t }

(* ------------------------------------------------------------------ *)
(* Symbols                                                             *)
(* ------------------------------------------------------------------ *)

module Sym = struct
  let lock = Mutex.create ()
  let table : (string, sym) Hashtbl.t = Hashtbl.create 256
  let counter = ref 0

  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let declare sname sargs sret =
    with_lock (fun () ->
        match Hashtbl.find_opt table sname with
        | Some s ->
          if List.for_all2 Sort.equal s.sargs sargs && Sort.equal s.sret sret then s
          else invalid_arg (Printf.sprintf "Sym.declare: %s redeclared at new signature" sname)
        | None ->
          incr counter;
          let s = { sid = !counter; sname; sargs; sret } in
          Hashtbl.add table sname s;
          s)

  let fresh prefix sargs sret =
    with_lock (fun () ->
        incr counter;
        let sname = Printf.sprintf "%s!%d" prefix !counter in
        let s = { sid = !counter; sname; sargs; sret } in
        Hashtbl.add table sname s;
        s)

  let equal a b = a.sid = b.sid
  let hash s = s.sid
end

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

let node_equal n1 n2 =
  match (n1, n2) with
  | True, True | False, False -> true
  | Int_lit a, Int_lit b -> Bigint.equal a b
  | Bv_lit a, Bv_lit b -> a.width = b.width && Bigint.equal a.value b.value
  | Bvar (x, s), Bvar (y, u) -> String.equal x y && Sort.equal s u
  | App (f, xs), App (g, ys) ->
    Sym.equal f g && List.length xs = List.length ys && List.for_all2 (fun a b -> a == b) xs ys
  | Eq (a, b), Eq (c, d)
  | Implies (a, b), Implies (c, d)
  | Iff (a, b), Iff (c, d)
  | Sub (a, b), Sub (c, d)
  | Mul (a, b), Mul (c, d)
  | Le (a, b), Le (c, d)
  | Lt (a, b), Lt (c, d)
  | Idiv (a, b), Idiv (c, d)
  | Imod (a, b), Imod (c, d) -> a == c && b == d
  | Not a, Not b -> a == b
  | Neg a, Neg b -> a == b
  | And xs, And ys | Or xs, Or ys | Add xs, Add ys ->
    List.length xs = List.length ys && List.for_all2 (fun a b -> a == b) xs ys
  | Ite (a, b, c), Ite (d, e, f) -> a == d && b == e && c == f
  | Bv_op (o1, xs), Bv_op (o2, ys) ->
    o1 = o2 && List.length xs = List.length ys && List.for_all2 (fun a b -> a == b) xs ys
  | Forall q1, Forall q2 | Exists q1, Exists q2 ->
    q1.body == q2.body
    && List.length q1.qvars = List.length q2.qvars
    && List.for_all2
         (fun (x, s) (y, u) -> String.equal x y && Sort.equal s u)
         q1.qvars q2.qvars
    && List.length q1.triggers = List.length q2.triggers
    && List.for_all2
         (fun g1 g2 ->
           List.length g1 = List.length g2 && List.for_all2 (fun a b -> a == b) g1 g2)
         q1.triggers q2.triggers
  | ( ( True | False | Int_lit _ | Bv_lit _ | Bvar _ | App _ | Eq _ | Not _ | And _ | Or _
      | Implies _ | Iff _ | Ite _ | Add _ | Sub _ | Mul _ | Neg _ | Le _ | Lt _ | Idiv _
      | Imod _ | Bv_op _ | Forall _ | Exists _ ),
      _ ) -> false

let node_hash n =
  let h xs = List.fold_left (fun acc t -> (acc * 31) + t.tid) 17 xs in
  match n with
  | True -> 1
  | False -> 2
  | Int_lit v -> 3 + (31 * Bigint.hash v)
  | Bv_lit { width; value } -> 5 + (31 * ((width * 131) + Bigint.hash value))
  | Bvar (x, s) -> 7 + (31 * ((Hashtbl.hash x * 131) + Sort.hash s))
  | App (f, xs) -> 11 + (31 * ((f.sid * 131) + h xs))
  | Eq (a, b) -> 13 + (31 * ((a.tid * 131) + b.tid))
  | Not a -> 17 + (31 * a.tid)
  | And xs -> 19 + (31 * h xs)
  | Or xs -> 23 + (31 * h xs)
  | Implies (a, b) -> 29 + (31 * ((a.tid * 131) + b.tid))
  | Iff (a, b) -> 31 + (31 * ((a.tid * 131) + b.tid))
  | Ite (a, b, c) -> 37 + (31 * ((((a.tid * 131) + b.tid) * 131) + c.tid))
  | Add xs -> 41 + (31 * h xs)
  | Sub (a, b) -> 43 + (31 * ((a.tid * 131) + b.tid))
  | Mul (a, b) -> 47 + (31 * ((a.tid * 131) + b.tid))
  | Neg a -> 53 + (31 * a.tid)
  | Le (a, b) -> 59 + (31 * ((a.tid * 131) + b.tid))
  | Lt (a, b) -> 61 + (31 * ((a.tid * 131) + b.tid))
  | Idiv (a, b) -> 67 + (31 * ((a.tid * 131) + b.tid))
  | Imod (a, b) -> 71 + (31 * ((a.tid * 131) + b.tid))
  | Bv_op (o, xs) -> 73 + (31 * ((Hashtbl.hash o * 131) + h xs))
  | Forall q -> 79 + (31 * ((q.body.tid * 131) + Hashtbl.hash q.qvars))
  | Exists q -> 83 + (31 * ((q.body.tid * 131) + Hashtbl.hash q.qvars))

module Node_tbl = Hashtbl.Make (struct
  type t = node

  let equal = node_equal
  let hash = node_hash
end)

let hc_lock = Mutex.create ()
let hc_table : t Node_tbl.t = Node_tbl.create 4096
let hc_counter = ref 0

let mk node sort =
  Mutex.lock hc_lock;
  let r =
    match Node_tbl.find_opt hc_table node with
    | Some t -> t
    | None ->
      incr hc_counter;
      let t = { tid = !hc_counter; node; sort } in
      Node_tbl.add hc_table node t;
      t
  in
  Mutex.unlock hc_lock;
  r

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let sort_of t = t.sort
let equal a b = a == b
let compare a b = Stdlib.compare a.tid b.tid
let hash t = t.tid

module Id_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

let tru = mk True Sort.Bool
let fls = mk False Sort.Bool
let bool_lit b = if b then tru else fls
let int_lit v = mk (Int_lit v) Sort.Int
let int_of i = int_lit (Bigint.of_int i)

let bv_lit ~width value =
  if width <= 0 then invalid_arg "Term.bv_lit: width";
  (* Reduce into [0, 2^width), handling arbitrarily negative inputs. *)
  let value = Bigint.fmod value (Bigint.pow Bigint.two width) in
  mk (Bv_lit { width; value }) (Sort.Bv width)

let bvar x s = mk (Bvar (x, s)) s

let app f args =
  let n_expected = List.length f.sargs and n_got = List.length args in
  if n_expected <> n_got then
    invalid_arg (Printf.sprintf "Term.app: %s expects %d args, got %d" f.sname n_expected n_got);
  List.iter2
    (fun s a ->
      if not (Sort.equal s a.sort) then
        invalid_arg
          (Printf.sprintf "Term.app: %s arg sort mismatch (%s vs %s)" f.sname (Sort.to_string s)
             (Sort.to_string a.sort)))
    f.sargs args;
  mk (App (f, args)) f.sret

let const f =
  if f.sargs <> [] then invalid_arg "Term.const: symbol has arguments";
  app f []

let require_bool t ctx =
  if not (Sort.equal t.sort Sort.Bool) then invalid_arg (ctx ^ ": expected Bool")

let require_int t ctx =
  if not (Sort.equal t.sort Sort.Int) then invalid_arg (ctx ^ ": expected Int")

let not_ t =
  require_bool t "Term.not_";
  match t.node with
  | True -> fls
  | False -> tru
  | Not u -> u
  | _ -> mk (Not t) Sort.Bool

let and_ ts =
  List.iter (fun t -> require_bool t "Term.and_") ts;
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | t :: rest -> (
      match t.node with
      | True -> flatten acc rest
      | False -> None
      | And inner -> flatten (List.rev_append inner acc) rest
      | _ -> flatten (t :: acc) rest)
  in
  match flatten [] ts with
  | None -> fls
  | Some [] -> tru
  | Some [ t ] -> t
  | Some ts -> mk (And ts) Sort.Bool

let or_ ts =
  List.iter (fun t -> require_bool t "Term.or_") ts;
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | t :: rest -> (
      match t.node with
      | False -> flatten acc rest
      | True -> None
      | Or inner -> flatten (List.rev_append inner acc) rest
      | _ -> flatten (t :: acc) rest)
  in
  match flatten [] ts with
  | None -> tru
  | Some [] -> fls
  | Some [ t ] -> t
  | Some ts -> mk (Or ts) Sort.Bool

let implies a b =
  require_bool a "Term.implies";
  require_bool b "Term.implies";
  match (a.node, b.node) with
  | True, _ -> b
  | False, _ -> tru
  | _, True -> tru
  | _, False -> not_ a
  | _ -> mk (Implies (a, b)) Sort.Bool

let iff a b =
  require_bool a "Term.iff";
  require_bool b "Term.iff";
  if a == b then tru
  else
    match (a.node, b.node) with
    | True, _ -> b
    | _, True -> a
    | False, _ -> not_ b
    | _, False -> not_ a
    | _ -> mk (Iff (a, b)) Sort.Bool

let eq a b =
  if not (Sort.equal a.sort b.sort) then invalid_arg "Term.eq: sort mismatch";
  if a == b then tru
  else
    match (a.node, b.node) with
    | Int_lit x, Int_lit y -> bool_lit (Bigint.equal x y)
    | Bv_lit x, Bv_lit y -> bool_lit (Bigint.equal x.value y.value)
    | _ when Sort.equal a.sort Sort.Bool -> iff a b
    | _ ->
      (* Order operands by id for canonical form. *)
      let a, b = if a.tid <= b.tid then (a, b) else (b, a) in
      mk (Eq (a, b)) Sort.Bool

let neq a b = not_ (eq a b)

let distinct ts =
  let rec pairs = function
    | [] | [ _ ] -> []
    | x :: rest -> List.map (fun y -> neq x y) rest @ pairs rest
  in
  and_ (pairs ts)

let ite c t e =
  require_bool c "Term.ite";
  if not (Sort.equal t.sort e.sort) then invalid_arg "Term.ite: branch sorts differ";
  match c.node with
  | True -> t
  | False -> e
  | _ -> if t == e then t else mk (Ite (c, t, e)) t.sort

let add ts =
  List.iter (fun t -> require_int t "Term.add") ts;
  let rec flatten const acc = function
    | [] -> (const, List.rev acc)
    | t :: rest -> (
      match t.node with
      | Int_lit v -> flatten (Bigint.add const v) acc rest
      | Add inner -> flatten const acc (inner @ rest)
      | _ -> flatten const (t :: acc) rest)
  in
  let const, rest = flatten Bigint.zero [] ts in
  let parts = if Bigint.is_zero const then rest else rest @ [ int_lit const ] in
  match parts with
  | [] -> int_lit Bigint.zero
  | [ t ] -> t
  | parts -> mk (Add parts) Sort.Int

let neg t =
  require_int t "Term.neg";
  match t.node with
  | Int_lit v -> int_lit (Bigint.neg v)
  | Neg u -> u
  | _ -> mk (Neg t) Sort.Int

let sub a b =
  require_int a "Term.sub";
  require_int b "Term.sub";
  match (a.node, b.node) with
  | Int_lit x, Int_lit y -> int_lit (Bigint.sub x y)
  | _, Int_lit y when Bigint.is_zero y -> a
  | _ when a == b -> int_lit Bigint.zero
  | _ -> mk (Sub (a, b)) Sort.Int

let mul a b =
  require_int a "Term.mul";
  require_int b "Term.mul";
  match (a.node, b.node) with
  | Int_lit x, Int_lit y -> int_lit (Bigint.mul x y)
  | Int_lit x, _ when Bigint.equal x Bigint.one -> b
  | _, Int_lit y when Bigint.equal y Bigint.one -> a
  | Int_lit x, _ when Bigint.is_zero x -> int_lit Bigint.zero
  | _, Int_lit y when Bigint.is_zero y -> int_lit Bigint.zero
  | _ ->
    let a, b = if a.tid <= b.tid then (a, b) else (b, a) in
    mk (Mul (a, b)) Sort.Int

let le a b =
  require_int a "Term.le";
  require_int b "Term.le";
  match (a.node, b.node) with
  | Int_lit x, Int_lit y -> bool_lit (Bigint.compare x y <= 0)
  | _ when a == b -> tru
  | _ -> mk (Le (a, b)) Sort.Bool

let lt a b =
  require_int a "Term.lt";
  require_int b "Term.lt";
  match (a.node, b.node) with
  | Int_lit x, Int_lit y -> bool_lit (Bigint.compare x y < 0)
  | _ when a == b -> fls
  | _ -> mk (Lt (a, b)) Sort.Bool

let ge a b = le b a
let gt a b = lt b a

let idiv a b =
  require_int a "Term.idiv";
  require_int b "Term.idiv";
  match (a.node, b.node) with
  | Int_lit x, Int_lit y when not (Bigint.is_zero y) -> int_lit (fst (Bigint.ediv_rem x y))
  | _, Int_lit y when Bigint.equal y Bigint.one -> a
  | _ -> mk (Idiv (a, b)) Sort.Int

let imod a b =
  require_int a "Term.imod";
  require_int b "Term.imod";
  match (a.node, b.node) with
  | Int_lit x, Int_lit y when not (Bigint.is_zero y) -> int_lit (snd (Bigint.ediv_rem x y))
  | _, Int_lit y when Bigint.equal y Bigint.one -> int_lit Bigint.zero
  | _ -> mk (Imod (a, b)) Sort.Int

let bv_width t =
  match t.sort with
  | Sort.Bv w -> w
  | _ -> invalid_arg "Term.bv_op: expected bit-vector argument"

let mask_to_width w v = Bigint.fmod v (Bigint.pow Bigint.two w)

let bv_op op args =
  let lit2 f =
    match args with
    | [ { node = Bv_lit a; _ }; { node = Bv_lit b; _ } ] when a.width = b.width ->
      Some (bv_lit ~width:a.width (f a.width a.value b.value))
    | _ -> None
  in
  let bool2 f =
    match args with
    | [ { node = Bv_lit a; _ }; { node = Bv_lit b; _ } ] -> Some (bool_lit (f a.value b.value))
    | _ -> None
  in
  let same2 () =
    match args with
    | [ a; b ] ->
      let w = bv_width a in
      if bv_width b <> w then invalid_arg "Term.bv_op: width mismatch";
      w
    | _ -> invalid_arg "Term.bv_op: arity"
  in
  let bitwise f =
    (* Apply f bit by bit on magnitudes. *)
    fun w x y ->
      let r = ref Bigint.zero in
      for i = w - 1 downto 0 do
        r := Bigint.add (Bigint.add !r !r)
            (if f (Bigint.testbit x i) (Bigint.testbit y i) then Bigint.one else Bigint.zero)
      done;
      !r
  in
  match op with
  | Band | Bor | Bxor -> (
    let w = same2 () in
    let f =
      match op with
      | Band -> ( && )
      | Bor -> ( || )
      | _ -> ( <> )
    in
    match lit2 (bitwise f) with
    | Some t -> t
    | None -> mk (Bv_op (op, args)) (Sort.Bv w))
  | Badd | Bsub | Bmul -> (
    let w = same2 () in
    let f =
      match op with
      | Badd -> Bigint.add
      | Bsub -> Bigint.sub
      | _ -> Bigint.mul
    in
    match lit2 (fun w x y -> mask_to_width w (f x y)) with
    | Some t -> t
    | None -> mk (Bv_op (op, args)) (Sort.Bv w))
  | Bnot | Bneg -> (
    match args with
    | [ a ] -> (
      let w = bv_width a in
      match a.node with
      | Bv_lit { value; _ } ->
        let all1 = Bigint.sub (Bigint.pow Bigint.two w) Bigint.one in
        if op = Bnot then bv_lit ~width:w (Bigint.sub all1 value)
        else bv_lit ~width:w (Bigint.sub (Bigint.add all1 Bigint.one) value)
      | _ -> mk (Bv_op (op, args)) (Sort.Bv w))
    | _ -> invalid_arg "Term.bv_op: arity")
  | Bshl | Blshr -> (
    match args with
    | [ a; { node = Int_lit k; _ } ] -> (
      let w = bv_width a in
      let k = Bigint.to_int_exn k in
      if k < 0 then invalid_arg "Term.bv_op: negative shift";
      match a.node with
      | Bv_lit { value; _ } ->
        if op = Bshl then bv_lit ~width:w (mask_to_width w (Bigint.shift_left value k))
        else
          bv_lit ~width:w
            (if k >= w then Bigint.zero else fst (Bigint.ediv_rem value (Bigint.pow Bigint.two k)))
      | _ -> mk (Bv_op (op, args)) (Sort.Bv w))
    | _ -> invalid_arg "Term.bv_op: shift amount must be an integer literal")
  | Bule | Bult -> (
    let _w = same2 () in
    let f = if op = Bule then fun x y -> Bigint.compare x y <= 0 else fun x y -> Bigint.compare x y < 0 in
    match bool2 f with
    | Some t -> t
    | None -> mk (Bv_op (op, args)) Sort.Bool)
  | Bconcat -> (
    match args with
    | [ a; b ] -> (
      let wa = bv_width a and wb = bv_width b in
      match (a.node, b.node) with
      | Bv_lit x, Bv_lit y ->
        bv_lit ~width:(wa + wb) (Bigint.add (Bigint.shift_left x.value wb) y.value)
      | _ -> mk (Bv_op (op, args)) (Sort.Bv (wa + wb)))
    | _ -> invalid_arg "Term.bv_op: arity")
  | Bextract (hi, lo) -> (
    match args with
    | [ a ] -> (
      let w = bv_width a in
      if not (0 <= lo && lo <= hi && hi < w) then invalid_arg "Term.bv_op: extract bounds";
      let width = hi - lo + 1 in
      match a.node with
      | Bv_lit { value; _ } ->
        bv_lit ~width
          (Bigint.logand2p (fst (Bigint.ediv_rem value (Bigint.pow Bigint.two lo))) width)
      | _ -> mk (Bv_op (op, args)) (Sort.Bv width))
    | _ -> invalid_arg "Term.bv_op: arity")

let forall ?(triggers = []) qvars body =
  require_bool body "Term.forall";
  match (qvars, body.node) with
  | [], _ -> body
  | _, True -> tru
  | _ -> mk (Forall { qvars; triggers; body }) Sort.Bool

let exists ?(triggers = []) qvars body =
  require_bool body "Term.exists";
  match (qvars, body.node) with
  | [], _ -> body
  | _, False -> fls
  | _ -> mk (Exists { qvars; triggers; body }) Sort.Bool

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let children t =
  match t.node with
  | True | False | Int_lit _ | Bv_lit _ | Bvar _ -> []
  | App (_, xs) | And xs | Or xs | Add xs | Bv_op (_, xs) -> xs
  | Not a | Neg a -> [ a ]
  | Eq (a, b)
  | Implies (a, b)
  | Iff (a, b)
  | Sub (a, b)
  | Mul (a, b)
  | Le (a, b)
  | Lt (a, b)
  | Idiv (a, b)
  | Imod (a, b) -> [ a; b ]
  | Ite (a, b, c) -> [ a; b; c ]
  | Forall q | Exists q -> q.body :: List.concat q.triggers

let fold_subterms f acc t =
  let seen = Hashtbl.create 64 in
  let rec go acc t =
    if Hashtbl.mem seen t.tid then acc
    else begin
      Hashtbl.add seen t.tid ();
      let acc = f acc t in
      List.fold_left go acc (children t)
    end
  in
  go acc t

let size t = fold_subterms (fun n _ -> n + 1) 0 t

let tree_size t =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.tid with
    | Some n -> n
    | None ->
      let n = 1 + List.fold_left (fun acc c -> acc + go c) 0 (children t) in
      Hashtbl.add memo t.tid n;
      n
  in
  go t

let free_bvars t =
  (* Accumulate bound variables not captured by an enclosing binder. *)
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go bound t =
    match t.node with
    | Bvar (x, s) ->
      if (not (List.mem_assoc x bound)) && not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        acc := (x, s) :: !acc
      end
    | Forall q | Exists q ->
      let bound = q.qvars @ bound in
      go bound q.body;
      List.iter (List.iter (go bound)) q.triggers
    | _ -> List.iter (go bound) (children t)
  in
  go [] t;
  List.rev !acc

let is_ground t = free_bvars t = []

let rebuild t node_children =
  (* Reconstruct t with new children (same order as [children t]). *)
  match (t.node, node_children) with
  | (True | False | Int_lit _ | Bv_lit _ | Bvar _), _ -> t
  | App (f, _), xs -> app f xs
  | Eq _, [ a; b ] -> eq a b
  | Not _, [ a ] -> not_ a
  | And _, xs -> and_ xs
  | Or _, xs -> or_ xs
  | Implies _, [ a; b ] -> implies a b
  | Iff _, [ a; b ] -> iff a b
  | Ite _, [ a; b; c ] -> ite a b c
  | Add _, xs -> add xs
  | Sub _, [ a; b ] -> sub a b
  | Mul _, [ a; b ] -> mul a b
  | Neg _, [ a ] -> neg a
  | Le _, [ a; b ] -> le a b
  | Lt _, [ a; b ] -> lt a b
  | Idiv _, [ a; b ] -> idiv a b
  | Imod _, [ a; b ] -> imod a b
  | Bv_op (o, _), xs -> bv_op o xs
  | (Forall q | Exists q), body :: trigs ->
    (* Regroup the flat trigger terms into the binder's group shapes. *)
    let rec take k xs =
      if k = 0 then ([], xs)
      else
        match xs with
        | x :: tl -> let a, b = take (k - 1) tl in (x :: a, b)
        | [] -> invalid_arg "rebuild"
    in
    let _, triggers =
      List.fold_left_map
        (fun rest g -> let grp, rest = take (List.length g) rest in (rest, grp))
        trigs q.triggers
    in
    (match t.node with Forall _ -> forall | _ -> exists) ~triggers q.qvars body
  | _ -> invalid_arg "Term.rebuild: arity mismatch"

let subst bindings t =
  if bindings = [] then t
  else begin
    let memo = Hashtbl.create 64 in
    let rec go bindings t =
      if bindings = [] then t
      else
        match Hashtbl.find_opt memo t.tid with
        | Some r -> r
        | None ->
          let r =
            match t.node with
            | Bvar (x, _) -> ( match List.assoc_opt x bindings with Some u -> u | None -> t)
            | Forall q | Exists q ->
              (* Drop shadowed bindings under the binder. *)
              let bindings' =
                List.filter (fun (x, _) -> not (List.mem_assoc x q.qvars)) bindings
              in
              if bindings' == bindings then rebuild t (List.map (go bindings) (children t))
              else begin
                (* Different binding set: bypass the memo table for this
                   subtree (rare; nested shadowing). *)
                let body = go_nomemo bindings' q.body in
                let triggers = List.map (List.map (go_nomemo bindings')) q.triggers in
                match t.node with
                | Forall _ -> forall ~triggers q.qvars body
                | _ -> exists ~triggers q.qvars body
              end
            | _ -> rebuild t (List.map (go bindings) (children t))
          in
          Hashtbl.add memo t.tid r;
          r
    and go_nomemo bindings t =
      match t.node with
      | Bvar (x, _) -> ( match List.assoc_opt x bindings with Some u -> u | None -> t)
      | Forall q | Exists q ->
        let bindings' = List.filter (fun (x, _) -> not (List.mem_assoc x q.qvars)) bindings in
        let body = go_nomemo bindings' q.body in
        let triggers = List.map (List.map (go_nomemo bindings')) q.triggers in
        (match t.node with Forall _ -> forall ~triggers q.qvars body | _ -> exists ~triggers q.qvars body)
      | _ -> rebuild t (List.map (go_nomemo bindings) (children t))
    in
    go bindings t
  end

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let bvop_name = function
  | Band -> "bvand"
  | Bor -> "bvor"
  | Bxor -> "bvxor"
  | Bnot -> "bvnot"
  | Badd -> "bvadd"
  | Bsub -> "bvsub"
  | Bmul -> "bvmul"
  | Bneg -> "bvneg"
  | Bshl -> "bvshl"
  | Blshr -> "bvlshr"
  | Bule -> "bvule"
  | Bult -> "bvult"
  | Bconcat -> "concat"
  | Bextract (hi, lo) -> Printf.sprintf "(_ extract %d %d)" hi lo

let rec pp fmt t =
  let open Format in
  let list name xs =
    fprintf fmt "@[<hov 1>(%s" name;
    List.iter (fun x -> fprintf fmt "@ %a" pp x) xs;
    fprintf fmt ")@]"
  in
  match t.node with
  | True -> pp_print_string fmt "true"
  | False -> pp_print_string fmt "false"
  | Int_lit v ->
    if Bigint.sign v < 0 then fprintf fmt "(- %s)" (Bigint.to_string (Bigint.neg v))
    else pp_print_string fmt (Bigint.to_string v)
  | Bv_lit { width; value } -> fprintf fmt "(_ bv%s %d)" (Bigint.to_string value) width
  | Bvar (x, _) -> pp_print_string fmt x
  | App (f, []) -> pp_print_string fmt f.sname
  | App (f, xs) -> list f.sname xs
  | Eq (a, b) -> list "=" [ a; b ]
  | Not a -> list "not" [ a ]
  | And xs -> list "and" xs
  | Or xs -> list "or" xs
  | Implies (a, b) -> list "=>" [ a; b ]
  | Iff (a, b) -> list "=" [ a; b ]
  | Ite (a, b, c) -> list "ite" [ a; b; c ]
  | Add xs -> list "+" xs
  | Sub (a, b) -> list "-" [ a; b ]
  | Mul (a, b) -> list "*" [ a; b ]
  | Neg a -> list "-" [ a ]
  | Le (a, b) -> list "<=" [ a; b ]
  | Lt (a, b) -> list "<" [ a; b ]
  | Idiv (a, b) -> list "div" [ a; b ]
  | Imod (a, b) -> list "mod" [ a; b ]
  | Bv_op (o, xs) -> list (bvop_name o) xs
  | Forall q | Exists q ->
    let kw = match t.node with Forall _ -> "forall" | _ -> "exists" in
    fprintf fmt "@[<hov 1>(%s (" kw;
    List.iteri
      (fun i (x, s) ->
        if i > 0 then fprintf fmt " ";
        fprintf fmt "(%s %s)" x (Sort.to_string s))
      q.qvars;
    fprintf fmt ")";
    if q.triggers <> [] then begin
      fprintf fmt "@ (! %a" pp q.body;
      List.iter
        (fun g ->
          fprintf fmt "@ :pattern (";
          List.iteri (fun i p -> if i > 0 then fprintf fmt " "; pp fmt p) g;
          fprintf fmt ")")
        q.triggers;
      fprintf fmt ")"
    end
    else fprintf fmt "@ %a" pp q.body;
    fprintf fmt ")@]"

let to_string t = Format.asprintf "%a" pp t

(* Estimate the byte size of a let-sharing SMT-LIB rendering: each distinct
   subterm printed once (head + per-child reference), which is how a
   production query printer with sharing behaves.  This is the metric behind
   the paper's "SMT (MB)" column. *)
let printed_size t =
  let head_bytes t =
    match t.node with
    | True -> 4
    | False -> 5
    | Int_lit v -> String.length (Bigint.to_string v)
    | Bv_lit { value; _ } -> 8 + String.length (Bigint.to_string value)
    | Bvar (x, _) -> String.length x
    | App (f, _) -> String.length f.sname + 2
    | Forall q | Exists q ->
      10 + List.fold_left (fun acc (x, s) -> acc + String.length x + String.length (Sort.to_string s) + 4) 0 q.qvars
    | Bv_op (o, _) -> String.length (bvop_name o) + 2
    | _ -> 5
  in
  fold_subterms (fun acc t -> acc + head_bytes t + (7 * List.length (children t))) 0 t
