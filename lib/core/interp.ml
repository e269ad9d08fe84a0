module B = Vbase.Bigint
open Vir

type value = VBool of bool | VInt of B.t | VSeq of value list | VData of string * value list

exception Runtime_error of string
exception Assertion_failed of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let rec value_equal a b =
  match (a, b) with
  | VBool x, VBool y -> x = y
  | VInt x, VInt y -> B.equal x y
  | VSeq xs, VSeq ys -> List.length xs = List.length ys && List.for_all2 value_equal xs ys
  | VData (v1, f1), VData (v2, f2) ->
    String.equal v1 v2 && List.length f1 = List.length f2 && List.for_all2 value_equal f1 f2
  | _ -> false

let rec value_to_string = function
  | VBool b -> string_of_bool b
  | VInt n -> B.to_string n
  | VSeq vs -> "[" ^ String.concat "; " (List.map value_to_string vs) ^ "]"
  | VData (v, []) -> v
  | VData (v, fs) -> v ^ "(" ^ String.concat ", " (List.map value_to_string fs) ^ ")"

let as_bool = function VBool b -> b | v -> err "expected bool, got %s" (value_to_string v)
let as_int = function VInt n -> n | v -> err "expected int, got %s" (value_to_string v)
let as_seq = function VSeq s -> s | v -> err "expected seq, got %s" (value_to_string v)

let bit_op op kind a b =
  (* Operate on the two's-complement-free unsigned representation. *)
  let width = match kind with I_u8 -> 8 | I_u16 -> 16 | I_u32 -> 32 | I_u64 -> 64 | I_math -> err "bit op on int" in
  let mask v = B.fmod v (B.pow B.two width) in
  let a = mask a and b = mask b in
  match op with
  | BitAnd | BitOr | BitXor ->
    let f =
      match op with BitAnd -> ( && ) | BitOr -> ( || ) | _ -> ( <> )
    in
    let r = ref B.zero in
    for i = width - 1 downto 0 do
      r := B.add (B.add !r !r) (if f (B.testbit a i) (B.testbit b i) then B.one else B.zero)
    done;
    !r
  | Shl -> mask (B.shift_left a (B.to_int_exn b))
  | Shr -> fst (B.ediv_rem a (B.pow B.two (B.to_int_exn b)))
  | _ -> err "not a bit op"

let rec eval_expr ?(quant_bound = 0) (p : program) env (e : expr) : value =
  let ev e = eval_expr ~quant_bound p env e in
  match e with
  | EVar x -> (
    match List.assoc_opt x env with Some v -> v | None -> err "unbound variable %s" x)
  | EOld x -> (
    match List.assoc_opt ("old$" ^ x) env with
    | Some v -> v
    | None -> err "old(%s) not available" x)
  | EBool b -> VBool b
  | EInt n -> VInt (B.of_int n)
  | EUnop (Not, a) -> VBool (not (as_bool (ev a)))
  | EUnop (Neg, a) -> VInt (B.neg (as_int (ev a)))
  | EBinop (op, a, b) -> (
    match op with
    | And -> VBool (as_bool (ev a) && as_bool (ev b))
    | Or -> VBool (as_bool (ev a) || as_bool (ev b))
    | Implies -> VBool ((not (as_bool (ev a))) || as_bool (ev b))
    | Eq -> VBool (value_equal (ev a) (ev b))
    | Ne -> VBool (not (value_equal (ev a) (ev b)))
    | Add -> VInt (B.add (as_int (ev a)) (as_int (ev b)))
    | Sub -> VInt (B.sub (as_int (ev a)) (as_int (ev b)))
    | Mul -> VInt (B.mul (as_int (ev a)) (as_int (ev b)))
    | Div ->
      let d = as_int (ev b) in
      if B.is_zero d then err "division by zero";
      VInt (fst (B.ediv_rem (as_int (ev a)) d))
    | Mod ->
      let d = as_int (ev b) in
      if B.is_zero d then err "mod by zero";
      VInt (snd (B.ediv_rem (as_int (ev a)) d))
    | Lt -> VBool (B.compare (as_int (ev a)) (as_int (ev b)) < 0)
    | Le -> VBool (B.compare (as_int (ev a)) (as_int (ev b)) <= 0)
    | Gt -> VBool (B.compare (as_int (ev a)) (as_int (ev b)) > 0)
    | Ge -> VBool (B.compare (as_int (ev a)) (as_int (ev b)) >= 0)
    | BitAnd | BitOr | BitXor | Shl | Shr -> (
      (* Kind from the static typing (either operand may carry it). *)
      let kind_of e =
        try
          match Typecheck.ty_of_expr p (env_types p env) e with
          | TInt k when k <> I_math -> Some k
          | _ -> None
        with Failure _ -> None
      in
      match (kind_of a, kind_of b) with
      | Some k, _ | _, Some k -> VInt (bit_op op k (as_int (ev a)) (as_int (ev b)))
      | None, None -> err "bit op needs bounded ints"))
  | EIte (c, a, b) -> if as_bool (ev c) then ev a else ev b
  | ECall (f, args) -> (
    let fd = find_fn p f in
    match fd.spec_body with
    | Some body ->
      let env' =
        List.map2 (fun (prm : param) a -> (prm.pname, ev a)) fd.params args
      in
      eval_expr ~quant_bound p env' body
    | None -> err "call to bodiless spec function %s" f)
  | ECtor (_, vname, args) -> VData (vname, List.map ev args)
  | EField (e1, fname) -> (
    match ev e1 with
    | VData (vname, fields) -> (
      (* Locate the field position within this variant. *)
      let d =
        List.find
          (fun d -> List.exists (fun (vn, _) -> String.equal vn vname) d.variants)
          p.datatypes
      in
      let vfields = List.assoc vname d.variants in
      match List.find_index (fun (fn, _) -> String.equal fn fname) vfields with
      | Some idx -> List.nth fields idx
      | None -> err "variant %s has no field %s" vname fname)
    | v -> err "field access on %s" (value_to_string v))
  | EIs (e1, vname) -> (
    match ev e1 with
    | VData (vn, _) -> VBool (String.equal vn vname)
    | v -> err "variant test on %s" (value_to_string v))
  | ESeq op -> (
    match op with
    | SeqEmpty _ -> VSeq []
    | SeqLen s -> VInt (B.of_int (List.length (as_seq (ev s))))
    | SeqIndex (s, i) -> (
      let l = as_seq (ev s) in
      let idx = B.to_int_exn (as_int (ev i)) in
      match List.nth_opt l idx with
      | Some v -> v
      | None -> err "seq index %d out of bounds (len %d)" idx (List.length l))
    | SeqPush (s, x) -> VSeq (as_seq (ev s) @ [ ev x ])
    | SeqSkip (s, k) ->
      let l = as_seq (ev s) in
      let k = B.to_int_exn (as_int (ev k)) in
      VSeq (List.filteri (fun i _ -> i >= k) l)
    | SeqTake (s, k) ->
      let l = as_seq (ev s) in
      let k = B.to_int_exn (as_int (ev k)) in
      VSeq (List.filteri (fun i _ -> i < k) l)
    | SeqUpdate (s, i, x) ->
      let l = as_seq (ev s) in
      let idx = B.to_int_exn (as_int (ev i)) in
      let nv = ev x in
      VSeq (List.mapi (fun j old -> if j = idx then nv else old) l)
    | SeqAppend (a, b) -> VSeq (as_seq (ev a) @ as_seq (ev b)))
  | EForall (vars, _, body) | EExists (vars, _, body) -> (
    if quant_bound <= 0 then err "cannot evaluate quantifier (no bound)";
    let is_forall = match e with EForall _ -> true | _ -> false in
    let rec enum env' = function
      | [] ->
        let r = as_bool (eval_expr ~quant_bound p env' body) in
        if is_forall then r else r
      | (x, t) :: rest -> (
        match t with
        | TInt _ ->
          let range = List.init ((2 * quant_bound) + 1) (fun k -> k - quant_bound) in
          let results =
            List.map (fun k -> enum ((x, VInt (B.of_int k)) :: env') rest) range
          in
          if is_forall then List.for_all Fun.id results else List.exists Fun.id results
        | TBool ->
          let results = List.map (fun b -> enum ((x, VBool b) :: env') rest) [ true; false ] in
          if is_forall then List.for_all Fun.id results else List.exists Fun.id results
        | _ -> err "cannot evaluate quantifier over %s" (ty_to_string t))
    in
    VBool (enum env vars))

and env_types (p : program) env =
  (* Recover types of values for bit-op kind resolution: conservative. *)
  ignore p;
  List.filter_map
    (fun (x, v) ->
      match v with
      | VInt _ -> Some (x, TInt I_u64)
      | VBool _ -> Some (x, TBool)
      | _ -> None)
    env

exception Return_exc of value option

(* Statements run with their contracts checked: a violated requires,
   ensures, invariant or assert raises [Assertion_failed]. *)
let rec exec_stmts ?(quant_bound = 0) p (env : (string * value) list ref) stmts =
  List.iter (exec_stmt ~quant_bound p env) stmts

and exec_stmt ?(quant_bound = 0) p env s =
  let ev e = eval_expr ~quant_bound p !env e in
  match s with
  | SLet (x, _, e) | SAssign (x, e) ->
    let value = ev e in
    env := (x, value) :: List.remove_assoc x !env
  | SIf (c, a, b) -> if as_bool (ev c) then exec_stmts ~quant_bound p env a else exec_stmts ~quant_bound p env b
  | SWhile { cond; invariants; decreases = _; body } ->
    let check_invs () =
      List.iteri
        (fun i inv ->
          (* Invariants may quantify; tolerate evaluation failures in
             dynamic checking rather than failing the run. *)
          try
            if not (as_bool (ev inv)) then
              raise (Assertion_failed (Printf.sprintf "loop invariant %d" i))
          with Runtime_error _ -> ())
        invariants
    in
    check_invs ();
    while as_bool (ev cond) do
      exec_stmts ~quant_bound p env body;
      check_invs ()
    done
  | SCall (binding, f, args) -> (
    let fd = find_fn p f in
    let arg_values = List.map ev args in
    let result, mut_out = call_fn ~quant_bound p fd arg_values in
    (* Write back &mut arguments. *)
    List.iter2
      (fun (prm : param) a ->
        if prm.pmut then
          match a with
          | EVar x ->
            let nv = List.assoc prm.pname mut_out in
            env := (x, nv) :: List.remove_assoc x !env
          | _ -> err "&mut argument must be a variable")
      fd.params args;
    match (binding, result) with
    | Some x, Some value -> env := (x, value) :: List.remove_assoc x !env
    | Some _, None -> err "no result from %s" f
    | None, _ -> ())
  | SAssert (e, _) -> (
    try if not (as_bool (ev e)) then raise (Assertion_failed "assert")
    with Runtime_error _ -> () (* unbounded quantifier in ghost assert *))
  | SAssume _ -> ()
  | SReturn eo -> raise (Return_exc (Option.map ev eo))

and call_fn ?(quant_bound = 0) p (fd : fndecl) (args : value list) :
    value option * (string * value) list =
  let env0 =
    List.map2 (fun (prm : param) v -> (prm.pname, v)) fd.params args
    @ List.map2 (fun (prm : param) v -> ("old$" ^ prm.pname, v)) fd.params args
  in
  List.iteri
    (fun i req ->
      try
        if not (as_bool (eval_expr ~quant_bound p env0 req)) then
          raise (Assertion_failed (Printf.sprintf "%s: requires %d" fd.fname i))
      with Runtime_error _ -> ())
    fd.requires;
  let body = match fd.body with Some b -> b | None -> err "no body for %s" fd.fname in
  let env = ref env0 in
  let result =
    try
      exec_stmts ~quant_bound p env body;
      None
    with Return_exc v -> v
  in
  let mut_out =
    List.filter_map
      (fun (prm : param) ->
        if prm.pmut then Some (prm.pname, List.assoc prm.pname !env) else None)
      fd.params
  in
  let env_post =
    (match (result, fd.ret) with
    | Some value, Some (rname, _) -> [ (rname, value) ]
    | _ -> [])
    @ List.map
        (fun (prm : param) ->
          match List.assoc_opt prm.pname mut_out with
          | Some v -> (prm.pname, v)
          | None -> (prm.pname, List.assoc prm.pname env0))
        fd.params
    @ List.map (fun (prm : param) -> ("old$" ^ prm.pname, List.assoc prm.pname env0)) fd.params
  in
  List.iteri
    (fun i ens ->
      try
        if not (as_bool (eval_expr ~quant_bound p env_post ens)) then
          raise (Assertion_failed (Printf.sprintf "%s: ensures %d" fd.fname i))
      with Runtime_error _ -> ())
    fd.ensures;
  (result, mut_out)

let run_fn p fname args =
  let fd = find_fn p fname in
  call_fn ~quant_bound:0 p fd args
