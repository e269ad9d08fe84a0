(* Congruence closure with a Nieuwenhuis-Oliveras proof forest for
   explanations.

   Each registered term gets a node.  Application nodes carry a label (the
   symbol id) and child nodes; everything else is an opaque leaf.  The
   union-find tracks equivalence classes; a separate "proof forest" stores,
   for every merged pair, the edge that caused the merge (an input equation
   or a congruence step), from which explanations are reconstructed.
   Nodes outlive a [reset]; classes, proof forest and assertions do not. *)

type edge_label =
  | Input of int (* reason tag *)
  | Congruence of int * int (* the two application nodes found congruent *)

(* Signatures: (label, child class reps). *)
module Sig = Hashtbl.Make (struct
  type t = int * int list

  let equal ((l1, c1) : t) (l2, c2) = l1 = l2 && List.equal Int.equal c1 c2
  let hash ((l, cs) : t) = List.fold_left (fun h c -> (h * 65599) + c) l cs land max_int
end)

(* The signatures of applications with one or two children, keyed on
   three ints (the second rep is -1 for a unary application) in a flat
   open-addressing table, so that a lookup allocates nothing.  Slot [s]
   holds label, reps and node at [4s .. 4s+3] and is live iff
   [live.(s) = gen]; [clear] starts a new generation. *)
module Sig2 = struct
  type t = { mutable keys : int array; mutable live : int array; mutable gen : int; mutable count : int }

  let create n = { keys = Array.make (4 * n) 0; live = Array.make n 0; gen = 1; count = 0 }

  let clear t =
    t.gen <- t.gen + 1;
    t.count <- 0

  let rec probe t l c1 c2 n i =
    let k = 4 * i in
    if t.live.(i) <> t.gen then begin
      t.live.(i) <- t.gen;
      t.keys.(k) <- l;
      t.keys.(k + 1) <- c1;
      t.keys.(k + 2) <- c2;
      t.keys.(k + 3) <- n;
      t.count <- t.count + 1;
      -1
    end
    else if t.keys.(k) = l && t.keys.(k + 1) = c1 && t.keys.(k + 2) = c2 then t.keys.(k + 3)
    else probe t l c1 c2 n ((i + 1) land (Array.length t.live - 1))

  (* The node stored under the key, or -1 after storing [n] under it. *)
  let rec find_or_add t l c1 c2 n =
    if 2 * (t.count + 1) > Array.length t.live then grow t;
    let h = (((l * 1_000_003) + c1) * 1_000_003) + c2 in
    probe t l c1 c2 n (((h * 0x9E3779B1) lsr 16) land (Array.length t.live - 1))

  and grow t =
    let keys = t.keys and live = t.live and gen = t.gen in
    let cap = 2 * Array.length live in
    t.keys <- Array.make (4 * cap) 0;
    t.live <- Array.make cap 0;
    t.count <- 0;
    Array.iteri
      (fun s g ->
        if g = gen then
          ignore (find_or_add t keys.(4 * s) keys.((4 * s) + 1) keys.((4 * s) + 2) keys.((4 * s) + 3)))
      live
end

type t = {
  (* The node table: grows for the life of the instance and survives
     [reset]. *)
  mutable nodes : int; (* node count *)
  term_of : Term.t Vbase.Vecbuf.t; (* node id -> term *)
  node_of : int Term.Id_tbl.t; (* term tid -> node id *)
  app_info : (int * int list) Vbase.Vecbuf.t; (* node -> (label, children); (-1,[]) for leaves *)
  (* Per-round state, cleared by [reset].  Only nodes below [active] take
     part; [activate] brings nodes in, in id order. *)
  mutable active : int;
  mutable uf : int array; (* union-find parent (roots point to self) *)
  mutable rank : int array;
  mutable proof_parent : int array; (* proof forest parent, -1 at roots *)
  mutable proof_label : edge_label array;
  mutable use_list : int list array; (* class rep -> app nodes using it *)
  mutable members : int list array; (* class rep -> member nodes *)
  sig_table : int Sig.t; (* signature -> app node, three children or more *)
  sig2 : Sig2.t; (* the same, one or two children *)
  mutable diseqs : (int * int * int) list; (* (node, node, reason) *)
  pending : (int * int * edge_label) Queue.t;
}

let create () =
  {
    nodes = 0;
    term_of = Vbase.Vecbuf.create ~dummy:Term.tru;
    node_of = Term.Id_tbl.create 64;
    app_info = Vbase.Vecbuf.create ~dummy:(-1, []);
    active = 0;
    uf = Array.make 64 0;
    rank = Array.make 64 0;
    proof_parent = Array.make 64 (-1);
    proof_label = Array.make 64 (Input (-1));
    use_list = Array.make 64 [];
    members = Array.make 64 [];
    sig_table = Sig.create 64;
    sig2 = Sig2.create 64;
    diseqs = [];
    pending = Queue.create ();
  }

let reset t =
  t.active <- 0;
  Sig.clear t.sig_table;
  Sig2.clear t.sig2;
  t.diseqs <- [];
  Queue.clear t.pending

let ensure_capacity t n =
  let cap = Array.length t.uf in
  if n > cap then begin
    let newcap = max (2 * cap) n in
    let grow a fill =
      let b = Array.make newcap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.uf <- grow t.uf 0;
    t.rank <- grow t.rank 0;
    t.proof_parent <- grow t.proof_parent (-1);
    t.proof_label <- grow t.proof_label (Input (-1));
    t.use_list <- grow t.use_list [];
    t.members <- grow t.members []
  end

let rec find t i = if t.uf.(i) = i then i else
    let r = find t t.uf.(i) in
    t.uf.(i) <- r;
    r

(* Enter application [app]'s signature under its children's current
   classes; if another application already holds it, queue their
   congruence unless they are already equal. *)
let enter_sig t app label children =
  let existing =
    match children with
    | [ c ] -> Sig2.find_or_add t.sig2 label (find t c) (-1) app
    | [ c1; c2 ] -> Sig2.find_or_add t.sig2 label (find t c1) (find t c2) app
    | _ -> (
      let key = (label, List.map (find t) children) in
      match Sig.find_opt t.sig_table key with
      | Some existing -> existing
      | None ->
        Sig.add t.sig_table key app;
        -1)
  in
  if existing >= 0 && find t existing <> find t app then
    Queue.push (app, existing, Congruence (app, existing)) t.pending

(* Bring node [n] into the round as a singleton class; an application
   joins the signature table (or queues its congruence) and the use lists
   of its children's classes.  Children have smaller ids, so they are
   already active. *)
let activate_node t n =
  t.uf.(n) <- n;
  t.rank.(n) <- 0;
  t.proof_parent.(n) <- -1;
  t.proof_label.(n) <- Input (-1);
  t.use_list.(n) <- [];
  t.members.(n) <- [ n ];
  match Vbase.Vecbuf.get t.app_info n with
  | -1, [] -> ()
  | label, children ->
    enter_sig t n label children;
    List.iter (fun c -> let r = find t c in t.use_list.(r) <- n :: t.use_list.(r)) children

let activate t n =
  while t.active < n do
    activate_node t t.active;
    t.active <- t.active + 1
  done

let size t = t.nodes

(* Register a term; applications register children recursively.  A term
   already in the table is activated with every node below it, so
   replaying a round's registrations after [reset] rebuilds that round's
   state exactly. *)
let rec node t tm =
  match Term.Id_tbl.find_opt t.node_of (Term.hash tm) with
  | Some n ->
    activate t (n + 1);
    n
  | None ->
    let info =
      match tm.Term.node with
      | Term.App (f, args) when args <> [] ->
        let children = List.map (node t) args in
        (f.Term.sid, children)
      | _ -> (-1, [])
    in
    let n = t.nodes in
    t.nodes <- n + 1;
    ensure_capacity t t.nodes;
    Vbase.Vecbuf.push t.term_of tm;
    Vbase.Vecbuf.push t.app_info info;
    Term.Id_tbl.add t.node_of (Term.hash tm) n;
    activate t (n + 1);
    n

(* The node of a term registered and active this round. *)
let lookup t tm =
  match Term.Id_tbl.find_opt t.node_of (Term.hash tm) with
  | Some n when n < t.active -> Some n
  | _ -> None

(* --- proof forest --------------------------------------------------- *)

(* Add edge a -- b with label, making a the new root of its proof tree
   (reverse the path from a to its current root first). *)
let proof_add_edge t a b label =
  let rec reverse i prev_parent prev_label =
    let next = t.proof_parent.(i) in
    let lbl = t.proof_label.(i) in
    t.proof_parent.(i) <- prev_parent;
    t.proof_label.(i) <- prev_label;
    if next >= 0 then reverse next i lbl
  in
  (* Re-root a's proof tree at a. *)
  if t.proof_parent.(a) >= 0 then reverse a (-1) (Input (-1));
  t.proof_parent.(a) <- b;
  t.proof_label.(a) <- label

(* --- merging --------------------------------------------------------- *)

let rec process_pending t =
  match Queue.take_opt t.pending with
  | None -> ()
  | Some (a, b, label) ->
    do_merge t a b label;
    process_pending t

and do_merge t a b label =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    proof_add_edge t a b label;
    (* Union by rank; rehash the use list of the side losing its rep. *)
    let small, big = if t.rank.(ra) <= t.rank.(rb) then (ra, rb) else (rb, ra) in
    t.uf.(small) <- big;
    if t.rank.(small) = t.rank.(big) then t.rank.(big) <- t.rank.(big) + 1;
    t.members.(big) <- List.rev_append t.members.(small) t.members.(big);
    t.members.(small) <- [];
    let uses = t.use_list.(small) in
    t.use_list.(small) <- [];
    List.iter
      (fun app ->
        let label, children = Vbase.Vecbuf.get t.app_info app in
        enter_sig t app label children)
      uses;
    t.use_list.(big) <- List.rev_append uses t.use_list.(big)
  end

let merge t a b ~reason =
  do_merge t a b (Input reason);
  process_pending t

let assert_diseq t a b ~reason = t.diseqs <- (a, b, reason) :: t.diseqs

(* --- explanations ---------------------------------------------------- *)

let rec explain_nodes t acc a b =
  if a = b then acc
  else begin
    (* Find common ancestor in the proof forest. *)
    let rec ancestors i acc = if i < 0 then acc else ancestors t.proof_parent.(i) (i :: acc) in
    let pa = ancestors a [] and pb = ancestors b [] in
    (* Paths from root; find last common prefix element. *)
    let rec common x = function
      | ha :: ta, hb :: tb when ha = hb -> common (Some ha) (ta, tb)
      | _ -> x
    in
    let lca = common None (pa, pb) in
    let lca = match lca with Some l -> l | None -> invalid_arg "Euf.explain: not equal" in
    let rec walk acc i =
      if i = lca then acc
      else begin
        let acc =
          match t.proof_label.(i) with
          | Input r -> r :: acc
          | Congruence (n1, n2) ->
            (* n1, n2 congruent apps: explain pairwise children equality. *)
            let _, c1 = Vbase.Vecbuf.get t.app_info n1 in
            let _, c2 = Vbase.Vecbuf.get t.app_info n2 in
            List.fold_left2 (fun acc x y -> explain_nodes t acc x y) acc c1 c2
        in
        walk acc t.proof_parent.(i)
      end
    in
    walk (walk acc a) b
  end

let explain t tm1 tm2 =
  match (lookup t tm1, lookup t tm2) with
  | Some a, Some b -> List.sort_uniq compare (explain_nodes t [] a b)
  | _ -> invalid_arg "Euf.explain: term not registered"

let are_equal t tm1 tm2 =
  match (lookup t tm1, lookup t tm2) with
  | Some a, Some b -> find t a = find t b
  | _ -> Term.equal tm1 tm2

(* --- conflict detection ---------------------------------------------- *)

let is_literal tm =
  match tm.Term.node with
  | Term.Int_lit _ | Term.Bv_lit _ | Term.True | Term.False -> true
  | _ -> false

let check t =
  (* Congruences discovered during registration may still be queued. *)
  process_pending t;
  (* Asserted disequalities. *)
  let conflict = ref None in
  List.iter
    (fun (a, b, reason) ->
      if !conflict = None && find t a = find t b then
        conflict := Some (List.sort_uniq compare (reason :: explain_nodes t [] a b)))
    t.diseqs;
  (* Distinct literals merged into one class. *)
  if !conflict = None then begin
    let by_class = Hashtbl.create 16 in
    for n = 0 to t.active - 1 do
      let tm = Vbase.Vecbuf.get t.term_of n in
      if is_literal tm then begin
        let r = find t n in
        match Hashtbl.find_opt by_class r with
        | Some (n0, tm0) ->
          if !conflict = None && not (Term.equal tm0 tm) then
            conflict := Some (List.sort_uniq compare (explain_nodes t [] n0 n))
        | None -> Hashtbl.add by_class r (n, tm)
      end
    done
  end;
  match !conflict with None -> Ok () | Some reasons -> Error reasons

let iter_classes t f =
  for r = 0 to t.active - 1 do
    if find t r = r then f t.members.(r)
  done

let term t n = Vbase.Vecbuf.get t.term_of n

let class_id t tm = Option.map (find t) (lookup t tm)

let class_members t tm =
  match lookup t tm with
  | Some n -> List.map (fun m -> Vbase.Vecbuf.get t.term_of m) t.members.(find t n)
  | None -> [ tm ]
