(* CDCL with two watched literals, 1UIP learning, VSIDS, Luby restarts.

   Data layout: clauses are int arrays of literals; the first two slots of
   each clause are the watched literals.  Watch lists map each literal to the
   clause indices watching it. *)

exception Budget_exceeded

type result = Sat | Unsat

(* One entry of the clause-derivation log.  [ps_ante] empty marks an input
   clause (tagged with the encoder phase that produced it); otherwise the
   clause must follow from the antecedent steps by unit propagation
   (restricted RUP).  Step ids are positions in the log. *)
type proof_step = { ps_lits : int array; ps_ante : int array; ps_tag : int }

type proof = {
  steps : proof_step Vbase.Vecbuf.t;
  clause_step : int Vbase.Vecbuf.t; (* parallel to [clauses]: step of each *)
  mutable unit_step : int array; (* per var: step of its level-0 unit, or -1 *)
  mutable lvl0_memo : int list option array; (* per var: memoized support *)
  mutable tag : int; (* tag applied to subsequently recorded inputs *)
}

type t = {
  mutable assign : int array; (* per var: 0 unassigned, 1 true, -1 false *)
  mutable level : int array; (* per var: decision level *)
  mutable reason : int array; (* per var: clause index or -1 *)
  mutable activity : float array;
  mutable heap_pos : int array; (* position in heap, -1 if absent *)
  mutable heap : int array; (* binary max-heap of vars by activity *)
  mutable heap_len : int;
  mutable polarity : bool array; (* phase saving *)
  mutable nvars : int;
  clauses : int array Vbase.Vecbuf.t;
  mutable watches : int Vbase.Vecbuf.t array; (* per literal *)
  trail : int Vbase.Vecbuf.t; (* literals in assignment order *)
  trail_lim : int Vbase.Vecbuf.t; (* trail length at each decision level *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable unsat : bool;
  mutable conflicts : int;
  mutable decisions : int;
  seen : bool array ref; (* scratch for conflict analysis *)
  mutable proof : proof option; (* clause-derivation logging; off by default *)
  mutable last_input_step : int; (* input step of the last added clause, -1 *)
  mutable empty_step : int; (* step deriving the empty clause once unsat *)
}

let create () =
  {
    assign = Array.make 16 0;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    heap_pos = Array.make 16 (-1);
    heap = Array.make 16 0;
    heap_len = 0;
    polarity = Array.make 16 false;
    nvars = 0;
    clauses = Vbase.Vecbuf.create ~dummy:[||];
    watches = Array.init 32 (fun _ -> Vbase.Vecbuf.create ~dummy:(-1));
    trail = Vbase.Vecbuf.create ~dummy:(-1);
    trail_lim = Vbase.Vecbuf.create ~dummy:(-1);
    qhead = 0;
    var_inc = 1.0;
    unsat = false;
    conflicts = 0;
    decisions = 0;
    seen = ref (Array.make 16 false);
    proof = None;
    last_input_step = -1;
    empty_step = -1;
  }

let enable_proof s =
  if s.nvars > 0 || Vbase.Vecbuf.length s.clauses > 0 || s.unsat then
    invalid_arg "Sat.enable_proof: solver already in use";
  s.proof <-
    Some
      {
        steps = Vbase.Vecbuf.create ~dummy:{ ps_lits = [||]; ps_ante = [||]; ps_tag = 0 };
        clause_step = Vbase.Vecbuf.create ~dummy:(-1);
        unit_step = Array.make 16 (-1);
        lvl0_memo = Array.make 16 None;
        tag = 0;
      }

let set_input_tag s tag = match s.proof with None -> () | Some p -> p.tag <- tag

let proof_steps s =
  match s.proof with
  | None -> [||]
  | Some p -> Array.init (Vbase.Vecbuf.length p.steps) (Vbase.Vecbuf.get p.steps)

let last_input_step s = s.last_input_step
let empty_step s = s.empty_step

let record_step s lits ante =
  match s.proof with
  | None -> -1
  | Some p ->
    Vbase.Vecbuf.push p.steps
      { ps_lits = Array.of_list lits; ps_ante = Array.of_list ante; ps_tag = p.tag };
    Vbase.Vecbuf.length p.steps - 1

let pos v = 2 * v
let neg v = (2 * v) + 1
let lit_var l = l lsr 1
let lit_negate l = l lxor 1

(* Value of a literal: 1 true, -1 false, 0 unassigned. *)
let lit_value s l =
  let v = s.assign.(lit_var l) in
  if l land 1 = 1 then -v else v

let ensure_capacity s n =
  let cap = Array.length s.assign in
  if n > cap then begin
    let newcap = max (2 * cap) n in
    let grow a fill =
      let b = Array.make newcap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    s.assign <- grow s.assign 0;
    s.level <- grow s.level 0;
    s.reason <- grow s.reason (-1);
    s.activity <- grow s.activity 0.0;
    s.heap_pos <- grow s.heap_pos (-1);
    s.heap <- grow s.heap 0;
    s.polarity <- grow s.polarity false;
    let w = Array.init (2 * newcap) (fun _ -> Vbase.Vecbuf.create ~dummy:(-1)) in
    Array.blit s.watches 0 w 0 (Array.length s.watches);
    s.watches <- w;
    if Array.length !(s.seen) < newcap then s.seen := Array.make newcap false;
    match s.proof with
    | None -> ()
    | Some p ->
      let us = Array.make newcap (-1) in
      Array.blit p.unit_step 0 us 0 (Array.length p.unit_step);
      p.unit_step <- us;
      let lm = Array.make newcap None in
      Array.blit p.lvl0_memo 0 lm 0 (Array.length p.lvl0_memo);
      p.lvl0_memo <- lm
  end

(* --- activity heap ------------------------------------------------- *)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(a) <- j;
  s.heap_pos.(b) <- i

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(p)) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_len && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best)) then best := l;
  if r < s.heap_len && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best)) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_len) <- v;
    s.heap_pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_len > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_len);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let new_var s =
  let v = s.nvars in
  ensure_capacity s (v + 1);
  s.nvars <- v + 1;
  s.assign.(v) <- 0;
  s.level.(v) <- 0;
  s.reason.(v) <- -1;
  s.activity.(v) <- 0.0;
  s.heap_pos.(v) <- -1;
  s.polarity.(v) <- false;
  heap_insert s v;
  v

(* --- assignment / backtracking ------------------------------------ *)

let decision_level s = Vbase.Vecbuf.length s.trail_lim

let enqueue s l reason =
  let v = lit_var l in
  s.assign.(v) <- (if l land 1 = 1 then -1 else 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vbase.Vecbuf.push s.trail l

let backtrack s lvl =
  if decision_level s > lvl then begin
    let keep = Vbase.Vecbuf.get s.trail_lim lvl in
    for i = Vbase.Vecbuf.length s.trail - 1 downto keep do
      let l = Vbase.Vecbuf.get s.trail i in
      let v = lit_var l in
      s.polarity.(v) <- s.assign.(v) > 0;
      s.assign.(v) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    Vbase.Vecbuf.shrink s.trail keep;
    Vbase.Vecbuf.shrink s.trail_lim lvl;
    s.qhead <- keep
  end

(* --- propagation --------------------------------------------------- *)

(* Returns conflicting clause index or -1. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < Vbase.Vecbuf.length s.trail do
    let l = Vbase.Vecbuf.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    let falsified = lit_negate l in
    let ws = s.watches.(falsified) in
    let n = Vbase.Vecbuf.length ws in
    let keep = ref 0 in
    let i = ref 0 in
    while !i < n do
      let ci = Vbase.Vecbuf.get ws !i in
      incr i;
      let c = Vbase.Vecbuf.get s.clauses ci in
      (* Ensure the falsified literal is at slot 1. *)
      if c.(0) = falsified then begin
        c.(0) <- c.(1);
        c.(1) <- falsified
      end;
      if lit_value s c.(0) = 1 then begin
        (* Clause satisfied; keep watching. *)
        Vbase.Vecbuf.set ws !keep ci;
        incr keep
      end
      else begin
        (* Look for a new watch. *)
        let len = Array.length c in
        let found = ref false in
        let j = ref 2 in
        while (not !found) && !j < len do
          if lit_value s c.(!j) >= 0 then begin
            let w = c.(!j) in
            c.(!j) <- c.(1);
            c.(1) <- w;
            Vbase.Vecbuf.push s.watches.(w) ci;
            found := true
          end;
          incr j
        done;
        if !found then ()
        else begin
          (* Unit or conflict. *)
          Vbase.Vecbuf.set ws !keep ci;
          incr keep;
          if lit_value s c.(0) = -1 then begin
            (* Conflict: keep remaining watches and stop. *)
            while !i < n do
              Vbase.Vecbuf.set ws !keep (Vbase.Vecbuf.get ws !i);
              incr keep;
              incr i
            done;
            conflict := ci
          end
          else enqueue s c.(0) ci
        end
      end
    done;
    Vbase.Vecbuf.shrink ws !keep
  done;
  !conflict

(* --- clause management --------------------------------------------- *)

let attach_clause s ci =
  let c = Vbase.Vecbuf.get s.clauses ci in
  Vbase.Vecbuf.push s.watches.(c.(0)) ci;
  Vbase.Vecbuf.push s.watches.(c.(1)) ci

(* Steps supporting the level-0 assignment of [v]: the unit that enqueued
   it, or its reason clause's step plus (recursively) the supports of that
   clause's other literals.  Together these let the replay kernel re-derive
   by unit propagation every literal the solver eliminated at level 0.
   Memoized — level-0 assignments and their reasons are permanent. *)
let rec lvl0_chain s p v =
  match p.lvl0_memo.(v) with
  | Some c -> c
  | None ->
    let c =
      let r = s.reason.(v) in
      if r >= 0 then begin
        let cl = Vbase.Vecbuf.get s.clauses r in
        let acc = ref [ Vbase.Vecbuf.get p.clause_step r ] in
        Array.iter
          (fun q ->
            if lit_var q <> v then acc := List.rev_append (lvl0_chain s p (lit_var q)) !acc)
          cl;
        !acc
      end
      else if p.unit_step.(v) >= 0 then [ p.unit_step.(v) ]
      else []
    in
    p.lvl0_memo.(v) <- Some c;
    c

(* The empty clause from a level-0 conflict on clause [ci]: every literal
   of [ci] is false at level 0, so [ci]'s step plus the supports of its
   variables derive the contradiction. *)
let record_lvl0_conflict s p ci =
  let cl = Vbase.Vecbuf.get s.clauses ci in
  let chain =
    Array.fold_left (fun acc q -> List.rev_append (lvl0_chain s p (lit_var q)) acc) [] cl
  in
  s.empty_step <-
    record_step s [] (Vbase.Vecbuf.get p.clause_step ci :: List.sort_uniq compare chain)

let add_clause s lits =
  if not s.unsat then begin
    backtrack s 0;
    (* Deduplicate; drop clauses with complementary or true literals;
       drop literals false at level 0. *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (lit_negate l) lits || lit_value s l = 1) lits
    in
    s.last_input_step <- -1;
    if not tautology then begin
      let kept = List.filter (fun l -> lit_value s l <> -1) lits in
      let step =
        match s.proof with
        | None -> -1
        | Some p ->
          let input = record_step s lits [] in
          s.last_input_step <- input;
          if List.length kept = List.length lits then input
          else begin
            (* Literals false at level 0 were dropped: derive the stored
               clause from the input plus the dropped literals' supports. *)
            let dropped = List.filter (fun l -> lit_value s l = -1) lits in
            let chain = List.concat_map (fun l -> lvl0_chain s p (lit_var l)) dropped in
            record_step s kept (input :: List.sort_uniq compare chain)
          end
      in
      match kept with
      | [] ->
        s.empty_step <- step;
        s.unsat <- true
      | [ l ] ->
        (match s.proof with Some p -> p.unit_step.(lit_var l) <- step | None -> ());
        enqueue s l (-1);
        let confl = propagate s in
        if confl >= 0 then begin
          (match s.proof with Some p -> record_lvl0_conflict s p confl | None -> ());
          s.unsat <- true
        end
      | kept ->
        let c = Array.of_list kept in
        Vbase.Vecbuf.push s.clauses c;
        (match s.proof with Some p -> Vbase.Vecbuf.push p.clause_step step | None -> ());
        attach_clause s (Vbase.Vecbuf.length s.clauses - 1)
    end
  end

(* --- conflict analysis (first UIP) --------------------------------- *)

let analyze s confl =
  let seen = !(s.seen) in
  let learnt = ref [] in
  let counter = ref 0 in
  let l = ref (-1) in
  let cl = ref confl in
  let trail_i = ref (Vbase.Vecbuf.length s.trail - 1) in
  let btlevel = ref 0 in
  (* With proof logging on, collect the resolved clauses (the learned
     clause's RUP antecedents) and the level-0 variables skipped by the
     1UIP loop (their supports complete the antecedent set). *)
  let antes = ref (if s.proof = None then [] else [ confl ]) in
  let lvl0 = ref [] in
  let continue = ref true in
  while !continue do
    let c = Vbase.Vecbuf.get s.clauses !cl in
    let start = if !l = -1 then 0 else 1 in
    for j = start to Array.length c - 1 do
      let q = if j = 0 && !l <> -1 then !l else c.(j) in
      let v = lit_var q in
      if (not seen.(v)) && s.level.(v) > 0 then begin
        seen.(v) <- true;
        bump_var s v;
        if s.level.(v) >= decision_level s then incr counter
        else begin
          learnt := q :: !learnt;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
      else if s.proof <> None && (not seen.(v)) && s.level.(v) = 0 then lvl0 := v :: !lvl0
    done;
    (* Find next literal on the trail to resolve on. *)
    let rec next () =
      let q = Vbase.Vecbuf.get s.trail !trail_i in
      decr trail_i;
      if seen.(lit_var q) then q else next ()
    in
    let p = next () in
    decr counter;
    seen.(lit_var p) <- false;
    if !counter = 0 then begin
      learnt := lit_negate p :: !learnt;
      continue := false
    end
    else begin
      cl := s.reason.(lit_var p);
      if s.proof <> None then antes := !cl :: !antes;
      l := p
    end
  done;
  List.iter (fun q -> seen.(lit_var q) <- false) !learnt;
  (!learnt, !btlevel, !antes, !lvl0)

(* --- main search ---------------------------------------------------- *)

(* Luby sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do
    incr k
  done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1) else luby (i - ((1 lsl (!k - 1)) - 1))

let solve ?(limit_conflicts = max_int) s =
  if s.unsat then Unsat
  else begin
    let budget_start = s.conflicts in
    let restart_count = ref 0 in
    let result = ref None in
    while !result = None do
      let restart_limit = 100 * luby (!restart_count + 1) in
      let restart_conflicts = ref 0 in
      (* One restart round. *)
      let round_done = ref false in
      while not !round_done do
        let confl = propagate s in
        if confl >= 0 then begin
          s.conflicts <- s.conflicts + 1;
          incr restart_conflicts;
          if s.conflicts - budget_start > limit_conflicts then raise Budget_exceeded;
          if decision_level s = 0 then begin
            (match s.proof with Some p -> record_lvl0_conflict s p confl | None -> ());
            s.unsat <- true;
            result := Some Unsat;
            round_done := true
          end
          else begin
            let learnt, btlevel, antes, lvl0 = analyze s confl in
            let step =
              match s.proof with
              | None -> -1
              | Some p ->
                let ante = List.rev_map (fun ci -> Vbase.Vecbuf.get p.clause_step ci) antes in
                let chain =
                  List.concat_map (fun v -> lvl0_chain s p v) (List.sort_uniq compare lvl0)
                in
                record_step s (List.sort compare learnt) (ante @ List.sort_uniq compare chain)
            in
            backtrack s btlevel;
            (match learnt with
            | [ l ] ->
              (match s.proof with Some p -> p.unit_step.(lit_var l) <- step | None -> ());
              enqueue s l (-1)
            | l :: _ ->
              (* Put the asserting literal first and a highest-level other
                 literal second (watch invariant). *)
              let arr = Array.of_list learnt in
              let best = ref 1 in
              for j = 2 to Array.length arr - 1 do
                if s.level.(lit_var arr.(j)) > s.level.(lit_var arr.(!best)) then best := j
              done;
              let tmp = arr.(1) in
              arr.(1) <- arr.(!best);
              arr.(!best) <- tmp;
              Vbase.Vecbuf.push s.clauses arr;
              (match s.proof with
              | Some p -> Vbase.Vecbuf.push p.clause_step step
              | None -> ());
              attach_clause s (Vbase.Vecbuf.length s.clauses - 1);
              enqueue s l (Vbase.Vecbuf.length s.clauses - 1)
            | [] ->
              s.empty_step <- step;
              s.unsat <- true;
              result := Some Unsat;
              round_done := true);
            s.var_inc <- s.var_inc /. 0.95
          end
        end
        else if !restart_conflicts >= restart_limit then begin
          backtrack s 0;
          incr restart_count;
          round_done := true
        end
        else begin
          (* Decide. *)
          let rec pick () =
            if s.heap_len = 0 then -1
            else begin
              let v = heap_pop s in
              if s.assign.(v) = 0 then v else pick ()
            end
          in
          let v = pick () in
          if v < 0 then begin
            result := Some Sat;
            round_done := true
          end
          else begin
            s.decisions <- s.decisions + 1;
            Vbase.Vecbuf.push s.trail_lim (Vbase.Vecbuf.length s.trail);
            enqueue s (if s.polarity.(v) then pos v else neg v) (-1)
          end
        end
      done
    done;
    match !result with Some r -> r | None -> assert false
  end

let value s v = s.assign.(v) > 0
let stats_conflicts s = s.conflicts
let stats_decisions s = s.decisions
