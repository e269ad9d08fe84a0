type t = { n : int; adj : (int * int) list array }

let create n = { n; adj = Array.make (max n 1) [] }

let add_edge g ?(w = 0) u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then
    invalid_arg "Graph.add_edge: vertex out of range";
  g.adj.(u) <- (v, w) :: g.adj.(u)

let succ g u = g.adj.(u)

(* Tarjan's SCC, iterative to survive deep graphs. *)
let scc g =
  let n = g.n in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  (* Explicit DFS stack: (vertex, remaining successor list). *)
  let strongconnect v0 =
    let call_stack = ref [ (v0, ref (List.map fst g.adj.(v0))) ] in
    index.(v0) <- !next_index;
    lowlink.(v0) <- !next_index;
    incr next_index;
    stack := v0 :: !stack;
    on_stack.(v0) <- true;
    while !call_stack <> [] do
      match !call_stack with
      | [] -> ()
      | (v, rest) :: tl -> (
          match !rest with
          | w :: ws ->
              rest := ws;
              if index.(w) = -1 then begin
                index.(w) <- !next_index;
                lowlink.(w) <- !next_index;
                incr next_index;
                stack := w :: !stack;
                on_stack.(w) <- true;
                call_stack := (w, ref (List.map fst g.adj.(w))) :: !call_stack
              end
              else if on_stack.(w) then
                lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
              call_stack := tl;
              (match tl with
              | (parent, _) :: _ -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
              | [] -> ());
              if lowlink.(v) = index.(v) then begin
                (* Pop the component. *)
                let comp = ref [] in
                let continue_ = ref true in
                while !continue_ do
                  match !stack with
                  | [] -> continue_ := false
                  | w :: tl' ->
                      stack := tl';
                      on_stack.(w) <- false;
                      comp := w :: !comp;
                      if w = v then continue_ := false
                done;
                components := !comp :: !components
              end)
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  List.rev !components

let is_cyclic_component g comp =
  match comp with
  | [] -> false
  | [ v ] -> List.exists (fun (w, _) -> w = v) g.adj.(v)
  | _ -> true

(* Positive-weight cycle detection inside one SCC: Bellman–Ford with
   maximisation.  All distances start at 0 (every vertex is a source); if
   any edge still relaxes after |comp| full rounds, the component holds a
   cycle of strictly positive total weight. *)
let positive_cycle g comp =
  match comp with
  | [] | [ _ ] when not (is_cyclic_component g comp) -> None
  | _ ->
      let in_comp = Hashtbl.create 16 in
      List.iter (fun v -> Hashtbl.replace in_comp v ()) comp;
      let dist = Hashtbl.create 16 in
      List.iter (fun v -> Hashtbl.replace dist v 0) comp;
      let edges =
        List.concat_map
          (fun u ->
            List.filter_map
              (fun (v, w) ->
                if Hashtbl.mem in_comp v then Some (u, v, w) else None)
              g.adj.(u))
          comp
      in
      let n = List.length comp in
      for _round = 1 to n do
        List.iter
          (fun (u, v, w) ->
            let du = Hashtbl.find dist u in
            let dv = Hashtbl.find dist v in
            if du + w > dv then Hashtbl.replace dist v (du + w))
          edges
      done;
      let witnesses = ref [] in
      List.iter
        (fun (u, v, w) ->
          let du = Hashtbl.find dist u in
          let dv = Hashtbl.find dist v in
          if du + w > dv then witnesses := v :: !witnesses)
        edges;
      if !witnesses = [] then None
      else Some (List.sort_uniq compare !witnesses)
