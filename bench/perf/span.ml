(* Bench-side spans around the calls the benchmark makes into each layer.
   Spans stay in memory and are written once, at exit, as Chrome
   trace-event JSON (Perfetto and about:tracing open it). *)

module J = Vbase.Json

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;  (** layer name; the part before the first '.' is its category *)
  req : int;  (** request id, shared by every span of one request *)
  tid : int;  (** recording thread: 0 for in-process replays, 1.. for clients *)
  t0 : float;
  t1 : float;
}

(* Ids are unique across recorders, so spans of several client threads
   can be merged into one trace. *)
let next_id = Atomic.make 1

type recorder = {
  r_tid : int;
  mutable stack : int list;
  mutable spans : t list;
  mutable req : int;
}

let recorder ?(tid = 0) () = { r_tid = tid; stack = []; spans = []; req = 0 }
let set_request r req = r.req <- req

(* A span timed by the caller, under the innermost open span. *)
let record r ~name ~t0 ~t1 =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match r.stack with p :: _ -> p | [] -> 0 in
  r.spans <- { id; parent; name; req = r.req; tid = r.r_tid; t0; t1 } :: r.spans

(* Run [f] inside a span named [name], nested under the innermost open
   span of this recorder. *)
let within r name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match r.stack with p :: _ -> p | [] -> 0 in
  let req = r.req in
  r.stack <- id :: r.stack;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      r.stack <- List.tl r.stack;
      r.spans <- { id; parent; name; req; tid = r.r_tid; t0; t1 } :: r.spans)
    f

let spans r = List.rev r.spans

(* Self time of every span: its duration minus the part of it that its
   children cover (children may overlap one another, so the covered part
   is the length of the union of their intervals, clipped to the span). *)
let self_times (spans : t list) : (t * float) list =
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.filter_map (fun c ->
               let a = Float.max s.t0 c.t0 and b = Float.min s.t1 c.t1 in
               if b > a then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, neg_infinity) ivs
      in
      (s, s.t1 -. s.t0 -. covered))
    spans

(* Total self time per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  tbl

let category name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Timestamps are whole microseconds: Vbase.Json prints floats to six
   significant digits, which would blur a 10 s trace to 100 us. *)
let to_chrome ?(metadata = []) ~epoch spans =
  let us t = J.Int (int_of_float (Float.round (t *. 1e6))) in
  let ev s =
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String (category s.name));
        ("ph", J.String "X");
        ("ts", us (s.t0 -. epoch));
        ("dur", us (s.t1 -. s.t0));
        ("pid", J.Int 1);
        ("tid", J.Int s.tid);
        ("args", J.Obj [ ("req", J.Int s.req); ("id", J.Int s.id); ("parent", J.Int s.parent) ]);
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.map ev spans));
      ("displayTimeUnit", J.String "ms");
      ("otherData", J.Obj metadata);
    ]

(* The Chrome trace-event fields every complete ("X") event must carry. *)
let validate_chrome (doc : J.t) =
  match J.member "traceEvents" doc with
  | Some (J.List evs) ->
    let bad =
      List.find_opt
        (fun e ->
          not
            (List.for_all
               (fun (k, ok) -> match J.member k e with Some v -> ok v | None -> false)
               [
                 ("name", (function J.String _ -> true | _ -> false));
                 ("ph", ( = ) (J.String "X"));
                 ("ts", fun v -> J.to_float v <> None);
                 ("dur", fun v -> match J.to_float v with Some d -> d >= 0.0 | None -> false);
                 ("pid", (function J.Int _ -> true | _ -> false));
                 ("tid", (function J.Int _ -> true | _ -> false));
               ]))
        evs
    in
    (match bad with
    | None -> Ok (List.length evs)
    | Some e -> Error ("malformed trace event: " ^ J.to_string ~indent:false e))
  | _ -> Error "no traceEvents array"
