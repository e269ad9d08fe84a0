(* Repeated runs and their comparison.  A runs document holds, per
   workload, the metrics of every run:

     {"schema": "verus-perf-runs/1",
      "workloads": {"cold-suite": [{"wall_s": 7.9, ...}, ...], ...}}

   [--repeat N --save FILE] writes it; [compare A.json B.json] labels every
   end-to-end metric of every workload the two documents share, against
   the bounds in BENCHMARK.json (read from the working directory, the
   root of the tree). *)

module J = Vbase.Json

let schema = "verus-perf-runs/1"

type runs = (string * (string * float) list list) list

let metrics_of_line line =
  match J.of_string line with
  | Error e -> Error e
  | Ok j -> (
    match J.member "metrics" j with
    | Some (J.Obj ms) ->
      Ok
        (List.filter_map
           (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (J.member "value" v) J.to_float))
           ms)
    | _ -> Error "no metrics object")

let read_json path =
  match J.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)
  | exception Sys_error e -> failwith e

let load path : runs =
  match J.member "workloads" (read_json path) with
  | Some (J.Obj ws) ->
    List.map
      (fun (w, rs) ->
        ( w,
          match rs with
          | J.List rs ->
            List.map
              (function
                | J.Obj ms -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v)) ms
                | _ -> [])
              rs
          | _ -> [] ))
      ws
  | _ -> failwith (path ^ ": not a " ^ schema ^ " document")

(* Add [runs] of [workload] to the document at [path] (created if absent). *)
let save path ~workload (new_runs : (string * float) list list) =
  let old = if Sys.file_exists path then load path else [] in
  let merged =
    (workload, Option.value ~default:[] (List.assoc_opt workload old) @ new_runs)
    :: List.remove_assoc workload old
  in
  let doc =
    J.Obj
      [
        ("schema", J.String schema);
        ( "workloads",
          J.Obj
            (List.map
               (fun (w, rs) ->
                 (w, J.List (List.map (fun ms -> J.Obj (List.map (fun (k, v) -> (k, J.Float v)) ms)) rs)))
               (List.sort compare merged)) );
      ]
  in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (J.to_string doc ^ "\n"))

let values name rs = List.filter_map (List.assoc_opt name) rs

let spread xs =
  let q1, m, q3 = Stats.quartiles xs in
  (m, q1, q3, if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m)

(* Median and quartiles of every metric over repeated runs. *)
let summary_lines (rs : (string * float) list list) =
  match rs with
  | [] -> []
  | first :: _ ->
    Printf.sprintf "%-28s %14s %14s %14s %8s" "metric" "median" "q1" "q3" "iqr/med"
    :: List.map
         (fun (name, _) ->
           let m, q1, q3, sp = spread (values name rs) in
           Printf.sprintf "%-28s %14.6g %14.6g %14.6g %7.2f%%" name m q1 q3 (100.0 *. sp))
         first

(* Bounds of the end-to-end metrics: name -> (lower is better, bound). *)
let bounds path =
  match J.member "end_to_end" (read_json path) with
  | Some (J.List ms) ->
    List.filter_map
      (fun m ->
        match (J.member "name" m, J.member "better" m, Option.bind (J.member "bound" m) J.to_float) with
        | Some (J.String n), Some (J.String b), Some bound -> Some (n, (b = "lower", bound))
        | _ -> None)
      ms
  | _ -> failwith (path ^ ": no end_to_end list")

(* The labels of the metrics guide (sections 6-8): [improved] when every
   run of B beats every run of A, or when B wins nine tenths of the
   index-paired runs and the medians differ by more than A's own
   quartile spread; [unresolved] when either side's spread is wider than
   the bound; [worse] when B's median is worse than A's by more than the
   bound; [unchanged] otherwise. *)
let label ~lower ~bound a b =
  let better x y = if lower then x < y else x > y in
  let ma, q1a, q3a, sa = spread a and mb, _, _, sb = spread b in
  let worse_by = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
  let n = min (List.length a) (List.length b) in
  let take xs = List.filteri (fun i _ -> i < n) xs in
  let pairs = List.combine (take a) (take b) in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  if List.for_all (fun y -> List.for_all (fun x -> better y x) a) b then "improved"
  else if Float.max sa sb > bound then "unresolved"
  else if worse_by > bound then "worse"
  else if
    better mb ma
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && Float.abs (mb -. ma) > q3a -. q1a
  then "improved"
  else "unchanged"

let compare_lines a_path b_path =
  let bs = bounds "BENCHMARK.json" in
  let a = load a_path and b = load b_path in
  List.concat_map
    (fun (w, ra) ->
      match List.assoc_opt w b with
      | None -> []
      | Some rb ->
        Printf.sprintf "%s (A: %d runs, B: %d runs)" w (List.length ra) (List.length rb)
        :: List.filter_map
             (fun (name, (lower, bound)) ->
               match (values name ra, values name rb) with
               | [], _ | _, [] -> None
               | va, vb ->
                 let ma, _, _, sa = spread va and mb, _, _, sb = spread vb in
                 Some
                   (Printf.sprintf "  %-20s A %12.6g (±%5.1f%%)  B %12.6g (±%5.1f%%)  %+7.2f%%  bound %4.1f%%  %s"
                      name ma (100. *. sa) mb (100. *. sb)
                      (100. *. (mb -. ma) /. Float.abs ma)
                      (100. *. bound) (label ~lower ~bound va vb)))
             bs)
    a
