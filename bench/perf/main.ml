(* The repository benchmark: one workload per process.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--trace-out FILE] [--quick] [--workdir DIR]
              [--repeat N [--save FILE]]
     main.exe compare A.json B.json

   A run prints human-readable lines, then as its last line one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics of the traced replay with
   --trace 1.  It exits 1 when a verdict is wrong, a request failed or
   the replay disagreed with the untraced run, and 2 on bad usage. *)

open Perf

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n\
    \                [--quick] [--workdir DIR] [--repeat N [--save FILE]]\n\
    \       main.exe compare A.json B.json";
  exit 2

let rec flags acc = function
  | ("--quick" as f) :: rest -> flags ((f, "") :: acc) rest
  | f :: v :: rest when String.length f > 2 && String.sub f 0 2 = "--" -> flags ((f, v) :: acc) rest
  | [] -> List.rev acc
  | _ -> usage ()

let int_flag fs name default =
  match List.assoc_opt name fs with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

(* --repeat: run the same command N times, each in its own process (so
   peak RSS and set-up are per run), and summarise each metric. *)
let repeat n ~save ~workload argv =
  let rec strip = function
    | ("--repeat" | "--save") :: _ :: rest -> strip rest
    | a :: rest -> a :: strip rest
    | [] -> []
  in
  let args = Array.of_list (Sys.executable_name :: strip argv) in
  let runs =
    List.init n (fun i ->
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let lines = In_channel.input_lines ic in
        let status = Unix.close_process_in ic in
        let last = match List.rev lines with l :: _ -> l | [] -> "" in
        match (status, Compare.metrics_of_line last) with
        | Unix.WEXITED 0, Ok ms ->
          Printf.printf "run %d/%d ok\n%!" (i + 1) n;
          ms
        | _, Error e ->
          Printf.eprintf "run %d/%d printed no result (%s)\n" (i + 1) n e;
          exit 1
        | _, Ok _ ->
          Printf.eprintf "run %d/%d failed:\n%s\n" (i + 1) n (String.concat "\n" lines);
          exit 1)
  in
  List.iter print_endline (Compare.summary_lines runs);
  Option.iter (fun path -> Compare.save path ~workload runs) save

let run argv =
  let fs = flags [] argv in
  let workload =
    match List.assoc_opt "--workload" fs with
    | Some name -> (
      match Workload.find name with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2)
    | None -> usage ()
  in
  let seconds =
    match List.assoc_opt "--seconds" fs with
    | None -> 15.0
    | Some v -> ( match float_of_string_opt v with Some s when s > 0.0 -> s | _ -> usage ())
  in
  let trace = int_flag fs "--trace" 0 in
  if trace <> 0 && trace <> 1 then usage ();
  let o =
    {
      Run.seed = int_flag fs "--seed" 1;
      seconds;
      quick = List.mem_assoc "--quick" fs;
      workdir = Option.value ~default:"bench/perf/out" (List.assoc_opt "--workdir" fs);
      trace_out = List.assoc_opt "--trace-out" fs;
    }
  in
  match List.assoc_opt "--repeat" fs with
  | Some _ -> repeat (int_flag fs "--repeat" 1) ~save:(List.assoc_opt "--save" fs) ~workload:workload.Workload.name argv
  | None ->
    let r = if trace = 1 then Run.traced workload o else Run.untraced workload o in
    let declared = if trace = 1 then Metrics.per_layer else Metrics.end_to_end in
    Printf.printf "== %s seed %d%s%s\n" workload.Workload.name o.Run.seed
      (if trace = 1 then " (traced)" else "")
      (if o.Run.quick then " (quick)" else "");
    List.iter print_endline r.Run.report;
    List.iter
      (fun (d : Metrics.m) ->
        Printf.printf "%-28s %14.6g %s\n" d.Metrics.name (List.assoc d.Metrics.name r.Run.values)
          d.Metrics.unit_)
      declared;
    print_endline
      (Metrics.result_line ~correct:r.Run.correct ~attempted:r.Run.attempted ~failed:r.Run.failed
         ~declared r.Run.values);
    if not r.Run.correct then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> List.iter print_endline (Compare.compare_lines a b)
  | argv -> (
    try run argv
    with Failure m | Invalid_argument m ->
      prerr_endline ("perf: " ^ m);
      exit 1)
