(* Vcache tests: the hit/miss/invalidation matrix a content-addressed
   cache must honor (touching a spec function re-solves exactly its
   dependents; renaming an unrelated function keeps every hit), counter
   determinism under jobs > 1, the on-disk store's fixpoint and repair
   behavior, corruption tolerance (truncated documents, wrong schema
   tags, malformed entries — all degrade to misses, never failures),
   fingerprint stability, including independence from what the process
   encoded before. *)

module J = Vbase.Json
open Verus
open Vir

(* Minimal program scaffolding (same idiom as test_vlint). *)
let p name ty = { pname = name; pty = ty; pmut = false }

let fn ?(mode = Exec) ?(params = []) ?ret ?(requires = []) ?(ensures = []) ?body ?spec_body
    ?(attrs = []) name =
  { fname = name; fmode = mode; params; ret; requires; ensures; body; spec_body; attrs }

let prog ?(datatypes = []) functions = { datatypes; functions }
let int_ = TInt I_math

(* A two-client program: [use_double]'s contract depends on the spec
   function [double]; [other]'s does not.  Editing [double] must
   invalidate exactly [use_double]'s obligations. *)
let double_body_v0 = v "x" +: v "x"

let program ?(double_body = double_body_v0) ?(other_name = "other") () =
  prog
    [
      fn "double" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_) ~spec_body:double_body;
      fn "use_double" ~mode:Exec ~params:[ p "x" int_ ] ~ret:("result", int_)
        ~ensures:[ v "result" ==: ECall ("double", [ v "x" ]) ]
        ~body:[ SReturn (Some (v "x" +: v "x")) ];
      fn other_name ~mode:Exec ~params:[ p "y" int_ ] ~ret:("result", int_)
        ~ensures:[ v "result" >=: v "y" ]
        ~body:[ SReturn (Some (v "y" +: i 1)) ];
    ]

(* The edited spec body must survive term normalization (constant folding
   erases [+ 0]; equal-branch [ite]s collapse), while staying provably
   equal to the original so the program still verifies. *)
let double_body_v1 = ((v "x" +: v "x") +: v "x") -: v "x"

(* Each test gets its own directory under the system temp dir; [clear]
   makes reruns start cold. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "verus-test-vcache-%d" !n)
    in
    (match Vcache.clear ~dir with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("could not clear " ^ dir ^ ": " ^ e));
    dir

let run ?(jobs = 1) ?(profile = false) dir pr =
  let config =
    Driver.Config.(default |> with_cache dir |> with_jobs jobs |> with_profile profile)
  in
  Driver.verify_program ~config Profiles.verus pr

let cstats (r : Driver.program_result) =
  match r.Driver.pr_cache with
  | Some s -> s
  | None -> Alcotest.fail "run reported no cache stats"

let store_path dir = Filename.concat dir Vcache.file_name
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ------------------------------------------------------------------ *)
(* The hit/miss/invalidation matrix                                    *)
(* ------------------------------------------------------------------ *)

let test_matrix () =
  let dir = fresh_dir () in
  (* Cold: everything misses and is stored. *)
  let cold = run dir (program ()) in
  let cs = cstats cold in
  Alcotest.(check bool) "cold verifies" true cold.Driver.pr_ok;
  Alcotest.(check int) "cold has no hits" 0 cs.Vcache.hits;
  Alcotest.(check bool) "cold misses everything" true (cs.Vcache.misses > 0);
  Alcotest.(check int) "cold has no invalidations" 0 cs.Vcache.invalidations;
  Alcotest.(check bool) "cold stores entries" true (cs.Vcache.stores > 0);
  (* Warm: everything hits. *)
  let warm = run dir (program ()) in
  let ws = cstats warm in
  Alcotest.(check int) "warm hits everything" cs.Vcache.misses ws.Vcache.hits;
  Alcotest.(check int) "warm has no misses" 0 ws.Vcache.misses;
  Alcotest.(check int) "warm stores nothing" 0 ws.Vcache.stores;
  Alcotest.(check string) "warm digest equals cold"
    (Driver.result_digest cold) (Driver.result_digest warm);
  (* Touch the spec function: its dependents are invalidated (same VC
     name, new fingerprint), the independent function still hits. *)
  let touched = run dir (program ~double_body:double_body_v1 ()) in
  let ts = cstats touched in
  Alcotest.(check bool) "touched program verifies" true touched.Driver.pr_ok;
  Alcotest.(check bool) "dependents are invalidated" true (ts.Vcache.invalidations > 0);
  Alcotest.(check bool) "independent VCs still hit" true (ts.Vcache.hits > 0);
  Alcotest.(check int) "no brand-new obligations" 0 ts.Vcache.misses;
  Alcotest.(check int) "every obligation accounted for" cs.Vcache.misses
    (ts.Vcache.hits + ts.Vcache.invalidations);
  (* Rename a function: the store is keyed by content, not by name, so
     even the renamed function's own obligations still hit (their
     fingerprints are unchanged). *)
  let renamed = run dir (program ~other_name:"renamed" ()) in
  let rs = cstats renamed in
  Alcotest.(check bool) "renamed program verifies" true renamed.Driver.pr_ok;
  Alcotest.(check int) "renames keep every hit" cs.Vcache.misses rs.Vcache.hits;
  Alcotest.(check int) "renames never miss" 0 rs.Vcache.misses;
  Alcotest.(check int) "renames never invalidate" 0 rs.Vcache.invalidations;
  (* A genuinely new obligation — a function added to the program — is a
     miss (its name and fingerprint are both unknown). *)
  let base = program () in
  let third =
    fn "third" ~mode:Exec ~params:[ p "z" int_ ] ~ret:("result", int_)
      ~ensures:[ v "result" >=: v "z" +: i 1 ]
      ~body:[ SReturn (Some (v "z" +: i 2)) ]
  in
  let grown = run dir { base with functions = base.functions @ [ third ] } in
  let gs = cstats grown in
  Alcotest.(check bool) "grown program verifies" true grown.Driver.pr_ok;
  Alcotest.(check bool) "new obligations are misses" true (gs.Vcache.misses > 0);
  Alcotest.(check int) "existing obligations still hit" cs.Vcache.misses gs.Vcache.hits;
  Alcotest.(check int) "growth never invalidates" 0 gs.Vcache.invalidations

(* ------------------------------------------------------------------ *)
(* Determinism under jobs > 1                                          *)
(* ------------------------------------------------------------------ *)

let test_jobs_determinism () =
  let dir = fresh_dir () in
  let cold = run ~jobs:2 dir (program ()) in
  let cs = cstats cold in
  Alcotest.(check bool) "parallel cold verifies" true cold.Driver.pr_ok;
  let warm1 = run ~jobs:1 dir (program ()) in
  let warm3 = run ~jobs:3 dir (program ()) in
  let w1 = cstats warm1 and w3 = cstats warm3 in
  Alcotest.(check int) "jobs=1 and jobs=3 hits agree" w1.Vcache.hits w3.Vcache.hits;
  Alcotest.(check int) "warm hits everything the cold run missed" cs.Vcache.misses w1.Vcache.hits;
  Alcotest.(check int) "no misses under jobs=3" 0 w3.Vcache.misses;
  Alcotest.(check int) "no invalidations under jobs=3" 0 w3.Vcache.invalidations;
  Alcotest.(check string) "digests agree across jobs"
    (Driver.result_digest warm1) (Driver.result_digest warm3)

(* ------------------------------------------------------------------ *)
(* Store fixpoint, disk stats, and the profile-upgrade path            *)
(* ------------------------------------------------------------------ *)

let test_store_fixpoint () =
  let dir = fresh_dir () in
  let cold = run dir (program ()) in
  let cs = cstats cold in
  let bytes0 = read_file (store_path dir) in
  (* A warm run changes nothing, so flush must not rewrite the file. *)
  let _ = run dir (program ()) in
  Alcotest.(check string) "warm run leaves the store byte-identical" bytes0
    (read_file (store_path dir));
  (* Offline stats agree with the run's own accounting; a fully verified
     program stores only unsat answers. *)
  let ds = Vcache.disk_stats ~dir in
  Alcotest.(check bool) "store exists" true ds.Vcache.ds_exists;
  Alcotest.(check int) "entry count matches stores" cs.Vcache.stores ds.Vcache.ds_entries;
  Alcotest.(check int) "no dropped entries" 0 ds.Vcache.ds_dropped;
  Alcotest.(check bool) "not corrupt" false ds.Vcache.ds_corrupt;
  Alcotest.(check bool) "size reported" true (ds.Vcache.ds_bytes > 0);
  Alcotest.(check (list (pair string int))) "all entries are unsat"
    [ ("unsat", cs.Vcache.stores) ] ds.Vcache.ds_answers;
  (* Parse → re-serialize is a fixpoint of the document format. *)
  (match J.of_string bytes0 with
  | Error e -> Alcotest.fail ("store does not parse: " ^ e)
  | Ok doc -> Alcotest.(check string) "print/parse fixpoint" bytes0 (J.to_string doc ^ "\n"));
  (* Profiled runs cannot be served by unprofiled entries: the first
     re-solves (upgrade), the second hits. *)
  let prof1 = run ~profile:true dir (program ()) in
  let p1 = cstats prof1 in
  Alcotest.(check int) "profiled lookup of unprofiled entries misses" cs.Vcache.misses
    p1.Vcache.misses;
  Alcotest.(check bool) "upgrade stores profiled entries" true (p1.Vcache.stores > 0);
  let prof2 = run ~profile:true dir (program ()) in
  let p2 = cstats prof2 in
  Alcotest.(check int) "second profiled run hits everything" cs.Vcache.misses p2.Vcache.hits;
  Alcotest.(check bool) "profiled warm run reports a profile" true
    (prof2.Driver.pr_prof <> None);
  (* And upgraded (profiled) entries still serve unprofiled runs. *)
  let plain = cstats (run dir (program ())) in
  Alcotest.(check int) "profiled entries serve unprofiled runs" cs.Vcache.misses
    plain.Vcache.hits

(* ------------------------------------------------------------------ *)
(* Corruption tolerance                                                *)
(* ------------------------------------------------------------------ *)

let test_wrong_schema () =
  let dir = fresh_dir () in
  let cold = run dir (program ()) in
  let cs = cstats cold in
  write_file (store_path dir) "{ \"schema\": \"verus-cache/999\", \"entries\": {} }";
  let r = run dir (program ()) in
  let s = cstats r in
  Alcotest.(check bool) "wrong schema detected as corrupt" true s.Vcache.corrupt_load;
  Alcotest.(check int) "wrong schema serves no hits" 0 s.Vcache.hits;
  Alcotest.(check int) "degrades to a full cold run" cs.Vcache.misses s.Vcache.misses;
  Alcotest.(check bool) "still verifies" true r.Driver.pr_ok;
  Alcotest.(check string) "digest unchanged" (Driver.result_digest cold) (Driver.result_digest r);
  (* The flush repaired the store: next run is warm again. *)
  let s2 = cstats (run dir (program ())) in
  Alcotest.(check bool) "store repaired" false s2.Vcache.corrupt_load;
  Alcotest.(check int) "warm again after repair" cs.Vcache.misses s2.Vcache.hits

let test_malformed_entry () =
  let dir = fresh_dir () in
  let cold = run dir (program ()) in
  let cs = cstats cold in
  (* Replace one entry's value with a non-object: that entry alone is
     dropped at load; every other obligation still hits. *)
  let doc =
    match J.of_string (read_file (store_path dir)) with
    | Ok d -> d
    | Error e -> Alcotest.fail ("store does not parse: " ^ e)
  in
  let mangled =
    match doc with
    | J.Obj kvs ->
      J.Obj
        (List.map
           (function
             | "entries", J.Obj ((fp, _) :: rest) -> ("entries", J.Obj ((fp, J.String "garbage") :: rest))
             | kv -> kv)
           kvs)
    | _ -> Alcotest.fail "store document is not an object"
  in
  write_file (store_path dir) (J.to_string mangled);
  let r = run dir (program ()) in
  let s = cstats r in
  Alcotest.(check int) "one entry dropped" 1 s.Vcache.entries_dropped;
  Alcotest.(check bool) "document itself is not corrupt" false s.Vcache.corrupt_load;
  (* The dropped entry's obligation re-solves; the solve may cover more
     than one obligation (entries are shared across identical VCs), so
     compare via loaded entries rather than assuming 1 miss = 1 VC. *)
  Alcotest.(check int) "surviving entries all loaded" (cs.Vcache.stores - 1)
    s.Vcache.entries_loaded;
  Alcotest.(check bool) "dropped entry re-solves" true (s.Vcache.misses > 0);
  Alcotest.(check int) "everything else hits" cs.Vcache.misses (s.Vcache.hits + s.Vcache.misses);
  Alcotest.(check bool) "still verifies" true r.Driver.pr_ok;
  Alcotest.(check string) "digest unchanged" (Driver.result_digest cold) (Driver.result_digest r);
  (* Flush repaired the document (the dropped entry was re-stored). *)
  let s2 = cstats (run dir (program ())) in
  Alcotest.(check int) "repaired store serves everything" cs.Vcache.misses s2.Vcache.hits;
  Alcotest.(check int) "no dropped entries after repair" 0 s2.Vcache.entries_dropped

(* Torn-write corruption: truncate the document at Faultplan-drawn cut
   points (the same oracle the PMEM device uses for torn writes).  Every
   prefix must degrade to misses — never a crash, never a wrong answer —
   and the digest must match the cold run's. *)
let test_torn_store () =
  let dir = fresh_dir () in
  let cold = run dir (program ()) in
  let cold_digest = Driver.result_digest cold in
  let full = read_file (store_path dir) in
  let plan = Vbase.Faultplan.create ~seed:7 () in
  for _ = 1 to 4 do
    let cut = Vbase.Faultplan.draw plan "cache.torn" (String.length full) in
    write_file (store_path dir) (String.sub full 0 cut);
    let r = run dir (program ()) in
    let s = cstats r in
    Alcotest.(check bool) "torn store never yields wrong results" true r.Driver.pr_ok;
    Alcotest.(check string)
      (Printf.sprintf "digest unchanged after truncation at %d" cut)
      cold_digest (Driver.result_digest r);
    Alcotest.(check bool) "torn store is detected or loads a clean prefix" true
      (s.Vcache.corrupt_load || s.Vcache.hits + s.Vcache.misses > 0);
    (* Each iteration's flush repairs the store for the next one. *)
    let s2 = cstats (run dir (program ())) in
    Alcotest.(check int) "store repaired after torn write" 0 s2.Vcache.misses
  done

(* ------------------------------------------------------------------ *)
(* Fingerprint stability                                               *)
(* ------------------------------------------------------------------ *)

let test_fingerprint () =
  let pr = program () in
  let use_double = List.nth pr.functions 1 in
  let other = List.nth pr.functions 2 in
  let fp_of fndecl =
    match Encode.encode_function Profiles.verus pr fndecl with
    | [] -> Alcotest.fail ("no VCs for " ^ fndecl.fname)
    | vc :: _ ->
      let context = Driver.context_for Profiles.verus pr vc in
      Vcache.fingerprint ~profile:Profiles.verus ~prog:pr ~context vc
  in
  let fp1 = fp_of use_double in
  let fp2 = fp_of use_double in
  Alcotest.(check string) "fingerprint is a pure function" fp1 fp2;
  Alcotest.(check int) "fingerprint is 128 bits of hex" 32 (String.length fp1);
  String.iter
    (fun c ->
      Alcotest.(check bool) "fingerprint is lowercase hex" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    fp1;
  Alcotest.(check bool) "different goals, different fingerprints" true
    (not (String.equal fp1 (fp_of other)));
  (* The solver budget is a fingerprint input: a budget override must
     invalidate (a result proved under one budget says nothing about
     another). *)
  let tight =
    Profiles.with_budget
      { (Profiles.budget Profiles.verus) with Smt.Solver.max_rounds = 2 }
      Profiles.verus
  in
  let fp_tight =
    match Encode.encode_function tight pr use_double with
    | vc :: _ ->
      let context = Driver.context_for tight pr vc in
      Vcache.fingerprint ~profile:tight ~prog:pr ~context vc
    | [] -> Alcotest.fail "no VCs"
  in
  Alcotest.(check bool) "budget override changes the fingerprint" true
    (not (String.equal fp1 fp_tight))

(* A fingerprint must not depend on what the process encoded before.
   Hash-consing orders [Eq]/[Mul] operands by term id, and ids depend on
   which terms already exist: const_cond's [(= (+ a b) 4242)] is stored
   the other way round once the literal predates the sum.  Fingerprint
   const_cond, encode other programs, re-encode and fingerprint again. *)
let test_fingerprint_history () =
  let fps pf prog =
    List.concat_map
      (fun fd ->
        List.map
          (fun (vc : Encode.vc) ->
            let context = Driver.context_for pf prog vc in
            Vcache.fingerprint ~profile:pf ~prog ~context vc)
          (Encode.encode_function pf prog fd))
      (List.filter (fun fd -> fd.fmode <> Spec && fd.body <> None) prog.functions)
  in
  let before = fps Profiles.verus Bench_programs.const_cond in
  List.iter
    (fun prog ->
      List.iter (fun pf -> ignore (fps pf prog)) [ Profiles.verus; Profiles.dafny ])
    [ Bench_programs.singly_linked; Bench_programs.break_pop; Bench_programs.dlock_default ];
  Alcotest.(check (list string)) "fingerprints unchanged by earlier encodings" before
    (fps Profiles.verus Bench_programs.const_cond)

(* ------------------------------------------------------------------ *)
(* Overlapping writers                                                 *)
(* ------------------------------------------------------------------ *)

let entry =
  {
    Vcache.e_answer = Smt.Solver.Unsat;
    e_detail = "";
    e_bytes = 0;
    e_time_s = 0.0;
    e_profile = None;
    e_cert_digest = None;
    e_rung = None;
  }

(* Open a handle on [dir], record one entry under [key], flush. *)
let store_one dir key =
  let h = Vcache.open_ { Vcache.dir } in
  Vcache.store h ~name:key ~fp:key entry;
  Vcache.flush h

let test_two_handles () =
  let dir = fresh_dir () in
  let a = Vcache.open_ { Vcache.dir } and b = Vcache.open_ { Vcache.dir } in
  Vcache.store a ~name:"a" ~fp:"fp-a" entry;
  Vcache.store b ~name:"b" ~fp:"fp-b" entry;
  let flushed = [ Vcache.flush a; Vcache.flush b ] in
  Alcotest.(check bool) "both flushes succeed" true (List.for_all Result.is_ok flushed);
  Alcotest.(check int) "each handle's entry is kept" 2 (Vcache.disk_stats ~dir).Vcache.ds_entries

let test_concurrent_flushes () =
  let dir = fresh_dir () in
  let rounds = 50 in
  let writer tag () = List.init rounds (fun i -> store_one dir (Printf.sprintf "%s-%d" tag i)) in
  let other = Domain.spawn (writer "left") in
  let mine = writer "right" () in
  let errors =
    List.filter_map (function Ok () -> None | Error e -> Some e) (mine @ Domain.join other)
  in
  Alcotest.(check (list string)) "no flush fails" [] errors;
  Alcotest.(check int) "no entry is lost" (2 * rounds) (Vcache.disk_stats ~dir).Vcache.ds_entries

let () =
  Alcotest.run "vcache"
    [
      ( "matrix",
        [
          Alcotest.test_case "hit/miss/invalidation" `Quick test_matrix;
          Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
        ] );
      ( "store",
        [
          Alcotest.test_case "fixpoint and upgrade" `Quick test_store_fixpoint;
          Alcotest.test_case "wrong schema" `Quick test_wrong_schema;
          Alcotest.test_case "malformed entry" `Quick test_malformed_entry;
          Alcotest.test_case "torn store" `Quick test_torn_store;
          Alcotest.test_case "two handles" `Quick test_two_handles;
          Alcotest.test_case "concurrent flushes" `Quick test_concurrent_flushes;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "stability" `Quick test_fingerprint;
          Alcotest.test_case "history independence" `Quick test_fingerprint_history;
        ] );
    ]
