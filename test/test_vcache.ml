(* Vcache tests: the hit/miss/invalidation matrix a content-addressed
   cache must honor (touching a spec function re-solves exactly its
   dependents; renaming an unrelated function keeps every hit), counter
   determinism under jobs > 1, the on-disk store's fixpoint and repair
   behavior, corruption tolerance (truncated documents, wrong schema
   tags, malformed entries — all degrade to misses, never failures),
   reuse of a parsed store (only for the same bytes, with the counters a
   fresh parse reports), the program index (a warm run it serves equals
   the per-obligation warm path and encodes nothing; edits, --certify and
   a lost store fall back), fingerprint stability, including independence
   from what the process encoded before, and golden fingerprints pinned
   as literal hex. *)

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

(* The id the next new term gets: a run that mints no term leaves it one
   above the previous probe's.  Every path that encodes mints terms (VC
   generation freshens names); a run the program index serves mints
   none. *)
let next_term_id () = (Smt.Term.const (Smt.Term.Sym.fresh "probe" [] Smt.Sort.Int)).Smt.Term.tid

let minting f =
  let before = next_term_id () in
  let r = f () in
  (r, next_term_id () > before + 1)

(* [program ()] plus an unused uninterpreted spec function named [tag]: a
   program the index has not seen, with no new axiom or obligation, so
   every obligation hits and the digest is [program ()]'s.  Warm runs on
   it take the scheduled path. *)
let unseen tag =
  let base = program () in
  {
    base with
    functions = base.functions @ [ fn ("unused_" ^ tag) ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_) ];
  }

let test_jobs_determinism () =
  let dir = fresh_dir () in
  let cold = run ~jobs:2 dir (program ()) in
  let cs = cstats cold in
  Alcotest.(check bool) "parallel cold verifies" true cold.Driver.pr_ok;
  let warm1, encoded1 = minting (fun () -> run ~jobs:1 dir (unseen "jobs1")) in
  let warm3, encoded3 = minting (fun () -> run ~jobs:3 dir (unseen "jobs3")) in
  Alcotest.(check bool) "jobs=1 warm run is scheduled" true encoded1;
  Alcotest.(check bool) "jobs=3 warm run is scheduled" true encoded3;
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

(* (VC name, fingerprint) of every obligation of [prog], keyed the way the
   driver keys them without a ladder. *)
let obligation_fps ?analyze ?ladder pf prog =
  List.concat_map
    (fun fd ->
      List.map
        (fun (vc : Encode.vc) ->
          let context = Driver.context_for pf prog vc in
          (vc.Encode.vc_name, Vcache.fingerprint ?analyze ?ladder ~profile:pf ~prog ~context vc))
        (Encode.encode_function pf prog fd))
    (List.filter (fun fd -> fd.fmode <> Spec && fd.body <> None) prog.functions)

(* A fingerprint must not depend on what the process encoded before.
   Hash-consing orders [Eq]/[Mul] operands by term id, and ids depend on
   which terms already exist: const_cond's [(= (+ a b) 4242)] is stored
   the other way round once the literal predates the sum.  Fingerprint
   const_cond, encode other programs, re-encode and fingerprint again. *)
let test_fingerprint_history () =
  let fps pf prog = List.map snd (obligation_fps pf prog) in
  let before = fps Profiles.verus Bench_programs.const_cond in
  List.iter
    (fun prog ->
      List.iter (fun pf -> ignore (fps pf prog)) [ Profiles.verus; Profiles.dafny ])
    [ Bench_programs.singly_linked; Bench_programs.break_pop; Bench_programs.dlock_default ];
  Alcotest.(check (list string)) "fingerprints unchanged by earlier encodings" before
    (fps Profiles.verus Bench_programs.const_cond)

(* ------------------------------------------------------------------ *)
(* Golden fingerprints                                                 *)
(* ------------------------------------------------------------------ *)

(* Cache keys pinned as literal hex.  A store written by an earlier build
   must keep serving this one, so a change that moves every key while
   staying deterministic (a rewritten hash loop, memoised rendering) has
   to fail here rather than show up as a silently cold cache.  Re-record
   these only together with a deliberate [verus-cache-fp] bump. *)

let golden_singly_linked_verus =
  [
    ("list_new: postcondition 0", "bfc9bddbd20198d763017c51f066d5b2");
    ("push_front: postcondition 0", "ffc9ef29228e260a313cef9d2aac32af");
    ("pop_front: assertion", "e7234a4dfcf06324c755ac25bb433ec5");
    ("pop_front: assertion", "208efe60bf62c875e1838f4a4ed1fa88");
    ("pop_front: postcondition 0", "314ba64acba012200980d982727d4919");
    ("pop_front: postcondition 1", "6c78a8ae5c9972f4a796b19bed64355a");
    ("list_index: loop invariant 0 holds on entry", "eae57f37ca1200843ebce0bc6f2ee006");
    ("list_index: loop invariant 1 holds on entry", "001114e775b1047c3be917c4d1971628");
    ("list_index: loop measure nonnegative", "d1cccd0af09cea827893c0c1b443a6ad");
    ("list_index: assertion", "e812a2c587d874f7a30286bf5c946cad");
    ("list_index: assertion", "9098bf87a7d8f73d4120e2294bca5feb");
    ("list_index: arithmetic overflow", "828df56bc8498af1e7607386d37747a6");
    ("list_index: value fits target type", "828df56bc8498af1e7607386d37747a6");
    ("list_index: loop invariant 0 preserved", "a0807e3d12455e29d9c4f090c651969c");
    ("list_index: loop invariant 1 preserved", "bbf784ac348e13cd8d889be6499c5433");
    ("list_index: loop measure decreases", "d3fd8ce6adc933348c9610e64370bb76");
    ("list_index: assertion", "b2d351808a1dc77a937572077eb43b1d");
    ("list_index: assertion", "e232d1950af1a0ea8d011c03ba934ffc");
    ("list_index: postcondition 0", "c1c2ec5d47b80aadbdc27a5b9b7823d8");
  ]

let golden_singly_linked_dafny =
  [
    ("list_new: postcondition 0", "889771c29146965f60f1dfdb2342d443");
    ("push_front: postcondition 0", "8b0c56be10e2ba772d64cb084b0c794b");
    ("pop_front: assertion", "667909459c3dc96d137dd225ae13d2e3");
    ("pop_front: assertion", "727c61bdc1d3d4f8ab22643520df2355");
    ("pop_front: postcondition 0", "ccf38a1298e6bcbfd3fb332a4a1e445f");
    ("pop_front: postcondition 1", "e5df411aeb82b1c1923db5f92e976244");
    ("list_index: loop invariant 0 holds on entry", "c3573db8fa4ccf650ebc61144a5c57d5");
    ("list_index: loop invariant 1 holds on entry", "cc4c4449f205d5e9913e0bad810024ed");
    ("list_index: loop measure nonnegative", "8da1c7a0e615f7db07205c640d93969a");
    ("list_index: assertion", "19c7f8e91801b3151869ec8c1797b33d");
    ("list_index: assertion", "2c4e4b81dd90f17c8c0e5a653f4ba107");
    ("list_index: arithmetic overflow", "a9904ecd00ab843369ba86fac7d18a86");
    ("list_index: value fits target type", "a9904ecd00ab843369ba86fac7d18a86");
    ("list_index: loop invariant 0 preserved", "225df6f2d568352ab42fe80371bcc356");
    ("list_index: loop invariant 1 preserved", "eb90564a64c9c1f5b37a08d7c4f82cfd");
    ("list_index: loop measure decreases", "d53d11e54031492cc7dac27d53f31265");
    ("list_index: assertion", "e73f7e9ce48829b7dc4fefbc8f57abbb");
    ("list_index: assertion", "baeac69bb83aa595e3a5b284a567375e");
    ("list_index: postcondition 0", "c252ceda57cb5acadbb38e72f1f48a41");
  ]

let check_fps label want got =
  Alcotest.(check (list (pair string string))) label want got

(* Verus prunes each obligation's context; Dafny ships every axiom. *)
let test_golden_programs () =
  let sl = Bench_programs.singly_linked in
  check_fps "singly_linked / Verus" golden_singly_linked_verus (obligation_fps Profiles.verus sl);
  check_fps "singly_linked / Dafny" golden_singly_linked_dafny (obligation_fps Profiles.dafny sl);
  let ladder = Vladder.Ladder.fingerprint Vladder.Ladder.escalate in
  Alcotest.(check string) "escalate ladder fingerprint" "61615cb1309a5a03009c55475f9fe838" ladder;
  check_fps "prescreened, under the escalate ladder"
    [ ("list_new: postcondition 0", "29180aeb25f0058dca8899ef72ff5b3e") ]
    [ List.hd (obligation_fps ~analyze:true ~ladder Profiles.verus sl) ]

(* A [by(compute)] obligation is keyed by the program surface the
   interpreter reads (datatypes, spec bodies, the asserted expression). *)
let test_golden_compute () =
  let pair = TData "Pair" in
  let base = program () in
  let pr =
    {
      base with
      datatypes =
        [ { dname = "Pair"; variants = [ ("MkPair", [ ("fst", int_); ("snd", TSeq int_) ]); ("Nil", []) ] } ];
    }
  in
  let mk = ECtor ("Pair", "MkPair", [ i 3; ESeq (SeqPush (ESeq (SeqEmpty int_), i 4)) ]) in
  let expr =
    EForall
      ( [ ("k", int_); ("q", pair) ],
        Term_explicit [ [ ECall ("double", [ v "k" ]) ] ],
        (EIs (v "q", "MkPair") ==>: (ESeq (SeqLen (EField (v "q", "snd"))) >=: i 0))
        &&: (ECall ("double", [ v "k" ]) ==: (v "k" *: i 2))
        &&: (EField (mk, "fst") <: i 4) )
  in
  let vc =
    {
      Encode.vc_name = "golden:compute";
      vc_hyps = [];
      vc_goal = Smt.Term.tru;
      vc_hint = H_compute;
      vc_expr = Some expr;
    }
  in
  Alcotest.(check string) "by(compute) obligation" "4cf2c157ae024ed6b1253125a4c9b612"
    (Vcache.fingerprint ~profile:Profiles.verus ~prog:pr ~context:[] vc)

(* Fresh symbols are numbered by first occurrence in the payload, across
   context, hypotheses and goal.  The same axiom over [g] is [g!0] in one
   key and [g!1] in the other, so a rendering reused from the first would
   give the second a different key. *)
let test_golden_fresh () =
  let module T = Smt.Term in
  let int = Smt.Sort.Int in
  let g = T.Sym.fresh "g" [ int ] int and h = T.Sym.fresh "g" [ int ] int in
  let n1 = T.const (T.Sym.fresh "n" [] int) and n2 = T.const (T.Sym.fresh "n" [] int) in
  let x = T.bvar "x" int in
  let ax f = T.forall ~triggers:[ [ T.app f [ x ] ] ] [ ("x", int) ] (T.le x (T.app f [ x ])) in
  let vc =
    {
      Encode.vc_name = "golden:fresh";
      vc_hyps = [ T.le (T.int_of 0) n1; T.eq (T.app g [ n1 ]) (T.add [ n2; T.int_of 1 ]) ];
      vc_goal = T.lt n2 (T.app h [ n2 ]);
      vc_hint = H_default;
      vc_expr = None;
    }
  in
  let fp context = Vcache.fingerprint ~profile:Profiles.verus ~prog:(program ()) ~context vc in
  Alcotest.(check string) "context [g]" "11481275e5571404ebedcc1a4c764135" (fp [ ax g ]);
  Alcotest.(check string) "context [h; g]" "9a31826f517d941cc97cb9cba60f3655" (fp [ ax h; ax g ]);
  Alcotest.(check string) "context [g] again" "11481275e5571404ebedcc1a4c764135" (fp [ ax g ])

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

(* ------------------------------------------------------------------ *)
(* Reusing a parsed store                                              *)
(* ------------------------------------------------------------------ *)

(* [open_] reuses the tables it last parsed only while the file holds the
   very bytes they were parsed from. *)

let expect_hit h fp what =
  match Vcache.lookup h ~name:fp ~fp ~profile_wanted:false ~certified_wanted:false with
  | Some e -> e
  | None -> Alcotest.fail what

let expect_miss h fp what =
  Alcotest.(check bool) what true
    (Vcache.lookup h ~name:fp ~fp ~profile_wanted:false ~certified_wanted:false = None)

let flush_ok h =
  match Vcache.flush h with Ok () -> () | Error e -> Alcotest.fail ("flush: " ^ e)

(* Run-snapshot isolation holds across handles that share a parse. *)
let test_reuse_isolation () =
  let dir = fresh_dir () in
  flush_ok
    (let h = Vcache.open_ { Vcache.dir } in
     Vcache.store h ~name:"seed" ~fp:"seed" entry;
     h);
  let b = Vcache.open_ { Vcache.dir } in
  let a = Vcache.open_ { Vcache.dir } in
  Vcache.store a ~name:"a" ~fp:"fp-a" entry;
  flush_ok a;
  ignore (expect_hit b "seed" "b serves what was on disk when it opened");
  expect_miss b "fp-a" "b does not see a's later flush";
  let c = Vcache.open_ { Vcache.dir } in
  ignore (expect_hit c "fp-a" "a handle opened after the flush serves a's entry");
  ignore (expect_hit c "seed" "and the older entry")

(* The reuse is keyed on the bytes alone: a copy of a store in another
   directory opens from the same parse, and each directory's handles
   still see only their own flushes. *)
let test_reuse_copy () =
  let a = fresh_dir () and b = fresh_dir () in
  flush_ok
    (let h = Vcache.open_ { Vcache.dir = a } in
     Vcache.store h ~name:"seed" ~fp:"seed" entry;
     h);
  ignore (expect_hit (Vcache.open_ { Vcache.dir = a }) "seed" "a serves its entry");
  if not (Sys.file_exists b) then Sys.mkdir b 0o755;
  write_file (store_path b) (read_file (store_path a));
  let hb = Vcache.open_ { Vcache.dir = b } in
  ignore (expect_hit hb "seed" "the copy in b serves the same entry");
  Vcache.store hb ~name:"b" ~fp:"fp-b" entry;
  flush_ok hb;
  let ha = Vcache.open_ { Vcache.dir = a } in
  ignore (expect_hit ha "seed" "a still serves its entry");
  expect_miss ha "fp-b" "a does not see b's flush";
  ignore (expect_hit (Vcache.open_ { Vcache.dir = b }) "fp-b" "b serves its own flush")

(* An in-place rewrite that keeps the file's size, and here its mtime as
   well: only the bytes tell the reuse that the store changed. *)
let test_reuse_same_size () =
  let dir = fresh_dir () in
  let h = Vcache.open_ { Vcache.dir } in
  Vcache.store h ~name:"k" ~fp:"k" entry;
  flush_ok h;
  let path = store_path dir in
  let before = read_file path in
  let st = Unix.stat path in
  ignore (expect_hit (Vcache.open_ { Vcache.dir }) "k" "first open parses the entry");
  let replace ~sub ~by text =
    match Str.search_forward (Str.regexp_string sub) text 0 with
    | i -> String.sub text 0 i ^ by ^ String.sub text (i + String.length sub) (String.length text - i - String.length sub)
    | exception Not_found -> Alcotest.fail ("store has no " ^ sub)
  in
  let after =
    before
    |> replace ~sub:"\"answer\": \"unsat\"" ~by:"\"answer\": \"sat\""
    |> replace ~sub:"\"detail\": \"\"" ~by:"\"detail\": \"ab\""
  in
  Alcotest.(check int) "rewrite keeps the size" (String.length before) (String.length after);
  write_file path after;
  Unix.utimes path st.Unix.st_atime st.Unix.st_mtime;
  let e = expect_hit (Vcache.open_ { Vcache.dir }) "k" "rewritten entry is served" in
  Alcotest.(check bool) "the rewritten answer is served" true (e.Vcache.e_answer = Smt.Solver.Sat);
  Alcotest.(check string) "the rewritten detail is served" "ab" e.Vcache.e_detail

let counters h =
  let s = Vcache.stats h in
  (s.Vcache.entries_loaded, s.Vcache.entries_dropped, s.Vcache.corrupt_load)

let disk_counters dir =
  let ds = Vcache.disk_stats ~dir in
  (ds.Vcache.ds_entries, ds.Vcache.ds_dropped, ds.Vcache.ds_corrupt)

(* A reused open reports what a fresh parse (here [disk_stats]) reports,
   for a well-formed store, one with a malformed entry, and one whose
   document is unusable. *)
let test_reuse_counters () =
  let dir = fresh_dir () in
  flush_ok
    (let h = Vcache.open_ { Vcache.dir } in
     List.iter (fun k -> Vcache.store h ~name:k ~fp:k entry) [ "k1"; "k2"; "k3" ];
     h);
  let triple = Alcotest.(triple int int bool) in
  let same_twice label =
    let first = counters (Vcache.open_ { Vcache.dir }) in
    let again = counters (Vcache.open_ { Vcache.dir }) in
    Alcotest.check triple (label ^ ": first open") (disk_counters dir) first;
    Alcotest.check triple (label ^ ": reused open") first again
  in
  same_twice "well-formed";
  let text = read_file (store_path dir) in
  let i = Str.search_forward (Str.regexp_string "\"answer\"") text 0 in
  write_file (store_path dir) (String.sub text 0 i ^ "\"answe_\"" ^ String.sub text (i + 8) (String.length text - i - 8));
  Alcotest.check triple "malformed entry, fresh parse" (2, 1, false) (disk_counters dir);
  same_twice "malformed entry";
  write_file (store_path dir) "{ \"schema\": \"verus-cache/999\", \"entries\": {} }";
  same_twice "wrong schema"

(* Hits serve the document's rounding of a float, never the unrounded
   value the flushing handle held. *)
let test_reuse_floats () =
  let dir = fresh_dir () in
  let t = 0.123456789 in
  let h = Vcache.open_ { Vcache.dir } in
  Vcache.store h ~name:"k" ~fp:"k" { entry with Vcache.e_time_s = t };
  flush_ok h;
  let on_disk = float_of_string (Printf.sprintf "%.6g" t) in
  Alcotest.(check bool) "the document rounds the time" true (on_disk <> t);
  let e = expect_hit (Vcache.open_ { Vcache.dir }) "k" "flushed entry is served" in
  Alcotest.(check (float 0.0)) "served time is the one on disk" on_disk e.Vcache.e_time_s;
  let e = expect_hit (Vcache.open_ { Vcache.dir }) "k" "flushed entry is served again" in
  Alcotest.(check (float 0.0)) "and stays so on a reused open" on_disk e.Vcache.e_time_s

(* ------------------------------------------------------------------ *)
(* The program index                                                   *)
(* ------------------------------------------------------------------ *)

(* A run and the progress events it streamed, in order. *)
let run_events config pf prog =
  let events = ref [] in
  let r = Driver.verify_program ~config ~on_progress:(fun ev -> events := ev :: !events) pf prog in
  (r, List.rev !events)

(* The programs whose full-budget solves take seconds to minutes run with
   a capped budget; the index is about warm runs, which read whatever the
   cold run stored. *)
let test_profile name (pf : Profiles.t) =
  if List.mem name [ "mem4"; "mem8"; "break_index" ] then
    Profiles.with_budget
      { (Profiles.budget pf) with Smt.Solver.deadline_s = 0.1; max_rounds = 1 }
      pf
  else pf

(* Cold with profiling on, which the index never records, so the first
   warm run takes today's per-obligation path; the second is served by
   the index.  The two warm runs must agree in everything a caller sees,
   and with the cold run in everything it decided.  The profile is
   renamed after [tag]: the name is in the program key but in no
   fingerprint, so no earlier case's record can serve the first warm
   run. *)
let check_equivalent ~tag config (pf : Profiles.t) prog =
  let pf = { pf with Profiles.name = tag } in
  let dir = fresh_dir () in
  let config = { config with Driver.Config.cache = Some { Vcache.dir } } in
  let cold = Driver.verify_program ~config:{ config with Driver.Config.profile = true } pf prog in
  let (warm, warm_events), warm_encoded = minting (fun () -> run_events config pf prog) in
  let (index, index_events), index_encoded = minting (fun () -> run_events config pf prog) in
  let check what = Alcotest.(check bool) (tag ^ ": " ^ what) true in
  check "the first warm run is scheduled" warm_encoded;
  check "the second warm run is served by the index" (not index_encoded);
  check "same functions and obligations" (warm.Driver.pr_fns = index.Driver.pr_fns);
  check "same events" (warm_events = index_events);
  check "same cache counters" (warm.Driver.pr_cache = index.Driver.pr_cache);
  check "same lints" (warm.Driver.pr_lint = index.Driver.pr_lint);
  check "same ladder summary" (warm.Driver.pr_ladder = index.Driver.pr_ladder);
  check "same verdict" (warm.Driver.pr_ok = index.Driver.pr_ok);
  Alcotest.(check string) (tag ^ ": index digest equals cold digest") (Driver.result_digest cold)
    (Driver.result_digest index);
  let vcs r = List.concat_map (fun f -> f.Driver.fnr_vcs) r.Driver.pr_fns in
  let cert_digest = function
    | Driver.Cert_checked d | Driver.Cert_cached d -> Some d
    | _ -> None
  in
  List.iter2
    (fun (c : Driver.vc_result) (i : Driver.vc_result) ->
      check ("replays " ^ c.Driver.vcr_name)
        (c.Driver.vcr_name = i.Driver.vcr_name
        && c.Driver.vcr_answer = i.Driver.vcr_answer
        && c.Driver.vcr_detail = i.Driver.vcr_detail
        && c.Driver.vcr_bytes = i.Driver.vcr_bytes
        && c.Driver.vcr_rung = i.Driver.vcr_rung
        && cert_digest c.Driver.vcr_cert = cert_digest i.Driver.vcr_cert
        && i.Driver.vcr_source = Driver.Src_cache))
    (vcs cold) (vcs index);
  let st = cstats index in
  check "every obligation hits" (st.Vcache.hits = List.length (vcs cold) && st.Vcache.misses = 0)

let test_index_equivalence () =
  let lint = Driver.Config.with_lint Driver.Lint_warn Driver.Config.default in
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun (pf : Profiles.t) ->
          List.iter
            (fun certify ->
              check_equivalent
                ~tag:(Printf.sprintf "%s/%s%s" name pf.Profiles.name (if certify then "/certify" else ""))
                (Driver.Config.with_certify certify lint)
                (test_profile name pf) (mk ()))
            [ false; true ])
        [ Profiles.verus; Profiles.dafny ])
    Vservice.programs;
  List.iter
    (fun (name, pf) ->
      check_equivalent ~tag:(name ^ "/escalate")
        (Driver.Config.with_ladder Driver.Ladder.escalate lint)
        pf
        (match Vservice.find_program name with Ok p -> p | Error e -> Alcotest.fail e))
    [ ("singly_linked", Profiles.dafny); ("break_pop", Profiles.verus) ]

(* Each test below verifies a program of its own, so no other test's
   record can serve it.  [broken prog]: [other] returns [y - 1], which
   breaks its [result >= y]. *)
let broken (base : program) =
  {
    base with
    functions =
      List.map
        (fun fd -> if fd.fname = "other" then { fd with body = Some [ SReturn (Some (v "y" -: i 1)) ] } else fd)
        base.functions;
  }

let test_index_edit () =
  let dir = fresh_dir () and prog = unseen "edit" in
  ignore (run dir prog);
  let warm, encoded = minting (fun () -> run dir prog) in
  Alcotest.(check bool) "the warm run is served by the index" false encoded;
  Alcotest.(check bool) "the warm run verifies" true warm.Driver.pr_ok;
  let r = run dir (broken prog) in
  Alcotest.(check bool) "the broken edit fails" false r.Driver.pr_ok;
  match Driver.first_failure r with
  | Some (fn, _, code) ->
    Alcotest.(check (pair string string)) "as a refutation of other" ("other", "VC001") (fn, code)
  | None -> Alcotest.fail "no failure reported"

let test_index_certify () =
  let dir = fresh_dir () and prog = unseen "certify" in
  let cold = run dir prog in
  let n = (cstats cold).Vcache.misses in
  let _, encoded = minting (fun () -> run dir prog) in
  Alcotest.(check bool) "the uncertified warm run is served by the index" false encoded;
  let certified () =
    Driver.verify_program
      ~config:Driver.Config.(default |> with_cache dir |> with_certify true)
      Profiles.verus prog
  in
  let certs r =
    List.concat_map (fun f -> List.map (fun v -> v.Driver.vcr_cert) f.Driver.fnr_vcs) r.Driver.pr_fns
  in
  let c = certified () in
  let s = cstats c in
  Alcotest.(check int) "--certify re-solves every uncertified Unsat" n s.Vcache.misses;
  Alcotest.(check int) "and stores it" n s.Vcache.stores;
  Alcotest.(check bool) "every certificate is checked" true
    (List.for_all (function Driver.Cert_checked _ -> true | _ -> false) (certs c));
  let again, encoded = minting certified in
  Alcotest.(check bool) "the next certified run is served by the index" false encoded;
  Alcotest.(check int) "from the certified entries" n (cstats again).Vcache.hits;
  Alcotest.(check bool) "every certificate comes from the cache" true
    (List.for_all (function Driver.Cert_cached _ -> true | _ -> false) (certs again))

let test_index_store_lost () =
  let dir = fresh_dir () and prog = unseen "store-lost" in
  let cold = run dir prog in
  let n = (cstats cold).Vcache.misses in
  let _, encoded = minting (fun () -> run dir prog) in
  Alcotest.(check bool) "the warm run is served by the index" false encoded;
  let degrade what =
    let r = run dir prog in
    let s = cstats r in
    Alcotest.(check (pair int int)) (what ^ ": a full cold run") (0, n) (s.Vcache.hits, s.Vcache.misses);
    Alcotest.(check bool) (what ^ ": verifies") true r.Driver.pr_ok;
    Alcotest.(check string) (what ^ ": cold digest") (Driver.result_digest cold) (Driver.result_digest r);
    s
  in
  (match Vcache.clear ~dir with Ok () -> () | Error e -> Alcotest.fail e);
  ignore (degrade "cleared store");
  write_file (store_path dir) "{ \"schema\": \"verus-cache/1\", \"entries\": { torn";
  let s = degrade "corrupt store" in
  Alcotest.(check bool) "corruption is reported" true s.Vcache.corrupt_load

let test_index_mints_nothing () =
  let dir = fresh_dir () and prog = unseen "mint" in
  let _, cold_encoded = minting (fun () -> run dir prog) in
  Alcotest.(check bool) "a cold run mints terms" true cold_encoded;
  let before = next_term_id () in
  let warm = run dir prog in
  Alcotest.(check int) "a warm index hit mints no term" (before + 1) (next_term_id ());
  Alcotest.(check int) "and serves every obligation" (cstats warm).Vcache.hits
    (List.length (List.concat_map (fun f -> f.Driver.fnr_vcs) warm.Driver.pr_fns));
  let _, renamed_encoded = minting (fun () -> run dir (program ~other_name:"renamed_mint" ())) in
  Alcotest.(check bool) "a program the index has not seen is encoded" true renamed_encoded

(* The index holds 64 keys (vcache.mli) and drops the least recently
   used first.  Keys recorded with no function serve trivially. *)
let test_index_bounded () =
  let h = Vcache.open_ { Vcache.dir = fresh_dir () } in
  let key i = Printf.sprintf "lru-%d" i in
  let served i = Vcache.serve h ~key:(key i) ~certified_wanted:false <> None in
  for i = 0 to 63 do
    Vcache.remember ~key:(key i) []
  done;
  Alcotest.(check bool) "a full index serves its oldest key" true (served 0);
  Vcache.remember ~key:(key 64) [];
  Alcotest.(check bool) "the least recently used key goes first" false (served 1);
  Alcotest.(check bool) "a key used since stays" true (served 0);
  Alcotest.(check bool) "the newest key is served" true (served 64)

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
      ( "reuse",
        [
          Alcotest.test_case "run-snapshot isolation" `Quick test_reuse_isolation;
          Alcotest.test_case "a copy in another directory" `Quick test_reuse_copy;
          Alcotest.test_case "same-size rewrite" `Quick test_reuse_same_size;
          Alcotest.test_case "counters equal a fresh parse" `Quick test_reuse_counters;
          Alcotest.test_case "floats as on disk" `Quick test_reuse_floats;
        ] );
      ( "index",
        [
          Alcotest.test_case "equals the per-obligation warm path" `Quick test_index_equivalence;
          Alcotest.test_case "a breaking edit fails" `Quick test_index_edit;
          Alcotest.test_case "--certify after an uncertified fill" `Quick test_index_certify;
          Alcotest.test_case "lost store degrades to cold" `Quick test_index_store_lost;
          Alcotest.test_case "mints no terms" `Quick test_index_mints_nothing;
          Alcotest.test_case "bounded, least recently used first" `Quick test_index_bounded;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "stability" `Quick test_fingerprint;
          Alcotest.test_case "history independence" `Quick test_fingerprint_history;
          Alcotest.test_case "golden: singly_linked" `Quick test_golden_programs;
          Alcotest.test_case "golden: by(compute)" `Quick test_golden_compute;
          Alcotest.test_case "golden: fresh symbols" `Quick test_golden_fresh;
        ] );
    ]
