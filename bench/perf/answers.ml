(* The known-answer gate: the verdict every (program, profile) pair the
   benchmark uses must reach.  Written by hand from the programs' sources
   (bench_programs.ml, vstd_seq.ml) and never derived from the driver: the
   broken variants drop a precondition, so their failing obligation and
   its code are known before anything runs. *)

type verdict =
  | Verified
  | Fails of { fn : string; code : string }
      (** the first failing function and the failure class of
          [Driver.first_failure] ([VC001] refuted, [VC002] unknown) *)

let verified pairs = List.map (fun pp -> (pp, Verified)) pairs

let table =
  verified
    [
      ("singly_linked", "Verus");
      ("singly_linked", "Dafny");
      ("singly_linked", "Creusot");
      ("singly_linked", "Prusti");
      ("singly_linked", "F*/Low*");
      ("doubly_linked", "Verus");
      ("doubly_linked", "Dafny");
      ("doubly_linked", "Creusot");
      ("mem4", "Verus");
      ("mem4", "Verus-liberal");
      ("dlock", "Verus");
      ("dlock", "Dafny");
      ("vstd_seq", "Verus");
      ("vstd_seq", "Dafny");
      ("const_cond", "Verus");
      ("const_cond", "Dafny");
    ]
  @ [
      (* pop_front without [len(view(self)) > 0] cannot show the list is a
         Cons: the solver exhausts its instantiation rounds on the first
         assertion, which is an Unknown, not a counterexample. *)
      (("break_pop", "Verus"), Fails { fn = "pop_front"; code = "VC002" });
      (("break_pop", "Dafny"), Fails { fn = "pop_front"; code = "VC002" });
    ]

let expected ~program ~profile = List.assoc_opt (program, profile) table

let to_string = function
  | Verified -> "verified"
  | Fails { fn; code } -> Printf.sprintf "fails %s %s" fn code

(* The exit code a daemon [done] event must carry for each verdict: the
   shared CLI/daemon policy maps an Unknown-only failure to 3. *)
let exit_code = function
  | Verified -> 0
  | Fails { code = "VC002"; _ } -> 3
  | Fails _ -> 1

let check ~program ~profile (pr : Verus.Driver.program_result) =
  let got =
    match Verus.Driver.first_failure pr with
    | None when pr.Verus.Driver.pr_ok -> Verified
    | None -> Fails { fn = "?"; code = "?" }
    | Some (fn, _, code) -> Fails { fn; code }
  in
  match expected ~program ~profile with
  | None -> Error (Printf.sprintf "%s/%s has no entry in the answer table" program profile)
  | Some want when want = got -> Ok ()
  | Some want ->
    Error
      (Printf.sprintf "%s/%s: expected %s, got %s" program profile (to_string want)
         (to_string got))
