(* The four workloads: what each request is, how a seed orders them, and
   the program edits of the warm-edit loop.  The library only ever sees
   the generated programs and configurations. *)

open Verus

type edit =
  | No_edit
  | Rename  (** rename an exec function nothing calls: every obligation must still hit *)
  | Touch
      (** add a valid, request-unique [requires] clause to one exec function
          nothing calls: exactly that function's obligations re-solve *)

type kind = {
  program : string;
  profile : string;
  edit : edit;
  cached : bool;  (** daemon-mixed only: the request asks for the shared cache *)
}

type request = { id : int; kind : kind }

(* How a workload's requests are verified. *)
type mode =
  | Cli  (** in-process, with the defaults of CLI [verify] *)
  | Ladder  (** in-process, up the [escalate] ladder behind the Vflow prescreen *)
  | Certified_cache  (** in-process, against a verification cache, with [--certify] *)
  | Daemon  (** over verus-rpc/1 to a daemon served in-process *)

(* Every workload is a closed loop with one client: the next request
   goes out when the previous verdict is in. *)
type t = {
  name : string;
  limit_s : float;  (** latency limit of [within_limit_ratio] *)
  mix : (kind * int) list;  (** one round: each kind and how often it occurs *)
  quick_mix : (kind * int) list;  (** the few requests of a [--quick] smoke run *)
  round_s : float;
      (** run seconds per round: a run of [--seconds S] sends [S / round_s]
          whole rounds (at least one), a count fixed by the workload and not
          by how fast the build under test is, so both sides of a
          comparison do the same work *)
  setups : int;
      (** set-ups per run; [setup_s] is their median.  Five for the 0.2 s
          warm-ups, where one slow moment moves a median of three *)
  mode : mode;
}

let k ?(edit = No_edit) ?(cached = false) program profile = { program; profile; edit; cached }

let cold_suite_pairs =
  List.map (fun pf -> ("singly_linked", pf)) [ "Verus"; "Dafny"; "Creusot"; "Prusti"; "F*/Low*" ]
  @ List.map (fun pf -> ("doubly_linked", pf)) [ "Verus"; "Dafny"; "Creusot" ]
  @ [ ("mem4", "Verus") ]
  @ List.concat_map
      (fun prog -> [ (prog, "Verus"); (prog, "Dafny") ])
      [ "dlock"; "vstd_seq"; "const_cond"; "break_pop" ]

(* The Verus and Dafny pairs of cold-suite whose cold fill takes well
   under a second each; mem4/Verus (3.5 s) and doubly_linked/Dafny (1.4 s)
   would make every set-up pay for them. *)
let warm_edit_pairs =
  List.filter
    (fun (prog, pf) ->
      (pf = "Verus" || pf = "Dafny") && prog <> "mem4"
      && not (prog = "doubly_linked" && pf = "Dafny"))
    cold_suite_pairs

(* doubly_linked/Dafny is left out for the same reason. *)
let daemon_pairs =
  [
    ("singly_linked", "Verus");
    ("singly_linked", "Dafny");
    ("singly_linked", "Creusot");
    ("doubly_linked", "Verus");
    ("doubly_linked", "Creusot");
  ]

let cold_suite =
  {
    name = "cold-suite";
    limit_s = 5.0;
    round_s = 7.5;
    mix = List.map (fun (prog, pf) -> (k prog pf, 1)) cold_suite_pairs;
    quick_mix = [ (k "singly_linked" "Verus", 1); (k "dlock" "Dafny", 1); (k "break_pop" "Verus", 1) ];
    setups = 5;
    mode = Cli;
  }

(* break_pop's failing obligation is the one that climbs every rung:
   the mem4 and list obligations all prove at the first. *)
let ladder_climb =
  {
    name = "ladder-climb";
    limit_s = 10.0;
    round_s = 15.0;
    mix =
      [
        (k "mem4" "Verus-liberal", 1);
        (k "mem4" "Verus", 1);
        (k "singly_linked" "Dafny", 1);
        (k "doubly_linked" "Dafny", 1);
        (k "break_pop" "Verus", 1);
        (k "break_pop" "Dafny", 1);
      ];
    quick_mix = [ (k "singly_linked" "Dafny", 1); (k "break_pop" "Verus", 1) ];
    setups = 5;
    mode = Ladder;
  }

(* 4 : 2 : 1 per pair — 57% unedited, 29% renames, 14% touches. *)
let warm_edit =
  let per (prog, pf) =
    [ (k prog pf, 4); (k ~edit:Rename prog pf, 2); (k ~edit:Touch prog pf, 1) ]
  in
  {
    name = "warm-edit";
    limit_s = 0.5;
    round_s = 0.65;
    setups = 3;
    mix = List.concat_map per warm_edit_pairs;
    quick_mix = per ("singly_linked", "Verus") @ [ (k ~edit:Touch "break_pop" "Dafny", 1) ];
    mode = Certified_cache;
  }

(* 2 : 1 warm (shared cache) to cold requests per pair. *)
let daemon_mixed =
  {
    name = "daemon-mixed";
    limit_s = 2.0;
    round_s = 2.2;
    setups = 3;
    mix =
      List.concat_map
        (fun (prog, pf) -> [ (k ~cached:true prog pf, 2); (k prog pf, 1) ])
        daemon_pairs;
    quick_mix = [ (k ~cached:true "singly_linked" "Verus", 2); (k "doubly_linked" "Creusot", 1) ];
    mode = Daemon;
  }

let all = [ cold_suite; ladder_climb; warm_edit; daemon_mixed ]
let find name = List.find_opt (fun w -> w.name = name) all

let edit_string = function No_edit -> "none" | Rename -> "rename" | Touch -> "touch"

(* A request kind's name: program × profile × edit (× warm/cold). *)
let kind_name kd =
  Printf.sprintf "%s/%s%s%s" kd.program kd.profile
    (if kd.edit = No_edit then "" else "+" ^ edit_string kd.edit)
    (if kd.cached then "+warm" else "")

(* --------------------------- request lists --------------------------- *)

let round_kinds mix = List.concat_map (fun (kd, n) -> List.init n (fun _ -> kd)) mix
let round_size w ~quick = List.length (round_kinds (if quick then w.quick_mix else w.mix))

(* Whole rounds in a run of [seconds]: fixed by the workload, not by how
   fast this build happens to be.  A quick run is one round. *)
let rounds w ~quick ~seconds =
  if quick then 1 else max 1 (int_of_float (Float.round (seconds /. w.round_s)))

(* The request list of [rounds] rounds: each round is the workload's mix,
   shuffled by the seeded generator, so every seed sends the same kinds
   the same number of times and only the order changes. *)
let requests w ~seed ~quick ~rounds =
  let rng = Vbase.Rng.create ~seed in
  let base = Array.of_list (round_kinds (if quick then w.quick_mix else w.mix)) in
  List.concat
    (List.init rounds (fun _ ->
         let a = Array.copy base in
         Vbase.Rng.shuffle rng a;
         Array.to_list a))
  |> List.mapi (fun id kind -> { id; kind })

(* ------------------------ programs and profiles ----------------------- *)

let program name =
  match Vservice.find_program name with Ok p -> p | Error e -> failwith e

(* "<profile>-liberal" is the broad-trigger degradation of a bundled
   profile, the configuration of the liberal mem rows in BENCH_ladder.json. *)
let profile name =
  let suffix = "-liberal" in
  let n = String.length name and s = String.length suffix in
  let base, liberal =
    if n > s && String.sub name (n - s) s = suffix then (String.sub name 0 (n - s), true)
    else (name, false)
  in
  match Vservice.find_profile base with
  | Ok p -> if liberal then Profiles.liberal p else p
  | Error e -> failwith e

(* ------------------------------- edits ------------------------------- *)

(* Per program: the exec function renamed, and the exec function and
   parameter a touch constrains.  None of them has a caller, so no other
   function's obligations see the edit. *)
let edit_targets = function
  | "singly_linked" | "break_pop" -> ("list_new", "push_front", "x")
  | "doubly_linked" -> ("dll_get", "dll_push_back", "x")
  | "dlock" -> ("dlock_transfer_preserves", "dlock_transfer_preserves", "src")
  | "vstd_seq" -> ("lemma_take_full", "lemma_push_len", "x")
  | "const_cond" -> ("clamp_add", "clamp_add", "a")
  | p -> invalid_arg ("no edit targets for " ^ p)

let touched_fn program = let _, fn, _ = edit_targets program in fn

(* A touch adds [x <= x + (id + 1)]: valid, distinct for every request (so
   every touch is a fresh fingerprint and a real re-solve, and the store
   keeps growing), and not folded away by term normalisation. *)
let apply_edit (prog : Vir.program) (r : request) : Vir.program =
  let map f = { prog with Vir.functions = List.map f prog.Vir.functions } in
  match r.kind.edit with
  | No_edit -> prog
  | Rename ->
    let target, _, _ = edit_targets r.kind.program in
    map (fun fd -> if fd.Vir.fname = target then { fd with Vir.fname = target ^ "_renamed" } else fd)
  | Touch ->
    let _, target, x = edit_targets r.kind.program in
    map (fun fd ->
        if fd.Vir.fname = target then
          { fd with Vir.requires = fd.Vir.requires @ [ Vir.(v x <=: (v x +: i (r.id + 1))) ] }
        else fd)

let request_program r = apply_edit (program r.kind.program) r
