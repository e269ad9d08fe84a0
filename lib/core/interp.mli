(** Concrete interpreter for VIR.

    Three uses:
    - [by(compute)] proofs (§3.3): a ground specification expression is
      evaluated to [true] by computation instead of being sent to the
      solver;
    - differential testing: exec functions run on random inputs that
      satisfy their preconditions, and the postconditions are checked
      dynamically — a soundness cross-check on the VC encoder;
    - the runnable examples.

    Spec quantifiers are evaluated only over bounded integer ranges
    supplied by [quant_bound]; anything else raises. *)

type value =
  | VBool of bool
  | VInt of Vbase.Bigint.t
  | VSeq of value list
  | VData of string * value list  (** variant name, field values *)

exception Runtime_error of string
exception Assertion_failed of string

val value_equal : value -> value -> bool
val value_to_string : value -> string

val eval_expr :
  ?quant_bound:int -> Vir.program -> (string * value) list -> Vir.expr -> value
(** Evaluate a (spec or exec) expression under an environment.  [EOld] and
    unbounded quantifiers raise [Runtime_error]; quantified integer
    variables range over [-quant_bound, quant_bound] (default 0: raise). *)

val run_fn : Vir.program -> string -> value list -> value option * (string * value) list
(** Execute an exec/proof function.  Returns (result, final values of &mut
    parameters by name).  Requires/ensures/invariants/asserts are
    evaluated dynamically and raise [Assertion_failed] when violated. *)
