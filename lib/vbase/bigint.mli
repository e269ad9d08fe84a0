(** Arbitrary-precision signed integers.

    The SMT substrate needs exact integer arithmetic (simplex pivots and
    branch-and-bound produce coefficients that overflow native ints), and the
    sealed container has no [zarith]; this module provides the subset of
    bignum arithmetic the solver requires.

    As in Zarith, a value that fits in a native [int] is that [int],
    unboxed, and its operations run on machine integers with overflow
    checks; any other value is sign-magnitude with base-2^30 limbs
    ({!Limbs}).  The representation is canonical (a value is native iff it
    fits), so structural equality and polymorphic hashing on [t] still mean
    value equality. *)

include Bigint_intf.S

(** The limb arithmetic alone, for every value and with no native path:
    the code behind the values that do not fit, and the reference the tests
    compare the native path against. *)
module Limbs : Bigint_intf.S
