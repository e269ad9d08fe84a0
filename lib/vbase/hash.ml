(* Two 64-bit FNV-1a streams over the same bytes.  Kept deliberately
   boring: no dependence on word size (everything is Int64), identical
   output on every platform.  Both accumulators are local [ref]s that
   never escape, so the compiler keeps them unboxed: the loop allocates
   nothing per byte. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* The second stream starts from a different basis (the offset basis
   xored with a fixed pattern), which gives an unrelated trajectory
   through the same byte sequence. *)
let fnv_offset2 = Int64.logxor fnv_offset 0x5bd1e995a5aa5aa5L

let bytes128 buf n =
  if n < 0 || n > Bytes.length buf then invalid_arg "Hash.bytes128";
  let a = ref fnv_offset and b = ref fnv_offset2 in
  for i = 0 to n - 1 do
    let c = Int64.of_int (Char.code (Bytes.unsafe_get buf i)) in
    a := Int64.mul (Int64.logxor !a c) fnv_prime;
    b := Int64.mul (Int64.logxor !b c) fnv_prime
  done;
  (* Post-mix the length (its decimal digits, then '|') into the second
     stream only, so extensions that happen to fix one stream still move
     the other. *)
  let len = string_of_int n ^ "|" in
  for i = 0 to String.length len - 1 do
    b := Int64.mul (Int64.logxor !b (Int64.of_int (Char.code (String.unsafe_get len i)))) fnv_prime
  done;
  Printf.sprintf "%016Lx%016Lx" !a !b

let string128 s = bytes128 (Bytes.unsafe_of_string s) (String.length s)
