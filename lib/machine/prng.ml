(* Deterministic splitmix64 PRNG.

   All workload generation draws from this so that every simulation is
   reproducible from its seed, independent of the OCaml stdlib Random
   implementation. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

(* The splitmix64 output function.  Inlined at every use so the int64
   intermediates stay unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The top 53 bits as a float in [0, 1). *)
let[@inline] unit_float z =
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992. (* 2^53 *)

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

(* Uniform in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(* Uniform in [0, 1). *)
let float t = unit_float (next_int64 t)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Split off an independent stream (for per-processor generators). *)
let split t = create (Int64.to_int (next_int64 t))

(* Draw [draw] of the stream [create key] is the mix of
   [key + (draw + 1) * golden], so it needs no stream at all: a pure
   function of its arguments that allocates nothing. *)
let below ~key ~draw p =
  let state = Int64.add (Int64.of_int key) (Int64.mul (Int64.of_int (draw + 1)) golden) in
  unit_float (mix state) < p
