(** Deterministic splitmix64 PRNG.

    All workload generation draws from this so every simulation is
    reproducible from its seed, independent of the OCaml stdlib. *)

type t

val create : int -> t

val next_int64 : t -> int64

val int : t -> int -> int
(** Uniform in [\[0, bound)]. @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val split : t -> t
(** An independent stream (for per-processor generators). *)

val below : key:int -> draw:int -> float -> bool
(** [below ~key ~draw p]: is draw number [draw] (from 0) of the stream
    [create key], taken with {!float}, below [p]?  Pure and
    allocation-free: keyed decisions need no stream of their own. *)
