(** Heap cell contents, in their boxed edge form.

    The heap does not store these: a heap word is a tag byte plus one
    slot ({!Word}), read and written by the typed accessors.  A
    [Value.t] is built only at the edges — the generic {!Memory.load}
    and [Ops.load] the interpreter uses, the payloads of a migrating
    load or store, {!Memory.word_at}, {!Memory.digest} and tests — and
    its accessors define what every typed read does. *)

type t =
  | Nil  (** an uninitialized word / null pointer *)
  | Int of int
  | Float of float
  | Ptr of Gptr.t

val equal : t -> t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Accessors fail loudly: a benchmark reading the wrong field type is a
    bug we want to see immediately. *)

val to_int : t -> int
(** @raise Invalid_argument unless [Int]. *)

val to_float : t -> float
(** [Int] promotes; @raise Invalid_argument otherwise unless [Float]. *)

val to_ptr : t -> Gptr.t
(** [Nil] reads as {!Gptr.null}; @raise Invalid_argument unless [Ptr]. *)

val of_bool : bool -> t
(** [Int 1] / [Int 0]. *)

val to_bool : t -> bool
(** [Int 0] and [Nil] are false; any other [Int] is true.
    @raise Invalid_argument on [Float]/[Ptr]. *)
