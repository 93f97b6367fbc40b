(** Heap words as the simulator stores them.

    A word is a tag byte ([Nil], [Int], [Float] or [Ptr]) plus one
    slot: an [Int] or [Ptr] payload is held as an immediate, a [Float]
    as its own box.  A {!block} is a run of such words — a section
    chunk of {!Memory} or a cached page frame of the software cache —
    kept as a [Bytes] of tags beside an array of slots, so a word costs
    9 host bytes (25 for a float), against 24 (40) for a boxed
    {!Value.t} in an array.

    Typed access names the kind it expects ({!kind}) and gets the
    payload back unboxed from the slot: an [Int] or [Ptr] load
    allocates nothing, a [Float] load returns the box the store put
    there.  {!Value.t} remains the edge type ({!Value}), reached
    through the [Value] kind. *)

type _ kind =
  | Int : int kind
  | Float : float kind
  | Ptr : Gptr.t kind
  | Value : Value.t kind  (** the boxed edge form, any tag *)

type block
(** A fixed-length run of words, every one [Nil] when created. *)

val block : int -> block
val length : block -> int

val get : 'a kind -> block -> int -> 'a
(** [get kind b i] reads word [i] as [kind], with {!Value.to_int},
    {!Value.to_float} and {!Value.to_ptr}'s semantics: an [Int] read as
    a float is promoted, [Nil] read as a pointer is {!Gptr.null}, and
    any other mismatch raises the [Invalid_argument] they raise.  No
    bounds check: the caller has made it. *)

val set : 'a kind -> block -> int -> 'a -> unit
(** [set kind b i v] writes word [i]; no bounds check. *)

val blit : block -> int -> block -> int -> int -> unit
(** [blit src src_pos dst dst_pos n], as [Array.blit]. *)

val clear : block -> int -> int -> unit
(** [clear b pos n] sets [n] words from [pos] to [Nil]. *)

val to_value : 'a kind -> 'a -> Value.t
(** The edge form of a typed payload: [Value.Int], [Value.Float] or
    [Value.Ptr] around it. *)
