(** The distributed heap: one section per processor (Section 2).

    Each section is a word store with a bump allocator, grown in
    fixed-size chunks (growth never copies); ALLOC hands out contiguous
    word ranges.  The page/line structure the cache
    uses is pure address arithmetic on top (see
    {!Olden_config.Geometry}).

    A chunk is a {!Word.block}: a tag byte and one slot per word.  The
    typed accessors ({!load_int}, {!store_float}, {!load_as}, ...) read
    and write the slot directly; {!Value.t} is the edge type, built only
    by {!load}, {!word_at}, {!read_line} and {!digest} and taken apart
    by {!store}. *)

type t

val create : nprocs:int -> t
(** @raise Invalid_argument if [nprocs <= 0]. *)

val nprocs : t -> int

val alloc : t -> proc:int -> int -> Gptr.t
(** [alloc t ~proc words] allocates [words] words on [proc] — Olden's
    ALLOC library routine.  @raise Invalid_argument on a bad processor or
    non-positive size. *)

val words_used : t -> int -> int
(** Current bump-pointer position of a processor's section. *)

val load_as : 'a Word.kind -> t -> Gptr.t -> int -> 'a
(** [load_as kind t p field] reads the word at [p + field] as [kind]
    ({!Word.get}: a kind mismatch raises {!Value.to_int}'s, or its
    siblings', [Invalid_argument]).
    @raise Invalid_argument on {!Gptr.null} (the message {!Gptr.proc}
    gives), on a missing processor and outside the allocated range. *)

val store_as : 'a Word.kind -> t -> Gptr.t -> int -> 'a -> unit
(** Writes the word at [p + field]; raises as {!load_as} does. *)

val load_int : t -> Gptr.t -> int -> int
val load_float : t -> Gptr.t -> int -> float
val load_ptr : t -> Gptr.t -> int -> Gptr.t
val store_int : t -> Gptr.t -> int -> int -> unit
val store_float : t -> Gptr.t -> int -> float -> unit
val store_ptr : t -> Gptr.t -> int -> Gptr.t -> unit

val load : t -> Gptr.t -> int -> Value.t
(** {!load_as} at the edge type: allocates the returned value unless the
    word is [Nil]. *)

val store : t -> Gptr.t -> int -> Value.t -> unit

val blit_line :
  t -> proc:int -> line_index:int -> dst:Word.block -> dst_pos:int -> unit
(** Copy the 16 words of one cache line of a section straight into [dst]
    at [dst_pos] — the cache layer's allocation-free line fill.  Words
    beyond the bump pointer read as [Nil] (a fetched line may straddle
    unallocated space). *)

val read_line : t -> proc:int -> line_index:int -> Value.t array
(** Allocating variant of {!blit_line}, for tests and tools. *)

val word_at : t -> proc:int -> addr:int -> Value.t
(** Raw word access by local address; unallocated words, negative
    addresses included, read as [Nil].
    @raise Invalid_argument on a missing processor, with {!load}'s
    message. *)

val digest : t -> string
(** Hex digest over every allocated word of every section (floats by
    exact bit pattern): equal digests mean structurally equal heaps.
    Used by the invariant checker to compare a faulty run's final heap
    with the fault-free run's. *)
