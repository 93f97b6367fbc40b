(** The distributed heap: one section per processor (Section 2).

    Each section is a word store with a bump allocator, grown in
    fixed-size chunks (growth never copies); ALLOC hands out contiguous
    word ranges.  The page/line structure the cache
    uses is pure address arithmetic on top (see
    {!Olden_config.Geometry}). *)

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

val load : t -> Gptr.t -> int -> Value.t
(** [load t p field] reads the word at [p + field].
    @raise Invalid_argument on {!Gptr.null} (the message {!Gptr.proc}
    gives) and outside the allocated range. *)

val store : t -> Gptr.t -> int -> Value.t -> unit
(** Writes the word at [p + field]; raises as {!load} does. *)

val blit_line :
  t -> proc:int -> line_index:int -> dst:Value.t array -> dst_pos:int -> unit
(** Copy the 16 words of one cache line of a section straight into [dst]
    at [dst_pos] — the cache layer's allocation-free line fill.  Words
    beyond the bump pointer read as [Nil] (a fetched line may straddle
    unallocated space). *)

val read_line : t -> proc:int -> line_index:int -> Value.t array
(** Allocating variant of {!blit_line}, for tests and tools. *)

val word_at : t -> proc:int -> addr:int -> Value.t
(** Raw word access by local address; unallocated words read as [Nil]. *)

val digest : t -> string
(** Hex digest over every allocated word of every section (floats by
    exact bit pattern): equal digests mean structurally equal heaps.
    Used by the invariant checker to compare a faulty run's final heap
    with the fault-free run's. *)
