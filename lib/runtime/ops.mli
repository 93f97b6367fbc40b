(** The operations available to an Olden program — what the Olden compiler
    emits calls to.  Benchmark kernels are written directly against this
    interface; each operation performs an effect that the {!Engine}
    handler turns into simulated cycles, migrations, cache traffic, or
    thread scheduling.

    Every function here must be called from inside a program executed by
    {!Engine.exec} / {!Engine.run}. *)

val work : int -> unit
(** Charge compute cycles on the current processor. *)

val self : unit -> int
(** The current (simulated) processor. *)

val nprocs : unit -> int

val alloc : proc:int -> int -> Gptr.t
(** ALLOC: allocate words on the named processor (Section 2).  No
    communication is needed even for a remote processor. *)

val alloc_local : int -> Gptr.t

val load : Site.t -> Gptr.t -> int -> Value.t
(** [load site p field] reads heap word [p + field] through [site]'s
    mechanism: a locality test, then a local load, a cache access, or a
    thread migration to the owner.
    @raise Engine.Null_dereference on {!Gptr.null}. *)

val store : Site.t -> Gptr.t -> int -> Value.t -> unit
(** {!load} and {!store} take and return the boxed edge form; a heap
    word is stored unboxed ({!Word}), so [load] allocates its result
    unless the word is [Nil]. *)

(** Typed accesses: the kind travels with the dereference down to the
    word, where it is checked with {!Value.to_int}'s (and its
    siblings') semantics and messages.  Loads, [store_int] and
    [store_ptr] allocate nothing unless the dereference migrates;
    [store_float] stores its argument's box. *)

val load_ptr : Site.t -> Gptr.t -> int -> Gptr.t
val load_int : Site.t -> Gptr.t -> int -> int
val load_float : Site.t -> Gptr.t -> int -> float
val store_ptr : Site.t -> Gptr.t -> int -> Gptr.t -> unit
val store_int : Site.t -> Gptr.t -> int -> int -> unit
val store_float : Site.t -> Gptr.t -> int -> float -> unit

val future : (unit -> Value.t) -> Effects.fut
(** futurecall: saves the return continuation on this processor's work
    list and evaluates the body directly; a new thread materializes only
    if the body migrates, leaving the processor to steal the continuation
    (Section 2). *)

val touch : ?site:Site.t -> Effects.fut -> Value.t
(** Block until the future resolves; an acquire with respect to the
    resolving thread's writes.  [site], when given, labels the park in
    deadlock diagnostics. *)

val call : (unit -> 'a) -> 'a
(** A procedure-call boundary: Olden's return stub.  If the callee
    migrated, the thread returns to the caller's processor when the call
    completes; if it never migrated, the stub costs nothing. *)

val phase : string -> unit
(** Measurement boundary: synchronize all processors and record the time
    and a statistics snapshot (used to separate structure building from
    the measured kernel). *)
