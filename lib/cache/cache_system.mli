(** The complete software-caching subsystem: one translation table per
    processor, one home directory per processor, and the paper's three
    coherence protocols wired to the machine's cost model.

    Reads and writes here are those the compiler assigned to the *caching*
    mechanism; migration-mechanism references never reach this module
    (except {!note_migrate_write}, which keeps coherence informed of heap
    writes made through migration sites). *)

type t

val create : Olden_config.t -> Machine.t -> Memory.t -> t
(** Span events of the new system and its directories go to the calling
    domain's span state until {!bind}. *)

val bind : t -> Olden_span.Span.state -> unit
(** Emit into this span state from now on (the directories' events
    included).  The engine calls it when its [exec] starts, with the
    executing domain's state. *)

val table : t -> int -> Translation.t
(** A processor's translation table (exposed for tests and tools). *)

val directory : t -> int -> Directory.t
(** A home processor's page directory (exposed for the invariant checker
    and tools). *)

val read_as : 'a Word.kind -> t -> proc:int -> Gptr.t -> field:int -> 'a
(** A read through the caching mechanism: locality test, then either a
    direct local load or a cache lookup with a line fetch on a miss.
    Charges all costs to the machine.  The word is read as [kind]
    ({!Word.get}) from the home section or the cached page frame. *)

val read : t -> proc:int -> Gptr.t -> field:int -> Value.t
(** {!read_as} at the edge type. *)

val write_as : 'a Word.kind -> t -> proc:int -> Gptr.t -> field:int -> 'a ->
  log:Write_log.t -> unit
(** A write through the caching mechanism: write-through to the home
    (updating the writer's own cached copy if present), write-tracking
    costs under the global/bilateral schemes, and write-log recording. *)

val write : t -> proc:int -> Gptr.t -> field:int -> Value.t ->
  log:Write_log.t -> unit
(** {!write_as} at the edge type. *)

val note_migrate_write : 'a Word.kind -> t -> proc:int -> Gptr.t ->
  field:int -> 'a -> log:Write_log.t -> unit
(** Record a heap write made through a migration site: it is not counted
    as cacheable traffic, but coherence must still see it at the next
    release.  Takes the stored value so a promoted successor's own
    cached copy of an adopted page (made back when the page's home was
    remote to it) stays coherent — the release-time invalidation sweeps
    skip the writer itself. *)

(** {2 Coherence events} *)

val on_migration_received : t -> proc:int -> unit
(** An acquire: local scheme flushes the whole cache; bilateral marks all
    pages suspect; global does nothing. *)

val on_migration_sent : t -> proc:int -> log:Write_log.t -> unit
(** A release: global pushes line invalidations to sharers of the written
    pages; bilateral stamps the written pages at their homes; local does
    nothing.  Clears the log's dirty set. *)

val on_return_received : t -> proc:int -> log:Write_log.t -> unit
(** A thread (or future result) arrives back: the local scheme invalidates
    only lines homed at processors the thread wrote (the Section 3.2
    refinement; a full flush when the refinement is disabled); bilateral
    marks all pages suspect. *)

(** {2 Crash recovery} *)

val drop_processor_state : t -> proc:int -> int
(** A processor crash: wipe [proc]'s translation table, cached page
    frames, and suspicion epochs (O(1) via the generation and epoch
    counters).  Home pages are the write-through source of truth and
    survive.  Returns the number of live page entries lost. *)

val prune_crashed_sharer : t -> home:int -> proc:int -> int
(** A home processing a warm-restart announcement: strike the crashed
    processor from every sharer mask in [home]'s directory; returns the
    number of pages it was pruned from.  Only meaningful under the
    global scheme, harmless elsewhere. *)

val average_chain_length : t -> float
(** Mean translation-table chain length across processors. *)
