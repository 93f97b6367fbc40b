(** Olden's software-cache translation table (Figure 1 of the paper),
    rebuilt as an open-addressed, array-backed hash table for host speed.

    Each entry describes one cached remote 2 KB page: a tag identifying
    the global page, 32 per-line valid bits, and the local copy of the
    data.  The cache is fully associative and write-through; it grows
    with use (Olden uses all of local memory as cache) and is emptied
    only by coherence events.

    Host-speed machinery, none of it observable in simulated results: a
    one-entry last-translation memo (the real Olden runtime's TLB) in
    front of a linear-probing slot array, {!flush} and
    {!mark_all_suspect} in O(1) via generation/epoch counters, and an
    allocation-free {!probe} for the hit path. *)

type entry = {
  gpage : int;  (** global page id (the tag) *)
  home : int;  (** owning processor *)
  page_index : int;  (** page number within the home's section *)
  mutable valid : int;  (** bitmask over the 32 lines *)
  data : Word.block;  (** local copy, words_per_page words *)
  mutable ts : int;  (** bilateral: home timestamp at last validation *)
  mutable egen : int;  (** internal: flush generation (see {!flush}) *)
  mutable vepoch : int;  (** internal: suspicion epoch at last validation *)
}

type t

val create : unit -> t

val no_entry : entry
(** The miss sentinel returned by {!probe}; compare with [==]. *)

val probe : t -> int -> entry
(** Allocation-free lookup by global page id: the live entry, or
    {!no_entry} if the page is not cached.  The hot path of every
    cacheable remote dereference. *)

val find : t -> int -> entry option
(** Option-returning wrapper over {!probe}, for tests and tools. *)

val insert : t -> gpage:int -> home:int -> page_index:int -> entry
(** Allocate a fully-invalid entry (page-granularity allocation on first
    miss, as in Blizzard-S).  The page must not already be present — the
    caller probes first; a duplicate insert would shadow the live
    entry. *)

val line_valid : entry -> int -> bool
val set_line_valid : entry -> int -> unit
val invalidate_line : entry -> int -> unit

val invalidate_lines : entry -> int -> int
(** Invalidate the lines in a bitmask; returns how many were valid. *)

val is_suspect : t -> entry -> bool
(** Bilateral: must this entry revalidate against its home before use? *)

val clear_suspect : t -> entry -> unit
(** Mark the entry validated at the current suspicion epoch. *)

val flush : t -> unit
(** Drop every entry: the local-knowledge scheme's wholesale invalidation
    on migration receipt.  O(1) — bumps the table's generation; stale
    slots are reused by later inserts. *)

val mark_all_suspect : t -> unit
(** Bilateral scheme, on migration receipt: every page misses on its
    first access and revalidates against its home.  O(1) — bumps the
    suspicion epoch. *)

val invalidate_homes : t -> int -> int
(** [invalidate_homes t procs] invalidates every line homed at a
    processor whose bit is set in the [procs] bitmask (the local scheme's
    return refinement); returns the number of lines dropped. *)

val iter : t -> (entry -> unit) -> unit
(** Iterate the live (current-generation) entries, in slot order. *)

val live_entries : t -> int
(** Entries currently cached — what a coherence flush drops.  O(1).
    This is what a [Span.Cache_flush] event's [entries] field reports. *)

val entries_ever : t -> int
(** Entries ever created, cumulative across flushes — the allocation
    pressure the table has seen.  Distinct from {!live_entries}: a flush
    resets the live population but not this counter. *)

val entry_count : t -> int
(** Alias for {!live_entries}, kept for existing callers. *)

val average_chain_length : t -> float
(** Mean linear-probe sequence length over live entries (1.0 = every
    entry in its home slot) — the open-addressed analogue of the paper's
    bucket-chain statistic, reported there as about one in practice. *)
