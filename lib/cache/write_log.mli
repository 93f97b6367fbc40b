(** Per-thread record of heap writes, at line granularity.

    The global- and bilateral-knowledge coherence schemes consume the dirty
    set at each outgoing migration (a release); the local scheme's return
    refinement needs the set of processors whose memories the thread wrote
    (Section 3.2 of the paper). *)

type t

val create : unit -> t
(** An empty log.  Allocates only the log record itself; the dirty-page
    array is created by the first {!record}. *)

val record : t -> gpage:int -> line:int -> home:int -> unit
(** Log one written line of global page [gpage] homed at [home]. *)

val record_home : t -> home:int -> unit
(** Log a write to [home]'s memory without its line: all the local
    scheme needs (it never releases dirty lines).  Allocation-free. *)

val dirty_count : t -> int
(** Number of distinct pages written since the last release. *)

val dirty_page : t -> int -> int
(** [dirty_page t i], for [0 <= i < dirty_count t]: the [i]-th dirty
    global page id, in ascending order.  With {!dirty_mask}, the
    allocation-free walk a release uses. *)

val dirty_mask : t -> int -> int
(** [dirty_mask t i]: the bitmask of lines written in [dirty_page t i]. *)

val dirty_pages : t -> (int * int) list
(** [(gpage, line bitmask)] pairs written since the last release, in
    ascending page order (a list copy of the walk above, for tests). *)

val written_procs : t -> int list
(** Sorted distinct processors the thread has written — cumulative, never
    cleared (a thread "might have updated" them at any earlier point).
    Derived from {!written_mask}; prefer the mask on hot paths. *)

val written_mask : t -> int
(** The same set as an int bitmask (bit [p] = processor [p] written). *)

val is_empty : t -> bool
(** No dirty lines pending release. *)

val clear_dirty : t -> unit
(** Called after a release has pushed or stamped the logged writes. *)

val line_count : t -> int
(** Number of dirty lines pending. *)

val absorb_written_procs : t -> from:t -> unit
(** Acquiring another thread's result makes its writes part of this
    thread's causal past: merge the written-processor sets so a later
    release/return covers them too. *)
