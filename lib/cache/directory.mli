(** Home-side per-page bookkeeping (Appendix A).

    The local-knowledge scheme needs none of this.  The global scheme
    tracks sharers (recorded when the home services cache requests) so a
    releasing thread's written lines can be invalidated eagerly.  The
    bilateral scheme keeps a timestamp per page plus per-line write stamps
    so a revalidating sharer is told exactly which lines to drop. *)

type page = {
  mutable sharers : int;  (** bitmask of processors holding a copy (global) *)
  mutable ts : int;  (** current timestamp (bilateral) *)
  line_ts : int array;  (** per-line stamp of the last release-visible write *)
  mutable ever_shared : bool;  (** drives the 7-vs-23-cycle write-track cost *)
}

type t

val create : ?track_registrations:bool -> unit -> t
(** [track_registrations] records when each sharer was registered, which
    the recovery checker's sharer-epoch invariant consumes (default off:
    it costs a hash write per registration).  A directory emits no trace
    events itself; the cache system emits [Dir_write] and [Dir_release]
    for it, stamped with the home's clock. *)

val get : t -> int -> page
(** The record for a local page index, created on demand. *)

val add_sharer : at:int -> t -> page_index:int -> proc:int -> unit
(** Register [proc] as a sharer.  [at] is the registration time in the
    sharer's own clock domain, kept when registration tracking is on. *)

val remove_sharer : t -> page_index:int -> proc:int -> unit

val sharer_mask : t -> int -> int
(** Current sharers as a bitmask (bit [p] = processor [p] holds a copy). *)

val registered_at : t -> page_index:int -> proc:int -> int
(** Time of [proc]'s latest registration as a sharer of [page_index];
    [0] when unknown or when registration tracking is off. *)

val prune_sharer : t -> proc:int -> int
(** Strike a crashed processor from every sharer mask; returns the
    number of pages it was pruned from. *)

val iter_pages : t -> (int -> page -> unit) -> unit
(** Iterate over every page record ever created, keyed by local page
    index, in ascending order. *)

val sharers : t -> int -> int list
(** The same set as a sorted list; derived from {!sharer_mask}. *)

val is_shared : t -> int -> bool
(** Whether the page was ever fetched by a remote processor. *)

val record_write : t -> page_index:int -> line:int -> unit
(** A write-through arrived: stamp the line with the next (unreleased)
    timestamp. *)

val bump_timestamp : t -> page_index:int -> unit
(** A release makes the logged writes visible. *)

val stale_lines : t -> page_index:int -> since:int -> int * int
(** [(mask, ts)]: lines written after timestamp [since], and the current
    timestamp — the home's answer to a bilateral revalidation. *)
