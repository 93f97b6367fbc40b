(** Dereference sites.

    A site stands for one textual pointer dereference in the source
    program — the compiler's unit of mechanism choice (Section 4).  The
    heuristic in [Olden_compiler] (or the paper's published selection)
    assigns each site the mechanism used when the reference is remote. *)

type t = {
  sid : int;  (** unique id *)
  sname : string;  (** e.g. ["treeadd.t->left"] *)
  mutable mech : Olden_config.mechanism;
  mutable loads : int;  (** profile: loads through this site *)
  mutable stores : int;
  mutable remote : int;  (** remote references *)
  mutable migrations : int;  (** migrations this site caused *)
  mutable misses : int;  (** cache-line fetches this site caused *)
  mutable retries : int;
      (** retransmissions its messages needed (fault schedules only) *)
  mutable fallbacks : int;
      (** migrations through this site that gave up and cached instead *)
}

val make : ?mech:Olden_config.mechanism -> string -> t
(** Register a fresh site; the default mechanism is migration. *)

val migrate : string -> t
(** A site using computation migration. *)

val cache : string -> t
(** A site using software caching. *)

val set_mechanism : t -> Olden_config.mechanism -> unit
val mechanism : t -> Olden_config.mechanism
val name : t -> string

val all : unit -> t list
(** Every site registered so far, in creation order. *)

val label : t -> string
(** ["func.var->field"] rendered as ["var->field@func"] — the dereference
    first, its enclosing function second — for profiler tables and metric
    labels.  Names outside the convention pass through unchanged. *)

val labels : unit -> (int * string) list
(** [(sid, label)] for every registered site, in creation order: the
    site-name table drivers hand to [Olden_profile.Recorder.of_spans] and
    the profiler. *)

val reset : unit -> unit
(** Forget every site and restart the id counter.  Sites are process
    globals; tests that need identical sids across repeated in-process
    runs reset between them. *)

val reset_profiles : unit -> unit
(** Zero every site's counters (sites are global; reset between runs when
    profiling). *)

val profile : unit -> t list
(** Sites with traffic, busiest first. *)

val comm_cycles : Olden_config.costs -> t -> int
(** Communication cycles attributable to the site (migrations plus line
    fetches) under a cost model. *)

val pp_profile : Format.formatter -> t -> unit

val pp : Format.formatter -> t -> unit
