(** Structured event tracing for the Olden runtime.

    One sink per domain receives every event the engine and the cache
    system (for itself and its coherence directories) emit.  Both hold
    their domain's {!emitter}, bound when the engine starts running, and
    tracing is zero-cost when disabled: emission sites are written

    {[ if Trace.on e then Trace.emit e { ... } ]}

    so with no sink installed nothing is allocated — only one boolean is
    read.  Event streams are deterministic: the engine is a pure
    function of the program and configuration, and events are emitted in
    scheduling order.

    Fault, fallback, crash and failover activity is not in this stream:
    each is recorded once, as a span of lib/span ([Drop], [Delay],
    [Dup], [Backoff], [Fallback], [Crash], [Failover]). *)

type kind =
  | Migrate_send of { target : int }
      (** a computation migration leaves for [target] *)
  | Migrate_arrive of { source : int }
      (** the migrated thread restarts here *)
  | Return_send of { target : int }  (** a return stub fires *)
  | Return_arrive of { source : int }
  | Future_spawn of { fid : int }
  | Future_resolve of { fid : int; waiters : int }
  | Future_touch of { fid : int; parked : bool }
  | Steal  (** a continuation popped from the local work list *)
  | Cache_hit of { home : int; page : int; line : int }
  | Cache_miss of { home : int; page : int; line : int }
      (** a line fetch from [home] *)
  | Cache_flush of { entries : int }
      (** local scheme: wholesale invalidation *)
  | Suspect_all  (** bilateral scheme: acquire marks every page suspect *)
  | Revalidate of { home : int; page : int; dropped : int }
  | Inval_send of { target : int; page : int }
  | Inval_recv of { source : int; page : int; dropped : int }
  | Dir_write of { page : int; line : int }
      (** home directory stamps a written line (bilateral) *)
  | Dir_release of { page : int; ts : int }
      (** home directory timestamp bump at a release *)
  | Remote_alloc of { home : int; words : int }
  | Phase_mark of string

type event = {
  time : int;  (** simulated cycles on [proc]'s clock *)
  proc : int;
  tid : int;  (** simulated thread id; -1 when no thread applies *)
  site : int;  (** dereference-site id; -1 when no site applies *)
  kind : kind;
}

type emitter
(** The calling domain's sink and thread/site context. *)

val emitter : unit -> emitter
(** This domain's emitter: one domain-local read.  The engine binds it
    into itself and its cache system when its [exec] starts, so the
    hooks below read no domain-local key. *)

val on : emitter -> bool
(** Whether a sink is installed on the emitter.  Emission sites must
    guard on this so the disabled path allocates nothing. *)

val is_on : unit -> bool
(** [on (emitter ())], for callers that hold no emitter (the CLI,
    tests). *)

val install : (event -> unit) -> unit
val uninstall : unit -> unit
(** Install or remove this domain's sink. *)

val emit : emitter -> event -> unit
(** Deliver to the sink; a no-op when tracing is off. *)

(** {2 Emitter context}

    The cache and directory layers run beneath the engine and do not
    know the current thread or dereference site; the engine deposits
    them here (guarded, so this too is free when tracing is off). *)

val set_thread : emitter -> int -> unit
val set_site : emitter -> int -> unit
val thread : emitter -> int
val site : emitter -> int

(** {2 Collecting} *)

module Collector : sig
  type t

  val create : unit -> t
  val add : t -> event -> unit
  val length : t -> int
  val events : t -> event array
end

val collect : (unit -> 'a) -> 'a * event array
(** Run a thunk with a fresh collector installed; uninstalls afterwards
    (also on exception). *)

(** {2 Names and serialization} *)

val kind_name : kind -> string

val kind_args : kind -> (string * Json.t) list
(** Payload fields beyond the common stamps, in a fixed order. *)

val event_json : event -> Json.t
(** The JSONL schema: [{"t":..,"proc":..,"tid":..,"site":..,"ev":..,...}]. *)
