(** Causal span tracing: every dereference opens a root span carrying a
    trace context (trace id = (origin proc, sequence), parent span id)
    that is propagated into scheduled cross-processor work, so migration
    legs, return stubs, retransmits, recovery messages, and crash
    replays form one causal tree per episode.  Zero-cost when off: one
    boolean load per hook, on the {!state} the emitting layer holds. *)

module Json = Olden_trace.Json

type kind =
  | Deref  (** root: one dereference episode; a = site, b = mechanism *)
  | Return  (** root: return stub to origin; a = target proc *)
  | Send  (** hop: request marshalling + send occupancy; a = target *)
  | Wire  (** hop: network latency *)
  | Penalty  (** hop: fault-injected delivery penalty; a = cycles *)
  | Queue  (** hop: waiting in the target's event queue *)
  | Replay  (** hop: crash-recovery replay before the op re-runs *)
  | Recv  (** hop: receive + cache/thread state acquisition *)
  | Service  (** hop: running the continuation at the target *)
  | Cache_service  (** hop: software-cache service after a fallback *)
  | Stall  (** hop: sender stalled; a = penalty, b = attempts *)
  | Drop
      (** event: message dropped, lost thread-transfer acknowledgements
          included; a = attempt, b = 1 if outage.  One per [msg_drops]. *)
  | Backoff  (** event: retry backoff; a = attempt, b = wait *)
  | Delay  (** event: fault-injected latency; a = cycles *)
  | Dup  (** event: duplicate delivery suppressed *)
  | Fallback  (** event: migration degraded; a = home, b = attempts *)
  | Rpc  (** event: request/reply envelope; a = dst, b = klass code *)
  | Crash  (** event: crash + restart; a = pages lost, b = homes *)
  | Failover  (** event: fail-stop promotion; a = pages moved, b = victim *)
  | Request  (** root: one served request; a = class code, b = ingress proc *)

type span = {
  trace_proc : int;
  trace_seq : int;
  id : int;
  parent : int;  (** -1 for roots *)
  kind : kind;
  proc : int;  (** clock domain that times this span *)
  t0 : int;
  t1 : int;
  a : int;  (** kind-specific payload *)
  b : int;
}

val kind_code : kind -> int
val kind_of_code : int -> kind
val kind_name : kind -> string
val is_hop : kind -> bool
val is_root : kind -> bool

(** {1 Sink} *)

type state
(** One domain's span state: its consumers, the ambient context below,
    and the per-processor sequences.  Every hook takes it as its first
    argument. *)

val state : unit -> state
(** This domain's span state: one domain-local read.  The engine binds
    it into itself and its machine when its [exec] starts, so the hooks
    of a run read no domain-local key; the CLI and tests call this. *)

val on : state -> bool
(** True when the collector, the flight recorder or a monitor is active
    on the state — the one word read every instrumentation site is
    guarded by. *)

val is_on : unit -> bool
(** [on (state ())], for callers that hold no state (the CLI, tests). *)

val install : (span -> unit) -> unit
val uninstall : unit -> unit
(** Install or remove this domain's collector sink. *)

(** {1 Monitor consumer} *)

type consumer =
  tp:int -> ts:int -> kind:kind -> t0:int -> t1:int -> a:int -> b:int -> unit
(** Receives every emitted span's trace id, kind, interval and payload,
    synchronously, with the emitting context still ambient. *)

val attach_monitor : consumer -> unit
(** Feed every span to the consumer and turn spans on — how
    [Monitor.install] computes its latency histograms from this stream.
    One consumer at a time; a second call replaces the first. *)

val detach_monitor : unit -> unit

(** {1 Flight recorder} *)

val flight_enable : ?capacity:int -> unit -> unit
(** Turn on the allocation-free ring recorder (see {!Flight}). *)

val flight_disable : unit -> unit
(** Stop recording; the ring contents are kept for a post-mortem
    {!flight_dump}. *)

val flight_set_path : string -> unit
val flight_path : unit -> string

val flight_dump : reason:string -> state:string list -> string option
(** Write the retained events plus per-processor state lines to the
    configured path; [None] if the recorder was never enabled. *)

(** {1 Ambient context}

    The emitting side keeps the episode in flight as mutable context:
    the trace id, the current parent span id, and the open root.  All
    writes are guarded by {!on} at the call sites. *)

type saved
(** Snapshot of the ambient context, captured into scheduled-event
    closures ([save]) and reinstated when they run ([restore]) — this is
    how the trace context crosses the wire. *)

val no_ctx : saved
(** Preallocated empty snapshot (for closures built while off). *)

val save : state -> saved
val restore : state -> saved -> unit
val clear : state -> unit

val reset : state -> unit
(** Restart ids and per-processor sequences (once per [exec]), so
    same-seed runs export byte-identical spans. *)

val root_open : state -> bool

val deref_t0 : state -> int
(** Entry time of the open root when it is a [Deref], else -1: the
    migration leg's start, and where a migrating dereference's hops
    begin. *)

val open_root : state -> kind:kind -> proc:int -> t0:int -> unit
val close_root : state -> t1:int -> a:int -> b:int -> unit
(** Emit the open root (parent -1) and clear the context; no-op when no
    root is open. *)

val root :
  state -> kind:kind -> proc:int -> t0:int -> t1:int -> a:int -> b:int ->
  unit
(** Emit one complete root episode (parent -1) under a fresh trace id
    without touching the ambient context — used for request roots, which
    are recorded at completion so the dereference roots inside the
    request body keep their own episodes. *)

val child :
  state -> kind:kind -> proc:int -> t0:int -> t1:int -> a:int -> b:int ->
  unit
(** Emit one span under the current context. *)

val parent : state -> int
val enter : state -> int
(** Reserve a fresh span id and make it the current parent — children
    emitted until the matching {!exit_emit} nest under it. *)

val exit_emit :
  state -> id:int -> prev:int -> kind:kind -> proc:int -> t0:int -> t1:int ->
  a:int -> b:int -> unit
(** Emit the envelope span reserved by {!enter} and restore [prev] as
    the parent. *)

val trace_proc : state -> int
(** Trace id of the episode in flight (-1 when none). *)

val trace_seq : state -> int

val last_span_on : state -> int -> int
(** Last span id emitted on a processor (-1 if none) — surfaces in the
    deadlock report. *)

(** {1 Collection & export} *)

module Collector : sig
  type t

  val create : unit -> t
  val add : t -> span -> unit
  val length : t -> int
  val spans : t -> span array
end

val collect : (unit -> 'a) -> 'a * span array
(** Run [f] with a fresh collector installed; returns its result and the
    spans in emission order. *)

val span_json : span -> Json.t

val jsonl : span array -> string
(** The byte-stable [olden-spans/v1] export: a schema header line, then
    one span object per line in emission order. *)

val chrome_json : nprocs:int -> span array -> Json.t
val chrome_to_string : nprocs:int -> span array -> string
(** Chrome trace_event export: complete slices per processor track plus
    flow arrows where a child span runs on a different processor. *)

(** {1 Episode reconstruction} *)

type node = { span : span; mutable kids : node list }

val episode_tree :
  span array -> trace_proc:int -> trace_seq:int -> node option
(** The causal tree of one episode (children ordered by t0 then id);
    [None] if that trace id never completed a root span. *)

val request_class_name : int -> string
(** The label of a [Request] root's class code ([a]): ["point"],
    ["scan"] or ["update"]. *)

val describe : site_name:(int -> string) -> span -> string
(** One human-readable line for a span. *)

val explain :
  Buffer.t -> site_name:(int -> string) -> span array -> trace_proc:int ->
  trace_seq:int -> unit
(** Pretty-print one episode's causal chain: the tree, then hop
    accounting where direct hop children plus a synthesized "(compute)"
    residual sum exactly to the episode latency. *)
