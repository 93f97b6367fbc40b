(** Span tracing, the simulator's one event stream.  Every dereference
    opens a root span carrying a trace context (trace id = (origin proc,
    sequence), parent span id) that is propagated into scheduled
    cross-processor work, so migration legs, return stubs, retransmits,
    recovery messages, and crash replays form one causal tree per
    episode.  Beside the tree, flat point events record the runtime's
    and the cache layer's per-operation activity (migrations, futures,
    cache hits and misses, invalidations, phase marks).  Zero-cost when
    off: one load and one test per hook, on the {!state} the emitting
    layer holds. *)

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
  | Migrate_send  (** flat: a computation migration leaves; a = target *)
  | Migrate_arrive  (** flat: the migrated thread restarts; a = source *)
  | Return_send  (** flat: a return stub fires; a = target *)
  | Return_arrive  (** flat: a = source *)
  | Future_spawn  (** flat: a = future id *)
  | Future_resolve  (** flat: a = future id, b = waiters *)
  | Future_touch  (** flat: a = future id, b = 1 if the toucher parked *)
  | Steal  (** flat: a continuation popped from the local work list *)
  | Cache_hit  (** flat: a = home, b = page, c = line *)
  | Cache_miss  (** flat: a line fetch; a = home, b = page, c = line *)
  | Cache_flush
      (** flat: local scheme's wholesale invalidation; a = entries *)
  | Suspect_all  (** flat: bilateral acquire marks every page suspect *)
  | Revalidate  (** flat: a = home, b = page, c = lines dropped *)
  | Inval_send  (** flat: a = target, b = page *)
  | Inval_recv  (** flat: a = source, b = page, c = lines dropped *)
  | Dir_write
      (** flat: home directory stamps a written line; a = page, b = line *)
  | Dir_release  (** flat: home timestamp bump at a release; a = page, b = ts *)
  | Remote_alloc  (** flat: a = home, b = words *)
  | Phase  (** flat: a phase mark; a = interned name ({!phase_name}) *)

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
  c : int;  (** third payload word of the flat kinds; 0 elsewhere *)
  tid : int;  (** flat kinds: simulated thread id; -1 when none applies *)
  site : int;  (** flat kinds: dereference-site id; -1 when none applies *)
}
(** A flat event is a point ([t0 = t1]) outside the causal tree: its
    [id], [parent], [trace_proc] and [trace_seq] are all -1. *)

val kind_code : kind -> int
val kind_of_code : int -> kind
val kind_name : kind -> string
val is_hop : kind -> bool
val is_root : kind -> bool

val is_flat : kind -> bool
(** The point events of the runtime and cache layer ([Migrate_send] ..
    [Phase]), as opposed to the causal kinds ([Deref] .. [Request]). *)

val causal_kinds : kind list
val flat_kinds : kind list
(** Every causal kind, and every flat kind: what a collector for the
    flat-event analyses ({!Olden_profile}) takes. *)

val flat : span array -> span array
(** The flat events of a stream, in emission order. *)

val phase_name : int -> string
(** The name a [Phase] event's [a] interns. *)

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
(** True when a consumer takes any causal kind: the guard of every site
    that keeps the trace context or emits a causal span. *)

val takes : state -> kind -> bool
(** Whether some consumer takes [kind]: the guard of every flat event's
    site, one load and one test.  The flight recorder takes the causal
    kinds, the collector and the monitor those they were installed
    with. *)

val flat_on : state -> bool
(** Whether some consumer takes a flat kind — the guard of the thread
    and site context below. *)

val is_on : unit -> bool
(** [on (state ())], for callers that hold no state (the CLI, tests). *)

val install : ?kinds:kind list -> (span -> unit) -> unit
val uninstall : unit -> unit
(** Install or remove this domain's collector sink, which takes [kinds]
    (default: every kind).  A collector of flat kinds only leaves the
    causal tree off, as cheap as no collector for everything but the
    events it takes. *)

(** {1 Monitor consumer} *)

type consumer =
  tp:int -> ts:int -> kind:kind -> t0:int -> t1:int -> a:int -> b:int -> unit
(** Receives the trace id, kind, interval and payload of every emitted
    span of the kinds it attached for, synchronously, with the emitting
    context still ambient. *)

val attach_monitor : kinds:kind list -> consumer -> unit
(** Feed the spans of the causal [kinds] to the consumer and turn spans
    on — how [Monitor.install] computes its latency histograms from this
    stream.  One consumer at a time; a second call replaces the first. *)

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

(** {1 Flat events}

    The cache and directory layers run beneath the engine and do not
    know the current thread or dereference site; the engine deposits
    them here, guarded by {!flat_on}.  {!reset} clears both. *)

val set_thread : state -> int -> unit
val set_site : state -> int -> unit
val thread : state -> int
val site : state -> int

val event :
  state -> kind:kind -> proc:int -> time:int -> tid:int -> site:int -> a:int ->
  b:int -> c:int -> unit
(** Emit one flat event; the caller has tested [takes state kind]. *)

val intern_phase : string -> int
(** The id a [Phase] event carries in [a] for this name. *)

(** {1 Collection & export} *)

module Collector : sig
  type t

  val create : unit -> t
  val add : t -> span -> unit
  val length : t -> int
  val spans : t -> span array
end

val collect : ?kinds:kind list -> (unit -> 'a) -> 'a * span array
(** Run [f] with a fresh collector of [kinds] (default: every kind)
    installed; returns its result and the spans in emission order. *)

val payload : span -> (string * Json.t) list
(** A span's named payload fields in a fixed order: ["a"] and ["b"] for
    the causal kinds; for the flat kinds the fields their comments name
    (["target"], ["home"], ["page"], ["line"], ["name"] ...). *)

val span_json : span -> Json.t

val schema : string
(** ["olden-spans/v2"]. *)

val jsonl : span array -> string
(** The byte-stable [olden-spans/v2] export: a schema header line, then
    one span object per line in emission order.  Causal spans read
    [trace], [id], [parent], [kind], [proc], [t0], [t1], [a], [b]; flat
    events the same stamps, then [tid], [site] and their {!payload}. *)

val chrome_json : nprocs:int -> span array -> Json.t
val chrome_to_string : nprocs:int -> span array -> string
(** Chrome trace_event export: complete slices per processor track plus
    flow arrows where a child span runs on a different processor; flat
    events are instants on their processor's track. *)

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
