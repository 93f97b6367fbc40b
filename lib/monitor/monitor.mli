(** Simulated-clock telemetry: interval time-series and end-to-end
    operation-latency histograms.

    The paper (and our Table-2 pipeline) reports one end-of-run counter
    table per benchmark; this layer watches the run *as simulated time
    passes*.  Two pillars:

    {ol
    {- {b Interval time-series}: at every multiple of a configurable
       simulated-time interval, sample the full {!Stats} record, the
       per-processor busy/comm/idle/recovery-stall cycles, and the
       monitor's own latency registry, and report the {e windowed
       deltas} (activity inside the window, not cumulative totals).
       Serialized as the [olden-timeseries/v1] JSONL schema and as CSV.}
    {- {b End-to-end latency}: a consumer of the causal span stream
       ({!Olden_span.Span}).  Each completed episode is emitted once, as
       a span, and read into log-bucketed {!Metrics} histograms with
       exact-rank p50/p90/p99/p999 quantiles: a dereference ([Deref]
       root: entry to completion, spanning cache misses, migration
       round-trips, retries, fallbacks, and crash replays), per
       mechanism and per dereference site; the migration leg (a [Recv]
       hop under a [Deref] root, from the root's entry); a return stub
       ([Return] root); a retry backoff ([Backoff]); a crash recovery
       or failover ([Crash], [Failover]); a served request ([Request]
       root).}}

    No layer below the driver calls into the monitor except the
    scheduler's {!tick}.  {!install} attaches the consumer to the span
    stream, which turns span emission on, so a monitored run carries
    span context (trace ids, ambient roots) even without a collector;
    with nothing installed the span guard is the one word read.  The
    monitor only {e reads} simulated clocks — it never advances them —
    so monitored runs are cycle-identical to unmonitored ones, and the
    output is a pure function of (program, config, seed): same seed,
    byte-identical JSONL.  Schema reference: docs/OBSERVABILITY.md. *)

module Metrics = Olden_trace.Metrics
module Json = Olden_trace.Json

(** How a dereference episode was ultimately served. *)
type mech =
  | Local  (** same-processor data, or sequential mode *)
  | Cache  (** software caching (hit or miss) at the referencing proc *)
  | Migrate  (** the computation moved to the data's home *)
  | Fallback  (** migration gave up (faults); served by caching *)

val mech_name : mech -> string

val mech_index : mech -> int
(** 0 = local, 1 = cache, 2 = migrate, 3 = fallback — the mechanism
    code spans carry in their [b] payload. *)

(** Closures over the running machine, supplied by the driver
    ([Common.execute]); the monitor has no dependency on the machine
    layer. *)
type probe = {
  stats : unit -> (string * int) list;
      (** the full [Stats.fields] of the live stats record *)
  busy : unit -> int array;
  comm : unit -> int array;
  recovery_stall : unit -> int array;
}

type t

val create : interval:int -> nprocs:int -> probe:probe -> t
(** A fresh monitor sampling at every [interval] simulated cycles.
    @raise Invalid_argument if [interval < 1]. *)

val interval : t -> int
val nprocs : t -> int

(** {2 The process-wide sink} *)

val install : t -> unit
(** Attach the monitor to the span stream ({!Olden_span.Span.attach_monitor})
    for this domain.
    @raise Invalid_argument if a monitor is already installed. *)

val uninstall : unit -> unit

val is_on : unit -> bool

type slot
(** Where a domain's installed monitor is kept. *)

val slot : unit -> slot
(** This domain's slot: one domain-local read.  The engine binds it when
    its [exec] starts, so its per-step {!tick} reads no key. *)

val tick : slot -> int -> unit
(** Advance the window clock to the scheduler's global virtual time
    (monotonically non-decreasing across calls); closes every interval
    window that time has passed.  A no-op when no monitor is
    installed. *)

val finish : t -> makespan:int -> unit
(** Close the final (partial) window at [makespan].  Idempotent. *)

(** {2 Windows} *)

type window = {
  w_t0 : int;
  w_t1 : int;  (** the window spans simulated time [[w_t0, w_t1)] *)
  w_stats : (string * int) list;
      (** every [Stats] field, windowed delta, in declaration order *)
  w_procs : (int * int * int * int) array;
      (** per processor: (busy, comm, idle, recovery-stall) deltas.
          Idle is [span - busy - comm] and may go negative in a window
          when a long charge starts inside it; sums over all windows
          reconcile with the end-of-run totals. *)
  w_latency : Json.t;
      (** latency-registry delta entries ({!Metrics.delta_json}) *)
}

val windows : t -> window list
(** Closed windows in time order (only complete after {!finish}). *)

(** {2 Latency summaries} *)

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;  (** quantiles are {!Metrics.quantile} bucket bounds *)
}

val deref_summaries : t -> (string * summary) list
(** Per mechanism ([local], [cache], [migrate], [fallback] order),
    mechanisms with no episodes omitted. *)

val episode_summaries : t -> (string * summary) list
(** [migration], [return], [retry_wait], [recovery_stall] (in that
    order), kinds with no episodes omitted. *)

val site_summaries :
  ?site_names:(int * string) list -> t -> (int * string * string * summary) list
(** [(sid, label, mech, summary)] sorted by sid then mechanism;
    [site_names] maps sids to labels (e.g. [Site.labels ()]). *)

val request_summaries : t -> (string * summary) list
(** Per request class ([Request] roots, labelled by
    {!Olden_span.Span.request_class_name}), sorted by class label; empty
    outside serving runs. *)

(** {2 Exemplars}

    Whenever a monitor is installed it retains the trace ids of the
    worst dereference episodes per mechanism, taken from their [Deref]
    roots (a small fixed number of slots, recorded without allocating),
    so tail-latency percentiles can be traced back to the concrete
    causal chains that produced them. *)

type exemplar = {
  ex_mech : mech;
  ex_cycles : int;  (** the episode's end-to-end latency *)
  ex_trace_proc : int;  (** trace id: origin processor... *)
  ex_trace_seq : int;  (** ...and root sequence number *)
}

val exemplars : ?percentile:float -> t -> exemplar list
(** Retained exemplars at or above the [percentile] (default 0.99)
    threshold of their own mechanism's latency histogram, worst first;
    deterministic order. *)

val held_exemplars : t -> mech -> (int * int * int) array
(** The mechanism's exemplar slots in slot order, unfiltered, as
    (cycles, trace proc, trace seq): the table {!exemplars} reads. *)

val deref_quantile : t -> mech -> float -> int
(** The mechanism's latency quantile ({!Metrics.quantile}). *)

(** {2 Serialization} (docs/OBSERVABILITY.md) *)

val latency_json : ?site_names:(int * string) list -> t -> Json.t
(** [{"deref":[..],"episode":[..],"per_site":[..]}] — the
    [olden-latency/v1] per-run payload.  Serving runs append a
    ["request"] list (one summary per request class); the key is absent
    when no requests were recorded. *)

val timeseries_jsonl :
  ?site_names:(int * string) list ->
  header:(string * Json.t) list ->
  t ->
  string
(** The [olden-timeseries/v1] document: a header line (schema, the
    caller's run-identity fields, interval, nprocs, window count), one
    line per window, and a closing [{"latency_total": ...}] line. *)

val csv : t -> string
(** One row per window, one column per series: [t0], [t1], every
    [Stats] field, then [pN_busy], [pN_comm], [pN_idle],
    [pN_recovery_stall] for each processor.  Header labels pass through
    {!Json.csv_field}, so an odd stat name cannot shift columns. *)

val latency_csv : ?site_names:(int * string) list -> t -> string
(** Latency summaries as CSV: one row per mechanism, episode kind,
    request class (serving runs only), and (site, mech) pair.  Site
    labels (and every text field) are quoted through {!Json.csv_field}
    — commas, quotes, or newlines in a label cannot corrupt the row. *)
