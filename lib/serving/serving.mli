(** Open-system serving: Olden as a data-structure server.

    The batch pipeline measures closed programs — build a structure, run
    the kernel, stop the clock.  This driver instead keeps a persistent
    Olden heap (the TreeAdd tree, the EM3D bipartite graph, or the
    Health village hierarchy) and subjects it to a seeded {e open}
    arrival stream: requests enter at seeded ingress processors as fresh
    threads under the full migrate-vs-cache machinery
    ({!Olden_runtime.Engine.inject}), independent of how fast the system
    drains them.  The run reports throughput and admission-to-completion
    latency quantiles per request class from the simulated event clock,
    and an offered-load sweep locates the saturation knee per coherence
    scheme.

    Everything is a pure function of
    [(arrival_seed, fault_seed, config)]: the arrival process is a
    stateless hash per [(seed, stream, index)], injection order is
    canonical, and the engine underneath is deterministic — so serving
    snapshots are byte-identical run-to-run, for any [--domains] pool
    size, and under a fixed fault schedule.
    Schema reference: docs/SERVING.md. *)

module C = Olden_config
module Monitor = Olden_monitor.Monitor
module Json = Olden_trace.Json

(** {2 Served heaps} *)

(** Which persistent Olden structure the server hosts.  Request bodies
    reuse the benchmark's own dereference sites, so the compiler
    heuristic's migrate-vs-cache choices apply to served traffic exactly
    as they do to the batch kernel. *)
type heap = Treeadd | Em3d | Health

val heap_name : heap -> string
(** Table-1 spelling: ["TreeAdd"], ["EM3D"], ["Health"]. *)

val heap_of_string : string -> heap option
(** Case-insensitive; accepts the {!heap_name} spellings. *)

val heap_names : string list
val all_heaps : heap list

(** {2 Request classes and the mix grammar} *)

(** What one request does to the heap: a point query (bounded hashed
    descent / neighbour gather), a bounded range or subtree scan, or a
    mutation. *)
type klass = Point | Scan | Update

val klass_name : klass -> string
val klass_code : klass -> int
(** 0 = point, 1 = scan, 2 = update — the class code request spans
    carry in their [a] payload ({!Olden_span.Span.Request}). *)

type mix
(** A weighted request-class mixture, canonicalized to point, scan,
    update order. *)

val default_mix : mix
(** [point=6,scan=3,update=1]. *)

val mix_of_string : string -> (mix, string) result
(** Parse ["point=6,scan=3,update=1"]; a bare class name means weight 1.
    Unknown classes, duplicate classes, and non-positive weights are
    errors (the CLI maps them to exit 2). *)

val mix_to_string : mix -> string
val mix_weights : mix -> (klass * int) list

(** {2 The seeded arrival process}

    Inter-arrival gaps are in simulated cycles and are pure functions of
    [(arrival_seed, stream, index)] — no generator state, so any
    arrival can be recomputed (and replayed) in isolation.  [rate] is
    the aggregate offered load in requests per 1000 cycles, split evenly
    over [streams] independent streams. *)

val interarrival : spec:C.Serving.spec -> stream:int -> index:int -> int
(** The gap (>= 1 cycle) preceding arrival [index] of [stream]:
    exponential for [Poisson]; Markov-modulated on/off windows for
    [Bursty] (dense bursts, long quiet gaps, same mean); a sinusoidal
    rate swing for [Diurnal]. *)

type arrival = {
  a_stream : int;
  a_index : int;  (** per-stream sequence number *)
  a_offset : int;  (** cycles after the serving epoch opens *)
}

val arrivals : spec:C.Serving.spec -> arrival list
(** Every arrival with offset inside [spec.duration], merged over
    streams in canonical (offset, stream, index) order — the order the
    driver injects them in. *)

(** {2 Running an open-loop serve} *)

type result = {
  r_heap : heap;
  r_scheme : C.coherence;
  r_spec : C.Serving.spec;
  r_mix : mix;
  r_admitted : int;  (** requests injected (= arrivals generated) *)
  r_completed : int;  (** requests that ran to completion *)
  r_serve_cycles : int;
      (** the serving epoch: from the ["kernel"] phase mark (heap built)
          to the last request draining *)
  r_total_cycles : int;  (** build + serve makespan *)
  r_throughput : float;  (** completed requests per 1000 cycles *)
  r_classes : (string * Monitor.summary) list;
      (** admission-to-completion latency per request class (p50/p99/
          p999 from the event clock), sorted by class label *)
  r_ingress : int array;  (** requests admitted per ingress processor *)
  r_checksum : string;
      (** request results folded in completion order — the determinism
          witness run-twice tests compare *)
  r_ok : bool;  (** every admitted request completed *)
}

val run : ?scale:int -> cfg:C.t -> spec:C.Serving.spec -> mix:mix -> heap -> result
(** Build the heap, open the serving epoch, inject every arrival at a
    seeded ingress processor, drain, and package the result.  [scale]
    (default 64) sizes the persistent structure exactly as the batch
    harness's scale knob does.  Latency quantiles need a monitor: one is
    installed for the run at a duration-derived interval unless the
    caller's driver hooks already request one.  The caller's hooks keep
    the finished monitor ([last_monitor]) for timeseries/CSV export. *)

(** {2 The offered-load sweep} *)

type sweep_point = {
  sw_offered : float;  (** offered load, requests per 1000 cycles *)
  sw_achieved : float;  (** achieved throughput over the serve span *)
  sw_p99 : int;  (** worst per-class p99 latency at this load *)
}

val default_sweep_rates : float list

val saturation_sweep :
  ?domains:int ->
  ?scale:int ->
  ?rates:float list ->
  cfg:C.t ->
  spec:C.Serving.spec ->
  mix:mix ->
  heap ->
  sweep_point list * float option
(** One {!run} per offered rate (on an {!Olden_parallel} pool of
    [domains] workers; results keep submission order, so the sweep is
    byte-identical for any pool size), plus the saturation knee: the
    first offered rate whose achieved throughput falls below 90% of
    offered, [None] if the server keeps up everywhere. *)

(** {2 Reporting} *)

val row_name : result -> string
(** ["TreeAdd/local"]-style snapshot row key: heap plus coherence
    scheme. *)

val result_json : ?sweep:sweep_point list * float option -> result -> Json.t
(** One [olden-serving/v1] benchmark row (docs/SERVING.md): run
    identity, counts, [throughput_rpm], per-class latency summaries
    under ["serving"."request"], and — when a sweep is supplied — the
    sweep points and ["knee_rpk"]. *)

val pp_result : Format.formatter -> result -> unit
(** Human-readable block: identity line, throughput, and one row per
    request class with count and latency quantiles. *)
