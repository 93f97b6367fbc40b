(** Shared infrastructure for the ten Olden benchmarks.

    Every benchmark provides a {!spec}: identity and problem-size strings
    (Table 1), the paper's heuristic-choice column (Table 2), a
    mini-language model of its kernel (so the compiler heuristic actually
    chooses the mechanisms the OCaml kernel uses), and a driver that builds
    the structure, runs the kernel between phase marks, and verifies the
    result against a sequential reference. *)

module C = Olden_config
module Ops = Olden_runtime.Ops
module Site = Olden_runtime.Site
module Engine = Olden_runtime.Engine
module Prng = Prng
module Heuristic = Olden_compiler.Heuristic
module Analysis = Olden_compiler.Analysis
module Json = Olden_trace.Json
module Monitor = Olden_monitor.Monitor

type outcome = {
  ok : bool;  (** result matches the sequential reference *)
  checksum : string;
  kernel_cycles : int;
  total_cycles : int;
  kernel_stats : Stats.t;
  total_stats : Stats.t;
}

type spec = {
  name : string;
  descr : string;  (** Table 1 description *)
  problem : string;  (** Table 1 problem size (at scale 1) *)
  choice : string;  (** paper's heuristic choice: "M" or "M+C" *)
  whole_program : bool;  (** Table 2's W marker *)
  heap_stable : bool;
      (** final heap is bit-identical across message-timing perturbations
          (no two concurrently-scheduled fibers allocate on the same
          processor); chaos runs compare heap digests only when it holds *)
  ir : string;  (** mini-language model of the kernel *)
  default_scale : int;  (** problem-size divisor used by the harness *)
  run : C.t -> scale:int -> outcome;
}

val measured_cycles : spec -> outcome -> int
(** Whole-program benchmarks report total time, the rest kernel-only. *)

val measured_stats : spec -> outcome -> Stats.t

type hooks = {
  mutable record_timeline : bool;
      (** When set, {!execute} records busy intervals and leaves a
          rendered Gantt chart in [last_timeline] (a driver
          convenience). *)
  mutable last_timeline : string option;
  mutable last_busy : int array;
      (** Per-processor busy cycles of the most recent {!execute}. *)
  mutable last_clocks : int array;
      (** Per-processor final clocks of the most recent {!execute}. *)
  mutable last_comm : int array;
      (** Per-processor communication-stall cycles of the most recent
          {!execute} (time blocked on request/reply round trips). *)
  mutable last_recovery_stall : int array;
      (** Per-processor crash-recovery stall cycles of the most recent
          {!execute} (all zero when the run had no fault schedule). *)
  mutable inspect_engine : (Engine.t -> unit) option;
      (** When set, {!execute} calls this with the finished engine before
          returning, while heap, caches, and directories are still
          reachable — the hook the chaos harness uses to run the
          invariant checker. *)
  mutable monitor_interval : int option;
      (** When set, {!execute} creates a {!Monitor} sampling at that
          simulated-cycle interval, installs it for the run, and leaves
          the finished monitor (final window flushed) in
          [last_monitor]. *)
  mutable last_monitor : Monitor.t option;
}
(** A caller that wants the run's span stream wraps it in
    {!Olden_span.Span.collect}.  Any run with a fault schedule enables
    the allocation-free flight recorder for its duration (contents are
    retained after the run for post-mortems). *)

val hooks : unit -> hooks
(** The calling domain's driver hooks.  Domain-local: benchmark jobs
    running on different domains of the parallel sweep driver
    ({!Olden_parallel}) each see their own flags and results. *)

val site_name : int -> string option
(** Site-id to label lookup against the global registry (for stream
    summaries, per-site metric labels, and profiler tables); labels read
    ["field@function"], e.g. ["t->left@treeadd"]. *)

val metrics_snapshot :
  ?spans:Olden_span.Span.span array ->
  spec -> cfg:C.t -> scale:int -> outcome -> Json.t
(** Machine-readable run report (schema ["olden-metrics/v1"], documented
    in docs/OBSERVABILITY.md): run identity, Stats counters,
    per-processor busy/clock arrays, per-site profile, and — when a span
    stream is supplied — the metrics registry derived from its flat
    events ({!Olden_profile.Recorder}). *)

val execute : C.t -> program:(Engine.t -> string * bool) -> outcome
(** Run a benchmark program (which receives the engine so verification can
    inspect the heap at host level) and package the outcome; the region
    after an optional ["kernel"] phase mark is the measured kernel. *)

val sites_of_ir :
  string ->
  Heuristic.t
  * (func:string ->
    var:string ->
    field:string ->
    fallback:C.mechanism ->
    C.mechanism)
(** Run the heuristic on a benchmark's IR model; the returned function maps
    a dereference [func.var->field] to the mechanism the heuristic chose
    ([fallback] covers dereferences the model does not contain). *)

val site_of :
  (func:string ->
  var:string ->
  field:string ->
  fallback:C.mechanism ->
  C.mechanism) ->
  func:string ->
  var:string ->
  field:string ->
  fallback:C.mechanism ->
  Site.t
(** Create a runtime site carrying the heuristic's mechanism. *)

val block_owner : nprocs:int -> n:int -> int -> int
(** Processor owning block [i] of [n] under a blocked distribution
    (Figure 2). *)

val cyclic_owner : nprocs:int -> int -> int
(** Cyclic distribution (Figure 2). *)

val scaled : scale:int -> floor:int -> int -> int
(** [n / scale], but never below [floor]. *)

val commas : int -> string
(** [1234567] as ["1,234,567"]. *)
