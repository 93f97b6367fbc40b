(* Shared infrastructure for the ten Olden benchmarks.

   Every benchmark provides a [spec]: identity and problem-size strings
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
module Span = Olden_span.Span
module Flight = Olden_span.Flight
module Json = Olden_trace.Json
module Monitor = Olden_monitor.Monitor
module Recovery = Olden_recovery.Recovery

type outcome = {
  ok : bool; (* result matches the sequential reference *)
  checksum : string;
  kernel_cycles : int;
  total_cycles : int;
  kernel_stats : Stats.t;
  total_stats : Stats.t;
}

type spec = {
  name : string;
  descr : string; (* Table 1 description *)
  problem : string; (* Table 1 problem size (at scale 1) *)
  choice : string; (* paper's heuristic choice: "M" or "M+C" *)
  whole_program : bool; (* Table 2's W marker *)
  heap_stable : bool;
      (* final heap is bit-identical across message-timing perturbations:
         true when every processor's allocations come from one fiber in
         program order, false when concurrently-scheduled fibers allocate
         on the same processor (allocation order — hence addresses — then
         follows the scheduler, though the computed result does not).
         Chaos runs compare heap digests only when this holds; checksum
         equality is enforced regardless. *)
  ir : string; (* mini-language model of the kernel *)
  default_scale : int; (* problem-size divisor used by the bench harness *)
  run : C.t -> scale:int -> outcome;
}

(* Cycles counted for Table 2: whole-program benchmarks (Power, Barnes-Hut,
   Health) report total time, the rest kernel-only. *)
let measured_cycles spec outcome =
  if spec.whole_program then outcome.total_cycles else outcome.kernel_cycles

let measured_stats spec outcome =
  if spec.whole_program then outcome.total_stats else outcome.kernel_stats

(* --- Driving a build/kernel program ----------------------------------- *)

(* Driver hooks and the results [execute] leaves behind, bundled in one
   domain-local record: benchmark jobs running on different domains of
   the parallel sweep driver set their own flags and read their own
   results without interfering.  See the .mli for per-field docs. *)
type hooks = {
  mutable record_timeline : bool;
  mutable last_timeline : string option;
  mutable last_busy : int array;
  mutable last_clocks : int array;
  mutable last_comm : int array;
  mutable last_recovery_stall : int array;
  mutable inspect_engine : (Engine.t -> unit) option;
  mutable monitor_interval : int option;
  mutable last_monitor : Monitor.t option;
}

let hooks_key =
  Domain.DLS.new_key (fun () ->
      {
        record_timeline = false;
        last_timeline = None;
        last_busy = [||];
        last_clocks = [||];
        last_comm = [||];
        last_recovery_stall = [||];
        inspect_engine = None;
        monitor_interval = None;
        last_monitor = None;
      })

let hooks () = Domain.DLS.get hooks_key

(* The program receives the engine so its verification step can inspect
   the heap directly (at host level, free of simulated cost). *)
let execute (cfg : C.t) ~(program : Engine.t -> string * bool) : outcome =
  let h = hooks () in
  let engine = Engine.create cfg in
  if h.record_timeline then
    Machine.set_record_intervals (Engine.machine engine) true;
  let result = ref ("", false) in
  (* the flight recorder rides along on every faulty run: recording is
     allocation-free, and a wedged chaos run then leaves a post-mortem
     behind.  Fault-free runs stay untouched — spans off means not even
     the one-word guard reads differently from the seed behavior. *)
  let flight_here = cfg.C.faults <> None && not (Flight.is_enabled ()) in
  if flight_here then Span.flight_enable ();
  let monitor =
    Option.map
      (fun interval ->
        let machine = Engine.machine engine in
        let nprocs = Machine.nprocs machine in
        Monitor.create ~interval ~nprocs
          ~probe:
            {
              Monitor.stats = (fun () -> Stats.fields (Machine.stats machine));
              busy = (fun () -> Machine.busy_cycles machine);
              comm = (fun () -> Machine.comm_cycles machine);
              recovery_stall =
                (fun () ->
                  match Engine.recovery engine with
                  | Some r -> Recovery.stall_cycles r
                  | None -> Array.make nprocs 0);
            })
      h.monitor_interval
  in
  Option.iter Monitor.install monitor;
  Fun.protect
    ~finally:(fun () ->
      if Option.is_some monitor then Monitor.uninstall ();
      (* disabling keeps the ring contents: a failure escaping [exec]
         can still be dumped by the caller's exception handler *)
      if flight_here then Span.flight_disable ())
    (fun () -> Engine.exec engine (fun () -> result := program engine));
  (match monitor with
  | Some m ->
      Monitor.finish m ~makespan:(Machine.makespan (Engine.machine engine));
      h.last_monitor <- Some m
  | None -> ());
  h.last_busy <- Machine.busy_cycles (Engine.machine engine);
  h.last_clocks <- Machine.clocks (Engine.machine engine);
  h.last_comm <- Machine.comm_cycles (Engine.machine engine);
  (h.last_recovery_stall <-
     (match Engine.recovery engine with
     | Some r -> Recovery.stall_cycles r
     | None -> Array.make (Machine.nprocs (Engine.machine engine)) 0));
  if h.record_timeline then
    h.last_timeline <-
      Some
        (Format.asprintf "%a" (Olden_runtime.Timeline.render ?width:None)
           (Engine.machine engine));
  (match h.inspect_engine with Some f -> f engine | None -> ());
  let report = Engine.report engine in
  let kernel_cycles, kernel_stats =
    match List.assoc_opt "kernel" report.Engine.phases with
    | Some _ -> Engine.interval engine ~start:"kernel" ~stop:None
    | None -> (report.Engine.makespan, report.Engine.stats)
  in
  let checksum, ok = !result in
  {
    ok;
    checksum;
    kernel_cycles;
    total_cycles = report.Engine.makespan;
    kernel_stats;
    total_stats = report.Engine.stats;
  }

(* --- Metrics snapshots -------------------------------------------------- *)

(* Site-id -> label lookup against the global registry, for labelling
   per-site metrics, stream summaries, and profiler tables: labels read
   "field@function" ("t->left@treeadd"), not bare ids. *)
let site_name sid =
  List.find_opt (fun (s : Site.t) -> s.Site.sid = sid) (Site.all ())
  |> Option.map Site.label

(* The machine-readable counterpart of [olden-run bench]'s report
   (schema: docs/OBSERVABILITY.md).  Always carries the run identity,
   Stats counters, the per-processor busy/clock arrays left by [execute],
   and the per-site profile; when a span stream is supplied the metrics
   registry derived from its flat events (per-kind/per-proc/per-site
   counters and latency/burst histograms) is included under
   "metrics". *)
let metrics_snapshot ?spans (spec : spec) ~(cfg : C.t) ~scale (o : outcome) :
    Json.t =
  let h = hooks () in
  let makespan = Array.fold_left max 0 h.last_clocks in
  let per_proc =
    List.init (Array.length h.last_busy) (fun p ->
        let comm =
          if p < Array.length h.last_comm then h.last_comm.(p) else 0
        in
        let stall =
          if p < Array.length h.last_recovery_stall then
            h.last_recovery_stall.(p)
          else 0
        in
        Json.Obj
          [
            ("proc", Json.Int p);
            ("busy_cycles", Json.Int h.last_busy.(p));
            ("comm_cycles", Json.Int comm);
            ("idle_cycles", Json.Int (makespan - h.last_busy.(p) - comm));
            ("recovery_stall_cycles", Json.Int stall);
            ("clock", Json.Int h.last_clocks.(p));
          ])
  in
  let per_site =
    List.map
      (fun (s : Site.t) ->
        Json.Obj
          [
            ("sid", Json.Int s.Site.sid);
            ("name", Json.String s.Site.sname);
            ("label", Json.String (Site.label s));
            ("mechanism", Json.String (C.mechanism_to_string s.Site.mech));
            ("loads", Json.Int s.Site.loads);
            ("stores", Json.Int s.Site.stores);
            ("remote", Json.Int s.Site.remote);
            ("migrations", Json.Int s.Site.migrations);
            ("misses", Json.Int s.Site.misses);
            ("retries", Json.Int s.Site.retries);
            ("migration_fallbacks", Json.Int s.Site.fallbacks);
            ("comm_cycles", Json.Int (Site.comm_cycles cfg.C.costs s));
          ])
      (Site.all ())
  in
  let event_metrics =
    match spans with
    | None -> []
    | Some spans ->
        [ ("metrics", Olden_trace.Metrics.to_json
                        (Olden_profile.Recorder.of_spans
                           ~site_table:(Site.labels ()) spans)) ]
  in
  Json.Obj
    ([
       ("schema", Json.String "olden-metrics/v1");
       ("benchmark", Json.String spec.name);
       ("choice", Json.String spec.choice);
       ("nprocs", Json.Int cfg.C.nprocs);
       ("scale", Json.Int scale);
       ("coherence", Json.String (C.coherence_to_string cfg.C.coherence));
       ("policy", Json.String (C.policy_to_string cfg.C.policy));
       ("verified", Json.Bool o.ok);
       ("checksum", Json.String o.checksum);
       ("measured_cycles", Json.Int (measured_cycles spec o));
       ("kernel_cycles", Json.Int o.kernel_cycles);
       ("total_cycles", Json.Int o.total_cycles);
       ("stats", Stats.to_json (measured_stats spec o));
       ("total_stats", Stats.to_json o.total_stats);
       ("per_proc", Json.List per_proc);
       ("per_site", Json.List per_site);
     ]
    @ event_metrics)

(* --- Coupling kernels to the compiler heuristic ------------------------ *)

(* Run the heuristic on a benchmark's IR model and return a site factory:
   the site for dereference [func.var->field] gets the mechanism the
   heuristic chose for that dereference in the model.  [fallback] covers
   dereferences the model does not contain (e.g. build-phase stores, which
   the paper does not time). *)
let sites_of_ir ir =
  let sel = Heuristic.of_source ir in
  let mech ~func ~var ~field ~fallback =
    let found =
      List.find_opt
        (fun (d : Analysis.deref_info) ->
          d.Analysis.deref_func = func
          && d.Analysis.dbase = Some var
          && d.Analysis.dfield = field)
        sel.Heuristic.analysis.Analysis.derefs
    in
    match found with
    | Some d -> Heuristic.mechanism_of_site sel d.Analysis.deref_id
    | None -> fallback
  in
  (sel, mech)

let site_of mech_fn ~func ~var ~field ~fallback =
  Site.make
    ~mech:(mech_fn ~func ~var ~field ~fallback)
    (Printf.sprintf "%s.%s->%s" func var field)

(* --- Data-distribution helpers ---------------------------------------- *)

(* Processor owning block [i] of [n] when distributed blocked over
   [nprocs] (Figure 2's blocked layout). *)
let block_owner ~nprocs ~n i =
  if n <= 0 then 0 else min (nprocs - 1) (i * nprocs / n)

(* Cyclic layout (Figure 2). *)
let cyclic_owner ~nprocs i = i mod nprocs

(* Scaled problem size: never below [floor]. *)
let scaled ~scale ~floor n = max floor (n / scale)

(* Format helpers for table output. *)
let commas n =
  let s = string_of_int n in
  let len = String.length s in
  let b = Buffer.create (len + 4) in
  String.iteri
    (fun i ch ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char b ',';
      Buffer.add_char b ch)
    s;
  Buffer.contents b
