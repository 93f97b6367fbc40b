(* Running a workload: one cold pass, then measured passes with tracing
   off, then (when per-layer numbers are wanted) one traced pass and the
   cost table.  Every job's result is verified, and every pass must
   reproduce the cold pass's deterministic outputs exactly. *)

module C = Olden.Config
module Stats = Olden.Stats
module Engine = Olden.Engine
module Machine = Olden.Machine
module Memory = Olden.Memory
module Serving = Olden.Serving
module Monitor = Olden.Monitor
module Common = Olden_benchmarks.Common
module Suite = Olden_benchmarks.Suite
module Tables = Olden_benchmarks.Tables
module Hostperf = Olden_benchmarks.Hostperf
module Heuristic = Olden_compiler.Heuristic

let now = Spans.now

(* What a finished engine leaves behind, read through the inspect_engine
   hook of [Common.hooks]. *)
type engine_view = {
  stats : Stats.t;
  busy : int;
  comm : int;
  capacity : int;  (** makespan x nprocs *)
  heap_words : int;
}

let view e =
  let m = Engine.machine e in
  let mem = Engine.memory e in
  let n = Machine.nprocs m in
  {
    stats = Stats.copy (Machine.stats m);
    busy = Machine.total_busy m;
    comm = Array.fold_left ( + ) 0 (Machine.comm_cycles m);
    capacity = Machine.makespan m * n;
    heap_words = List.init n (Memory.words_used mem) |> List.fold_left ( + ) 0;
  }

type job_result = {
  job : string;
  wall : float;
  ok : bool;
  attempted : int;  (** 1 for a batch job, admitted requests for a serve *)
  failed : int;
  sim_cycles : int;
  engine : engine_view option;
  serve : Serving.result option;
  witness : string;  (** deterministic outputs; must repeat every pass *)
}

let events r =
  match r.engine with Some v -> Hostperf.events_of v.stats | None -> 0

let witness ~checksum ~cycles engine =
  String.concat ","
    (checksum :: string_of_int cycles
    ::
    (match engine with
    | Some v ->
        List.map (fun (k, x) -> k ^ "=" ^ string_of_int x) (Stats.fields v.stats)
    | None -> []))

let run_job job =
  let hooks = Common.hooks () in
  let saved = hooks.Common.inspect_engine in
  let engine = ref None in
  hooks.Common.inspect_engine <- Some (fun e -> engine := Some (view e));
  let t0 = now () in
  let finish ~ok ~attempted ~failed ~cycles ~checksum serve =
    (* A job collects its own garbage inside its timing.  Left to the
       major GC's pacing, one job's dead heap is traced during the next
       job, and a job's time would depend on what ran before it. *)
    Gc.full_major ();
    {
      job = Workload.job_name job;
      wall = now () -. t0;
      ok;
      attempted;
      failed;
      sim_cycles = cycles;
      engine = !engine;
      serve;
      witness = witness ~checksum ~cycles !engine;
    }
  in
  Fun.protect
    ~finally:(fun () -> hooks.Common.inspect_engine <- saved)
    (fun () ->
      Spans.span
        ("job:" ^ Workload.job_name job)
        (fun () ->
          match job with
          | Workload.Batch { spec; scale; cfg } -> (
              (* site ids restart per job, as in the bench harness *)
              Olden.Site.reset ();
              match spec.Common.run cfg ~scale with
              | o ->
                  finish ~ok:o.Common.ok ~attempted:1
                    ~failed:(if o.Common.ok then 0 else 1)
                    ~cycles:(Common.measured_cycles spec o)
                    ~checksum:o.Common.checksum None
              | exception e ->
                  finish ~ok:false ~attempted:1 ~failed:1 ~cycles:0
                    ~checksum:(Printexc.to_string e) None)
          | Workload.Serve { heap; scale; cfg; serving; mix } -> (
              match Serving.run ~scale ~cfg ~spec:serving ~mix heap with
              | r ->
                  let lost = r.Serving.r_admitted - r.Serving.r_completed in
                  finish ~ok:r.Serving.r_ok ~attempted:r.Serving.r_admitted
                    ~failed:(if r.Serving.r_ok then 0 else max 1 lost)
                    ~cycles:r.Serving.r_serve_cycles ~checksum:r.Serving.r_checksum
                    (Some r)
              | exception e ->
                  finish ~ok:false ~attempted:1 ~failed:1 ~cycles:0
                    ~checksum:(Printexc.to_string e) None)))

type pass = { wall : float; minor_words : float; jobs : job_result list }

let run_pass (w : Workload.t) =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let jobs = Spans.span "pass" (fun () -> List.map run_job w.Workload.jobs) in
  { wall = now () -. t0; minor_words = Gc.minor_words () -. w0; jobs }

let pass_events p = List.fold_left (fun a r -> a + events r) 0 p.jobs

type run = {
  workload : Workload.t;
  cold : pass;
  passes : pass list;  (** measured, tracing off *)
  setup : float list;  (** process start to end of cold pass, per process *)
  heap_peak_words : int;  (** after the cold pass *)
  traced : pass option;
  layers : Record.metric list;  (** traced-pass and cost-table metrics *)
}

(* Operations attempted and failed over every pass of the run.  A job
   whose deterministic outputs differ from the cold pass's fails too. *)
let tally r =
  let passes = (r.cold :: r.passes) @ Option.to_list r.traced in
  List.fold_left
    (fun (a, f) p ->
      List.fold_left2
        (fun (a, f) j ref_j ->
          let diverged = if j.witness = ref_j.witness then 0 else 1 in
          (a + j.attempted, f + max j.failed diverged))
        (a, f) p.jobs r.cold.jobs)
    (0, 0) passes

(* --- Per-layer metrics from the traced pass ----------------------------- *)

(* Stats has no sum; acc - (0 - v) adds [v] to [acc]. *)
let sum_stats views =
  let zero = Stats.create () in
  List.fold_left (fun acc v -> Stats.diff acc (Stats.diff zero v.stats)) zero views

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The worst p99 admission-to-completion latency of one request class
   over the served heaps. *)
let worst_p99 serves klass =
  List.fold_left
    (fun a (r : Serving.result) ->
      match List.assoc_opt klass r.Serving.r_classes with
      | Some s -> max a s.Monitor.p99
      | None -> a)
    0 serves

let classes = [ "point"; "scan"; "update" ]

let serving_metrics serves =
  let open Record in
  let total f = List.fold_left (fun a r -> a + f r) 0 serves in
  let ingress_max_frac =
    List.fold_left
      (fun a (r : Serving.result) ->
        let mx = Array.fold_left max 0 r.Serving.r_ingress in
        Float.max a (ratio mx r.Serving.r_admitted))
      0. serves
  in
  [
    exact "serving.admitted" "count"
      (float_of_int (total (fun r -> r.Serving.r_admitted)));
    exact "serving.completed" "count"
      (float_of_int (total (fun r -> r.Serving.r_completed)));
    exact "serving.ingress_max_frac" "fraction" ingress_max_frac;
  ]
  @ List.map
      (fun k ->
        exact ("serving." ^ k ^ "_p99_cycles") "cycles" (float_of_int (worst_p99 serves k)))
      classes

let count_metrics (p : pass) =
  let open Record in
  let views = List.filter_map (fun j -> j.engine) p.jobs in
  let s = sum_stats views in
  let c name n = exact name "count" (float_of_int n) in
  let sumv f = List.fold_left (fun a v -> a + f v) 0 views in
  [
    c "runtime.events" (Hostperf.events_of s);
    c "runtime.migrations" s.Stats.migrations;
    c "runtime.returns" s.Stats.returns;
    c "runtime.futures" s.Stats.futures;
    c "runtime.steals" s.Stats.steals;
    c "runtime.local_refs" s.Stats.local_refs;
    c "cache.reads" s.Stats.cacheable_reads;
    c "cache.writes" s.Stats.cacheable_writes;
    c "cache.remote_reads" s.Stats.cacheable_reads_remote;
    c "cache.remote_writes" s.Stats.cacheable_writes_remote;
    c "cache.hits" s.Stats.cache_hits;
    c "cache.misses" s.Stats.cache_misses;
    exact "cache.hit_ratio" "fraction"
      (ratio s.Stats.cache_hits
         (s.Stats.cacheable_reads_remote + s.Stats.cacheable_writes_remote));
    c "cache.pages" s.Stats.pages_cached;
    c "cache.flushes" s.Stats.cache_flushes;
    c "cache.lines_invalidated" s.Stats.lines_invalidated;
    c "cache.inval_msgs" s.Stats.invalidation_messages;
    c "cache.revalidations" s.Stats.revalidations;
    exact "heap.words" "words" (float_of_int (sumv (fun v -> v.heap_words)));
    c "machine.messages" s.Stats.messages;
    exact "machine.bytes" "bytes" (float_of_int s.Stats.bytes);
    exact "machine.utilization" "fraction"
      (ratio (sumv (fun v -> v.busy)) (sumv (fun v -> v.capacity)));
    exact "machine.comm_frac" "fraction"
      (ratio (sumv (fun v -> v.comm)) (sumv (fun v -> v.capacity)));
    c "machine.drops" s.Stats.msg_drops;
    c "machine.retries" s.Stats.retries;
    exact "machine.retry_cycles" "cycles" (float_of_int s.Stats.retry_cycles);
    c "machine.duplicates" s.Stats.msg_duplicates;
    c "recovery.crashes" s.Stats.crashes;
    exact "recovery.stall_cycles" "cycles"
      (float_of_int s.Stats.recovery_stall_cycles);
    c "recovery.pages_lost" s.Stats.pages_lost_in_crash;
  ]
  @ serving_metrics (List.filter_map (fun j -> j.serve) p.jobs)

(* Mean |ln(simulated speedup / paper speedup)| at 8 processors over the
   Table 2 suite: the one part of the model checked against published
   numbers.  Costs one sequential run per benchmark. *)
let paper_err (p : pass) (w : Workload.t) =
  let errs =
    List.filter_map
      (fun (job, r) ->
        match job with
        | Workload.Batch { spec; scale; cfg } -> (
            match
              List.find_opt
                (fun (n, _, _) -> n = spec.Common.name)
                Tables.paper_table2
            with
            | Some (_, paper, _) when r.sim_cycles > 0 ->
                let seq, _ =
                  Suite.sequential_cycles ~scale ~coherence:cfg.C.coherence spec
                in
                let speedup = float_of_int seq /. float_of_int r.sim_cycles in
                Some (Float.abs (Float.log (speedup /. List.nth paper 3)))
            | _ -> None)
        | Workload.Serve _ -> None)
      (List.combine w.Workload.jobs p.jobs)
  in
  match errs with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs))

(* Host time of the compiler heuristic over every job's kernel model,
   and of generating every serve job's arrival stream. *)
let analyze_and_arrivals (w : Workload.t) =
  let timed name f =
    let t0 = now () in
    Spans.span name f;
    now () -. t0
  in
  let sum = List.fold_left ( +. ) 0. in
  let analyze =
    sum
      (List.map
         (fun job ->
           timed
             ("compiler.analyze:" ^ Workload.job_name job)
             (fun () -> ignore (Heuristic.of_source (Workload.ir job))))
         w.Workload.jobs)
  in
  let arrivals =
    List.filter_map
      (function
        | Workload.Serve { heap; serving; _ } ->
            Some
              (timed
                 ("serving.arrivals:" ^ Serving.heap_name heap)
                 (fun () -> ignore (Serving.arrivals ~spec:serving)))
        | Workload.Batch _ -> None)
      w.Workload.jobs
  in
  (analyze, arrivals)

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  let open Record in
  [
    timed "gc.minor_words" "words" (b.Gc.minor_words -. a.Gc.minor_words);
    timed "gc.promoted_words" "words" (b.Gc.promoted_words -. a.Gc.promoted_words);
    timed "gc.minor_collections" "count"
      (float_of_int (b.Gc.minor_collections - a.Gc.minor_collections));
    timed "gc.major_collections" "count"
      (float_of_int (b.Gc.major_collections - a.Gc.major_collections));
  ]

(* The cost table at this workload's processor count, coherence scheme
   and working set, and each layer's estimate: count x ns per call. *)
let layer_costs (w : Workload.t) (p : pass) counts =
  let count name =
    match List.find_opt (fun m -> m.Record.name = name) counts with
    | Some m -> m.Record.value
    | None -> 0.
  in
  let heap_words =
    List.fold_left
      (fun a j -> match j.engine with Some v -> max a v.heap_words | None -> a)
      0 p.jobs
  in
  let ns =
    Costs.measure ~nprocs:w.Workload.nprocs ~coherence:w.Workload.coherence
      ~seed:(Workload.cfg_of (List.hd w.Workload.jobs)).C.seed
      ~pages:(int_of_float (count "cache.pages") / w.Workload.nprocs)
      ~heap_words
  in
  let est terms =
    1e-9
    *. List.fold_left (fun a (c, n) -> a +. (count c *. List.assoc n ns)) 0. terms
  in
  List.map (fun (name, v) -> Record.timed name "ns" v) ns
  @ [
      Record.timed "runtime.est_s" "s"
        (est
           [
             ("runtime.migrations", "runtime.migrate_ns");
             ("runtime.local_refs", "runtime.fast_load_ns");
             ("runtime.futures", "runtime.future_ns");
           ]);
      Record.timed "cache.est_s" "s"
        (est
           [
             ("cache.hits", "cache.read_hit_ns");
             ("cache.misses", "cache.read_miss_ns");
             ("cache.writes", "cache.write_ns");
             ("runtime.migrations", "cache.release_ns");
             ("runtime.migrations", "cache.acquire_ns");
             ("runtime.returns", "cache.acquire_ns");
           ]);
    ]

(* --- The run ------------------------------------------------------------- *)

(* [setup_probes], when given, returns set-up samples from fresh
   processes; with it the run reports setup_s, the median of those and
   this process's own time from start to the end of its cold pass. *)
let measure ?(min_passes = 2) ?setup_probes ~seconds ~trace (w : Workload.t) =
  let cold = run_pass w in
  (* the peak a one-shot run reaches; later passes only add
     fragmentation, and how many of them run depends on the host *)
  let heap_peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let setup =
    match setup_probes with
    | Some probes ->
        let own = now () -. Spans.epoch in
        own :: probes ()
    | None -> []
  in
  let t0 = now () in
  let rec loop acc n =
    if n >= min_passes && now () -. t0 >= seconds then List.rev acc
    else loop (run_pass w :: acc) (n + 1)
  in
  let passes = loop [] 0 in
  let traced, layers =
    if not trace then (None, [])
    else begin
      Spans.start ~trace:w.Workload.name;
      let result =
        Spans.span "workload" (fun () ->
            let analyze, arrivals = analyze_and_arrivals w in
            let g0 = Gc.quick_stat () in
            let p = run_pass w in
            let g1 = Gc.quick_stat () in
            let counts = count_metrics p in
            let costs = layer_costs w p counts in
            let untraced = Quartiles.median (List.map (fun p -> p.wall) passes) in
            (* only Table 2 at 8 processors has published numbers *)
            let paper =
              if w.Workload.name = "table2-p8" then
                Spans.span "paper_err" (fun () -> paper_err p w)
                |> Option.map (Record.exact "paper_err" "ln-ratio")
                |> Option.to_list
              else []
            in
            ( p,
              counts @ costs @ gc_delta g0 g1
              @ Record.
                  [
                    timed "compiler.analyze_s" "s" analyze;
                    timed "trace.overhead_frac" "fraction"
                      ((p.wall /. untraced) -. 1.);
                  ]
              @ (if arrivals = [] then []
                 else
                   [
                     Record.timed "serving.arrivals_s" "s"
                       (List.fold_left ( +. ) 0. arrivals);
                   ])
              @ paper ))
      in
      Spans.stop ();
      (Some (fst result), snd result)
    end
  in
  { workload = w; cold; passes; setup; heap_peak_words; traced; layers }

(* --- Metrics --------------------------------------------------------------- *)

(* Host timings over the measured passes, the set-up samples, and the
   deterministic results of the cold pass. *)
let pass_metrics r =
  let open Record in
  let walls = List.map (fun p -> p.wall) r.passes in
  let events = pass_events r.cold in
  let rates = List.map (fun p -> float_of_int (pass_events p) /. p.wall) r.passes in
  let first = List.hd r.passes in
  let attempted, failed = tally r in
  let serves = List.filter_map (fun j -> j.serve) r.cold.jobs in
  let serve_only =
    match serves with
    | [] -> []
    | _ ->
        let completed = List.fold_left (fun a s -> a + s.Serving.r_completed) 0 serves in
        let cycles = List.fold_left (fun a s -> a + s.Serving.r_serve_cycles) 0 serves in
        let per_s = List.map (fun w -> float_of_int completed /. w) walls in
        [
          timed ~samples:per_s "requests_per_s" "req/s" (Quartiles.median per_s);
          exact "sim_p99_cycles" "cycles"
            (float_of_int
               (List.fold_left (fun a k -> max a (worst_p99 serves k)) 0 classes));
          exact "sim_throughput_rpk" "req/kcycle" (1000. *. ratio completed cycles);
        ]
  in
  let per_job =
    List.mapi
      (fun i (j : job_result) ->
        let xs = List.map (fun p -> (List.nth p.jobs i).wall) r.passes in
        timed ~samples:xs
          ("benchmarks." ^ j.job ^ ".wall_s")
          "s" (Quartiles.median xs))
      r.cold.jobs
  in
  [
    timed ~samples:walls "wall_s" "s" (Quartiles.median walls);
    timed ~samples:rates "events_per_s" "events/s" (Quartiles.median rates);
  ]
  @ (match r.setup with
    | [] -> []
    | xs -> [ timed ~samples:xs "setup_s" "s" (Quartiles.median xs) ])
  @ [
      exact "alloc_words_per_event" "words/event"
        (first.minor_words /. float_of_int (max 1 events));
      timed "heap_peak_mb" "MB"
        (float_of_int (r.heap_peak_words * (Sys.word_size / 8)) /. 1e6);
      exact "fail_rate" "fraction" (ratio failed attempted);
      exact "sim_cycles" "cycles"
        (float_of_int (List.fold_left (fun a j -> a + j.sim_cycles) 0 r.cold.jobs));
    ]
  @ serve_only @ per_job

let record r =
  let attempted, failed = tally r in
  {
    Record.workload = r.workload.Workload.name;
    config = List.map Workload.describe r.workload.Workload.jobs;
    attempted;
    failed;
    metrics = pass_metrics r @ r.layers;
  }
