(* The benchmark harness: regenerates every table and figure of the paper
   (the reproduction proper) and the machine-readable snapshots CI
   compares against the committed baselines.

     dune exec bench/main.exe                # the paper tables/figures
     dune exec bench/main.exe -- tables      # the same
     dune exec bench/main.exe -- snapshots   # only BENCH_table2.json
     dune exec bench/main.exe -- latency     # only BENCH_latency.json
     dune exec bench/main.exe -- spans       # only BENCH_spans.json
     dune exec bench/main.exe -- serving     # only BENCH_serving.json

   Host-side throughput is measured by benchmark/ (its table2-p8
   workload times the Table-2 suite at 8 processors).
*)

open Olden_benchmarks
module C = Olden_config

let ppf = Format.std_formatter

let rule () = Format.printf "%s@." (String.make 78 '-')

(* The snapshot modes below accept --domains N: each benchmark row is one
   job on an Olden_parallel pool.  Every job starts from a full
   Site.reset, so site ids are job-local and the artifacts are
   byte-identical for any pool size — CI cmp's a --domains 1 run against
   a --domains 4 run. *)
let sweep_rows ~domains job =
  let rows, _ =
    Olden_parallel.Sweep.run ~domains
      (fun ~label:_ s -> job s)
      (List.map (fun (s : Common.spec) -> (s.Common.name, s)) Registry.specs)
  in
  List.map (fun (p : _ Olden_parallel.Sweep.point) -> p.Olden_parallel.Sweep.value) rows

(* Machine-readable counterpart of Table 2: one olden-metrics/v1 snapshot
   per benchmark (8 processors, harness scale, flat span events
   collected so the snapshot includes event-derived histograms), written
   to BENCH_table2.json in the working directory. *)
let metrics_snapshots ~domains () =
  let module Json = Olden_trace.Json in
  let nprocs = 8 in
  let rows =
    sweep_rows ~domains (fun (s : Common.spec) ->
        let cfg = C.make ~nprocs () in
        let scale = s.Common.default_scale in
        Olden_runtime.Site.reset ();
        let o, spans =
          Olden_span.Span.collect ~kinds:Olden_span.Span.flat_kinds (fun () ->
              s.Common.run cfg ~scale)
        in
        Common.metrics_snapshot ~spans s ~cfg ~scale o)
  in
  let file = "BENCH_table2.json" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_pretty_string
           (Json.Obj
              [
                ("schema", Json.String "olden-metrics-table/v1");
                ("nprocs", Json.Int nprocs);
                ("benchmarks", Json.List rows);
              ])));
  Format.printf "metrics snapshots: %s (%d benchmarks, %d processors)@." file
    (List.length rows) nprocs

(* Machine-readable latency distributions over the Table-2 suite: one
   monitored run per benchmark (8 processors, harness scale), each row
   carrying the end-to-end dereference/episode latency quantiles
   (olden-latency/v1, documented in docs/OBSERVABILITY.md).  Deterministic,
   so CI diffs it against bench/baseline_latency.json. *)
let latency_snapshots ~domains () =
  let module Json = Olden_trace.Json in
  let nprocs = 8 in
  let interval = 100_000 in
  let rows =
    sweep_rows ~domains (fun (s : Common.spec) ->
        let cfg = C.make ~nprocs () in
        let scale = s.Common.default_scale in
        (Common.hooks ()).monitor_interval <- Some interval;
        (* full reset (not just profiles): site ids restart at 0 per
           benchmark, so per-site labels are stable run to run *)
        Olden_runtime.Site.reset ();
        let o =
          Fun.protect
            ~finally:(fun () -> (Common.hooks ()).monitor_interval <- None)
            (fun () -> s.Common.run cfg ~scale)
        in
        let m = Option.get (Common.hooks ()).last_monitor in
        (Common.hooks ()).last_monitor <- None;
        Json.Obj
          [
            ("benchmark", Json.String s.Common.name);
            ("choice", Json.String s.Common.choice);
            ("scale", Json.Int scale);
            ("coherence", Json.String (C.coherence_to_string cfg.C.coherence));
            ("policy", Json.String (C.policy_to_string cfg.C.policy));
            ("verified", Json.Bool o.Common.ok);
            ("measured_cycles", Json.Int (Common.measured_cycles s o));
            ("windows", Json.Int (List.length (Common.Monitor.windows m)));
            ( "latency",
              Common.Monitor.latency_json
                ~site_names:(Olden_runtime.Site.labels ())
                m );
          ])
  in
  let file = "BENCH_latency.json" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_pretty_string
           (Json.Obj
              [
                ("schema", Json.String "olden-latency/v1");
                ("nprocs", Json.Int nprocs);
                ("interval", Json.Int interval);
                ("benchmarks", Json.List rows);
              ])));
  Format.printf "latency snapshots: %s (%d benchmarks, %d processors)@." file
    (List.length rows) nprocs

(* Machine-readable span census over the Table-2 suite: one spanned run
   per benchmark (8 processors, harness scale) counting spans per kind —
   a cheap, fully deterministic canary for the olden-spans/v2 exporter
   (CI additionally byte-compares two full exports). *)
let spans_census ~domains () =
  let module Json = Olden_trace.Json in
  let module Span = Olden_span.Span in
  let nprocs = 8 in
  let rows =
    sweep_rows ~domains (fun (s : Common.spec) ->
        let cfg = C.make ~nprocs () in
        let scale = s.Common.default_scale in
        Olden_runtime.Site.reset ();
        let o, spans = Span.collect (fun () -> s.Common.run cfg ~scale) in
        let counts = Hashtbl.create 8 in
        Array.iter
          (fun (sp : Span.span) ->
            let k = Span.kind_name sp.Span.kind in
            Hashtbl.replace counts k
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
          spans;
        let per_kind =
          Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) counts []
          |> List.sort compare
        in
        Json.Obj
          [
            ("benchmark", Json.String s.Common.name);
            ("scale", Json.Int scale);
            ("verified", Json.Bool o.Common.ok);
            ("spans", Json.Int (Array.length spans));
            ("per_kind", Json.Obj per_kind);
          ])
  in
  let file = "BENCH_spans.json" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_pretty_string
           (Json.Obj
              [
                ("schema", Json.String "olden-spans-census/v1");
                ("nprocs", Json.Int nprocs);
                ("benchmarks", Json.List rows);
              ])));
  Format.printf "span census: %s (%d benchmarks, %d processors)@." file
    (List.length rows) nprocs

(* Machine-readable open-system serving report: one row per (heap,
   coherence scheme) pair, each carrying throughput, per-request-class
   admission-to-completion quantiles, and an offered-load sweep with the
   saturation knee (olden-serving/v1, documented in docs/SERVING.md).
   Deterministic, so CI diffs it against bench/baseline_serving.json. *)
let serving_snapshots ~domains () =
  let module Json = Olden_trace.Json in
  let module Serving = Olden.Serving in
  let nprocs = 8 in
  let scale = 64 in
  let spec = C.Serving.make ~rate:0.5 ~duration:40_000 () in
  let mix = Serving.default_mix in
  let points =
    List.concat_map
      (fun heap ->
        List.map
          (fun coherence ->
            ( Printf.sprintf "%s/%s" (Serving.heap_name heap)
                (C.coherence_to_string coherence),
              (heap, coherence) ))
          [ C.Local; C.Global; C.Bilateral ])
      Serving.all_heaps
  in
  let rows, _ =
    Olden_parallel.Sweep.run ~domains
      (fun ~label:_ (heap, coherence) ->
        let cfg = C.make ~nprocs ~coherence () in
        let r = Serving.run ~scale ~cfg ~spec ~mix heap in
        let sweep = Serving.saturation_sweep ~scale ~cfg ~spec ~mix heap in
        Serving.result_json ~sweep r)
      points
  in
  let rows =
    List.map
      (fun (p : _ Olden_parallel.Sweep.point) -> p.Olden_parallel.Sweep.value)
      rows
  in
  let file = "BENCH_serving.json" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_pretty_string
           (Json.Obj
              [
                ("schema", Json.String "olden-serving/v1");
                ("nprocs", Json.Int nprocs);
                ("scale", Json.Int scale);
                ("profile", Json.String (C.Serving.profile_to_string spec.C.Serving.profile));
                ("rate_rpk", Json.Float spec.C.Serving.rate);
                ("duration", Json.Int spec.C.Serving.duration);
                ("streams", Json.Int spec.C.Serving.streams);
                ("arrival_seed", Json.Int spec.C.Serving.arrival_seed);
                ("benchmarks", Json.List rows);
              ])));
  Format.printf "serving snapshots: %s (%d rows, %d processors)@." file
    (List.length rows) nprocs

let tables () =
  rule ();
  Tables.table1 ppf ();
  rule ();
  Format.printf
    "Machine model: %d-byte pages, %d-byte lines, %d-bucket translation \
     table (Figure 1); migration ~7x a line miss.@."
    C.Geometry.page_bytes C.Geometry.line_bytes C.Geometry.hash_buckets;
  rule ();
  Tables.table2 ppf ();
  rule ();
  Tables.table3 ppf ();
  rule ();
  Tables.appendix_a ppf ();
  rule ();
  Tables.figure2 ppf ();
  rule ();
  Tables.figure3 ppf ();
  rule ();
  Tables.figure4 ppf ();
  rule ();
  Tables.figure5 ppf ();
  rule ();
  Tables.defaults ppf ();
  rule ();
  (* ablations called out in DESIGN.md *)
  Format.printf
    "Ablation: local-scheme return-invalidation refinement (Section 3.2)@.";
  List.iter
    (fun refinement ->
      let cfg =
        {
          (C.make ~nprocs:32 ()) with
          C.return_invalidate_refinement = refinement;
        }
      in
      let o = Bisort.spec.Common.run cfg ~scale:32 in
      Format.printf "  refinement=%-5b kernel=%s misses=%d flushes=%d@."
        refinement
        (Common.commas o.Common.kernel_cycles)
        o.Common.kernel_stats.Stats.cache_misses
        o.Common.kernel_stats.Stats.cache_flushes)
    [ true; false ];
  rule ();
  Format.printf
    "Break-even path-affinity (Section 4 footnote 3; Section 7's platform      thresholds)@.";
  Breakeven.report ~n:2048 ppf ();
  rule ();
  Em3d.pp_sweep ppf (Em3d.remote_sweep ());
  rule ();
  metrics_snapshots ~domains:1 ();
  rule ()

(* --domains N anywhere after the mode word sizes the snapshot sweeps'
   domain pool; outputs are byte-identical for any value. *)
let parse_domains () =
  let domains = ref 1 in
  let argv = Sys.argv in
  for i = 1 to Array.length argv - 1 do
    if argv.(i) = "--domains" then
      if i + 1 >= Array.length argv then begin
        prerr_endline "bench: --domains needs a value";
        exit 2
      end
      else
        match int_of_string_opt argv.(i + 1) with
        | Some n when n >= 1 -> domains := n
        | _ ->
            Printf.eprintf "bench: --domains must be at least 1 (got %s)\n"
              argv.(i + 1);
            exit 2
  done;
  !domains

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let domains = parse_domains () in
  (match what with
  | "tables" | "all" -> tables ()
  | "snapshots" -> metrics_snapshots ~domains ()
  | "latency" -> latency_snapshots ~domains ()
  | "spans" -> spans_census ~domains ()
  | "serving" -> serving_snapshots ~domains ()
  | other ->
      (* an unknown mode must not fall through to the multi-minute "all" *)
      Printf.eprintf
        "bench: unknown mode %s (expected tables, snapshots, latency, spans \
         or serving)\n"
        other;
      exit 2);
  Format.printf "done.@."
