(* The tracing subsystem: JSON printing/parsing, the metrics registry,
   the span stream's exporters, and its flat events — the golden treeadd
   stream in the old trace JSONL (byte-stable across runs and against
   the committed file), cache events, and the metrics derived from
   them. *)

open Olden
module B = Olden_benchmarks
module Recorder = Olden_profile.Recorder

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool

(* --- Json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.List [ Json.Null; Json.Bool true; Json.Float 1.5 ]);
        ("c", Json.String "quo\"te\nline");
        ("d", Json.Obj []);
      ]
  in
  let s = Json.to_string j in
  check bool "roundtrip" true (Json.of_string s = j);
  check bool "pretty parses too" true
    (Json.of_string (Json.to_pretty_string j) = j);
  check string "deterministic rendering" s
    (Json.to_string (Json.of_string s))

let test_json_accessors () =
  let j = Json.of_string {|{"x": 7, "ys": ["a", "b"]}|} in
  check (Alcotest.option int) "member int" (Some 7)
    (Option.bind (Json.member "x" j) Json.int_value);
  check int "list length" 2
    (List.length (Json.to_list (Option.get (Json.member "ys" j))));
  check bool "missing member" true (Json.member "zzz" j = None)

let test_csv_field_quoting () =
  (* RFC 4180: fields with commas, quotes, or line breaks are wrapped in
     double quotes, embedded quotes doubled; plain fields pass through *)
  check string "plain" "t->left@treeadd" (Json.csv_field "t->left@treeadd");
  check string "comma" "\"a,b\"" (Json.csv_field "a,b");
  check string "quote" "\"say \"\"hi\"\"\"" (Json.csv_field "say \"hi\"");
  check string "newline" "\"two\nlines\"" (Json.csv_field "two\nlines");
  check string "empty" "" (Json.csv_field "")

(* --- Metrics -------------------------------------------------------------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "migrations" ~labels:[ ("proc", "0") ] in
  Metrics.inc c;
  Metrics.add c 4;
  (* find-or-create returns the same counter *)
  Metrics.inc (Metrics.counter m "migrations" ~labels:[ ("proc", "0") ]);
  check int "accumulated" 6
    (Metrics.count (Metrics.counter m "migrations" ~labels:[ ("proc", "0") ]));
  let h = Metrics.histogram m "latency" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 100; 5000 ];
  check int "observations" 5 (Metrics.observations h);
  let j = Metrics.to_json m in
  check int "two entries" 2 (List.length (Json.to_list j));
  (* snapshot is byte-stable *)
  check string "stable snapshot" (Json.to_string j)
    (Json.to_string (Metrics.to_json m))

let test_metrics_quantile () =
  let m = Metrics.create () in
  (* empty histogram: every accessor is defined and zero *)
  let h = Metrics.histogram m "empty" in
  check int "empty p50" 0 (Metrics.quantile h 0.5);
  check int "empty p999" 0 (Metrics.quantile h 0.999);
  check int "empty min" 0 (Metrics.min_value h);
  check int "empty max" 0 (Metrics.max_value h);
  (* single observation: every quantile is exactly that value (the
     bucket bound is clamped to the observed maximum) *)
  let h1 = Metrics.histogram m "single" in
  Metrics.observe h1 5;
  List.iter
    (fun q -> check int "single-value quantile" 5 (Metrics.quantile h1 q))
    [ 0.; 0.5; 0.99; 1. ];
  (* single bucket, many observations: same clamping *)
  let hc = Metrics.histogram m "constant" in
  for _ = 1 to 100 do
    Metrics.observe hc 6
  done;
  check int "constant p50" 6 (Metrics.quantile hc 0.5);
  check int "constant p999" 6 (Metrics.quantile hc 0.999);
  (* exact boundary: 2 observations <= 1, 2 observations <= 3; the
     rank-2 (p50) observation is the last of the first bucket *)
  let hb = Metrics.histogram m "boundary" in
  List.iter (Metrics.observe hb) [ 1; 1; 2; 3 ];
  check int "boundary p50 = first bucket bound" 1 (Metrics.quantile hb 0.5);
  check int "boundary p75 = second bucket bound" 3 (Metrics.quantile hb 0.75);
  check int "boundary p100" 3 (Metrics.quantile hb 1.);
  check int "q clamped below" 1 (Metrics.quantile hb (-1.));
  check int "q clamped above" 3 (Metrics.quantile hb 2.);
  (* quantiles are monotone in q and bounded by min/max *)
  let hr = Metrics.histogram m "ramp" in
  List.iter (Metrics.observe hr) [ 0; 1; 2; 4; 9; 17; 170; 3000; 40000 ];
  let qs = List.map (Metrics.quantile hr) [ 0.1; 0.5; 0.9; 0.99; 1. ] in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  check bool "monotone" true (mono qs);
  check bool "bounded" true
    (List.for_all
       (fun q -> q >= Metrics.min_value hr && q <= Metrics.max_value hr)
       qs);
  (* iter_buckets visits the populated buckets in bound order, counts
     summing to the observation count *)
  let bounds = ref [] and total = ref 0 in
  Metrics.iter_buckets hb (fun ~le ~n ->
      bounds := le :: !bounds;
      total := !total + n);
  check (Alcotest.list Alcotest.int) "populated bounds" [ 1; 3 ]
    (List.rev !bounds);
  check int "counts sum" (Metrics.observations hb) !total

let test_metrics_delta () =
  let m = Metrics.create () in
  let c = Metrics.counter m "moves" in
  let h = Metrics.histogram m "lat" in
  Metrics.add c 3;
  Metrics.observe h 10;
  let snap = Metrics.snapshot m in
  (* nothing changed: empty delta *)
  check string "empty delta" "[]" (Json.to_string (Metrics.delta_json m ~since:snap));
  Metrics.add c 4;
  Metrics.observe h 10;
  Metrics.observe h 100;
  let quiet = Metrics.counter m "quiet" in
  ignore quiet;
  let born = Metrics.counter m "born-later" in
  Metrics.inc born;
  let d = Json.to_list (Metrics.delta_json m ~since:snap) in
  (* changed entries only: the untouched "quiet" counter is omitted,
     the post-snapshot "born-later" counts from zero *)
  let names =
    List.filter_map
      (fun e -> Option.bind (Json.member "name" e) Json.string_value)
      d
  in
  check (Alcotest.list Alcotest.string) "changed entries, sorted"
    [ "born-later"; "lat"; "moves" ] names;
  let find name =
    List.find
      (fun e ->
        Option.bind (Json.member "name" e) Json.string_value = Some name)
      d
  in
  check (Alcotest.option Alcotest.int) "counter increment" (Some 4)
    (Option.bind (Json.member "value" (find "moves")) Json.int_value);
  check (Alcotest.option Alcotest.int) "new counter from zero" (Some 1)
    (Option.bind (Json.member "value" (find "born-later")) Json.int_value);
  let hist = Option.get (Json.member "histogram" (find "lat")) in
  check (Alcotest.option Alcotest.int) "windowed count" (Some 2)
    (Option.bind (Json.member "count" hist) Json.int_value);
  check (Alcotest.option Alcotest.int) "windowed sum" (Some 110)
    (Option.bind (Json.member "sum" hist) Json.int_value)

(* --- Collected benchmark runs --------------------------------------------- *)

(* A tiny deterministic treeadd: 2 processors, the minimum tree.  Sites
   are process-global, so reset ids first — repeated in-process runs then
   emit identical streams. *)
let run_treeadd () =
  Site.reset ();
  let cfg = Config.make ~nprocs:2 () in
  let o, spans =
    Span.collect (fun () ->
        B.Treeadd.spec.B.Common.run cfg ~scale:1_000_000)
  in
  check bool "verified" true o.B.Common.ok;
  spans

let count kind spans =
  Array.fold_left
    (fun n (sp : Span.span) -> if sp.Span.kind = kind then n + 1 else n)
    0 spans

let test_treeadd_stream () =
  let events = Span.flat (run_treeadd ()) in
  check bool "events emitted" true (Array.length events > 0);
  (* treeadd's heuristic picks migration everywhere, so the stream shows
     migrations and futures but no cache traffic *)
  check bool "migrations present" true (count Span.Migrate_send events > 0);
  check bool "futures present" true (count Span.Future_spawn events > 0);
  check int "spawns balance resolves"
    (count Span.Future_spawn events)
    (count Span.Future_resolve events);
  (* per-processor timestamps never run backwards; flat events are points
     outside the causal tree *)
  let last = Hashtbl.create 4 in
  Array.iter
    (fun (e : Span.span) ->
      let prev =
        Option.value ~default:min_int (Hashtbl.find_opt last e.Span.proc)
      in
      check bool "clock monotone per processor" true (e.Span.t0 >= prev);
      check bool "a point" true (e.Span.t0 = e.Span.t1);
      check int "no span id" (-1) e.Span.id;
      Hashtbl.replace last e.Span.proc e.Span.t0)
    events

let test_byte_stable () =
  let a = Span.jsonl (run_treeadd ()) in
  let b = Span.jsonl (run_treeadd ()) in
  check string "two in-process runs render identically" a b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The flat events, rendered as the old trace stream's JSONL, are the
   stream the trace golden was generated from. *)
let test_golden () =
  let got = Projection.trace_jsonl (run_treeadd ()) in
  let want = read_file "golden/treeadd_p2_trace.jsonl" in
  check string "matches the committed golden stream" want got

let test_metrics_snapshot_stable () =
  (* the machine-readable run report is byte-stable: every JSON emitter
     renders keys in fixed construction order, so two identical runs
     serialize identically *)
  let snap () =
    Site.reset ();
    let cfg = Config.make ~nprocs:2 () in
    let o, spans =
      Span.collect ~kinds:Span.flat_kinds (fun () ->
          B.Treeadd.spec.B.Common.run cfg ~scale:1_000_000)
    in
    check bool "verified" true o.B.Common.ok;
    Json.to_string
      (B.Common.metrics_snapshot ~spans B.Treeadd.spec ~cfg ~scale:1_000_000
         o)
  in
  check string "two identical runs snapshot identically" (snap ()) (snap ())

let test_em3d_run_twice_deterministic () =
  (* the fast-path dereference engine (memoized translations, bitmask
     coherence sets, direct dispatch) must not introduce any host-side
     nondeterminism: two identical em3d runs at 8 processors produce
     byte-identical metrics snapshots *)
  let snap () =
    Site.reset ();
    let cfg = Config.make ~nprocs:8 () in
    let o, spans =
      Span.collect ~kinds:Span.flat_kinds (fun () ->
          B.Em3d.spec.B.Common.run cfg ~scale:1024)
    in
    check bool "verified" true o.B.Common.ok;
    Json.to_string
      (B.Common.metrics_snapshot ~spans B.Em3d.spec ~cfg ~scale:1024 o)
  in
  check string "em3d run-twice byte-identical" (snap ()) (snap ())

let test_cache_events_em3d () =
  (* em3d is an M+C benchmark: its cache sites exercise the caching layer,
     so hits and line fetches appear in the stream *)
  Site.reset ();
  let cfg = Config.make ~nprocs:2 () in
  let o, spans =
    Span.collect (fun () -> B.Em3d.spec.B.Common.run cfg ~scale:1024)
  in
  check bool "verified" true o.B.Common.ok;
  check bool "cache misses traced" true (count Span.Cache_miss spans > 0);
  check bool "cache hits traced" true (count Span.Cache_hit spans > 0);
  (* the cache layer stamps its events with the site the engine
     deposited *)
  check bool "cache hits carry their site" true
    (Array.for_all
       (fun (sp : Span.span) ->
         sp.Span.kind <> Span.Cache_hit || sp.Span.site >= 0)
       spans)

(* --- Exporters ------------------------------------------------------------ *)

let test_chrome_export () =
  let events = run_treeadd () in
  let j = Json.of_string (Span.chrome_to_string ~nprocs:2 events) in
  let te = Json.to_list (Option.get (Json.member "traceEvents" j)) in
  check bool "has events" true (List.length te > Array.length events);
  (* every record carries the required trace_event fields *)
  List.iter
    (fun e ->
      check bool "has ph" true (Json.member "ph" e <> None);
      check bool "has pid" true (Json.member "pid" e <> None))
    te;
  (* flow arrows pair up: every start has a finish *)
  let phs =
    List.filter_map (fun e -> Option.bind (Json.member "ph" e) Json.string_value) te
  in
  let n p = List.length (List.filter (String.equal p) phs) in
  check int "flow starts match finishes" (n "s") (n "f");
  (* flat events are instants, the causal spans complete slices *)
  let flat = Array.length (Span.flat events) in
  check int "one instant per flat event" flat (n "i");
  check int "one slice per causal span" (Array.length events - flat) (n "X")

let test_jsonl_export () =
  let events = run_treeadd () in
  let lines =
    String.split_on_char '\n' (String.trim (Span.jsonl events))
  in
  check int "a header, then one line per span" (Array.length events + 1)
    (List.length lines);
  check (Alcotest.option string) "v2 header" (Some "olden-spans/v2")
    (Option.bind (Json.member "schema" (Json.of_string (List.hd lines)))
       Json.string_value);
  List.iter
    (fun line ->
      let j = Json.of_string line in
      let has f = Json.member f j <> None in
      check bool "has kind/proc/t0/t1" true
        (has "kind" && has "proc" && has "t0" && has "t1");
      (* flat events carry their thread and site, causal spans a and b *)
      let flat = Json.member "id" j = Some (Json.Int (-1)) in
      check bool "stamps by kind" true
        (if flat then has "tid" && has "site" else has "a" && has "b"))
    (List.tl lines)

let test_recorder () =
  let events = run_treeadd () in
  let m = Recorder.of_spans events in
  let migrations = count Span.Migrate_arrive events in
  check int "one latency sample per completed migration" migrations
    (Metrics.observations (Metrics.histogram m "migration_latency_cycles"));
  check bool "per-kind counters populated" true
    (Metrics.count
       (Metrics.counter m "events" ~labels:[ ("kind", "migrate_send") ])
    > 0)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "csv field quoting" `Quick test_csv_field_quoting;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics quantiles" `Quick test_metrics_quantile;
    Alcotest.test_case "metrics windowed deltas" `Quick test_metrics_delta;
    Alcotest.test_case "treeadd stream shape" `Quick test_treeadd_stream;
    Alcotest.test_case "byte-stable stream" `Quick test_byte_stable;
    Alcotest.test_case "golden treeadd stream" `Quick test_golden;
    Alcotest.test_case "byte-stable metrics snapshot" `Quick
      test_metrics_snapshot_stable;
    Alcotest.test_case "em3d cache events" `Quick test_cache_events_em3d;
    Alcotest.test_case "em3d run-twice determinism" `Quick
      test_em3d_run_twice_deterministic;
    Alcotest.test_case "chrome exporter" `Quick test_chrome_export;
    Alcotest.test_case "jsonl exporter" `Quick test_jsonl_export;
    Alcotest.test_case "recorder metrics" `Quick test_recorder;
  ]
