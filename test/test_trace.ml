(* The tracing subsystem: JSON printing/parsing, the metrics registry,
   the emitter guard's zero-allocation property, exporter validity, and
   the golden treeadd event stream (byte-stable across runs and against
   the committed file). *)

open Olden
module B = Olden_benchmarks

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

(* --- The emit guard allocates nothing when tracing is off ----------------- *)

let test_disabled_no_alloc () =
  assert (not (Trace.is_on ()));
  let e = Trace.emitter () in
  let probe () =
    (* the pattern every emission site uses *)
    for i = 1 to 10_000 do
      if Trace.on e then
        Trace.emit e
          { Trace.time = i; proc = 0; tid = 0; site = 0; kind = Trace.Steal }
    done
  in
  probe ();
  (* warmed up *)
  let before = Gc.minor_words () in
  probe ();
  let words = Gc.minor_words () -. before in
  check bool "no allocation on the disabled path" true (words < 256.)

(* --- Collected benchmark runs --------------------------------------------- *)

(* A tiny deterministic treeadd: 2 processors, the minimum tree.  Sites
   are process-global, so reset ids first — repeated in-process runs then
   emit identical streams. *)
let run_treeadd () =
  Site.reset ();
  let cfg = Config.make ~nprocs:2 () in
  let o, events =
    Trace.collect (fun () ->
        B.Treeadd.spec.B.Common.run cfg ~scale:1_000_000)
  in
  check bool "verified" true o.B.Common.ok;
  events

let test_treeadd_stream () =
  let events = run_treeadd () in
  check bool "events emitted" true (Array.length events > 0);
  (* treeadd's heuristic picks migration everywhere, so the stream shows
     migrations and futures but no cache traffic *)
  let count p = Array.length (Array.of_seq (Seq.filter p (Array.to_seq events))) in
  check bool "migrations present" true
    (count (fun e -> match e.Trace.kind with
       | Trace.Migrate_send _ -> true | _ -> false) > 0);
  check bool "futures present" true
    (count (fun e -> match e.Trace.kind with
       | Trace.Future_spawn _ -> true | _ -> false) > 0);
  check int "spawns balance resolves"
    (count (fun e -> match e.Trace.kind with
       | Trace.Future_spawn _ -> true | _ -> false))
    (count (fun e -> match e.Trace.kind with
       | Trace.Future_resolve _ -> true | _ -> false));
  (* per-processor timestamps never run backwards *)
  let last = Hashtbl.create 4 in
  Array.iter
    (fun e ->
      let prev =
        Option.value ~default:min_int (Hashtbl.find_opt last e.Trace.proc)
      in
      check bool "clock monotone per processor" true (e.Trace.time >= prev);
      Hashtbl.replace last e.Trace.proc e.Trace.time)
    events

let test_byte_stable () =
  let a = Jsonl.to_string (run_treeadd ()) in
  let b = Jsonl.to_string (run_treeadd ()) in
  check string "two in-process runs render identically" a b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden () =
  let got = Jsonl.to_string (run_treeadd ()) in
  let want = read_file "golden/treeadd_p2_trace.jsonl" in
  check string "matches the committed golden stream" want got

let test_metrics_snapshot_stable () =
  (* the machine-readable run report is byte-stable: every JSON emitter
     renders keys in fixed construction order, so two identical runs
     serialize identically *)
  let snap () =
    Site.reset ();
    let cfg = Config.make ~nprocs:2 () in
    let o, events =
      Trace.collect (fun () ->
          B.Treeadd.spec.B.Common.run cfg ~scale:1_000_000)
    in
    check bool "verified" true o.B.Common.ok;
    Json.to_string
      (B.Common.metrics_snapshot ~events B.Treeadd.spec ~cfg ~scale:1_000_000
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
    let o, events =
      Trace.collect (fun () -> B.Em3d.spec.B.Common.run cfg ~scale:1024)
    in
    check bool "verified" true o.B.Common.ok;
    Json.to_string
      (B.Common.metrics_snapshot ~events B.Em3d.spec ~cfg ~scale:1024 o)
  in
  check string "em3d run-twice byte-identical" (snap ()) (snap ())

let test_cache_events_em3d () =
  (* em3d is an M+C benchmark: its cache sites exercise the caching layer,
     so hits and line fetches appear in the stream *)
  Site.reset ();
  let cfg = Config.make ~nprocs:2 () in
  let o, events =
    Trace.collect (fun () -> B.Em3d.spec.B.Common.run cfg ~scale:1024)
  in
  check bool "verified" true o.B.Common.ok;
  let has p = Array.exists p events in
  check bool "cache misses traced" true
    (has (fun e -> match e.Trace.kind with
       | Trace.Cache_miss _ -> true | _ -> false));
  check bool "cache hits traced" true
    (has (fun e -> match e.Trace.kind with
       | Trace.Cache_hit _ -> true | _ -> false))

(* --- Exporters ------------------------------------------------------------ *)

let test_chrome_export () =
  let events = run_treeadd () in
  let j = Json.of_string (Chrome_trace.to_string ~nprocs:2 events) in
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
  check int "flow starts match finishes" (n "s") (n "f")

let test_jsonl_export () =
  let events = run_treeadd () in
  let lines =
    String.split_on_char '\n' (String.trim (Jsonl.to_string events))
  in
  check int "one line per event" (Array.length events) (List.length lines);
  List.iter
    (fun line ->
      let j = Json.of_string line in
      check bool "has t/proc/ev" true
        (Json.member "t" j <> None
        && Json.member "proc" j <> None
        && Json.member "ev" j <> None))
    lines

let test_recorder () =
  let events = run_treeadd () in
  let m = Recorder.of_events events in
  let migrations =
    Array.length
      (Array.of_seq
         (Seq.filter
            (fun e ->
              match e.Trace.kind with
              | Trace.Migrate_arrive _ -> true
              | _ -> false)
            (Array.to_seq events)))
  in
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
    Alcotest.test_case "disabled emit allocates nothing" `Quick
      test_disabled_no_alloc;
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
