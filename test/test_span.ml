(* Span tracing: the golden 2-processor treeadd span tree (its causal
   spans as olden-spans/v1 and the whole stream as v2), byte
   determinism of the olden-spans/v2 export across all ten benchmarks,
   exemplar trace ids naming real completed episodes whose root duration
   is the recorded latency, the monitor's latency totals equal to the
   same totals recomputed from the collected spans, exact hop tiling of
   migration episodes from the root's entry, every fault counter
   recomputed from the fault spans, the flight-recorder dump on
   a forced deadlock, zero perturbation of the simulation whether
   tracing is on or off, and flat events that cost nothing unless the
   collector takes them. *)

open Olden
module B = Olden_benchmarks

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* Small scales so the whole suite stays fast (test_chaos's table). *)
let test_scale (s : B.Common.spec) =
  match s.B.Common.name with
  | "TreeAdd" -> 256
  | "Power" -> 8
  | "TSP" -> 32
  | "MST" -> 8
  | "Bisort" -> 128
  | "Voronoi" -> 64
  | "EM3D" -> 8
  | "Barnes-Hut" -> 16
  | "Perimeter" -> 16
  | "Health" -> 8
  | _ -> 16

let spec name =
  List.find (fun (s : B.Common.spec) -> s.B.Common.name = name)
    B.Registry.specs

(* One spanned run: fresh site registry so site ids are reproducible.
   The causal kinds by default: the checks below read the causal tree. *)
let spanned ?(kinds = Span.causal_kinds) ?faults ?replication ?(nprocs = 8)
    ?(coherence = Config.Local) (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs ~coherence ?faults ?replication () in
  let o, spans =
    Span.collect ~kinds (fun () -> s.B.Common.run cfg ~scale:(test_scale s))
  in
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  (o, spans)

(* --- Golden 2-processor treeadd span tree -------------------------------- *)

let run_treeadd () =
  Site.reset ();
  let cfg = Config.make ~nprocs:2 () in
  let o, spans =
    Span.collect (fun () ->
        B.Treeadd.spec.B.Common.run cfg ~scale:1_000_000)
  in
  check bool "verified" true o.B.Common.ok;
  spans

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The causal spans, projected onto olden-spans/v1, are the stream the v1
   golden was generated from. *)
let test_golden () =
  let got = Projection.spans_v1 (run_treeadd ()) in
  let want = read_file "golden/treeadd_p2_spans.jsonl" in
  check string "matches the committed golden span stream" want got

let test_golden_v2 () =
  let got = Span.jsonl (run_treeadd ()) in
  let want = read_file "golden/treeadd_p2_spans_v2.jsonl" in
  check string "matches the committed golden v2 stream" want got

let test_treeadd_stream () =
  let spans = run_treeadd () in
  check bool "spans emitted" true (Array.length spans > 0);
  let count p =
    Array.fold_left (fun n s -> if p s then n + 1 else n) 0 spans
  in
  (* treeadd migrates: its episodes carry the full hop chain *)
  check bool "migrate episodes present" true
    (count (fun (s : Span.span) ->
         s.Span.kind = Span.Deref && s.Span.b = 2) > 0);
  check bool "send hops present" true
    (count (fun s -> s.Span.kind = Span.Send) > 0);
  (* every non-root names a parent that exists, with the same trace id *)
  let by_id = Hashtbl.create 512 in
  Array.iter (fun (s : Span.span) -> Hashtbl.replace by_id s.Span.id s) spans;
  Array.iter
    (fun (s : Span.span) ->
      if s.Span.parent >= 0 then
        match Hashtbl.find_opt by_id s.Span.parent with
        | None -> Alcotest.failf "span %d: parent %d missing" s.Span.id s.Span.parent
        | Some p ->
            check bool "child shares its parent's trace id" true
              (p.Span.trace_proc = s.Span.trace_proc
              && p.Span.trace_seq = s.Span.trace_seq))
    spans

(* MST's accumulation phase sends return stubs home: their roots carry
   the same propagated hop chain as migrations. *)
let test_return_stub_roots () =
  let _, spans = spanned (spec "MST") in
  let returns =
    Array.to_list spans
    |> List.filter (fun (s : Span.span) -> s.Span.kind = Span.Return)
  in
  check bool "return-stub roots present" true (returns <> []);
  List.iter
    (fun (r : Span.span) ->
      check int "return roots have no parent" (-1) r.Span.parent;
      let kids =
        Array.to_list spans
        |> List.filter (fun (s : Span.span) -> s.Span.parent = r.Span.id)
      in
      check bool "return root carries its hop chain" true
        (List.exists (fun (s : Span.span) -> s.Span.kind = Span.Send) kids))
    returns

(* --- Determinism: same seed, byte-identical export ------------------------ *)

let test_run_twice_byte_identical () =
  List.iter
    (fun (s : B.Common.spec) ->
      let kinds = Span.causal_kinds @ Span.flat_kinds in
      let _, spans1 = spanned ~kinds s in
      let _, spans2 = spanned ~kinds s in
      check string
        (s.B.Common.name ^ " olden-spans/v2 byte-identical")
        (Span.jsonl spans1) (Span.jsonl spans2))
    B.Registry.specs

(* --- Exemplars name real episodes ----------------------------------------- *)

(* Run with the monitor and the span collector together (what olden-run
   explain does) and hand back both. *)
let monitored_spanned ?faults ?replication ?(nprocs = 8)
    ?(coherence = Config.Local) (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs ~coherence ?faults ?replication () in
  (B.Common.hooks ()).monitor_interval <- Some 10_000;
  let o, spans =
    Fun.protect
      ~finally:(fun () -> (B.Common.hooks ()).monitor_interval <- None)
      (fun () ->
        Span.collect (fun () -> s.B.Common.run cfg ~scale:(test_scale s)))
  in
  let m = Option.get (B.Common.hooks ()).last_monitor in
  (B.Common.hooks ()).last_monitor <- None;
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  (m, spans)

let root_of spans ~trace_proc ~trace_seq =
  Array.fold_left
    (fun acc (s : Span.span) ->
      if
        s.Span.parent = -1
        && s.Span.trace_proc = trace_proc
        && s.Span.trace_seq = trace_seq
      then Some s
      else acc)
    None spans

let check_exemplars name (m : Monitor.t) spans =
  let exemplars = Monitor.exemplars ~percentile:0.99 m in
  check bool (name ^ " retained exemplars") true (exemplars <> []);
  List.iter
    (fun (e : Monitor.exemplar) ->
      match
        root_of spans ~trace_proc:e.Monitor.ex_trace_proc
          ~trace_seq:e.Monitor.ex_trace_seq
      with
      | None ->
          Alcotest.failf "%s: exemplar trace %d:%d has no completed root"
            name e.Monitor.ex_trace_proc e.Monitor.ex_trace_seq
      | Some root ->
          check bool (name ^ " exemplar root is a dereference") true
            (root.Span.kind = Span.Deref);
          check int
            (name ^ " exemplar latency equals the root span duration")
            e.Monitor.ex_cycles
            (root.Span.t1 - root.Span.t0);
          check int
            (name ^ " exemplar mechanism matches the root")
            (Monitor.mech_index e.Monitor.ex_mech)
            root.Span.b)
    exemplars

let test_exemplars_real () =
  let m, spans =
    monitored_spanned ~faults:(Config.Faults.mixed ~seed:1 ()) (spec "EM3D")
  in
  check_exemplars "em3d/mix" m spans;
  let m, spans =
    monitored_spanned
      ~faults:(Config.Faults.crash_mix ~seed:2 ())
      ~coherence:Config.Global (spec "Health")
  in
  check_exemplars "health/crash-mix" m spans

(* --- The monitor's totals are the span stream's ---------------------------- *)

let mech_names = [| "local"; "cache"; "migrate"; "fallback" |]

(* (count, sum) per mechanism, episode kind, (site, mechanism) and
   request class, recomputed from the spans: dereferences are [Deref]
   roots; the migration leg is a [Recv] under a [Deref] root, from the
   root's entry; returns are [Return] roots; retry waits are [Backoff]
   waits; recovery stalls are [Crash] and [Failover] durations. *)
let span_totals spans =
  let by_id = Hashtbl.create 4096 in
  Array.iter (fun (s : Span.span) -> Hashtbl.replace by_id s.Span.id s) spans;
  let tbl = Hashtbl.create 64 in
  let add key v =
    let n, sum = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0) in
    Hashtbl.replace tbl key (n + 1, sum + v)
  in
  Array.iter
    (fun (s : Span.span) ->
      let dur = s.Span.t1 - s.Span.t0 in
      match s.Span.kind with
      | Span.Deref ->
          add ("deref " ^ mech_names.(s.Span.b)) dur;
          add (Printf.sprintf "site %d %s" s.Span.a mech_names.(s.Span.b)) dur
      | Span.Recv -> (
          match Hashtbl.find_opt by_id s.Span.parent with
          | Some (r : Span.span) when r.Span.kind = Span.Deref ->
              add "episode migration" (s.Span.t1 - r.Span.t0)
          | _ -> ())
      | Span.Return -> add "episode return" dur
      | Span.Backoff -> add "episode retry_wait" s.Span.b
      | Span.Crash | Span.Failover -> add "episode recovery_stall" dur
      | Span.Request -> add ("request " ^ Span.request_class_name s.Span.a) dur
      | _ -> ())
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let monitor_totals (m : Monitor.t) =
  let row prefix (k, (s : Monitor.summary)) =
    (prefix ^ k, (s.Monitor.count, s.Monitor.sum))
  in
  List.map (row "deref ") (Monitor.deref_summaries m)
  @ List.map (row "episode ") (Monitor.episode_summaries m)
  @ List.map (row "request ") (Monitor.request_summaries m)
  @ List.map
      (fun (sid, _, mech, s) -> row "site " (Printf.sprintf "%d %s" sid mech, s))
      (Monitor.site_summaries m)
  |> List.sort compare

let check_totals name m spans =
  check
    Alcotest.(list (pair string (pair int int)))
    (name ^ ": monitor totals = span totals")
    (span_totals spans) (monitor_totals m)

let test_totals () =
  let m, spans =
    monitored_spanned ~faults:(Config.Faults.mixed ~seed:1 ()) (spec "EM3D")
  in
  check_totals "em3d/mix" m spans;
  let m, spans =
    monitored_spanned
      ~faults:(Config.Faults.crash_mix ~seed:2 ())
      ~coherence:Config.Global (spec "Health")
  in
  check_totals "health/crash-mix" m spans;
  let m, spans = monitored_spanned (spec "Bisort") in
  check_totals "bisort/fault-free" m spans;
  let m, spans =
    monitored_spanned
      ~faults:(Config.Faults.failstop_mix ~seed:5 ())
      ~replication:Config.default_replica (spec "EM3D")
  in
  check_totals "em3d/failstop-mix" m spans

(* --- Hop accounting: the chain tiles the episode -------------------------- *)

let check_hop_tiling name spans =
  let checked = ref 0 in
  Array.iter
    (fun (root : Span.span) ->
      if root.Span.parent = -1 && root.Span.kind = Span.Deref && root.Span.b = 2
      then begin
        (* a migrated dereference: its direct hop children are contiguous
           and tile the episode exactly, from the root's entry to its
           end — the per-hop cycles the explain view prints sum to the
           episode latency, with no "(compute)" residual *)
        let hops =
          Array.to_list spans
          |> List.filter (fun (s : Span.span) ->
                 s.Span.parent = root.Span.id && Span.is_hop s.Span.kind)
          |> List.sort (fun (a : Span.span) b ->
                 compare (a.Span.t0, a.Span.id) (b.Span.t0, b.Span.id))
        in
        check bool (name ^ " migrate episode has hops") true (hops <> []);
        check int (name ^ " first hop starts at the root's t0") root.Span.t0
          (List.hd hops).Span.t0;
        let rec contiguous t = function
          | [] -> t
          | (h : Span.span) :: rest ->
              check int (name ^ " hops contiguous") t h.Span.t0;
              contiguous h.Span.t1 rest
        in
        let t_end = contiguous (List.hd hops).Span.t0 hops in
        check int (name ^ " last hop ends at the episode end") root.Span.t1
          t_end;
        let hop_sum =
          List.fold_left (fun a (h : Span.span) -> a + h.Span.t1 - h.Span.t0) 0 hops
        in
        check int (name ^ " hop cycles sum to the episode latency")
          (root.Span.t1 - root.Span.t0) hop_sum;
        incr checked
      end)
    spans;
  check bool (name ^ " saw migrated episodes") true (!checked > 0)

let test_hop_tiling () =
  let _, spans = spanned ~faults:(Config.Faults.mixed ~seed:1 ()) (spec "EM3D") in
  check_hop_tiling "em3d/mix" spans;
  (* crash stalls before a migration: the source-side replay hop *)
  let _, spans =
    spanned
      ~faults:(Config.Faults.crash_mix ~seed:2 ())
      ~coherence:Config.Global (spec "Health")
  in
  check_hop_tiling "health/crash-mix" spans

(* --- Fault census: every counted fault has its span ------------------------ *)

(* The spans are the only record of fault, fallback, crash and failover
   activity, so each Stats counter of that activity must be recomputable
   from them.  Background acknowledgement retransmissions of a thread
   transfer wait nothing, so they count a retry but emit no [Backoff]. *)
let check_fault_census name (st : Stats.t) spans =
  let count k =
    Array.fold_left
      (fun n (s : Span.span) -> if s.Span.kind = k then n + 1 else n)
      0 spans
  in
  let sum k f =
    Array.fold_left
      (fun n (s : Span.span) -> if s.Span.kind = k then n + f s else n)
      0 spans
  in
  let eq what want got = check int (name ^ ": " ^ what) want got in
  eq "Drop spans = msg_drops" st.Stats.msg_drops (count Span.Drop);
  eq "Delay spans = msg_delays" st.Stats.msg_delays (count Span.Delay);
  eq "Dup spans = duplicates_suppressed" st.Stats.duplicates_suppressed
    (count Span.Dup);
  eq "sum of Backoff waits = retry_cycles" st.Stats.retry_cycles
    (sum Span.Backoff (fun s -> s.Span.b));
  check bool (name ^ ": Backoff spans <= retries") true
    (count Span.Backoff <= st.Stats.retries);
  eq "Fallback spans = migration_fallbacks" st.Stats.migration_fallbacks
    (count Span.Fallback);
  eq "Crash spans = crashes" st.Stats.crashes (count Span.Crash);
  eq "sum of Crash pages = pages_lost_in_crash" st.Stats.pages_lost_in_crash
    (sum Span.Crash (fun s -> s.Span.a));
  eq "sum of Crash durations = recovery_stall_cycles"
    st.Stats.recovery_stall_cycles
    (sum Span.Crash (fun s -> s.Span.t1 - s.Span.t0));
  eq "Failover spans = failstops" st.Stats.failstops (count Span.Failover);
  eq "sum of Failover pages = pages_failed_over" st.Stats.pages_failed_over
    (sum Span.Failover (fun s -> s.Span.a))

let test_fault_census () =
  let schedules =
    [
      ("mix/local", Config.Faults.mixed ~seed:1 (), Config.Local, None);
      ( "flaky-home/global",
        Config.Faults.flaky_home ~seed:1 (),
        Config.Global,
        None );
      ( "crash-mix/bilateral",
        Config.Faults.crash_mix ~seed:1 (),
        Config.Bilateral,
        None );
      ( "failstop-mix/global",
        Config.Faults.failstop_mix ~seed:1 (),
        Config.Global,
        Some Config.default_replica );
    ]
  in
  (* every kind the census compares must actually occur somewhere *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (label, faults, coherence, replication) ->
      List.iter
        (fun (s : B.Common.spec) ->
          let o, spans = spanned ~faults ~coherence ?replication s in
          check_fault_census
            (s.B.Common.name ^ " " ^ label)
            o.B.Common.total_stats spans;
          Array.iter
            (fun (sp : Span.span) -> Hashtbl.replace seen sp.Span.kind ())
            spans)
        B.Registry.specs)
    schedules;
  List.iter
    (fun k ->
      check bool
        ("census saw " ^ Span.kind_name k ^ " spans")
        true (Hashtbl.mem seen k))
    Span.[ Drop; Delay; Dup; Backoff; Fallback; Crash; Failover ]

(* --- Flight recorder ------------------------------------------------------- *)

let test_flight_dump_on_deadlock () =
  let path = Filename.temp_file "olden_flight" ".dump" in
  Span.flight_set_path path;
  Span.flight_enable ();
  let site = Site.migrate "t.f" in
  let msg =
    Fun.protect
      ~finally:(fun () -> Span.flight_disable ())
      (fun () ->
        match
          let engine = Engine.create (Config.make ~nprocs:4 ()) in
          Engine.exec engine (fun () ->
              let r = ref None in
              let f =
                Ops.future (fun () ->
                    let a = Ops.alloc ~proc:1 2 in
                    Ops.store_int site a 0 1;
                    match !r with
                    | Some g -> Ops.touch g
                    | None -> Value.Int 0)
              in
              let g = Ops.future (fun () -> Ops.touch f) in
              r := Some g;
              ignore (Ops.touch f))
        with
        | exception Olden_runtime.Engine.Deadlock msg -> msg
        | () -> Alcotest.fail "expected a deadlock")
  in
  (* the enriched report: last span per parked processor + dump path *)
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  check bool "report names the last span per parked proc" true
    (contains msg "last span per parked proc");
  check bool "report names the dump file" true
    (contains msg ("flight recorder: " ^ path));
  let dump = read_file path in
  Sys.remove path;
  check bool "dump states the reason" true (contains dump "reason: deadlock");
  check bool "dump carries machine state" true (contains dump "machine state:");
  check bool "dump replays the last span events" true
    (contains dump "last events (oldest first):");
  check bool "dump shows dereference spans" true (contains dump "deref")

(* --- Off means off ---------------------------------------------------------- *)

let test_off_by_default () =
  check bool "no span sink installed" false (Span.is_on ());
  (* the hooks are no-ops rather than errors when nothing is installed *)
  let sp = Span.state () in
  Span.child sp ~kind:Span.Drop ~proc:0 ~t0:0 ~t1:0 ~a:0 ~b:0;
  Span.clear sp;
  check int "no ambient trace" (-1) (Span.trace_proc sp)

let test_span_neutral () =
  (* collecting spans must not perturb the simulation: identical result,
     cycles, and statistics with the collector on and off *)
  let s = spec "MST" in
  Site.reset ();
  let plain = s.B.Common.run (Config.make ~nprocs:8 ()) ~scale:(test_scale s) in
  let o, _ = spanned s in
  check string "checksum unchanged" plain.B.Common.checksum o.B.Common.checksum;
  check int "total cycles unchanged" plain.B.Common.total_cycles
    o.B.Common.total_cycles;
  check string "stats unchanged"
    (Json.to_string (Stats.to_json plain.B.Common.total_stats))
    (Json.to_string (Stats.to_json o.B.Common.total_stats))

(* A collector of the flat kinds alone leaves the causal tree off, and
   sees exactly the flat events of a collector of every kind. *)
let test_flat_collector () =
  let s = spec "EM3D" in
  let run kinds =
    Site.reset ();
    snd
      (Span.collect ?kinds (fun () ->
           if kinds <> None then
             check bool "causal tree off" false (Span.is_on ());
           s.B.Common.run (Config.make ~nprocs:8 ~coherence:Config.Bilateral ())
             ~scale:(test_scale s)))
  in
  let flat = run (Some Span.flat_kinds) in
  check bool "flat events only" true
    (Array.for_all (fun (sp : Span.span) -> Span.is_flat sp.Span.kind) flat);
  check string "the full stream's flat events"
    (Projection.trace_jsonl (run None))
    (Projection.trace_jsonl flat)

(* The guard of a flat event's site allocates nothing while no consumer
   takes the kind. *)
let test_disabled_no_alloc () =
  assert (not (Span.is_on ()));
  let sp = Span.state () in
  let probe () =
    (* the pattern every flat emission site uses *)
    for i = 1 to 10_000 do
      if Span.takes sp Span.Steal then
        Span.event sp ~kind:Span.Steal ~proc:0 ~time:i ~tid:0 ~site:0 ~a:0
          ~b:0 ~c:0
    done
  in
  probe ();
  (* warmed up *)
  let before = Gc.minor_words () in
  probe ();
  let words = Gc.minor_words () -. before in
  check bool "no allocation on the disabled path" true (words < 256.)

(* With only the monitor installed, and the flight recorder beside it as
   serving runs them, no consumer takes a flat kind: a remote cache hit
   records its dereference root and nothing else, and allocates
   nothing. *)
let test_monitor_cache_hit_silent () =
  let m =
    Monitor.create ~interval:max_int ~nprocs:2
      ~probe:
        {
          Monitor.stats = (fun () -> []);
          busy = (fun () -> Array.make 2 0);
          comm = (fun () -> Array.make 2 0);
          recovery_stall = (fun () -> Array.make 2 0);
        }
  in
  Monitor.install m;
  Span.flight_enable ();
  Fun.protect
    ~finally:(fun () ->
      Monitor.uninstall ();
      Span.flight_disable ())
    (fun () ->
      let sp = Span.state () in
      check bool "spans on" true (Span.on sp);
      check bool "cache hits not taken" false (Span.takes sp Span.Cache_hit);
      check bool "no flat kind taken" false (Span.flat_on sp);
      let site = Site.cache "span.monitor_hit" in
      let calls = 1000 in
      let recorded = ref 0 and words = ref nan in
      let report =
        Engine.run (Config.make ~nprocs:2 ()) (fun () ->
            let g = Ops.alloc ~proc:1 Geometry.words_per_page in
            Ops.store_int site g 0 3;
            ignore (Ops.load_int site g 0);
            let before = Olden_span.Flight.recorded () in
            let w = Gc.minor_words () in
            for _ = 1 to calls do
              ignore (Ops.load_int site g 0)
            done;
            words := Gc.minor_words () -. w;
            recorded := Olden_span.Flight.recorded () - before)
      in
      check int "every timed load hit" calls
        report.Engine.stats.Stats.cache_hits;
      check int "one dereference root per hit, nothing else" calls !recorded;
      check (Alcotest.float 0.) "no minor words" 0. !words)

(* --- Chrome export ---------------------------------------------------------- *)

let test_chrome_export () =
  let spans = run_treeadd () in
  let j = Json.of_string (Span.chrome_to_string ~nprocs:2 spans) in
  let events = Json.to_list (Option.get (Json.member "traceEvents" j)) in
  check bool "has events" true (events <> []);
  (* cross-processor episodes produce flow arrows in start/finish pairs *)
  let phase e =
    Option.get (Option.bind (Json.member "ph" e) Json.string_value)
  in
  let starts = List.length (List.filter (fun e -> phase e = "s") events) in
  let finishes = List.length (List.filter (fun e -> phase e = "f") events) in
  check bool "flow arrows present" true (starts > 0);
  check int "flow starts pair with finishes" starts finishes

let suite =
  [
    Alcotest.test_case "golden treeadd span stream" `Quick test_golden;
    Alcotest.test_case "golden treeadd v2 stream" `Quick test_golden_v2;
    Alcotest.test_case "treeadd span tree well-formed" `Quick
      test_treeadd_stream;
    Alcotest.test_case "return stubs open propagated roots" `Quick
      test_return_stub_roots;
    Alcotest.test_case "run-twice byte-identical export (all ten)" `Slow
      test_run_twice_byte_identical;
    Alcotest.test_case "exemplars name real episodes" `Quick
      test_exemplars_real;
    Alcotest.test_case "monitor totals equal the span stream's" `Quick
      test_totals;
    Alcotest.test_case "migration hops tile the episode" `Quick
      test_hop_tiling;
    Alcotest.test_case "fault spans account for every fault counter" `Quick
      test_fault_census;
    Alcotest.test_case "flight recorder dumps on deadlock" `Quick
      test_flight_dump_on_deadlock;
    Alcotest.test_case "off by default" `Quick test_off_by_default;
    Alcotest.test_case "span collection never perturbs the run" `Quick
      test_span_neutral;
    Alcotest.test_case "chrome export flow arrows" `Quick test_chrome_export;
    Alcotest.test_case "a flat collector sees the full stream's flat events"
      `Quick test_flat_collector;
    Alcotest.test_case "disabled emit allocates nothing" `Quick
      test_disabled_no_alloc;
    Alcotest.test_case "cache hit emits nothing with only the monitor" `Quick
      test_monitor_cache_hit_silent;
  ]
