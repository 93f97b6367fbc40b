(* Allocation budgets of the hooks on the dereference and migration path.

   Every hook a load, a store or a migration can run under the monitor,
   the flight recorder, a fault schedule or a releasing coherence scheme
   allocates nothing, and a migration round trip stays under a fixed
   word ceiling in each of two configurations, as do Barnes-Hut, TSP and
   Voronoi per simulated event (a futurecall's ceiling is in
   test_scheduler.ml).  The write log's sorted dirty-page array and
   the monitor's exemplar fast path are checked against the simple
   models they replaced. *)

open Olden
module C = Config
module G = Config.Geometry

let check = Alcotest.check
let bool = Alcotest.bool

(* Minor words allocated by [f ()], after one warm-up call. *)
let minor_words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let calls = 10_000

let zero name f =
  check (Alcotest.float 0.) (name ^ ": no minor words") 0. (minor_words f)

let crash_mix = C.Faults.crash_mix ~seed:42 ()

(* A monitor whose windows never close during a test. *)
let quiet_monitor () =
  Monitor.create ~interval:max_int ~nprocs:8
    ~probe:
      {
        Monitor.stats = (fun () -> []);
        busy = (fun () -> Array.make 8 0);
        comm = (fun () -> Array.make 8 0);
        recovery_stall = (fun () -> Array.make 8 0);
      }

let with_hooks ~monitor ~flight f =
  if monitor then Monitor.install (quiet_monitor ());
  if flight then Span.flight_enable ();
  Fun.protect f ~finally:(fun () ->
      if monitor then Monitor.uninstall ();
      if flight then Span.flight_disable ())

(* --- Zero-allocation hooks ------------------------------------------- *)

let test_observe () =
  let h = Metrics.histogram (Metrics.create ()) "x" in
  zero "Metrics.observe" (fun () ->
      for i = 1 to calls do
        Metrics.observe h ((i * 7919) land 0xfffff)
      done)

(* The monitor reads its histograms off the span stream, so its hooks
   are the span emissions: dereference roots (whose rising latencies
   displace a held exemplar at every call once the warm-up call has
   filled the slots), migration legs and retry backoffs under an open
   root, and request roots — with the span collector off, the flight
   recorder off and on. *)
let test_monitor_hooks () =
  List.iter
    (fun flight ->
      let mode = if flight then "flight recorder on" else "flight recorder off" in
      let m = quiet_monitor () in
      Monitor.install m;
      if flight then Span.flight_enable ();
      Fun.protect
        ~finally:(fun () ->
          Monitor.uninstall ();
          if flight then Span.flight_disable ())
        (fun () ->
          let sp = Span.state () in
          Span.reset sp;
          let base = ref 0 in
          zero ("Deref roots, " ^ mode) (fun () ->
              for i = 1 to calls do
                Span.open_root sp ~kind:Span.Deref ~proc:(i land 7) ~t0:0;
                Span.close_root sp ~t1:(i land 1023) ~a:(i land 15) ~b:1;
                Span.open_root sp ~kind:Span.Deref ~proc:(i land 7) ~t0:0;
                Span.close_root sp ~t1:(!base + i) ~a:(i land 15) ~b:2
              done;
              base := !base + calls);
          zero ("Recv and Backoff under a root, " ^ mode) (fun () ->
              Span.open_root sp ~kind:Span.Deref ~proc:0 ~t0:0;
              for i = 1 to calls do
                Span.child sp ~kind:Span.Recv ~proc:1 ~t0:i ~t1:(i + 5) ~a:0
                  ~b:0;
                Span.child sp ~kind:Span.Backoff ~proc:1 ~t0:i ~t1:(2 * i) ~a:1
                  ~b:i
              done;
              Span.clear sp);
          zero ("Request roots, " ^ mode) (fun () ->
              for i = 1 to calls do
                Span.root sp ~kind:Span.Request ~proc:(i land 7) ~t0:0 ~t1:i
                  ~a:(i mod 3) ~b:0
              done));
      (* each zero check runs its body twice: the warm-up and the count *)
      let count name rows =
        match List.assoc_opt name rows with
        | Some (s : Monitor.summary) -> s.Monitor.count
        | None -> 0
      in
      check Alcotest.int ("migrate derefs recorded, " ^ mode) (2 * calls)
        (count "migrate" (Monitor.deref_summaries m));
      check Alcotest.int ("migration legs recorded, " ^ mode) (2 * calls)
        (count "migration" (Monitor.episode_summaries m));
      check Alcotest.int ("retry waits recorded, " ^ mode) (2 * calls)
        (count "retry_wait" (Monitor.episode_summaries m));
      check Alcotest.int ("requests recorded, " ^ mode) (2 * calls)
        (List.fold_left
           (fun n (_, (s : Monitor.summary)) -> n + s.Monitor.count)
           0 (Monitor.request_summaries m)))
    [ false; true ]

(* The crash check at every operation boundary, across fresh crash
   windows, under a schedule whose crashes are vanishingly rare. *)
let test_maybe_crash () =
  let cfg =
    C.make ~nprocs:8 ~faults:(C.Faults.crash_mix ~p:1e-12 ~seed:42 ()) ()
  in
  let engine = Engine.create cfg in
  let machine = Engine.machine engine in
  let r = Option.get (Engine.recovery engine) in
  let log = Write_log.create () in
  zero "Recovery.maybe_crash" (fun () ->
      for i = 1 to calls do
        Machine.advance machine (i land 7) 1000;
        ignore (Sys.opaque_identity (Recovery.maybe_crash r ~proc:(i land 7) ~log))
      done);
  check Alcotest.int "no crash fired" 0 (Recovery.total_crashes r)

(* A release with a clean log and with one dirty page whose lines other
   processors cache (global: every sharer is invalidated; bilateral: the
   home is stamped). *)
let test_release coherence name =
  let cfg = C.make ~nprocs:8 ~coherence () in
  let machine = Machine.create cfg in
  let mem = Memory.create ~nprocs:8 in
  let cs = Cache_system.create cfg machine mem in
  let region = Memory.alloc mem ~proc:1 G.words_per_page in
  let gpage = Gptr.global_page region in
  let log = Write_log.create () in
  zero (name ^ " release, clean log") (fun () ->
      for _ = 1 to calls do
        Cache_system.on_migration_sent cs ~proc:0 ~log
      done);
  for p = 2 to 5 do
    ignore (Cache_system.read cs ~proc:p region ~field:0)
  done;
  let stats = Machine.stats machine in
  let sent = stats.Stats.invalidation_messages in
  zero (name ^ " release, one dirty page") (fun () ->
      for i = 1 to calls do
        Write_log.record log ~gpage ~line:(i land 7) ~home:1;
        Cache_system.on_migration_sent cs ~proc:0 ~log
      done);
  (* global: one per sharer (processors 2 to 5); bilateral: one to the
     home *)
  let per_release = if coherence = C.Global then 4 else 1 in
  check Alcotest.int (name ^ ": invalidations sent")
    (2 * calls * per_release)
    (stats.Stats.invalidation_messages - sent)

let test_release_global () = test_release C.Global "global"
let test_release_bilateral () = test_release C.Bilateral "bilateral"

let test_request_reply () =
  let machine = Machine.create (C.make ~nprocs:8 ~faults:crash_mix ()) in
  with_hooks ~monitor:false ~flight:true (fun () ->
      zero "request_reply with spans on" (fun () ->
          for i = 1 to calls do
            ignore
              (Sys.opaque_identity
                 (Machine.request_reply machine ~src:0 ~dst:(1 + (i land 3))
                    ~service:20))
          done));
  check bool "faults hit the round trips" true
    ((Machine.stats machine).Stats.retries > 0)

let test_thread_delivery () =
  let machine = Machine.create (C.make ~nprocs:8 ~faults:crash_mix ()) in
  let late = ref 0 in
  zero "thread_delivery" (fun () ->
      for i = 1 to calls do
        let penalty =
          Machine.thread_delivery machine ~dst:(i land 7)
            ~klass:Fault_plan.Migration ~send_time:(i * 100)
            ~give_up_after:None
        in
        if penalty > 0 then incr late
      done);
  check bool "some transfers arrived late" true (!late > 0)

(* A translation that misses the one-entry memo and finds its page
   further in: the probe loop captures nothing, so the miss allocates no
   closure. *)
let test_probe_memo_miss () =
  let tbl = Translation.create () in
  let pages = Array.init 8 (fun i -> Gptr.page_id ~home:1 ~page_index:i) in
  Array.iter
    (fun gpage ->
      ignore
        (Translation.insert tbl ~gpage ~home:1
           ~page_index:(Gptr.page_index gpage)))
    pages;
  let found = ref 0 in
  zero "Translation.probe missing the memo" (fun () ->
      for i = 1 to calls do
        (* consecutive probes name different pages: every one misses *)
        if Translation.probe tbl pages.(i land 7) != Translation.no_entry then
          incr found
      done);
  check Alcotest.int "every probe found its live entry" (2 * calls) !found

(* --- Ceilings inside an engine ---------------------------------------- *)

(* Remote cache hits through [Ops.load_int] at a cache site on processor
   0, alternating between two pages homed on processor 1, so each read
   also misses the translation memo. *)
let test_remote_hit () =
  let site = Site.cache "alloc.remote_hit" in
  let words = ref nan in
  let report =
    Engine.run (C.make ~nprocs:2 ()) (fun () ->
        let g = Ops.alloc ~proc:1 (2 * G.words_per_page) in
        let field i = if i land 1 = 0 then 0 else G.words_per_page in
        Ops.store_int site g (field 0) 3;
        Ops.store_int site g (field 1) 4;
        let sum = ref 0 in
        words :=
          minor_words (fun () ->
              for i = 1 to calls do
                sum := !sum + Ops.load_int site g (field i)
              done);
        check Alcotest.int "loads read the stored words" (7 * calls) !sum)
  in
  check (Alcotest.float 0.) "Ops.load_int, remote cache hit: no minor words"
    0. !words;
  let s = report.Engine.stats in
  check Alcotest.int "two line fills" 2 s.Stats.cache_misses;
  check Alcotest.int "every other read hit" ((2 * calls) - 2) s.Stats.cache_hits

let ceiling name ~limit words =
  check bool
    (Printf.sprintf "%s allocates at most %.0f words (got %.1f)" name limit
       words)
    true (words <= limit)

(* The typed operations on each path that completes without migrating:
   the sequential baseline, a migrate site and a cache site whose word
   is local, and a remote cache hit.  Each word is stored and loaded as
   its own kind, so a load hands back the slot (an [Int] or [Ptr]
   immediate, or the float's stored box) and a store writes one; only
   [store_float] may box its argument. *)
let typed_paths =
  let local = C.make ~nprocs:2 () in
  [
    ("sequential", C.sequential_of local, Site.migrate "alloc.seq", 0);
    ("migrate site, local word", local, Site.migrate "alloc.mig_local", 0);
    ("cache site, local word", local, Site.cache "alloc.cache_local", 0);
    ("remote cache hit", local, Site.cache "alloc.cache_remote", 1);
  ]

let test_typed_ops () =
  List.iter
    (fun (path, cfg, site, home) ->
      let pinned = ref [] in
      let measure name f = pinned := (name, minor_words f) :: !pinned in
      ignore
        (Engine.run cfg (fun () ->
             let g = Ops.alloc ~proc:home 3 in
             let p = Ops.alloc ~proc:0 1 in
             Ops.store_int site g 0 5;
             Ops.store_ptr site g 1 p;
             Ops.store_float site g 2 0.5;
             (* warm the line: on the remote path every loop below hits *)
             ignore (Ops.load_int site g 0);
             let sum = ref 0 and ptrs = ref 0 and acc = [| 0. |] in
             measure "Ops.load_int" (fun () ->
                 for _ = 1 to calls do
                   sum := !sum + Ops.load_int site g 0
                 done);
             measure "Ops.load_ptr" (fun () ->
                 for _ = 1 to calls do
                   if Gptr.equal (Ops.load_ptr site g 1) p then incr ptrs
                 done);
             measure "Ops.load_float" (fun () ->
                 for _ = 1 to calls do
                   acc.(0) <- acc.(0) +. Ops.load_float site g 2
                 done);
             measure "Ops.store_int" (fun () ->
                 for i = 1 to calls do
                   Ops.store_int site g 0 i
                 done);
             measure "Ops.store_ptr" (fun () ->
                 for _ = 1 to calls do
                   Ops.store_ptr site g 1 p
                 done);
             measure "Ops.store_float" (fun () ->
                 for i = 1 to calls do
                   Ops.store_float site g 2 (float_of_int i)
                 done);
             check Alcotest.int (path ^ ": ints read back") (10 * calls) !sum;
             check Alcotest.int (path ^ ": pointers read back") (2 * calls)
               !ptrs;
             check (Alcotest.float 0.) (path ^ ": floats read back")
               (float_of_int calls) acc.(0);
             check Alcotest.int (path ^ ": last float stored")
               calls (int_of_float (Ops.load_float site g 2))));
      List.iter
        (fun (name, words) ->
          let per_call = words /. float_of_int calls in
          if name = "Ops.store_float" then
            ceiling (Printf.sprintf "%s, %s, per call" name path) ~limit:2.
              per_call
          else
            check (Alcotest.float 0.)
              (Printf.sprintf "%s, %s: no minor words" name path) 0. words)
        !pinned)
    typed_paths

(* [Ops.call] around a load through a migrate site homed on processor 1:
   a migration there and a return stub back, per call; then plain loads
   of processor 0's own memory through a migrate site. *)
let round_trip cfg =
  let rt = Site.migrate "alloc.round_trip" in
  let local = Site.migrate "alloc.local" in
  let trip = ref 0. and load = ref 0. in
  let report =
    Engine.run cfg (fun () ->
        let remote = Ops.alloc ~proc:1 4 in
        let own = Ops.alloc ~proc:0 4 in
        let f () = Ops.load rt remote 0 in
        trip :=
          minor_words (fun () ->
              for _ = 1 to calls do
                ignore (Sys.opaque_identity (Ops.call f))
              done);
        load :=
          minor_words (fun () ->
              for _ = 1 to calls do
                ignore (Sys.opaque_identity (Ops.load local own 0))
              done))
  in
  check Alcotest.int "every call migrated" (2 * calls)
    report.Engine.stats.Stats.migrations;
  (!trip /. float_of_int calls, !load /. float_of_int calls)

let test_round_trip_plain () =
  let trip, load = round_trip (C.make ~nprocs:8 ()) in
  ceiling "round trip, no hooks" ~limit:60. trip;
  ceiling "local migrate-site load, no hooks" ~limit:0. load

(* The serving workload's configuration: crashes and message faults,
   bilateral coherence, the monitor and the flight recorder. *)
let test_round_trip_serving () =
  let cfg = C.make ~nprocs:8 ~coherence:C.Bilateral ~faults:crash_mix () in
  let trip, load =
    with_hooks ~monitor:true ~flight:true (fun () -> round_trip cfg)
  in
  ceiling "round trip, serving configuration" ~limit:100. trip;
  ceiling "local migrate-site load, serving configuration" ~limit:0. load

(* --- Differentials against the replaced structures -------------------- *)

module IntMap = Map.Make (Int)

(* Random write and release sequences over up to 40 pages (so the
   dirty-page array grows past its first 8 pairs and inserts shift
   entries), against a map from page to line mask. *)
type log_op = Record of int * int * int | Clear

let gen_log_ops =
  QCheck.Gen.(
    list_size (int_range 1 300)
      (frequency
         [
           ( 20,
             map3
               (fun page line home -> Record (page, line, home))
               (int_range 0 39) (int_range 0 7) (int_range 0 15) );
           (1, return Clear);
         ]))

let print_log_op = function
  | Record (p, l, h) -> Printf.sprintf "record %d/%d@%d" p l h
  | Clear -> "clear"

let write_log_agrees ops =
  let log = Write_log.create () in
  let model = ref IntMap.empty and written = ref 0 in
  let agree () =
    let pages = IntMap.bindings !model in
    Write_log.dirty_pages log = pages
    && Write_log.dirty_count log = List.length pages
    && List.for_all2
         (fun i (p, m) -> Write_log.dirty_page log i = p && Write_log.dirty_mask log i = m)
         (List.init (List.length pages) Fun.id)
         pages
    && Write_log.line_count log
       = List.fold_left (fun n (_, m) -> n + C.popcount m) 0 pages
    && Write_log.is_empty log = (pages = [])
    && Write_log.written_mask log = !written
  in
  List.for_all
    (fun op ->
      (match op with
      | Record (page, line, home) ->
          (* page ids spread over homes, as global page ids are *)
          let gpage = Gptr.page_id ~home:(page mod 5) ~page_index:(page * 37) in
          Write_log.record log ~gpage ~line ~home;
          model :=
            IntMap.update gpage
              (fun m -> Some (Option.value m ~default:0 lor (1 lsl line)))
              !model;
          written := !written lor (1 lsl home)
      | Clear ->
          Write_log.clear_dirty log;
          model := IntMap.empty);
      agree ())
    ops

let prop_write_log =
  QCheck.Test.make ~name:"write log = page map over record/clear sequences"
    ~count:300
    (QCheck.make ~print:(QCheck.Print.list print_log_op) gen_log_ops)
    write_log_agrees

(* The exemplar table as it was kept before the cached minimum slot: when
   full, scan all 16 slots for the first smallest and displace it if the
   new episode is strictly worse. *)
module Scan_exemplars = struct
  let slots = 16

  type t = { mutable n : int; cy : int array; tp : int array; ts : int array }

  let create () =
    { n = 0; cy = Array.make slots 0; tp = Array.make slots 0; ts = Array.make slots 0 }

  let note t ~cycles ~tp ~ts =
    if t.n < slots then begin
      t.cy.(t.n) <- cycles;
      t.tp.(t.n) <- tp;
      t.ts.(t.n) <- ts;
      t.n <- t.n + 1
    end
    else begin
      let worst = ref 0 in
      for i = 1 to t.n - 1 do
        if t.cy.(i) < t.cy.(!worst) then worst := i
      done;
      if cycles > t.cy.(!worst) then begin
        t.cy.(!worst) <- cycles;
        t.tp.(!worst) <- tp;
        t.ts.(!worst) <- ts
      end
    end

  let held t = Array.init t.n (fun i -> (t.cy.(i), t.tp.(i), t.ts.(i)))
end

(* Latencies from a small range, so ties among held exemplars and with
   the newcomer are common. *)
let exemplars_agree episodes =
  let m = quiet_monitor () in
  Monitor.install m;
  Fun.protect ~finally:Monitor.uninstall (fun () ->
      let sp = Span.state () in
      Span.reset sp;
      let reference = Scan_exemplars.create () in
      List.for_all
        (fun (proc, cycles) ->
          Span.open_root sp ~kind:Span.Deref ~proc ~t0:0;
          let tp = Span.trace_proc sp and ts = Span.trace_seq sp in
          Span.close_root sp ~t1:cycles ~a:(-1) ~b:2 (* mech code: migrate *);
          Scan_exemplars.note reference ~cycles ~tp ~ts;
          Monitor.held_exemplars m Monitor.Migrate
          = Scan_exemplars.held reference)
        episodes)

let prop_exemplars =
  QCheck.Test.make ~name:"exemplar slots = the 16-slot scan, ties included"
    ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 200) (pair (int_range 0 7) (int_range 0 40)))
    exemplars_agree

(* --- Kernel host code ----------------------------------------------- *)

(* Minor words per simulated event of a whole benchmark run at 8
   processors, its verification against the sequential reference
   included: the kernels' own host code builds no tuple, option, list
   node or closure per visit, edge operation or insertion, so what is
   left is mostly the runtime's.  Each ceiling is the measured value
   plus about 10%; the tuple-returning kernels measured 7.8, 54 and
   5.1. *)
let test_kernel_words (spec : Olden_benchmarks.Common.spec) ~scale ~ceiling () =
  let module B = Olden_benchmarks in
  let cfg = C.make ~nprocs:8 () in
  let outcome = ref None in
  let words =
    minor_words (fun () -> outcome := Some (spec.B.Common.run cfg ~scale))
  in
  let o = Option.get !outcome in
  check bool "verified" true o.B.Common.ok;
  let per_event =
    words /. float_of_int (B.Hostperf.events_of o.B.Common.total_stats)
  in
  check bool
    (Printf.sprintf "%s: %.3f minor words per event, ceiling %.1f"
       spec.B.Common.name per_event ceiling)
    true (per_event <= ceiling)

let suite =
  [
    Alcotest.test_case "Metrics.observe allocates nothing" `Quick test_observe;
    Alcotest.test_case "monitor hooks allocate nothing, flight recorder on/off"
      `Quick test_monitor_hooks;
    Alcotest.test_case "maybe_crash with no crash due allocates nothing" `Quick
      test_maybe_crash;
    Alcotest.test_case "global release allocates nothing" `Quick
      test_release_global;
    Alcotest.test_case "bilateral release allocates nothing" `Quick
      test_release_bilateral;
    Alcotest.test_case "request_reply with spans under faults allocates nothing"
      `Quick test_request_reply;
    Alcotest.test_case "thread_delivery under faults allocates nothing" `Quick
      test_thread_delivery;
    Alcotest.test_case "round trip within 60 words, local load 0" `Quick
      test_round_trip_plain;
    Alcotest.test_case "serving configuration: round trip within 100 words, local load 0"
      `Quick test_round_trip_serving;
    QCheck_alcotest.to_alcotest prop_write_log;
    QCheck_alcotest.to_alcotest prop_exemplars;
    Alcotest.test_case "Barnes-Hut within 1.8 words per event" `Quick
      (test_kernel_words Olden_benchmarks.Barneshut.spec ~scale:16 ~ceiling:1.8);
    Alcotest.test_case "TSP within 3.2 words per event" `Quick
      (test_kernel_words Olden_benchmarks.Tsp.spec ~scale:32 ~ceiling:3.2);
    Alcotest.test_case "Voronoi within 0.9 words per event" `Quick
      (test_kernel_words Olden_benchmarks.Voronoi.spec ~scale:64 ~ceiling:0.9);
    Alcotest.test_case "translation probe missing the memo allocates nothing"
      `Quick test_probe_memo_miss;
    Alcotest.test_case "remote cache hit through Ops.load_int allocates nothing"
      `Quick test_remote_hit;
    Alcotest.test_case
      "typed loads and stores allocate nothing, store_float at most 2 words"
      `Quick test_typed_ops;
  ]
