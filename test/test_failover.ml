(* Fail-stop failover: seeded death schedules replay bit-for-bit, a
   zero-probability schedule is
   exactly no faults, dying runs stay coherent under all three schemes
   (invariant checker, checksum, heap digest), forced deaths at the
   nastiest boundaries — state in flight to the victim, chained deaths
   of successors — neither wedge the run nor lose a store, unreplicated
   resident threads abort with a deterministic report, the retry-wait
   backoff can never overflow, undeliverable messages render the same
   one-liner everywhere, and the CLI's failover/recovery reports are
   archivable JSON. *)

open Olden
module B = Olden_benchmarks
module Check = Olden_check.Invariants

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool
let int = Alcotest.int

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

let snapshot (s : B.Common.spec) cfg ~scale =
  Site.reset ();
  let o, spans =
    Span.collect ~kinds:Span.flat_kinds (fun () -> s.B.Common.run cfg ~scale)
  in
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  (o, Json.to_string (B.Common.metrics_snapshot ~spans s ~cfg ~scale o))

let violations_string vs =
  String.concat "; "
    (List.map (fun v -> Format.asprintf "%a" Check.pp_violation v) vs)

let contains hay sub =
  let n = String.length sub and len = String.length hay in
  let rec at i = i + n <= len && (String.sub hay i n = sub || at (i + 1)) in
  at 0

(* --- Zero-probability deaths are exactly no faults ----------------------- *)

let test_zero_prob_failstop_equivalent () =
  (* a schedule whose only knob is failstop, set to zero, must take the
     same branches, charge the same cycles, and consume no PRNG state —
     and without replication configured the home-map indirection is the
     identity: the metrics snapshots are byte-identical to a fault-free
     run *)
  List.iter
    (fun (s : B.Common.spec) ->
      let scale = test_scale s in
      let _, off = snapshot s (Config.make ~nprocs:8 ()) ~scale in
      let _, zero =
        snapshot s
          (Config.make ~nprocs:8
             ~faults:(Config.Faults.failstop ~p:0.0 ~seed:3 ())
             ())
          ~scale
      in
      check string
        (s.B.Common.name ^ ": zero-probability failstop = faults off")
        off zero)
    [ B.Treeadd.spec; B.Em3d.spec; B.Health.spec ]

(* --- Determinism under deaths -------------------------------------------- *)

let test_failstop_determinism () =
  (* same workload + same death schedule => byte-identical snapshots
     across two runs, for every Table 2 benchmark; failstop-mix layers
     the message faults on top so the streams must stay independent *)
  List.iter
    (fun (s : B.Common.spec) ->
      let scale = test_scale s in
      let faults = Config.Faults.failstop_mix ~seed:5 () in
      let cfg () =
        Config.make ~nprocs:8 ~faults ~replication:Config.default_replica ()
      in
      let _, first = snapshot s (cfg ()) ~scale in
      let _, second = snapshot s (cfg ()) ~scale in
      check string (s.B.Common.name ^ ": failstop run-twice") first second)
    B.Registry.specs

let test_failstop_second_seed () =
  (* a second death schedule: failovers rewrite the victim's queues and
     re-key the scheduler mid-run, and the result must still replay *)
  List.iter
    (fun (s : B.Common.spec) ->
      let scale = test_scale s in
      let faults = Config.Faults.failstop_mix ~seed:2 () in
      let snap () =
        snd
          (snapshot s
             (Config.make ~nprocs:8 ~faults
                ~replication:Config.default_replica ())
             ~scale)
      in
      check string (s.B.Common.name ^ ": run-twice") (snap ()) (snap ()))
    [ B.Treeadd.spec; B.Em3d.spec ]

(* --- Chaos under deaths: invariants, checksum, heap ---------------------- *)

let run_checked (s : B.Common.spec) cfg ~scale ~inspect =
  (B.Common.hooks ()).inspect_engine <- Some inspect;
  Fun.protect
    ~finally:(fun () -> (B.Common.hooks ()).inspect_engine <- None)
    (fun () ->
      Site.reset ();
      s.B.Common.run cfg ~scale)

let test_failstop_clean (s : B.Common.spec) () =
  let scale = test_scale s in
  List.iter
    (fun coherence ->
      let ref_digest = ref "" in
      let ref_o =
        run_checked s
          (Config.make ~nprocs:8 ~coherence ())
          ~scale
          ~inspect:(fun e -> ref_digest := Check.heap_digest e)
      in
      check bool "fault-free verified" true ref_o.B.Common.ok;
      List.iter
        (fun sched ->
          List.iter
            (fun seed ->
              let faults = Option.get (Config.Faults.by_name sched ~seed) in
              let violations = ref [] in
              let died = ref 0 in
              let o =
                run_checked s
                  (Config.make ~nprocs:8 ~coherence ~faults
                     ~replication:Config.default_replica ())
                  ~scale
                  ~inspect:(fun e ->
                    (match Engine.failover e with
                    | Some fo -> died := Failover.failstops fo
                    | None -> ());
                    let expected_heap =
                      if s.B.Common.heap_stable then Some !ref_digest
                      else None
                    in
                    violations := Check.check ?expected_heap e)
              in
              let tag fmt =
                Printf.ksprintf
                  (fun m ->
                    Printf.sprintf "%s %s %s seed=%d: %s" s.B.Common.name
                      (Config.coherence_to_string coherence)
                      sched seed m)
                  fmt
              in
              check bool (tag "verified") true o.B.Common.ok;
              check string (tag "checksum") ref_o.B.Common.checksum
                o.B.Common.checksum;
              check string (tag "invariants") ""
                (violations_string !violations);
              check int (tag "stats agree with the failover ledger")
                o.B.Common.total_stats.Stats.failstops !died)
            [ 1; 2 ])
        [ "failstop"; "failstop-mix" ])
    [ Config.Local; Config.Global; Config.Bilateral ]

(* --- Forced deaths at the nastiest boundaries ---------------------------- *)

(* A fault schedule with every probability at zero still activates the
   failover layer, so [Failover.schedule_failstop] is the only death
   source: the tests below place deaths exactly where they hurt. *)
let armed = { Config.no_faults with Config.fault_seed = 1 }

let test_failstop_with_state_in_flight () =
  (* the victim dies at the instant a migrated thread arrives: the event
     re-homes to the promoted successor, the interrupted store applies
     exactly once against the replicated pages, and later dereferences
     resolve through the rewritten home map *)
  Site.reset ();
  let cfg =
    Config.make ~nprocs:4 ~coherence:Config.Global ~faults:armed
      ~replication:Config.default_replica ()
  in
  let engine = Engine.create cfg in
  let fo = Option.get (Engine.failover engine) in
  Failover.schedule_failstop fo ~proc:1 ~at:0;
  let mig = Site.migrate "failover.t->mig" in
  let got = ref 0 in
  Engine.exec engine (fun () ->
      let a = Ops.alloc ~proc:1 2 in
      Ops.store_int mig a 0 41;
      let v = Ops.load_int mig a 0 in
      Ops.store_int mig a 0 (v + 1);
      got := Ops.load_int mig a 0);
  check int "store applied exactly once across the death" 42 !got;
  check int "one processor died" 1 (Failover.failstops fo);
  check int "the stride-1 backup was promoted" 2
    (Failover.successor_of fo ~proc:1);
  check int "the home map resolves the victim to its successor" 2
    (Machine.home_of (Engine.machine engine) 1);
  check bool "the death time was recorded" true
    (Failover.died_at fo ~proc:1 >= 0);
  check string "invariants" "" (violations_string (Check.check engine))

let test_chained_failstops () =
  (* the promoted successor itself dies: the victim's pages must fail
     over a second time, and the home map must resolve the original
     owner through the whole chain *)
  Site.reset ();
  let cfg =
    Config.make ~nprocs:4 ~coherence:Config.Global ~faults:armed
      ~replication:Config.default_replica ()
  in
  let engine = Engine.create cfg in
  let fo = Option.get (Engine.failover engine) in
  Failover.schedule_failstop fo ~proc:1 ~at:0;
  Failover.schedule_failstop fo ~proc:2 ~at:0;
  let mig = Site.migrate "failover.t->chain" in
  let got = ref 0 in
  Engine.exec engine (fun () ->
      let a = Ops.alloc ~proc:1 2 in
      Ops.store_int mig a 0 6;
      let v = Ops.load_int mig a 0 in
      Ops.store_int mig a 1 (v * 7);
      got := Ops.load_int mig a 1);
  check int "stores applied exactly once across both deaths" 42 !got;
  check int "both deaths fired" 2 (Failover.failstops fo);
  let resolved = Machine.home_of (Engine.machine engine) 1 in
  check bool "the original owner resolves to a live processor" true
    (not (Machine.is_dead (Engine.machine engine) resolved));
  check string "invariants" "" (violations_string (Check.check engine))

let test_unreplicated_threads_abort () =
  (* with [replica_spec.threads = false] a victim holding resident work
     cannot hand it to the successor: the run must abort with the
     deterministic Threads_lost report, not wedge or silently drop *)
  Site.reset ();
  let cfg =
    Config.make ~nprocs:4 ~coherence:Config.Global ~faults:armed
      ~replication:{ Config.stride = 1; threads = false }
      ()
  in
  let engine = Engine.create cfg in
  let fo = Option.get (Engine.failover engine) in
  Failover.schedule_failstop fo ~proc:1 ~at:0;
  let mig = Site.migrate "failover.t->lost" in
  (match
     Engine.exec engine (fun () ->
         let a = Ops.alloc ~proc:1 2 in
         Ops.store_int mig a 0 41;
         ignore (Ops.load_int mig a 0))
   with
  | () -> Alcotest.fail "expected Threads_lost"
  | exception Engine.Threads_lost msg ->
      check bool
        (Printf.sprintf "report names the victim (got %S)" msg)
        true
        (contains msg "p1 fail-stopped");
      check bool "report counts the resident task" true
        (contains msg "1 unreplicated resident task"));
  let s = Machine.stats (Engine.machine engine) in
  check int "the loss is counted" 1 s.Stats.threads_lost;
  check int "the death still went through the protocol" 1
    (Failover.failstops fo)

let test_replica_traffic_flows () =
  (* with replication on and no deaths, every write-through store at a
     home page is mirrored: replica traffic shows up in the stats (and
     in the message class breakdown), and the failover report is empty *)
  Site.reset ();
  let s = B.Treeadd.spec in
  let scale = test_scale s in
  let died = ref (-1) in
  let o =
    run_checked s
      (Config.make ~nprocs:8 ~faults:armed
         ~replication:Config.default_replica ())
      ~scale
      ~inspect:(fun e ->
        match Engine.failover e with
        | Some fo -> died := Failover.failstops fo
        | None -> ())
  in
  check bool "verified" true o.B.Common.ok;
  check bool "replica mirror traffic flowed" true
    (o.B.Common.total_stats.Stats.replica_messages > 0);
  check int "no processor died" 0 !died;
  check int "no pages failed over" 0
    o.B.Common.total_stats.Stats.pages_failed_over

(* --- The retry-wait backoff can never overflow --------------------------- *)

let test_retry_wait_overflow_guard () =
  (* timeout * backoff^attempt wraps long before attempt = 64; the cap
     must be applied inside the accumulation so every attempt count up
     to (and beyond) max_attempts yields a positive, capped wait *)
  let retry =
    {
      Config.default_retry with
      Config.timeout = max_int / 3;
      backoff = 7;
      max_timeout = max_int / 2;
    }
  in
  let plan =
    Fault_plan.create { Config.no_faults with Config.drop = 0.5 } retry
  in
  for attempt = 0 to 128 do
    let wait = Fault_plan.retry_wait plan ~attempt in
    check bool
      (Printf.sprintf "attempt %d: wait %d positive and capped" attempt wait)
      true
      (wait > 0 && wait <= retry.Config.max_timeout)
  done;
  check int "high attempts settle at the cap" retry.Config.max_timeout
    (Fault_plan.retry_wait plan ~attempt:Config.default_retry.Config.max_attempts)

(* --- Undeliverable payloads and their one-line rendering ----------------- *)

let test_undeliverable_all_schemes () =
  (* drop = 1.0 exhausts the retry budget under every coherence scheme;
     the payload must name dst/klass/attempts and the shared one-line
     rendering must match what the CLI prints *)
  List.iter
    (fun (coherence, klass) ->
      let faults =
        { Config.no_faults with Config.drop = 1.0; fault_seed = 1 }
      in
      let m =
        Machine.create (Config.make ~nprocs:4 ~coherence ~faults ())
      in
      match
        Machine.request_reply ~klass m ~src:0 ~dst:3 ~service:80
      with
      | _ -> Alcotest.fail "expected Undeliverable"
      | exception Machine.Undeliverable { dst; klass = k; attempts } ->
          let tag m =
            Printf.sprintf "%s/%s: %s"
              (Config.coherence_to_string coherence)
              (Fault_plan.klass_to_string klass)
              m
          in
          check int (tag "names the destination") 3 dst;
          check string (tag "names the message class")
            (Fault_plan.klass_to_string klass)
            (Fault_plan.klass_to_string k);
          check int (tag "burned the whole retry budget")
            Config.default_retry.Config.max_attempts attempts;
          check string (tag "one-line rendering")
            (Printf.sprintf
               "%s message to processor 3 undeliverable after %d attempts"
               (Fault_plan.klass_to_string klass)
               Config.default_retry.Config.max_attempts)
            (Machine.undeliverable_to_string ~dst ~klass:k ~attempts))
    [
      (Config.Local, Fault_plan.Data);
      (Config.Global, Fault_plan.Recovery);
      (Config.Bilateral, Fault_plan.Replica);
    ]

(* --- CLI: exit discipline and archivable reports ------------------------- *)

(* Relative to the test binary, not the cwd: dune runs the suite from
   the build sandbox but `dune exec` runs it from the project root. *)
let exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "olden_run.exe"

let tmp suffix = Filename.temp_file "olden_failover" suffix

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_cli_chaos_unknown_schedule () =
  (* an unknown schedule name is a usage error: exit 2 plus the valid
     names, before any benchmark runs *)
  let outfile = tmp ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s chaos treeadd --schedules nosuch > %s 2>&1" exe
         outfile)
  in
  check int "exit code" 2 code;
  let out = read_file outfile in
  check bool
    (Printf.sprintf "names the bad schedule (got %S)" out)
    true
    (contains out "unknown fault schedule nosuch");
  check bool "lists the valid names" true (contains out "failstop-mix")

let test_cli_failover_report_out () =
  (* the failover report exports as olden-recovery/v1 JSON, and two runs
     of the same (seed, schedule) produce byte-identical files *)
  let run out =
    Sys.command
      (Printf.sprintf
         "%s failover treeadd --procs 8 --scale 64 --fault-seed 1 --out %s \
          > /dev/null 2>&1"
         exe out)
  in
  let out1 = tmp ".json" and out2 = tmp ".json" in
  check int "first run exits 0" 0 (run out1);
  check int "second run exits 0" 0 (run out2);
  let a = read_file out1 in
  check string "report run-twice byte-identical" a (read_file out2);
  check bool "carries the schema tag" true
    (contains a "\"schema\": \"olden-recovery/v1\"");
  check bool "carries the kind" true (contains a "\"kind\": \"failover\"");
  check bool "rows name victims" true (contains a "\"victim\"")

let test_cli_recovery_report_out () =
  let outfile = tmp ".json" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s recovery treeadd --procs 8 --scale 256 --fault-seed 1 --out \
          %s > /dev/null 2>&1"
         exe outfile)
  in
  check int "exits 0" 0 code;
  let a = read_file outfile in
  check bool "carries the schema tag" true
    (contains a "\"schema\": \"olden-recovery/v1\"");
  check bool "carries the kind" true (contains a "\"kind\": \"recovery\"")

let suite =
  [
    Alcotest.test_case "zero-probability failstop = faults off" `Quick
      test_zero_prob_failstop_equivalent;
    Alcotest.test_case "same seed + death schedule => identical snapshots"
      `Quick test_failstop_determinism;
    Alcotest.test_case "failstop snapshots run-twice (second seed)" `Quick
      test_failstop_second_seed;
    Alcotest.test_case "failstop: treeadd clean under all schemes" `Quick
      (test_failstop_clean B.Treeadd.spec);
    Alcotest.test_case "failstop: em3d clean under all schemes" `Quick
      (test_failstop_clean B.Em3d.spec);
    Alcotest.test_case "death with a migration in flight" `Quick
      test_failstop_with_state_in_flight;
    Alcotest.test_case "chained deaths of successors" `Quick
      test_chained_failstops;
    Alcotest.test_case "unreplicated resident threads abort the run" `Quick
      test_unreplicated_threads_abort;
    Alcotest.test_case "replica mirror traffic flows" `Quick
      test_replica_traffic_flows;
    Alcotest.test_case "retry-wait backoff never overflows" `Quick
      test_retry_wait_overflow_guard;
    Alcotest.test_case "undeliverable payloads render across schemes" `Quick
      test_undeliverable_all_schemes;
    Alcotest.test_case "chaos rejects unknown schedules with exit 2" `Quick
      test_cli_chaos_unknown_schedule;
    Alcotest.test_case "failover report exports olden-recovery/v1" `Quick
      test_cli_failover_report_out;
    Alcotest.test_case "recovery report exports olden-recovery/v1" `Quick
      test_cli_recovery_report_out;
  ]
