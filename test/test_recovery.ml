(* Crash-and-restart recovery: seeded crash schedules replay bit-for-bit,
   a zero-probability crash schedule is exactly no faults, crashing runs
   stay coherent under all three schemes (invariant checker, checksum,
   heap digest), forced crashes at the nastiest boundaries — state in
   flight to the victim, the home of outstanding cached copies, a double
   crash — neither wedge the run nor double-apply a store, retries and
   fallbacks are attributed to the sites that caused them, and an
   undeliverable message names its class and destination. *)

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

(* --- Zero-probability crashes are exactly no faults --------------------- *)

let test_zero_prob_crash_equivalent () =
  (* a schedule whose only knob is crash, set to zero, must take the same
     branches, charge the same cycles, and consume no PRNG state: the
     metrics snapshots are byte-identical to a fault-free run *)
  List.iter
    (fun (s : B.Common.spec) ->
      let scale = test_scale s in
      let _, off = snapshot s (Config.make ~nprocs:8 ()) ~scale in
      let _, zero =
        snapshot s
          (Config.make ~nprocs:8
             ~faults:(Config.Faults.crash ~p:0.0 ~seed:3 ())
             ())
          ~scale
      in
      check string
        (s.B.Common.name ^ ": zero-probability crashes = faults off")
        off zero)
    [ B.Treeadd.spec; B.Em3d.spec; B.Health.spec ]

(* --- Determinism under crashes ------------------------------------------ *)

let test_crash_determinism () =
  (* same workload + same crash schedule => byte-identical snapshots
     across two runs, for every Table 2 benchmark; crash-mix layers the
     message faults on top so the streams must stay independent *)
  List.iter
    (fun (s : B.Common.spec) ->
      let scale = test_scale s in
      let faults = Config.Faults.crash_mix ~seed:5 () in
      let cfg () = Config.make ~nprocs:8 ~faults () in
      let _, first = snapshot s (cfg ()) ~scale in
      let _, second = snapshot s (cfg ()) ~scale in
      check string (s.B.Common.name ^ ": crashing run-twice") first second)
    B.Registry.specs

(* --- Chaos under crashes: invariants, checksum, heap -------------------- *)

let run_checked (s : B.Common.spec) cfg ~scale ~inspect =
  (B.Common.hooks ()).inspect_engine <- Some inspect;
  Fun.protect
    ~finally:(fun () -> (B.Common.hooks ()).inspect_engine <- None)
    (fun () ->
      Site.reset ();
      s.B.Common.run cfg ~scale)

let test_crash_clean (s : B.Common.spec) () =
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
              let crashed = ref 0 in
              let o =
                run_checked s
                  (Config.make ~nprocs:8 ~coherence ~faults ())
                  ~scale
                  ~inspect:(fun e ->
                    (match Engine.recovery e with
                    | Some r -> crashed := Recovery.total_crashes r
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
              check int (tag "stats agree with the recovery ledger")
                o.B.Common.total_stats.Stats.crashes !crashed)
            [ 1; 2 ])
        [ "crash"; "crash-mix" ])
    [ Config.Local; Config.Global; Config.Bilateral ]

(* --- Forced crashes at the nastiest boundaries -------------------------- *)

(* A fault schedule with every probability at zero still activates the
   recovery layer, so [Recovery.schedule_crash] is the only crash
   source: the tests below place crashes exactly where they hurt. *)
let armed = { Config.no_faults with Config.fault_seed = 1 }

let test_crash_with_migration_in_flight () =
  (* the victim crashes at the instant a migrated thread arrives: the
     thread state survives (it is retried network state, not victim
     cache state), the interrupted store applies exactly once *)
  Site.reset ();
  let cfg = Config.make ~nprocs:4 ~coherence:Config.Global ~faults:armed () in
  let engine = Engine.create cfg in
  let r = Option.get (Engine.recovery engine) in
  Recovery.schedule_crash r ~proc:1 ~at:0;
  let mig = Site.migrate "recov.t->mig" in
  let got = ref 0 in
  Engine.exec engine (fun () ->
      let a = Ops.alloc ~proc:1 2 in
      Ops.store_int mig a 0 41;
      let v = Ops.load_int mig a 0 in
      Ops.store_int mig a 0 (v + 1);
      got := Ops.load_int mig a 0);
  check int "store applied exactly once across the crash" 42 !got;
  check int "the victim crashed once" 1 (Recovery.crashes r ~proc:1);
  check string "invariants" "" (violations_string (Check.check engine))

let test_home_crash_with_copies_outstanding () =
  (* the home of a cached page crashes while a remote sharer holds (and
     keeps fetching) copies: home pages and the directory survive the
     crash, so the fetches stay serviceable, the sharer registration
     outlives the crash, and a post-crash write at the home still
     invalidates the copy *)
  Site.reset ();
  let cfg = Config.make ~nprocs:4 ~coherence:Config.Global ~faults:armed () in
  let engine = Engine.create cfg in
  let r = Option.get (Engine.recovery engine) in
  Recovery.schedule_crash r ~proc:1 ~at:0;
  let csite = Site.cache "recov.t->cached" in
  let mig = Site.migrate "recov.t->home" in
  let first_sum = ref 0 and after = ref 0 and on_home = ref 0 in
  Engine.exec engine (fun () ->
      let a = Ops.alloc ~proc:1 10 in
      for i = 0 to 9 do
        Ops.store_int csite a i (i + 1)
      done;
      let fut =
        Ops.future (fun () ->
            (* migrates to p1 — the arrival is the crash boundary — then
               reads the page locally and overwrites slot 0 at the home *)
            let v = ref 0 in
            for i = 1 to 9 do
              v := !v + Ops.load_int mig a i
            done;
            on_home := !v;
            Ops.store_int mig a 0 100;
            Value.Int !v)
      in
      (* the stolen continuation, back on p0: cached reads of the same
         page while its home is crashing (slots p1 never writes) *)
      for i = 1 to 9 do
        first_sum := !first_sum + Ops.load_int csite a i
      done;
      ignore (Ops.touch fut);
      after := Ops.load_int csite a 0);
  check int "reads at the home see the write-through state" 54 !on_home;
  check int "cached reads survive the home's crash" 54 !first_sum;
  check int "post-crash write at the home invalidates the copy" 100 !after;
  check int "the home crashed once" 1 (Recovery.crashes r ~proc:1);
  check string "invariants" "" (violations_string (Check.check engine))

let test_double_crash_same_processor () =
  (* two forced orders for the same processor: the second fires at the
     victim's first boundary after the restart — recovery must cope with
     crashing again before any new state was rebuilt *)
  Site.reset ();
  let cfg = Config.make ~nprocs:4 ~coherence:Config.Global ~faults:armed () in
  let engine = Engine.create cfg in
  let r = Option.get (Engine.recovery engine) in
  Recovery.schedule_crash r ~proc:1 ~at:0;
  Recovery.schedule_crash r ~proc:1 ~at:1;
  let mig = Site.migrate "recov.t->twice" in
  let got = ref 0 in
  Engine.exec engine (fun () ->
      let a = Ops.alloc ~proc:1 2 in
      Ops.store_int mig a 0 6;
      let v = Ops.load_int mig a 0 in
      Ops.store_int mig a 1 (v * 7);
      got := Ops.load_int mig a 1);
  check int "both crashes fired" 2 (Recovery.crashes r ~proc:1);
  check int "stores still applied exactly once" 42 !got;
  check string "invariants" "" (violations_string (Check.check engine))

(* --- Per-site retry and fallback attribution ---------------------------- *)

let test_site_retry_attribution () =
  (* flaky homes force migration give-ups: the global counters must be
     recoverable from the per-site profile, and the metrics snapshot
     must carry the new per-site fields *)
  let s = B.Treeadd.spec in
  let scale = test_scale s in
  let faults = Config.Faults.flaky_home ~seed:1 () in
  let cfg = Config.make ~nprocs:8 ~faults () in
  let o, snap = snapshot s cfg ~scale in
  let st = o.B.Common.total_stats in
  let sum f = List.fold_left (fun n x -> n + f x) 0 (Site.all ()) in
  check bool "the schedule produced fallbacks" true
    (st.Stats.migration_fallbacks > 0);
  check int "per-site fallbacks sum to the global counter"
    st.Stats.migration_fallbacks
    (sum (fun (x : Site.t) -> x.Site.fallbacks));
  let site_retries = sum (fun (x : Site.t) -> x.Site.retries) in
  check bool "retries attributed to the sites that stalled" true
    (site_retries > 0 && site_retries <= st.Stats.retries);
  let contains sub =
    let n = String.length sub and len = String.length snap in
    let rec at i = i + n <= len && (String.sub snap i n = sub || at (i + 1)) in
    at 0
  in
  check bool "snapshot carries per-site retries" true (contains "\"retries\"");
  check bool "snapshot carries per-site fallbacks" true
    (contains "\"migration_fallbacks\"");
  check bool "snapshot carries per-proc recovery stall" true
    (contains "\"recovery_stall_cycles\"")

(* --- Undeliverable messages name their class ---------------------------- *)

let test_undeliverable_names_class () =
  (* drop = 1.0 exhausts the retry budget; the error must say what kind
     of message died and where it was headed — the difference between
     "a cache fetch is stuck" and "a crashed processor cannot announce
     its recovery" *)
  let faults = { Config.no_faults with Config.drop = 1.0; fault_seed = 1 } in
  let m = Machine.create (Config.make ~nprocs:4 ~faults ()) in
  match
    Machine.request_reply ~klass:Fault_plan.Recovery m ~src:0 ~dst:3
      ~service:80
  with
  | _ -> Alcotest.fail "expected Undeliverable"
  | exception Machine.Undeliverable { dst; klass; attempts } ->
      check int "names the destination" 3 dst;
      check string "names the message class" "recovery"
        (Fault_plan.klass_to_string klass);
      check int "burned the whole retry budget"
        Config.default_retry.Config.max_attempts attempts

let suite =
  [
    Alcotest.test_case "zero-probability crashes = faults off" `Quick
      test_zero_prob_crash_equivalent;
    Alcotest.test_case "same seed + crash schedule => identical snapshots"
      `Quick test_crash_determinism;
    Alcotest.test_case "crashes: treeadd clean under all schemes" `Quick
      (test_crash_clean B.Treeadd.spec);
    Alcotest.test_case "crashes: em3d clean under all schemes" `Quick
      (test_crash_clean B.Em3d.spec);
    Alcotest.test_case "crash with a migration in flight" `Quick
      test_crash_with_migration_in_flight;
    Alcotest.test_case "home crash with cached copies outstanding" `Quick
      test_home_crash_with_copies_outstanding;
    Alcotest.test_case "double crash of the same processor" `Quick
      test_double_crash_same_processor;
    Alcotest.test_case "retries and fallbacks attributed per site" `Quick
      test_site_retry_attribution;
    Alcotest.test_case "undeliverable errors name the message class" `Quick
      test_undeliverable_names_class;
  ]
