(* The ten benchmarks: every one verifies against its reference at several
   processor counts and under every coherence scheme and policy; the
   Figure 2 counts are exact; speedup sanity holds. *)

open Olden_benchmarks
module C = Olden_config

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Small scales so the whole suite stays fast. *)
let test_scale (s : Common.spec) =
  match s.Common.name with
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

let verify_case (s : Common.spec) ~nprocs ~coherence ~policy () =
  let cfg = C.make ~nprocs ~coherence ~policy () in
  let o = s.Common.run cfg ~scale:(test_scale s) in
  check bool
    (Printf.sprintf "%s verified (%s)" s.Common.name o.Common.checksum)
    true o.Common.ok

let verification_tests =
  List.concat_map
    (fun (s : Common.spec) ->
      [
        Alcotest.test_case
          (Printf.sprintf "%s: 1 proc" s.Common.name)
          `Quick
          (verify_case s ~nprocs:1 ~coherence:C.Local ~policy:C.Heuristic);
        Alcotest.test_case
          (Printf.sprintf "%s: 4 procs" s.Common.name)
          `Quick
          (verify_case s ~nprocs:4 ~coherence:C.Local ~policy:C.Heuristic);
        Alcotest.test_case
          (Printf.sprintf "%s: 32 procs" s.Common.name)
          `Quick
          (verify_case s ~nprocs:32 ~coherence:C.Local ~policy:C.Heuristic);
        Alcotest.test_case
          (Printf.sprintf "%s: global coherence" s.Common.name)
          `Quick
          (verify_case s ~nprocs:8 ~coherence:C.Global ~policy:C.Heuristic);
        Alcotest.test_case
          (Printf.sprintf "%s: bilateral coherence" s.Common.name)
          `Quick
          (verify_case s ~nprocs:8 ~coherence:C.Bilateral ~policy:C.Heuristic);
        Alcotest.test_case
          (Printf.sprintf "%s: migrate-only" s.Common.name)
          `Quick
          (verify_case s ~nprocs:8 ~coherence:C.Local ~policy:C.Migrate_only);
        Alcotest.test_case
          (Printf.sprintf "%s: cache-only" s.Common.name)
          `Quick
          (verify_case s ~nprocs:8 ~coherence:C.Local ~policy:C.Cache_only);
      ])
    Registry.specs

(* --- Figure 2 exact counts ------------------------------------------------ *)

let test_figure2_blocked_migrate () =
  let r =
    Listdist.run ~n:1024 ~nprocs:16 ~layout:Listdist.Blocked
      ~mechanism:C.Migrate ()
  in
  check int "P-1 migrations" 15 r.Listdist.migrations;
  check int "no remote fetches" 0 r.Listdist.remote_fetches;
  check int "sum" (1024 * 1025 / 2) r.Listdist.sum

let test_figure2_cyclic_migrate () =
  let r =
    Listdist.run ~n:1024 ~nprocs:16 ~layout:Listdist.Cyclic
      ~mechanism:C.Migrate ()
  in
  check int "N-1 migrations" 1023 r.Listdist.migrations

let test_figure2_cache_counts () =
  (* both layouts touch N(P-1)/P remote elements; we read two fields per
     element, so the fetch count is twice the paper's element count *)
  List.iter
    (fun layout ->
      let r =
        Listdist.run ~n:1024 ~nprocs:16 ~layout ~mechanism:C.Cache ()
      in
      check int "remote fetches" (2 * 1024 * 15 / 16) r.Listdist.remote_fetches;
      check int "no migrations" 0 r.Listdist.migrations)
    [ Listdist.Blocked; Listdist.Cyclic ]

let test_figure2_crossover () =
  (* migration wins on the blocked layout; caching wins on the cyclic one *)
  let time layout mechanism =
    (Listdist.run ~n:1024 ~nprocs:16 ~layout ~mechanism ()).Listdist.cycles
  in
  check bool "blocked: migrate beats cache" true
    (time Listdist.Blocked C.Migrate < time Listdist.Blocked C.Cache);
  check bool "cyclic: cache beats migrate" true
    (time Listdist.Cyclic C.Cache < time Listdist.Cyclic C.Migrate)

(* --- Speedup sanity --------------------------------------------------------- *)

let test_treeadd_speedup_shape () =
  let row = Suite.speedups ~scale:64 ~procs:[ 1; 4; 16 ] ~migrate_only:false Treeadd.spec in
  match row.Suite.runs with
  | [ (_, s1, _); (_, s4, _); (_, s16, _) ] ->
      check bool "1-proc overhead below 1" true (s1 < 1.0);
      check bool "1-proc overhead moderate" true (s1 > 0.5);
      check bool "monotone" true (s1 < s4 && s4 < s16);
      check bool "meaningful parallelism" true (s16 > 6.)
  | _ -> Alcotest.fail "expected three runs"

let test_em3d_mechanism_gap () =
  (* the paper's headline: M+C crushes migrate-only on EM3D *)
  let cycles policy =
    let cfg = C.make ~nprocs:16 ~policy () in
    let o = Em3d.spec.Common.run cfg ~scale:8 in
    assert o.Common.ok;
    o.Common.kernel_cycles
  in
  check bool "heuristic far faster than migrate-only" true
    (3 * cycles C.Heuristic < cycles C.Migrate_only)

let test_mst_migrations_grow_with_procs () =
  (* O(N*P) migrations: the per-phase processor sweep *)
  let migr nprocs =
    let cfg = C.make ~nprocs () in
    let o = Mst.spec.Common.run cfg ~scale:16 in
    assert o.Common.ok;
    o.Common.kernel_stats.Stats.migrations
  in
  check bool "more processors, more migrations" true (migr 16 > migr 4)

let test_health_remote_fraction_small () =
  (* fewer than two percent of patient accesses cross processors *)
  let cfg = C.make ~nprocs:32 () in
  let o = Health.spec.Common.run cfg ~scale:2 in
  assert o.Common.ok;
  let s = o.Common.total_stats in
  check bool "below 2%" true (Stats.remote_read_fraction s < 0.02)

let test_barneshut_caches_tree () =
  (* the walkers must cache the tree (bottleneck rule), not migrate on it *)
  let cfg = C.make ~nprocs:8 () in
  let o = Barneshut.spec.Common.run cfg ~scale:32 in
  assert o.Common.ok;
  let s = o.Common.total_stats in
  check bool "cache traffic dominates migrations" true
    (s.Stats.cacheable_reads > 100 * s.Stats.migrations)

let test_table3_row_shape () =
  (* Table 3 machinery: the row for EM3D is self-consistent *)
  let r = Tables.table3_row ~scale:8 ~nprocs:8 Em3d.spec in
  check bool "remote read fraction sane" true
    (r.Tables.reads_remote_pct > 1. && r.Tables.reads_remote_pct < 60.);
  check bool "misses bounded by remote accesses" true
    (r.Tables.miss_local <= 100. && r.Tables.miss_local >= 0.);
  check bool "pages were cached" true (r.Tables.pages > 0)

let test_sequential_equals_parallel_checksums () =
  (* the checksum printed by a run is independent of the processor count *)
  List.iter
    (fun (s : Common.spec) ->
      let scale = test_scale s in
      let run nprocs =
        (s.Common.run (C.make ~nprocs ()) ~scale).Common.checksum
      in
      check Alcotest.string
        (s.Common.name ^ " checksum stable across processor counts")
        (run 1) (run 8))
    (* EM3D is excluded: its graph generator takes the processor count as
       a layout parameter, so the workload itself differs across runs *)
    [ Treeadd.spec; Mst.spec; Power.spec; Health.spec ]

let test_benchmark_determinism () =
  (* a simulation is a pure function of the program and configuration *)
  List.iter
    (fun (s : Common.spec) ->
      let run () =
        let o = s.Common.run (C.make ~nprocs:8 ()) ~scale:(test_scale s) in
        (o.Common.total_cycles, o.Common.kernel_cycles,
         o.Common.kernel_stats.Stats.migrations, o.Common.checksum)
      in
      check bool (s.Common.name ^ " deterministic") true (run () = run ()))
    [ Treeadd.spec; Em3d.spec; Voronoi.spec; Health.spec ]

let test_perimeter_image_set () =
  (* the paper computes perimeters of a *set* of quad-tree encoded images:
     every shape verifies on several processor counts *)
  List.iter
    (fun kind ->
      List.iter
        (fun nprocs ->
          let cfg = C.make ~nprocs () in
          let o = Perimeter.run_image ~kind cfg ~scale:16 in
          check bool
            (Printf.sprintf "perimeter %s on %d procs (%s)"
               (Perimeter.image_kind_to_string kind)
               nprocs o.Common.checksum)
            true o.Common.ok)
        [ 1; 8 ])
    [ Perimeter.Disk; Perimeter.Ring; Perimeter.Blobs ]

let test_local_scheme_wins_on_time () =
  (* Appendix A: the local-knowledge scheme has the best (or essentially
     tied) running times, because the suite writes most shared data between
     migrations and write tracking is not free *)
  List.iter
    (fun (s : Common.spec) ->
      let cycles coherence =
        let cfg = C.make ~nprocs:16 ~coherence () in
        let o = s.Common.run cfg ~scale:(test_scale s) in
        assert o.Common.ok;
        Common.measured_cycles s o
      in
      let l = cycles C.Local in
      let g = cycles C.Global in
      let b = cycles C.Bilateral in
      let tolerance = l / 20 (* 5% *) in
      check bool
        (s.Common.name ^ ": local no worse than global (within 5%)")
        true
        (l <= g + tolerance);
      check bool
        (s.Common.name ^ ": local no worse than bilateral (within 5%)")
        true
        (l <= b + tolerance))
    [ Em3d.spec; Health.spec ]

let test_em3d_remote_sweep_monotone () =
  (* more cross-processor edges hurt migrate-only roughly linearly while
     the heuristic's cached version degrades only gently *)
  let points = Em3d.remote_sweep ~nprocs:8 ~scale:8 ~fractions:[ 0.0; 0.2; 0.5 ] () in
  (match points with
  | [ p0; p2; p5 ] ->
      check bool "equal at zero remote" true
        (p0.Em3d.heuristic_cycles = p0.Em3d.migrate_only_cycles);
      check bool "migrate-only grows" true
        (p2.Em3d.migrate_only_cycles < p5.Em3d.migrate_only_cycles);
      check bool "heuristic stays within 2x of local-only" true
        (p5.Em3d.heuristic_cycles < 2 * p0.Em3d.heuristic_cycles);
      check bool "gap exceeds 5x at 20% remote" true
        (p2.Em3d.migrate_only_cycles > 5 * p2.Em3d.heuristic_cycles)
  | _ -> Alcotest.fail "expected three points")

let test_breakeven_matches_prediction () =
  (* footnote 3: with migration = 7x a miss the mechanisms break even near
     86% path-affinity, just under the 90% selection threshold *)
  let points =
    Breakeven.sweep ~n:1024 ~nprocs:16
      ~affinities:[ 0.70; 0.80; 0.84; 0.86; 0.88; 0.92 ]
      ()
  in
  (match Breakeven.crossover points with
  | Some a ->
      check bool "crossover within two points of 86%" true
        (a >= 0.82 && a <= 0.90)
  | None -> Alcotest.fail "no crossover found");
  Alcotest.check (Alcotest.float 0.02) "prediction"
    0.857
    (Breakeven.predicted Olden_config.default_costs)

let test_breakeven_platform_shift () =
  (* Section 7: a NOW favors migration, hardware DSM favors caching *)
  let affs = [ 0.50; 0.90 ] in
  let now =
    Breakeven.sweep ~n:512 ~nprocs:8 ~costs:Olden_config.Presets.now
      ~affinities:affs ()
  in
  List.iter
    (fun p ->
      check bool "NOW: migrate wins even at 50%" true
        (p.Breakeven.migrate_cycles <= p.Breakeven.cache_cycles))
    now;
  let dsm =
    Breakeven.sweep ~n:512 ~nprocs:8 ~costs:Olden_config.Presets.hardware_dsm
      ~affinities:affs ()
  in
  List.iter
    (fun p ->
      check bool "DSM: cache wins up through 90%" true
        (p.Breakeven.cache_cycles <= p.Breakeven.migrate_cycles))
    dsm

(* --- The hand-optimised kernels -------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A thread starts on the shared clean write log and gets a log of its
   own at its first write.  A write path that skipped that step would
   record into the log every fresh thread shares: after all ten kernels
   under the schemes that release dirty lines, the clean log is still
   empty. *)
let test_clean_log_stays_clean () =
  let log = Olden.Effects.clean_log in
  List.iter
    (fun coherence ->
      List.iter
        (fun (s : Common.spec) ->
          let name =
            Printf.sprintf "%s (%s)" s.Common.name
              (C.coherence_to_string coherence)
          in
          ignore
            (s.Common.run (C.make ~nprocs:4 ~coherence ())
               ~scale:(test_scale s));
          check int (name ^ ": clean log's written processors") 0
            (Olden.Write_log.written_mask log);
          check int (name ^ ": clean log's dirty pages") 0
            (Olden.Write_log.dirty_count log))
        Registry.specs)
    [ C.Global; C.Bilateral ]

(* Every kernel, under every coherence scheme, issues exactly the
   operation sequence the committed pins were generated from (see
   Kernel_pins). *)
let test_kernel_pins () =
  check Alcotest.string "golden/kernel_pins.txt"
    (read_file "golden/kernel_pins.txt")
    (Kernel_pins.lines ())

(* The profile and critical-path reports of every kernel under local and
   bilateral coherence are the ones the committed pins were generated
   from (see Kernel_pins.report_lines).  The binary is found relative to
   the test binary, not the cwd. *)
let test_report_pins () =
  let exe =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
      "olden_run.exe"
  in
  check Alcotest.string "golden/report_pins.txt"
    (read_file "golden/report_pins.txt")
    (Kernel_pins.report_lines ~exe)

(* Each kernel agrees with its sequential reference at its minimum
   problem size for any input seed, processor count and coherence
   scheme: at 64 points Voronoi spends a large share of its work in the
   two- and three-point base cases. *)
let prop_references_agree =
  let schemes = [ C.Local; C.Global; C.Bilateral ] in
  QCheck.Test.make ~count:30
    ~name:"Barnes-Hut, TSP and Voronoi match their references"
    QCheck.(
      make
        ~print:(fun (seed, nprocs, coherence) ->
          Printf.sprintf "seed=%d nprocs=%d %s" seed nprocs
            (C.coherence_to_string coherence))
        Gen.(triple (int_bound 1_000_000) (int_range 1 8) (oneofl schemes)))
    (fun (seed, nprocs, coherence) ->
      let cfg = C.make ~nprocs ~coherence ~seed () in
      List.for_all
        (fun (s : Common.spec) -> (s.Common.run cfg ~scale:1_000_000).Common.ok)
        [ Barneshut.spec; Tsp.spec; Voronoi.spec ])

let suite =
  verification_tests
  @ [
      Alcotest.test_case "figure2 blocked+migrate" `Quick
        test_figure2_blocked_migrate;
      Alcotest.test_case "figure2 cyclic+migrate" `Quick
        test_figure2_cyclic_migrate;
      Alcotest.test_case "figure2 cache counts" `Quick test_figure2_cache_counts;
      Alcotest.test_case "figure2 crossover" `Quick test_figure2_crossover;
      Alcotest.test_case "treeadd speedup shape" `Slow
        test_treeadd_speedup_shape;
      Alcotest.test_case "em3d mechanism gap" `Slow test_em3d_mechanism_gap;
      Alcotest.test_case "mst migrations grow" `Slow
        test_mst_migrations_grow_with_procs;
      Alcotest.test_case "health remote fraction" `Slow
        test_health_remote_fraction_small;
      Alcotest.test_case "barnes-hut caches tree" `Slow
        test_barneshut_caches_tree;
      Alcotest.test_case "table3 row shape" `Slow test_table3_row_shape;
      Alcotest.test_case "checksums stable" `Slow
        test_sequential_equals_parallel_checksums;
      Alcotest.test_case "benchmark determinism" `Slow
        test_benchmark_determinism;
      Alcotest.test_case "perimeter image set" `Quick
        test_perimeter_image_set;
      Alcotest.test_case "local scheme wins on time" `Slow
        test_local_scheme_wins_on_time;
      Alcotest.test_case "em3d remote sweep" `Slow
        test_em3d_remote_sweep_monotone;
      Alcotest.test_case "break-even matches prediction" `Slow
        test_breakeven_matches_prediction;
      Alcotest.test_case "break-even shifts with platform" `Slow
        test_breakeven_platform_shift;
      Alcotest.test_case "kernel pins" `Quick test_kernel_pins;
      Alcotest.test_case "profile and critical-path report pins" `Quick
        test_report_pins;
      QCheck_alcotest.to_alcotest prop_references_agree;
      Alcotest.test_case "no write reaches the clean log" `Quick
        test_clean_log_stays_clean;
    ]
