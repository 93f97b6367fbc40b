(* Test runner for the whole reproduction. *)

let () =
  Alcotest.run "olden"
    [
      ("heap", Test_heap.suite);
      ("machine", Test_machine.suite);
      ("cache", Test_cache.suite);
      ("engine", Test_engine.suite);
      ("coherence", Test_coherence.suite);
      ("compiler", Test_compiler.suite);
      ("interp", Test_interp.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("trace", Test_trace.suite);
      ("profile", Test_profile.suite);
      ("chaos", Test_chaos.suite);
      ("recovery", Test_recovery.suite);
      ("failover", Test_failover.suite);
      ("monitor", Test_monitor.suite);
      ("span", Test_span.suite);
      ("domains", Test_domains.suite);
      ("serving", Test_serving.suite);
      ("scheduler", Test_scheduler.suite);
      ("alloc", Test_alloc.suite);
    ]
