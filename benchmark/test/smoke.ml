(* Smoke test of the benchmark harness: every workload at its minimum
   problem size, one measured pass plus the traced pass and cost table,
   twice in this process.  Checks that the harness measures every metric
   BENCHMARK.json declares, that deterministic outputs repeat, that no
   operation fails, and that the workloads separate the mechanisms they
   are meant to separate. *)

open Olden_bench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let bench =
  match Record.read_benchmark "../../BENCHMARK.json" with
  | Ok b -> b
  | Error e -> failwith e

let run name =
  let w = Option.get (Workload.find ~seed:42 ~size:Workload.Toy name) in
  (* set-up probes are child processes of main.exe; here only this
     process's own sample is taken *)
  Measure.measure ~min_passes:1 ~setup_probes:(fun () -> []) ~seconds:0. ~trace:true w
  |> Measure.record

let value name (w : Record.workload) =
  match Record.find name w with Some m -> m.Record.value | None -> nan

let () =
  check "BENCHMARK.json lists the harness's workloads"
    (bench.Record.workload_names = Workload.names);
  List.iter
    (fun name ->
      let a = run name and b = run name in
      List.iter
        (fun trace ->
          check
            (Printf.sprintf "%s measures every declared metric (trace %b)" name trace)
            (Result.is_ok (Record.result ~trace bench a)))
        [ false; true ];
      check (name ^ ": no failed operation") (a.Record.failed = 0 && a.Record.attempted > 0);
      List.iter
        (fun (m : Record.metric) ->
          if m.Record.kind = Record.Exact then
            check
              (Printf.sprintf "%s: %s repeats (%g vs %g)" name m.Record.name
                 m.Record.value (value m.Record.name b))
              (m.Record.value = value m.Record.name b))
        a.Record.metrics;
      let v n = value n a in
      let serve = name = "serve-crash-bilateral" in
      List.iter
        (fun n -> check (Printf.sprintf "%s: %s only when serving" name n) (serve = (v n > 0.)))
        [ "machine.retries"; "recovery.crashes"; "serving.admitted" ];
      if name = "migrate-p32" then
        check "migrate-p32 makes no cacheable read" (v "cache.reads" = 0.);
      if name = "coherence-global-p16" then
        check "coherence-global-p16 migrates on under 1% of its cacheable reads"
          (v "runtime.migrations" < 0.01 *. v "cache.reads"))
    Workload.names;
  if !failures > 0 then exit 1;
  print_endline "benchmark smoke: ok"
