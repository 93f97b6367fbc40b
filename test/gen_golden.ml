(* Regenerate the golden files used by test_trace.ml / test_span.ml /
   test_monitor.ml:

     dune exec test/gen_golden.exe            > test/golden/treeadd_p2_trace.jsonl
     dune exec test/gen_golden.exe -- spans   > test/golden/treeadd_p2_spans.jsonl
     dune exec test/gen_golden.exe -- spans-v2 \
       > test/golden/treeadd_p2_spans_v2.jsonl
     dune exec test/gen_golden.exe -- latency > test/golden/latency_crash_mix_p8.jsonl
     dune exec test/gen_golden.exe -- pins    > test/golden/kernel_pins.txt
     dune build bin/olden_run.exe &&
       dune exec test/gen_golden.exe -- reports > test/golden/report_pins.txt

   Must stay in lockstep with Test_trace.run_treeadd,
   Test_span.run_treeadd and Test_monitor.crash_mix_latency: treeadd at
   2 processors and the minimum tree size; Bisort and Health at 8
   processors, global coherence, crash-mix seed 2, at the test scales;
   site ids reset before every run.  One span stream feeds the three
   treeadd goldens: the old trace JSONL and olden-spans/v1 through the
   projections of Projection, olden-spans/v2 as exported.  The kernel
   pins come from
   Kernel_pins, which the test reads too, and so do the report pins; the
   reports come from the olden-run binary beside this executable's build
   directory. *)

open Olden
module B = Olden_benchmarks

(* One line per benchmark: its [Monitor.latency_json] under crash-mix,
   where retry waits, crash recovery and return stubs all fire. *)
let latency () =
  List.iter
    (fun ((s : B.Common.spec), scale) ->
      Site.reset ();
      let cfg =
        Config.make ~nprocs:8 ~coherence:Config.Global
          ~faults:(Config.Faults.crash_mix ~seed:2 ())
          ()
      in
      (B.Common.hooks ()).monitor_interval <- Some 10_000;
      let o =
        Fun.protect
          ~finally:(fun () -> (B.Common.hooks ()).monitor_interval <- None)
          (fun () -> s.B.Common.run cfg ~scale)
      in
      let m = Option.get (B.Common.hooks ()).last_monitor in
      (B.Common.hooks ()).last_monitor <- None;
      assert o.B.Common.ok;
      print_string
        (Json.to_string
           (Json.Obj
              [
                ("benchmark", Json.String s.B.Common.name);
                ( "latency",
                  Monitor.latency_json ~site_names:(Site.labels ()) m );
              ]));
      print_newline ())
    [ (B.Bisort.spec, 128); (B.Health.spec, 8) ]

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "trace" in
  Site.reset ();
  let cfg = Config.make ~nprocs:2 () in
  match mode with
  | "latency" -> latency ()
  | "pins" -> print_string (Kernel_pins.lines ())
  | "reports" ->
      let exe =
        Filename.concat
          (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
          "olden_run.exe"
      in
      print_string (Kernel_pins.report_lines ~exe)
  | mode ->
      let o, spans =
        Span.collect (fun () ->
            B.Treeadd.spec.B.Common.run cfg ~scale:1_000_000)
      in
      assert o.B.Common.ok;
      print_string
        (match mode with
        | "spans" -> Projection.spans_v1 spans
        | "spans-v2" -> Span.jsonl spans
        | _ -> Projection.trace_jsonl spans)
