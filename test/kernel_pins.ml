(* Pins on the operation sequence of all ten kernels under the local,
   global and bilateral coherence schemes at 4 processors and their
   minimum problem sizes.  Every kernel runs futurecalls, and the flat
   span events carry thread ids, so the pins cover the runtime's future
   path as well as the hand-optimised host code of Barnes-Hut, TSP and
   Voronoi.

   Each pin is an MD5 over the run's flat span events rendered in the
   old trace stream's JSONL ([Projection.trace_jsonl]: every cache hit
   and miss with its site and cycle), every [Stats] field of the kernel
   and the whole run, each site's load, store, remote and miss counts,
   the final heap digest and the checksum.  A reordered or dropped load
   that leaves the Table 2 counters alone still moves the pin.  [gen_golden.exe pins] writes test/golden/kernel_pins.txt from
   [lines]; test_benchmarks.ml compares against it. *)

open Olden
module B = Olden_benchmarks

let specs = B.Registry.specs
let schemes = [ Config.Local; Config.Global; Config.Bilateral ]

let pin (s : B.Common.spec) coherence =
  Site.reset ();
  let cfg = Config.make ~nprocs:4 ~coherence () in
  let heap = ref "" in
  let hooks = B.Common.hooks () in
  hooks.B.Common.inspect_engine <-
    Some (fun e -> heap := Olden_check.Invariants.heap_digest e);
  let o, events =
    Fun.protect
      ~finally:(fun () -> hooks.B.Common.inspect_engine <- None)
      (fun () ->
        Span.collect ~kinds:Span.flat_kinds (fun () ->
            s.B.Common.run cfg ~scale:1_000_000))
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b (Projection.trace_jsonl events);
  List.iter
    (fun st ->
      List.iter (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v) (Stats.fields st))
    [ o.B.Common.kernel_stats; o.B.Common.total_stats ];
  Printf.bprintf b "cycles %d %d\n" o.B.Common.kernel_cycles
    o.B.Common.total_cycles;
  List.iter
    (fun (st : Site.t) ->
      Printf.bprintf b "%s %d %d %d %d\n" st.Site.sname st.Site.loads
        st.Site.stores st.Site.remote st.Site.misses)
    (Site.all ());
  Printf.bprintf b "heap %s\nchecksum %s ok=%b\n" !heap o.B.Common.checksum
    o.B.Common.ok;
  Printf.sprintf "%s %s %s" s.B.Common.name
    (Config.coherence_to_string coherence)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let lines () =
  List.concat_map (fun s -> List.map (fun c -> pin s c ^ "\n") schemes) specs
  |> String.concat ""

(* Pins on the profiler's two reports: [olden-run profile] and
   [olden-run critical-path --tail 12] for all ten kernels at 4
   processors and their minimum problem sizes, under local and under
   bilateral coherence.  Each line is an MD5 over one report as the CLI
   prints it, so a change in how the reports are derived from the event
   stream moves a pin even where the simulation itself does not.
   [gen_golden.exe reports] writes test/golden/report_pins.txt from
   [report_lines]; test_benchmarks.ml compares against it. *)

let report_schemes = [ Config.Local; Config.Bilateral ]

let report_commands = [ ("profile", ""); ("critical-path", " --tail 12") ]

(* One report as [exe], the olden-run binary, prints it, with its exit
   code. *)
let report ~exe (s : B.Common.spec) coherence (cmd, extra) =
  let out = Filename.temp_file "olden_report" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s %s --procs 4 --scale 1000000 -c %s%s > %s 2>&1"
         exe cmd
         (Filename.quote (String.lowercase_ascii s.B.Common.name))
         (Config.coherence_to_string coherence)
         extra out)
  in
  let ic = open_in_bin out in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, text)

let report_lines ~exe =
  List.concat_map
    (fun s ->
      List.concat_map
        (fun c ->
          List.map
            (fun ((cmd, _) as r) ->
              let code, text = report ~exe s c r in
              Printf.sprintf "%s %s %s exit=%d %s\n" s.B.Common.name
                (Config.coherence_to_string c)
                cmd code
                (Digest.to_hex (Digest.string text)))
            report_commands)
        report_schemes)
    specs
  |> String.concat ""
