(* Pins on the operation sequence of all ten kernels under the local,
   global and bilateral coherence schemes at 4 processors and their
   minimum problem sizes.  Every kernel runs futurecalls, and the trace
   stream carries thread ids, so the pins cover the runtime's future path
   as well as the hand-optimised host code of Barnes-Hut, TSP and
   Voronoi.

   Each pin is an MD5 over the run's whole trace event stream (every
   cache hit and miss with its site and cycle), every [Stats] field of
   the kernel and the whole run, each site's load, store, remote and
   miss counts, the final heap digest and the checksum.  A reordered or
   dropped load that leaves the Table 2 counters alone still moves the
   pin.  [gen_golden.exe pins] writes test/golden/kernel_pins.txt from
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
      (fun () -> Trace.collect (fun () -> s.B.Common.run cfg ~scale:1_000_000))
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b (Jsonl.to_string events);
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
