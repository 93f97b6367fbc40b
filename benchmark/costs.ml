(* The host cost table: nanoseconds per call of each layer's public
   entry points, each the median of five timed batches, with the
   processor count, coherence scheme and working-set size taken from the
   workload.  Multiplying these by the traced pass's operation counts
   gives each layer's estimated host seconds ([est_s]); the estimates
   overlap (a migration's cost includes the coherence work done on it),
   so they rank layers rather than partition the pass. *)

module C = Olden.Config
module G = Olden.Geometry
module Ops = Olden.Ops
module Site = Olden.Site
module Engine = Olden.Engine
module Memory = Olden.Memory
module Machine = Olden.Machine
module Cache_system = Olden.Cache_system
module Translation = Olden.Translation
module Write_log = Olden.Write_log
module Fault_plan = Olden.Fault_plan
module Gptr = Olden.Gptr
module Value = Olden.Value
module Event_queue = Olden_runtime.Event_queue

let batches = 5

(* ns per call of [f], which runs [n] calls; one warm-up batch first. *)
let time name ~n f =
  f (max 1 (n / 4));
  Quartiles.median
    (List.init batches (fun _ ->
         Spans.span ("cost:" ^ name) (fun () ->
             let t0 = Spans.now () in
             f n;
             (Spans.now () -. t0) *. 1e9 /. float_of_int n)))

(* Paths through Ops run on a live engine, main thread on processor 0,
   with the remote object on the last processor. *)
let runtime_costs cfg =
  let out = ref [] in
  let remote_site = Site.migrate "cost.p->remote" in
  let local_site = Site.migrate "cost.p->local" in
  let cached_site = Site.cache "cost.p->cached" in
  let v = Value.Int 1 in
  ignore
    (Engine.run cfg (fun () ->
         let local = Ops.alloc ~proc:0 16 in
         let remote = Ops.alloc ~proc:(cfg.C.nprocs - 1) 16 in
         let add name ~n f = out := (name, time name ~n f) :: !out in
         add "runtime.migrate_ns" ~n:2_000 (fun n ->
             for _ = 1 to n do
               ignore (Ops.call (fun () -> Ops.load remote_site remote 0))
             done);
         add "runtime.fast_load_ns" ~n:200_000 (fun n ->
             for _ = 1 to n do
               ignore (Ops.load local_site local 0)
             done);
         add "runtime.cached_load_ns" ~n:200_000 (fun n ->
             for _ = 1 to n do
               ignore (Ops.load cached_site remote 0)
             done);
         add "runtime.future_ns" ~n:20_000 (fun n ->
             for _ = 1 to n do
               ignore (Ops.touch (Ops.future (fun () -> v)))
             done)));
  List.rev !out

(* A scheduler queue holding one item per processor, as the engine's
   candidate scan sees it. *)
let queue_cost ~nprocs =
  let q = Event_queue.create () in
  let seq = ref 0 in
  for p = 0 to nprocs - 1 do
    Event_queue.push q ~ready_at:p ~seq:p ();
    seq := p + 1
  done;
  ( "runtime.queue_ns",
    time "runtime.queue_ns" ~n:200_000 (fun n ->
        for _ = 1 to n do
          let it = Event_queue.take q in
          incr seq;
          Event_queue.push q ~ready_at:(it.Event_queue.ready_at + nprocs) ~seq:!seq ()
        done) )

(* The caching layer driven directly: processor 0 reads and writes a
   region of [pages] pages homed on processor 1. *)
let cache_costs cfg ~pages =
  let machine = Machine.create cfg in
  let mem = Memory.create ~nprocs:cfg.C.nprocs in
  let cs = Cache_system.create cfg machine mem in
  let table = Cache_system.table cs 0 in
  let region = Memory.alloc mem ~proc:1 (pages * G.words_per_page) in
  let lines = pages * G.lines_per_page in
  let line = Array.init lines (fun i -> Gptr.offset region (i * G.words_per_line)) in
  let gpage = Array.init pages (fun i -> Gptr.global_page line.(i * G.lines_per_page)) in
  let log = Write_log.create () in
  let v = Value.Int 7 in
  let read i = ignore (Cache_system.read cs ~proc:0 line.(i mod lines) ~field:0) in
  for i = 0 to lines - 1 do
    read i
  done;
  let run name ~n f = (name, time name ~n f) in
  [
    run "cache.probe_ns" ~n:200_000 (fun n ->
        for i = 1 to n do
          ignore (Translation.probe table gpage.(i mod pages))
        done);
    run "cache.read_hit_ns" ~n:200_000 (fun n ->
        for i = 1 to n do
          read i
        done);
    (* every read fetches a line; the first read of a page after the
       flush also allocates its page frame *)
    run "cache.read_miss_ns" ~n:(max lines 20_000) (fun n ->
        for i = 0 to n - 1 do
          if i mod lines = 0 then Translation.flush table;
          read i
        done);
    run "cache.write_ns" ~n:100_000 (fun n ->
        for i = 1 to n do
          Cache_system.write cs ~proc:0 line.(i mod lines) ~field:0 v ~log
        done);
    (* a release with one dirty line, including logging that line *)
    run "cache.release_ns" ~n:100_000 (fun n ->
        for i = 1 to n do
          Write_log.record log ~gpage:gpage.(i mod pages) ~line:0 ~home:1;
          Cache_system.on_migration_sent cs ~proc:0 ~log
        done);
    run "cache.acquire_ns" ~n:100_000 (fun n ->
        for _ = 1 to n do
          Cache_system.on_migration_received cs ~proc:0
        done);
  ]

(* Heap loads and stores at random addresses over the workload's
   largest heap (capped at 2M words). *)
let heap_costs ~nprocs ~words =
  let per_proc = max 64 (min (1 lsl 21) words / nprocs) in
  let mem = Memory.create ~nprocs in
  for p = 0 to nprocs - 1 do
    ignore (Memory.alloc mem ~proc:p per_proc)
  done;
  let x = ref 12345 in
  let ptr =
    Array.init 65_536 (fun _ ->
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        Gptr.make ~proc:(!x mod nprocs) ~addr:((!x lsr 8) mod per_proc))
  in
  let v = Value.Int 3 in
  [
    ( "heap.load_ns",
      time "heap.load_ns" ~n:500_000 (fun n ->
          for i = 1 to n do
            ignore (Memory.load mem ptr.(i land 0xffff) 0)
          done) );
    ( "heap.store_ns",
      time "heap.store_ns" ~n:500_000 (fun n ->
          for i = 1 to n do
            Memory.store mem ptr.(i land 0xffff) 0 v
          done) );
  ]

(* Round trips on a reliable and on a faulty network, and one fault
   decision, under the serve workload's crash-mix schedule. *)
let machine_costs cfg =
  let faults = C.Faults.crash_mix ~seed:cfg.C.seed () in
  let reliable = Machine.create { cfg with C.faults = None } in
  let faulty = Machine.create { cfg with C.faults = Some faults } in
  let plan = Fault_plan.create faults cfg.C.retry in
  let rr m n =
    for _ = 1 to n do
      ignore (Machine.request_reply m ~src:0 ~dst:1 ~service:100)
    done
  in
  [
    ("machine.request_reply_ns", time "machine.request_reply_ns" ~n:200_000 (rr reliable));
    ( "machine.faulty_request_reply_ns",
      time "machine.faulty_request_reply_ns" ~n:100_000 (rr faulty) );
    ( "machine.fault_decide_ns",
      time "machine.fault_decide_ns" ~n:200_000 (fun n ->
          for i = 1 to n do
            ignore
              (Fault_plan.decide plan ~klass:Fault_plan.Data ~leg:Fault_plan.Forward
                 ~seq:i ~attempt:0)
          done) );
  ]

let measure ~nprocs ~coherence ~seed ~pages ~heap_words =
  let cfg = C.make ~nprocs ~coherence ~seed () in
  runtime_costs cfg
  @ [ queue_cost ~nprocs ]
  @ cache_costs cfg ~pages:(max 1 (min 4096 pages))
  @ heap_costs ~nprocs ~words:heap_words
  @ machine_costs cfg
