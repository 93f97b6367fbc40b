(* The scheduler's data structures: the indexed candidate heap against a
   linear argmin, on its own and inside the engine over every benchmark,
   and the allocation budget of the event queue, the work list and a
   futurecall. *)

open Olden
module Candidate_heap = Olden_runtime.Candidate_heap
module Event_queue = Olden_runtime.Event_queue
module Work_list = Olden_runtime.Work_list
module Effects = Olden_runtime.Effects
module B = Olden_benchmarks

let check = Alcotest.check
let bool = Alcotest.bool

(* --- Candidate heap = linear argmin ------------------------------------- *)

(* The reference: every processor's key in plain arrays, and the minimum
   found by scanning every processor. *)
module Reference = struct
  type t = {
    present : bool array;
    start : int array;
    prio : int array;
    avail : int array;
    seq : int array;
  }

  let create n =
    {
      present = Array.make n false;
      start = Array.make n 0;
      prio = Array.make n 0;
      avail = Array.make n 0;
      seq = Array.make n 0;
    }

  let set r p ~start ~prio ~avail ~seq =
    r.present.(p) <- true;
    r.start.(p) <- start;
    r.prio.(p) <- prio;
    r.avail.(p) <- avail;
    r.seq.(p) <- seq

  let remove r p = r.present.(p) <- false

  let key r p = (r.start.(p), r.prio.(p), r.avail.(p), r.seq.(p))

  let argmin r =
    let best = ref (-1) in
    Array.iteri
      (fun p here ->
        if here && (!best < 0 || compare (key r p) (key r !best) < 0) then
          best := p)
      r.present;
    !best
end

type op =
  | Set of int * int * int * int (* proc, start, prio, avail *)
  | Remove of int
  | Pop (* remove the minimum, as running its task does *)
  | Rebuild of int (* re-key every processor from this seed *)

let gen_case =
  QCheck.Gen.(
    let* n = int_range 1 24 in
    (* narrow key ranges, so ties on start (and on prio, avail) are
       common and the later key fields decide *)
    let key = triple (int_bound 6) (int_bound 1) (int_bound 6) in
    let op =
      frequency
        [
          ( 6,
            map
              (fun (p, (s, pr, a)) -> Set (p, s, pr, a))
              (pair (int_bound (n - 1)) key) );
          (2, map (fun p -> Remove p) (int_bound (n - 1)));
          (3, return Pop);
          (1, map (fun s -> Rebuild s) int);
        ]
    in
    let* ops = list_size (int_range 0 200) op in
    return (n, ops))

let print_case (n, ops) =
  Printf.sprintf "n=%d [%s]" n
    (String.concat "; "
       (List.map
          (function
            | Set (p, s, pr, a) -> Printf.sprintf "set %d (%d,%d,%d)" p s pr a
            | Remove p -> Printf.sprintf "remove %d" p
            | Pop -> "pop"
            | Rebuild s -> Printf.sprintf "rebuild %d" s)
          ops))

let heap_agrees (n, ops) =
  let h = Candidate_heap.create n in
  let r = Reference.create n in
  let seq = ref 0 in
  let set p ~start ~prio ~avail =
    (* sequence numbers are globally unique, as the engine's are *)
    incr seq;
    Candidate_heap.set h p ~start ~prio ~avail ~seq:!seq;
    Reference.set r p ~start ~prio ~avail ~seq:!seq
  in
  let remove p =
    Candidate_heap.remove h p;
    Reference.remove r p
  in
  let agrees () =
    let m = Reference.argmin r in
    Candidate_heap.min h = m
    && (m < 0
       || Candidate_heap.start h m = r.Reference.start.(m)
          && Candidate_heap.prio h m = r.Reference.prio.(m))
    && Array.for_all Fun.id
         (Array.init n (fun p ->
              Candidate_heap.mem h p = r.Reference.present.(p)))
  in
  List.for_all
    (fun op ->
      (match op with
      | Set (p, start, prio, avail) -> set p ~start ~prio ~avail
      | Remove p -> remove p
      | Pop ->
          let m = Candidate_heap.min h in
          if m >= 0 then remove m
      | Rebuild s ->
          let rng = Random.State.make [| s |] in
          for p = 0 to n - 1 do
            if Random.State.int rng 3 = 0 then remove p
            else
              set p ~start:(Random.State.int rng 7)
                ~prio:(Random.State.int rng 2) ~avail:(Random.State.int rng 7)
          done);
      agrees ())
    ops

let prop_heap_matches_argmin =
  QCheck.Test.make ~name:"candidate heap minimum = linear argmin" ~count:500
    (QCheck.make ~print:print_case gen_case)
    heap_agrees

(* --- Allocation budgets -------------------------------------------------- *)

(* Minor words allocated by [f ()], after one warm-up call. *)
let minor_words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let calls = 10_000

let test_event_queue_allocation_free () =
  let q = Event_queue.create () in
  let payload = ref 0 in
  (* a resident backlog, so every push and take sifts through levels *)
  for i = 1 to 64 do
    Event_queue.push q ~ready_at:i ~seq:i payload
  done;
  let seq = ref 64 in
  check (Alcotest.float 0.) "push + take_payload: no minor words" 0.
    (minor_words (fun () ->
         for i = 1 to calls do
           incr seq;
           Event_queue.push q ~ready_at:(i land 127) ~seq:!seq payload;
           ignore
             (Sys.opaque_identity
                (Event_queue.top_ready_at q + Event_queue.top_seq q));
           ignore (Sys.opaque_identity (Event_queue.take_payload q))
         done))

let test_work_list_allocation_free () =
  let w = Work_list.create () in
  let thread =
    { Effects.tid = 1; seat = 0; log = Olden_cache.Write_log.create () }
  in
  let k = ref 0 and v = ref 1 in
  check (Alcotest.float 0.) "push + pop: no minor words" 0.
    (minor_words (fun () ->
         for i = 1 to calls do
           Work_list.push w ~pushed_at:i ~seq:i thread k v;
           (* a few entries deep now and then, as spawn chains are *)
           if i land 3 = 0 then begin
             ignore (Sys.opaque_identity (Work_list.top_pushed_at w));
             ignore (Sys.opaque_identity (Work_list.top_seq w));
             ignore (Sys.opaque_identity (Work_list.top_thread w));
             ignore (Sys.opaque_identity (Work_list.top_k w));
             ignore (Sys.opaque_identity (Work_list.top_v w));
             while not (Work_list.is_empty w) do
               Work_list.drop w
             done
           end
         done;
         while not (Work_list.is_empty w) do
           Work_list.drop w
         done))

(* A futurecall whose body does not migrate, then its touch: 22 words,
   the cell (6) and its result (2), the parent continuation's thread (4),
   the [Future] effect (2), and 8 for [match_with]'s fiber and the
   captured continuation.  The parent continuation
   starts on the shared clean write log, the body runs in the engine's
   prebuilt closure, and dispatching the effect to its prebuilt arm,
   saving and popping the continuation and both scheduler steps allocate
   nothing. *)
let test_future_touch_budget () =
  let v = Value.Int 1 in
  let body () = v in
  let words = ref 0. in
  ignore
    (Engine.run (Config.make ~nprocs:32 ()) (fun () ->
         words :=
           minor_words (fun () ->
               for _ = 1 to calls do
                 ignore (Ops.touch (Ops.future body))
               done)));
  let per_call = !words /. float_of_int calls in
  check bool
    (Printf.sprintf "future + touch allocates at most 22 words (got %.1f)"
       per_call)
    true (per_call <= 22.)

(* --- The engine keeps the heap exact ------------------------------------ *)

(* [Engine.audit_schedule] checks every step's pick against a linear scan
   over freshly computed keys, so a processor the engine forgot to re-key
   fails the run.  Every benchmark, faults off, with crashes and with
   fail-stop failovers (which move several clocks and whole queues).  No
   benchmark marks a phase while work is queued; the next test does. *)
let test_engine_keys_exact () =
  let scale (s : B.Common.spec) =
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
  in
  let crashes = ref 0 and failstops = ref 0 in
  let run (s : B.Common.spec) cfg =
    Site.reset ();
    let o = s.B.Common.run cfg ~scale:(scale s) in
    check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
    crashes := !crashes + o.B.Common.total_stats.Stats.crashes;
    failstops := !failstops + o.B.Common.total_stats.Stats.failstops
  in
  Engine.audit_schedule := true;
  Fun.protect
    ~finally:(fun () -> Engine.audit_schedule := false)
    (fun () ->
      List.iter
        (fun (s : B.Common.spec) ->
          run s (Config.make ~nprocs:8 ());
          run s
            (Config.make ~nprocs:8
               ~faults:(Config.Faults.crash_mix ~seed:7 ())
               ());
          run s
            (Config.make ~nprocs:8
               ~faults:(Config.Faults.failstop_mix ~seed:5 ())
               ~replication:Config.default_replica ()))
        B.Registry.specs);
  check bool "crashes were audited" true (!crashes > 0);
  check bool "failovers were audited" true (!failstops > 0)

(* A phase barrier moves every clock to the makespan while a migrated
   future body still waits in processor 2's queue at an earlier start:
   only the barrier's re-key of every processor keeps that key exact. *)
let test_phase_rekeys_queued_work () =
  let site = Site.migrate "sched.phase" in
  Engine.audit_schedule := true;
  Fun.protect
    ~finally:(fun () -> Engine.audit_schedule := false)
    (fun () ->
      ignore
        (Engine.run (Config.make ~nprocs:4 ()) (fun () ->
             let b = Ops.alloc ~proc:2 2 in
             let f =
               Ops.future (fun () ->
                   Ops.store_int site b 0 7 (* migrates to 2 *);
                   Value.Int (Ops.load_int site b 0))
             in
             (* the stolen continuation runs on past the body's arrival *)
             Ops.work 100_000;
             Ops.phase "barrier";
             check Alcotest.int "future value" 7 (Value.to_int (Ops.touch f)))))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_heap_matches_argmin;
    Alcotest.test_case "engine keys match a fresh scan at every step" `Quick
      test_engine_keys_exact;
    Alcotest.test_case "a phase barrier re-keys queued work" `Quick
      test_phase_rekeys_queued_work;
    Alcotest.test_case "Event_queue push/take_payload allocate nothing"
      `Quick test_event_queue_allocation_free;
    Alcotest.test_case "work-list push/pop allocate nothing" `Quick
      test_work_list_allocation_free;
    Alcotest.test_case "future + touch stays within 22 words" `Quick
      test_future_touch_budget;
  ]
