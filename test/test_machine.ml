(* Machine layer: clocks, messaging, handler occupancy, statistics. *)

open Olden

let check = Alcotest.check
let int = Alcotest.int

let mk ?(nprocs = 4) ?(contention = false) () =
  Machine.create (Config.make ~nprocs ~handler_contention:contention ())

let test_advance () =
  let m = mk () in
  Machine.advance m 0 100;
  Machine.advance m 0 50;
  Machine.advance m 2 30;
  check int "clock 0" 150 (Machine.now m 0);
  check int "clock 2" 30 (Machine.now m 2);
  check int "clock untouched" 0 (Machine.now m 1);
  check int "makespan" 150 (Machine.makespan m);
  check int "busy total" 180 (Machine.total_busy m)

let test_wait_until () =
  let m = mk () in
  Machine.advance m 1 10;
  Machine.wait_until m 1 100;
  check int "clock lifted" 100 (Machine.now m 1);
  Machine.wait_until m 1 50;
  check int "never moves backward" 100 (Machine.now m 1);
  (* waiting is idle time, not busy time *)
  check int "busy is only the advance" 10 (Machine.total_busy m)

let test_request_reply () =
  let m = mk () in
  let c = Config.default_costs in
  let reply = Machine.request_reply m ~src:0 ~dst:1 ~service:100 in
  check int "round trip" ((2 * c.Config.net_latency) + 100) reply;
  check int "requester blocked until reply" reply (Machine.now m 0);
  check int "home compute clock untouched" 0 (Machine.now m 1);
  check int "two messages" 2 (Machine.stats m).Stats.messages

let test_handler_contention () =
  let m = mk ~contention:true () in
  let c = Config.default_costs in
  (* two requests from different processors to the same home queue up *)
  let r1 = Machine.request_reply m ~src:0 ~dst:2 ~service:100 in
  let r2 = Machine.request_reply m ~src:1 ~dst:2 ~service:100 in
  check int "first unqueued" ((2 * c.Config.net_latency) + 100) r1;
  check int "second waits for the handler"
    ((2 * c.Config.net_latency) + 200)
    r2

let test_no_contention_flag () =
  let m = mk ~contention:false () in
  let r1 = Machine.request_reply m ~src:0 ~dst:2 ~service:100 in
  let r2 = Machine.request_reply m ~src:1 ~dst:2 ~service:100 in
  check int "handlers overlap when contention is off" r1 r2

let test_one_way () =
  let m = mk () in
  let c = Config.default_costs in
  let done_at = Machine.one_way m ~src:0 ~dst:3 ~service:40 in
  check int "delivery time" (c.Config.net_latency + 40) done_at;
  check int "sender does not block" 0 (Machine.now m 0);
  check int "one message" 1 (Machine.stats m).Stats.messages

let test_utilization () =
  let m = mk ~nprocs:2 () in
  Machine.advance m 0 100;
  Machine.advance m 1 50;
  Alcotest.check (Alcotest.float 1e-9) "utilization" 0.75 (Machine.utilization m)

let test_stats_copy_diff () =
  let s = Stats.create () in
  s.Stats.migrations <- 5;
  s.Stats.cache_misses <- 7;
  let snap = Stats.copy s in
  s.Stats.migrations <- 9;
  s.Stats.cache_misses <- 11;
  check int "copy is a snapshot" 5 snap.Stats.migrations;
  let d = Stats.diff s snap in
  check int "diff migrations" 4 d.Stats.migrations;
  check int "diff misses" 4 d.Stats.cache_misses

let test_stats_fractions () =
  let s = Stats.create () in
  s.Stats.cacheable_reads <- 100;
  s.Stats.cacheable_reads_remote <- 25;
  s.Stats.cacheable_writes <- 50;
  s.Stats.cacheable_writes_remote <- 10;
  s.Stats.cache_misses <- 7;
  Alcotest.check (Alcotest.float 1e-9) "remote read fraction" 0.25
    (Stats.remote_read_fraction s);
  Alcotest.check (Alcotest.float 1e-9) "remote write fraction" 0.2
    (Stats.remote_write_fraction s);
  Alcotest.check (Alcotest.float 1e-9) "remote miss fraction" 0.2
    (Stats.remote_miss_fraction s)

let test_live_count () =
  let m = mk () in
  check int "all live" 4 (Machine.live_count m);
  Machine.mark_dead m 2;
  Machine.mark_dead m 2;
  check int "a death counts once" 3 (Machine.live_count m);
  Machine.mark_dead m 0;
  check int "matches the dead set" 2 (Machine.live_count m);
  check Alcotest.bool "dead" true (Machine.is_dead m 0 && Machine.is_dead m 2)

let prop_busy_le_makespan_times_procs =
  QCheck.Test.make ~name:"busy <= makespan * nprocs" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (pair (int_bound 3) (int_bound 1000)))
    (fun ops ->
      let m = mk () in
      List.iter (fun (p, c) -> Machine.advance m p c) ops;
      Machine.total_busy m <= Machine.makespan m * 4)

let suite =
  [
    Alcotest.test_case "advance" `Quick test_advance;
    Alcotest.test_case "wait_until" `Quick test_wait_until;
    Alcotest.test_case "request_reply" `Quick test_request_reply;
    Alcotest.test_case "handler contention" `Quick test_handler_contention;
    Alcotest.test_case "contention flag off" `Quick test_no_contention_flag;
    Alcotest.test_case "one_way" `Quick test_one_way;
    Alcotest.test_case "utilization" `Quick test_utilization;
    Alcotest.test_case "stats copy/diff" `Quick test_stats_copy_diff;
    Alcotest.test_case "stats fractions" `Quick test_stats_fractions;
    Alcotest.test_case "live count" `Quick test_live_count;
    QCheck_alcotest.to_alcotest prop_busy_le_makespan_times_procs;
  ]

let test_timeline_buckets () =
  (* busy cycles land in the right buckets and are conserved *)
  let intervals = [ (0, 0, 100); (0, 150, 250); (1, 90, 110) ] in
  let grid, bucket_len =
    Olden_runtime.Timeline.buckets ~nprocs:2 ~makespan:400 ~width:4 intervals
  in
  check int "bucket length" 100 bucket_len;
  check int "p0 bucket 0" 100 grid.(0).(0);
  check int "p0 bucket 1" 50 grid.(0).(1);
  check int "p0 bucket 2" 50 grid.(0).(2);
  check int "p0 bucket 3" 0 grid.(0).(3);
  check int "p1 straddles buckets" 10 grid.(1).(0);
  check int "p1 second part" 10 grid.(1).(1);
  let total =
    Array.fold_left
      (fun acc row -> Array.fold_left ( + ) acc row)
      0
      [| grid.(0); grid.(1) |]
  in
  check int "conserved" (100 + 100 + 20) total

let grid_total grid =
  Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 grid

let test_timeline_single_interval () =
  (* one busy stretch, bucket boundaries exact *)
  let grid, bucket_len =
    Olden_runtime.Timeline.buckets ~nprocs:1 ~makespan:80 ~width:8
      [ (0, 20, 60) ]
  in
  check int "bucket length" 10 bucket_len;
  check int "before" 0 grid.(0).(1);
  check int "inside" 10 grid.(0).(3);
  check int "after" 0 grid.(0).(6);
  check int "conserved" 40 (grid_total grid)

let test_timeline_short_makespan () =
  (* makespan < width: bucket_len clamps to 1 and no cycle is counted
     twice (the old floor division piled everything into the last cell) *)
  let grid, bucket_len =
    Olden_runtime.Timeline.buckets ~nprocs:1 ~makespan:3 ~width:64
      [ (0, 0, 3) ]
  in
  check int "bucket length clamps to 1" 1 bucket_len;
  check int "cycle 0" 1 grid.(0).(0);
  check int "cycle 2" 1 grid.(0).(2);
  check int "nothing beyond makespan" 0 grid.(0).(3);
  check int "conserved" 3 (grid_total grid)

let test_timeline_zero_length_and_empty () =
  let grid, _ =
    Olden_runtime.Timeline.buckets ~nprocs:2 ~makespan:100 ~width:4
      [ (0, 50, 50); (1, 0, 0) ]
  in
  check int "zero-length intervals contribute nothing" 0 (grid_total grid);
  let grid, bucket_len =
    Olden_runtime.Timeline.buckets ~nprocs:2 ~makespan:100 ~width:4 []
  in
  check int "no intervals" 0 (grid_total grid);
  check int "bucket length still sane" 25 bucket_len

let test_timeline_spanning_interval () =
  (* an interval covering the whole (indivisible) makespan fills every
     bucket without loss: 103 = 4 buckets of 26 capped by the stop *)
  let grid, bucket_len =
    Olden_runtime.Timeline.buckets ~nprocs:1 ~makespan:103 ~width:4
      [ (0, 0, 103) ]
  in
  check int "ceiling bucket length" 26 bucket_len;
  check int "full bucket" 26 grid.(0).(0);
  check int "partial last bucket" (103 - (3 * 26)) grid.(0).(3);
  check int "conserved" 103 (grid_total grid)

let test_timeline_bad_width () =
  Alcotest.check_raises "width must be positive"
    (Invalid_argument "Timeline.buckets: width must be positive") (fun () ->
      ignore
        (Olden_runtime.Timeline.buckets ~nprocs:1 ~makespan:10 ~width:0 []))

let test_stats_to_json () =
  let s = Stats.create () in
  s.Stats.migrations <- 5;
  s.Stats.cacheable_reads <- 100;
  s.Stats.cacheable_reads_remote <- 25;
  let j = Stats.to_json s in
  let get name = Option.bind (Json.member name j) Json.int_value in
  check (Alcotest.option int) "counter field" (Some 5) (get "migrations");
  check (Alcotest.option int) "zero field present" (Some 0) (get "returns");
  (* every mutable counter appears exactly once *)
  check int "field count"
    (List.length (Stats.fields s))
    (match j with Json.Obj kvs -> List.length kvs - 3 | _ -> -1);
  (* snapshot schema is stable: derived fractions ride along as floats *)
  check Alcotest.bool "fraction present" true
    (Json.member "remote_read_fraction" j <> None)

(* Exhaustiveness audit: every counter in the Stats record — including
   the fault/retry/recovery ones added later — must round-trip through
   fields/copy/diff/to_json.  The record is all-int, so [Obj.size] counts
   its fields; poking each one to a distinct value catches any counter
   that [fields] (hence JSON, CSV, and the monitor's time-series) or
   copy/diff silently dropped. *)
let test_stats_exhaustive () =
  let s = Stats.create () in
  let nfields = Obj.size (Obj.repr s) in
  check int "fields lists every record field" nfields
    (List.length (Stats.fields s));
  for i = 0 to nfields - 1 do
    Obj.set_field (Obj.repr s) i (Obj.repr (i + 1))
  done;
  (* declaration order: field i reads back i + 1 *)
  List.iteri
    (fun i (name, v) -> check int (name ^ " via fields") (i + 1) v)
    (Stats.fields s);
  let snap = Stats.copy s in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "copy preserves every field" (Stats.fields s) (Stats.fields snap);
  for i = 0 to nfields - 1 do
    Obj.set_field (Obj.repr s) i (Obj.repr (3 * (i + 1)))
  done;
  List.iteri
    (fun i (name, v) -> check int (name ^ " via diff") (2 * (i + 1)) v)
    (Stats.fields (Stats.diff s snap));
  let j = Stats.to_json s in
  List.iter
    (fun (name, v) ->
      check (Alcotest.option int) (name ^ " via to_json") (Some v)
        (Option.bind (Json.member name j) Json.int_value))
    (Stats.fields s);
  (* the counters later PRs added are really in there *)
  let names = List.map fst (Stats.fields s) in
  List.iter
    (fun n -> check Alcotest.bool (n ^ " present") true (List.mem n names))
    [
      "msg_drops"; "outage_drops"; "msg_delays"; "msg_duplicates";
      "duplicates_suppressed"; "retries"; "retry_cycles";
      "migration_fallbacks"; "crashes"; "pages_lost_in_crash";
      "recovery_messages"; "recovery_stall_cycles";
    ]

let test_interval_recording () =
  let m = mk ~nprocs:2 () in
  Machine.set_record_intervals m true;
  Machine.advance m 0 40;
  Machine.advance m 1 10;
  Machine.advance m 0 5;
  check Alcotest.bool "intervals recorded in order" true
    (Machine.busy_intervals m = [ (0, 0, 40); (1, 0, 10); (0, 40, 45) ])

let suite =
  suite
  @ [
      Alcotest.test_case "timeline buckets" `Quick test_timeline_buckets;
      Alcotest.test_case "timeline single interval" `Quick
        test_timeline_single_interval;
      Alcotest.test_case "timeline short makespan" `Quick
        test_timeline_short_makespan;
      Alcotest.test_case "timeline zero-length/empty" `Quick
        test_timeline_zero_length_and_empty;
      Alcotest.test_case "timeline spanning interval" `Quick
        test_timeline_spanning_interval;
      Alcotest.test_case "timeline bad width" `Quick test_timeline_bad_width;
      Alcotest.test_case "stats to_json" `Quick test_stats_to_json;
      Alcotest.test_case "stats exhaustive round-trip" `Quick
        test_stats_exhaustive;
      Alcotest.test_case "interval recording" `Quick test_interval_recording;
    ]
