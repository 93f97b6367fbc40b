(* The simulated-time monitor: interval windows reconcile exactly with
   the end-of-run totals, monitored runs are cycle-identical to
   unmonitored ones, the JSONL/CSV exports are byte-deterministic across
   all ten benchmarks, latency quantiles are ordered and classified by
   the mechanism that actually served each dereference, and the fault
   and recovery episode histograms agree with the Stats counters. *)

open Olden
module B = Olden_benchmarks

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

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

(* One monitored run: fresh site registry (so site ids — hence per-site
   labels — are reproducible), monitor installed for the duration. *)
let monitored ?faults ?(interval = 10_000) ?(nprocs = 8)
    ?(coherence = Config.Local) (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs ~coherence ?faults () in
  (B.Common.hooks ()).monitor_interval <- Some interval;
  let o =
    Fun.protect
      ~finally:(fun () -> (B.Common.hooks ()).monitor_interval <- None)
      (fun () -> s.B.Common.run cfg ~scale:(test_scale s))
  in
  let m = Option.get (B.Common.hooks ()).last_monitor in
  (B.Common.hooks ()).last_monitor <- None;
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  (o, m)

let spec name =
  List.find (fun (s : B.Common.spec) -> s.B.Common.name = name)
    B.Registry.specs

(* --- Windows reconcile with end-of-run totals --------------------------- *)

let test_windows_reconcile () =
  List.iter
    (fun name ->
      let o, m = monitored (spec name) in
      let ws = Monitor.windows m in
      check bool (name ^ " has windows") true (ws <> []);
      (* contiguous coverage from 0 to the makespan *)
      let rec contiguous t0 = function
        | [] -> true
        | (w : Monitor.window) :: rest ->
            w.Monitor.w_t0 = t0
            && w.Monitor.w_t1 > w.Monitor.w_t0
            && contiguous w.Monitor.w_t1 rest
      in
      check bool (name ^ " windows contiguous") true (contiguous 0 ws);
      check int
        (name ^ " last window ends at the makespan")
        o.B.Common.total_cycles
        (List.nth ws (List.length ws - 1)).Monitor.w_t1;
      (* summing every window's delta of a counter telescopes back to
         the end-of-run total, for every Stats field *)
      let totals = Stats.fields o.B.Common.total_stats in
      List.iteri
        (fun i (fname, total) ->
          let summed =
            List.fold_left
              (fun acc (w : Monitor.window) ->
                acc + snd (List.nth w.Monitor.w_stats i))
              0 ws
          in
          check int (name ^ " windowed " ^ fname ^ " reconciles") total summed)
        totals;
      (* same for the per-processor busy/comm/idle/recovery cycles: the
         deltas sum to the machine's totals, and busy+comm+idle spans
         each window exactly *)
      let nprocs = Array.length (B.Common.hooks ()).last_busy in
      for p = 0 to nprocs - 1 do
        let sum pick =
          List.fold_left
            (fun acc (w : Monitor.window) -> acc + pick w.Monitor.w_procs.(p))
            0 ws
        in
        check int
          (Printf.sprintf "%s p%d busy reconciles" name p)
          (B.Common.hooks ()).last_busy.(p)
          (sum (fun (b, _, _, _) -> b));
        check int
          (Printf.sprintf "%s p%d comm reconciles" name p)
          (B.Common.hooks ()).last_comm.(p)
          (sum (fun (_, c, _, _) -> c));
        check int
          (Printf.sprintf "%s p%d busy+comm+idle spans the run" name p)
          o.B.Common.total_cycles
          (sum (fun (b, c, i, _) -> b + c + i))
      done)
    [ "TreeAdd"; "EM3D"; "Health" ]

(* --- The monitor never perturbs the simulation -------------------------- *)

let test_monitor_neutral () =
  let s = spec "MST" in
  Site.reset ();
  let plain = s.B.Common.run (Config.make ~nprocs:8 ()) ~scale:(test_scale s) in
  let o, _ = monitored s in
  check string "checksum unchanged" plain.B.Common.checksum o.B.Common.checksum;
  check int "total cycles unchanged" plain.B.Common.total_cycles
    o.B.Common.total_cycles;
  check string "stats unchanged"
    (Json.to_string (Stats.to_json plain.B.Common.total_stats))
    (Json.to_string (Stats.to_json o.B.Common.total_stats))

(* --- Determinism: same seed, byte-identical exports ---------------------- *)

let test_run_twice_byte_identical () =
  List.iter
    (fun (s : B.Common.spec) ->
      let render () =
        let _, m = monitored s in
        let site_names = Site.labels () in
        ( Monitor.timeseries_jsonl ~site_names
            ~header:[ ("benchmark", Json.String s.B.Common.name) ]
            m,
          Monitor.csv m )
      in
      let jsonl1, csv1 = render () in
      let jsonl2, csv2 = render () in
      check string (s.B.Common.name ^ " JSONL byte-identical") jsonl1 jsonl2;
      check string (s.B.Common.name ^ " CSV byte-identical") csv1 csv2)
    B.Registry.specs

(* --- Latency quantiles --------------------------------------------------- *)

let test_quantiles_ordered () =
  List.iter
    (fun name ->
      let _, m = monitored (spec name) in
      let summaries =
        Monitor.deref_summaries m @ Monitor.episode_summaries m
      in
      check bool (name ^ " records dereferences") true (summaries <> []);
      List.iter
        (fun (kind, (s : Monitor.summary)) ->
          let ctx = name ^ " " ^ kind in
          check bool (ctx ^ " count > 0") true (s.Monitor.count > 0);
          check bool (ctx ^ " ordered") true
            (s.Monitor.min <= s.Monitor.p50
            && s.Monitor.p50 <= s.Monitor.p90
            && s.Monitor.p90 <= s.Monitor.p99
            && s.Monitor.p99 <= s.Monitor.p999
            && s.Monitor.p999 <= s.Monitor.max))
        summaries)
    [ "TreeAdd"; "EM3D"; "Barnes-Hut" ]

let test_mechanism_classification () =
  (* TreeAdd is the paper's pure-migration benchmark: its episodes are
     local or migrate, never cache; EM3D (M+C) caches its node scans *)
  let _, mt = monitored (spec "TreeAdd") in
  let mechs m = List.map fst (Monitor.deref_summaries m) in
  check (Alcotest.list string) "treeadd mechanisms" [ "local"; "migrate" ]
    (mechs mt);
  let _, me = monitored (spec "EM3D") in
  check bool "em3d uses the cache" true (List.mem "cache" (mechs me));
  (* per-site rows are labelled and agree with the aggregate count *)
  let per_site = Monitor.site_summaries ~site_names:(Site.labels ()) mt in
  check bool "per-site rows exist" true (per_site <> []);
  List.iter
    (fun (_, label, _, (s : Monitor.summary)) ->
      check bool (label ^ " is labelled") true
        (String.contains label '@' && s.Monitor.count > 0))
    per_site;
  let aggregate =
    List.assoc "migrate" (Monitor.deref_summaries mt)
  in
  let site_total =
    List.fold_left
      (fun acc (_, _, mech, (s : Monitor.summary)) ->
        if mech = "migrate" then acc + s.Monitor.count else acc)
      0 per_site
  in
  check int "per-site migrate counts sum to the aggregate"
    aggregate.Monitor.count site_total

(* --- Faults and recovery episodes ---------------------------------------- *)

let test_fault_episodes () =
  let o, m =
    monitored ~faults:(Config.Faults.mixed ~seed:1 ()) (spec "EM3D")
  in
  let s = o.B.Common.total_stats in
  check bool "the schedule produced retries" true (s.Stats.retries > 0);
  let episodes = Monitor.episode_summaries m in
  (match List.assoc_opt "retry_wait" episodes with
  | None -> Alcotest.fail "no retry_wait histogram under a lossy schedule"
  | Some rw ->
      (* thread-transfer ack chains count retries in Stats without a
         per-wait callback, so the histogram sees at most stats.retries *)
      check bool "retry episodes within stats.retries" true
        (rw.Monitor.count > 0 && rw.Monitor.count <= s.Stats.retries);
      check bool "retry waits sum within retry_cycles" true
        (rw.Monitor.sum <= s.Stats.retry_cycles));
  let oc, mc =
    monitored ~faults:(Config.Faults.crash_mix ~seed:2 ())
      ~coherence:Config.Global (spec "Health")
  in
  let sc = oc.B.Common.total_stats in
  if sc.Stats.crashes > 0 then begin
    match List.assoc_opt "recovery_stall" (Monitor.episode_summaries mc) with
    | None -> Alcotest.fail "crashes happened but no recovery_stall episodes"
    | Some rs ->
        check int "one recovery episode per crash" sc.Stats.crashes
          rs.Monitor.count;
        check int "recovery stalls sum to the stats counter"
          sc.Stats.recovery_stall_cycles rs.Monitor.sum
  end

(* --- Export shapes -------------------------------------------------------- *)

let test_csv_shape () =
  let _, m = monitored (spec "Power") in
  let csv = Monitor.csv m in
  let lines =
    String.split_on_char '\n' csv |> List.filter (fun l -> l <> "")
  in
  check int "one header plus one row per window"
    (1 + List.length (Monitor.windows m))
    (List.length lines);
  let cols line = List.length (String.split_on_char ',' line) in
  let header = List.hd lines in
  let nstats = List.length (Stats.fields (Stats.create ())) in
  check int "one column per series" (2 + nstats + (8 * 4)) (cols header);
  List.iter
    (fun l -> check int "row width matches header" (cols header) (cols l))
    lines;
  check bool "header names the time columns" true
    (String.length header > 5 && String.sub header 0 5 = "t0,t1")

let test_jsonl_shape () =
  let _, m = monitored (spec "Power") in
  let jsonl =
    Monitor.timeseries_jsonl ~site_names:(Site.labels ())
      ~header:[ ("benchmark", Json.String "Power") ]
      m
  in
  let lines =
    String.split_on_char '\n' jsonl |> List.filter (fun l -> l <> "")
  in
  check int "header + windows + latency summary"
    (2 + List.length (Monitor.windows m))
    (List.length lines);
  let parsed = List.map Json.of_string lines in
  let head = List.hd parsed in
  check (Alcotest.option string) "schema stamped"
    (Some "olden-timeseries/v1")
    (Option.bind (Json.member "schema" head) Json.string_value);
  check (Alcotest.option int) "window count advertised"
    (Some (List.length (Monitor.windows m)))
    (Option.bind (Json.member "windows" head) Json.int_value);
  let last = List.nth parsed (List.length parsed - 1) in
  check bool "closing latency summary" true
    (Json.member "latency_total" last <> None)

(* --- Off means off -------------------------------------------------------- *)

let test_off_by_default () =
  check bool "no monitor installed" false (Monitor.is_on ());
  (* the tick is a no-op rather than an error when nothing is installed *)
  Monitor.tick (Monitor.slot ()) 1_000;
  check bool "spans off" false (Span.is_on ());
  (* installing a monitor attaches it to the span stream *)
  let m =
    Monitor.create ~interval:1_000 ~nprocs:1
      ~probe:
        {
          Monitor.stats = (fun () -> []);
          busy = (fun () -> [| 0 |]);
          comm = (fun () -> [| 0 |]);
          recovery_stall = (fun () -> [| 0 |]);
        }
  in
  Monitor.install m;
  let on = Span.is_on () in
  Monitor.uninstall ();
  check bool "a monitor turns spans on" true on;
  check bool "and off again" false (Span.is_on ())

(* --- Golden: the latency path under crashes ------------------------------ *)

(* Bisort and Health at 8 processors under crash-mix seed 2, global
   coherence: retry waits, recovery stalls and return stubs all fire,
   pinned byte-for-byte.  Lockstep with [gen_golden.exe latency]. *)
let crash_mix_latency () =
  List.map
    (fun (s : B.Common.spec) ->
      let _, m =
        monitored
          ~faults:(Config.Faults.crash_mix ~seed:2 ())
          ~coherence:Config.Global s
      in
      Json.to_string
        (Json.Obj
           [
             ("benchmark", Json.String s.B.Common.name);
             ("latency", Monitor.latency_json ~site_names:(Site.labels ()) m);
           ])
      ^ "\n")
    [ B.Bisort.spec; B.Health.spec ]
  |> String.concat ""

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_crash_mix_golden () =
  check string "matches the committed crash-mix latency golden"
    (read_file "golden/latency_crash_mix_p8.jsonl")
    (crash_mix_latency ())

let suite =
  [
    Alcotest.test_case "windows reconcile with totals" `Quick
      test_windows_reconcile;
    Alcotest.test_case "monitor never perturbs the run" `Quick
      test_monitor_neutral;
    Alcotest.test_case "run-twice byte-identical exports (all ten)" `Slow
      test_run_twice_byte_identical;
    Alcotest.test_case "latency quantiles ordered" `Quick
      test_quantiles_ordered;
    Alcotest.test_case "mechanism classification" `Quick
      test_mechanism_classification;
    Alcotest.test_case "fault and recovery episodes" `Quick
      test_fault_episodes;
    Alcotest.test_case "csv shape" `Quick test_csv_shape;
    Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
    Alcotest.test_case "off by default" `Quick test_off_by_default;
    Alcotest.test_case "golden crash-mix latency (Bisort, Health)" `Quick
      test_crash_mix_golden;
  ]
