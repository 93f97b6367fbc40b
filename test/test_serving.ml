(* Open-system serving: the seeded arrival process is a pure function of
   (seed, stream, index), the mix grammar round-trips and rejects junk,
   serving snapshots are byte-identical run-twice, across host domain
   counts, and under fault schedules, the CLI's serve knobs follow the
   exit-2 usage-error discipline, and request-class labels with CSV
   metacharacters survive the RFC 4180 quoting in the latency export. *)

open Olden
module Serving = Olden.Serving

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Small but non-trivial: ~40 arrivals over 4 streams at the default
   rate, heap scale 64 (depth-6 tree / 64-node graph). *)
let spec ?(profile = Config.Serving.Poisson) ?(rate = 2.0)
    ?(duration = 20_000) ?(arrival_seed = 1) () =
  Config.Serving.make ~profile ~rate ~duration ~arrival_seed ()

(* --- The arrival process is stateless ------------------------------------ *)

let test_interarrival_pure () =
  List.iter
    (fun profile ->
      let spec = spec ~profile () in
      let name = Config.Serving.profile_to_string spec.Config.Serving.profile in
      for stream = 0 to 3 do
        for index = 0 to 63 do
          let a = Serving.interarrival ~spec ~stream ~index in
          check int
            (Printf.sprintf "%s s%d i%d recomputable in isolation" name
               stream index)
            a
            (Serving.interarrival ~spec ~stream ~index);
          check bool
            (Printf.sprintf "%s s%d i%d gap >= 1 cycle" name stream index)
            true (a >= 1)
        done
      done)
    [ Config.Serving.Poisson; Config.Serving.Bursty; Config.Serving.Diurnal ]

let test_arrivals_canonical () =
  let spec = spec () in
  let arr = Serving.arrivals ~spec in
  check bool "non-empty" true (arr <> []);
  (* canonical (offset, stream, index) order, horizon respected *)
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        (a.Serving.a_offset, a.Serving.a_stream, a.Serving.a_index)
        < (b.Serving.a_offset, b.Serving.a_stream, b.Serving.a_index)
        && ordered rest
    | _ -> true
  in
  check bool "canonical injection order" true (ordered arr);
  List.iter
    (fun a ->
      check bool "inside the horizon" true
        (a.Serving.a_offset >= 0
        && a.Serving.a_offset < spec.Config.Serving.duration))
    arr;
  (* per-stream offsets telescope from the pure gaps *)
  List.iter
    (fun a ->
      let off = ref 0 in
      for i = 0 to a.Serving.a_index do
        off :=
          !off
          + Serving.interarrival ~spec ~stream:a.Serving.a_stream ~index:i
      done;
      check int
        (Printf.sprintf "s%d i%d offset telescopes" a.Serving.a_stream
           a.Serving.a_index)
        !off a.Serving.a_offset)
    arr

let test_profiles_differ () =
  (* same seed, three different processes: the streams must not collide *)
  let offsets profile =
    List.map
      (fun a -> a.Serving.a_offset)
      (Serving.arrivals ~spec:(spec ~profile ()))
  in
  let p = offsets Config.Serving.Poisson in
  check bool "bursty differs from poisson" true
    (offsets Config.Serving.Bursty <> p);
  check bool "diurnal differs from poisson" true
    (offsets Config.Serving.Diurnal <> p)

(* --- The mix grammar ------------------------------------------------------ *)

let test_mix_grammar () =
  (match Serving.mix_of_string "point=6,scan=3,update=1" with
  | Ok m ->
      check string "default round-trips" "point=6,scan=3,update=1"
        (Serving.mix_to_string m);
      check string "equals default_mix"
        (Serving.mix_to_string Serving.default_mix)
        (Serving.mix_to_string m)
  | Error e -> Alcotest.failf "default mix rejected: %s" e);
  (match Serving.mix_of_string "update=2,point=1" with
  | Ok m ->
      check string "canonicalized to class order" "point=1,update=2"
        (Serving.mix_to_string m)
  | Error e -> Alcotest.failf "two-class mix rejected: %s" e);
  (match Serving.mix_of_string "scan" with
  | Ok m ->
      check string "bare class means weight 1" "scan=1"
        (Serving.mix_to_string m)
  | Error e -> Alcotest.failf "bare class rejected: %s" e);
  List.iter
    (fun (bad, why) ->
      match Serving.mix_of_string bad with
      | Ok _ -> Alcotest.failf "%S accepted (%s)" bad why
      | Error _ -> ())
    [
      ("delete=1", "unknown class");
      ("point=1,point=2", "duplicate class");
      ("point=0", "zero weight");
      ("scan=-3", "negative weight");
      ("point=x", "non-numeric weight");
      ("", "empty mix");
    ]

(* --- Serving snapshots are deterministic ---------------------------------- *)

let serve ?faults ?(arrival_seed = 1) heap =
  Site.reset ();
  let replication =
    (* a fail-stop schedule needs a mirror for every home *)
    match faults with
    | Some f when f.Config.failstop > 0. -> Some Config.default_replica
    | _ -> None
  in
  let cfg = Config.make ~nprocs:8 ?faults ?replication () in
  let r =
    Serving.run ~scale:64 ~cfg ~spec:(spec ~arrival_seed ())
      ~mix:Serving.default_mix heap
  in
  check bool
    (Serving.heap_name heap ^ " all admitted requests completed")
    true r.Serving.r_ok;
  Json.to_string (Serving.result_json r)

let test_run_twice () =
  List.iter
    (fun heap ->
      check string
        (Serving.heap_name heap ^ " run-twice byte-identical")
        (serve heap) (serve heap))
    Serving.all_heaps

let test_chaos_deterministic () =
  (* under fault schedules the serving export stays a pure function of
     (arrival_seed, fault_seed, config) *)
  List.iter
    (fun sched ->
      let faults () = Option.get (Config.Faults.by_name sched ~seed:7) in
      check string
        (sched ^ ": run-twice byte-identical")
        (serve ~faults:(faults ()) Serving.Treeadd)
        (serve ~faults:(faults ()) Serving.Treeadd))
    [ "mix"; "crash-mix"; "failstop" ]

let test_seed_matters () =
  check bool "different arrival seeds serve different streams" true
    (serve ~arrival_seed:1 Serving.Em3d <> serve ~arrival_seed:2 Serving.Em3d)

let test_sweep_finds_knee () =
  Site.reset ();
  let cfg = Config.make ~nprocs:8 () in
  let points, knee =
    Serving.saturation_sweep ~scale:64 ~cfg ~spec:(spec ())
      ~mix:Serving.default_mix Serving.Treeadd
  in
  check int "one point per default rate"
    (List.length Serving.default_sweep_rates)
    (List.length points);
  (* TreeAdd saturates near 0.3 req/kcy at 8 processors, well inside the
     default rate ladder *)
  match knee with
  | None -> Alcotest.fail "no saturation knee on TreeAdd"
  | Some k ->
      check bool "knee is one of the offered rates" true
        (List.mem k Serving.default_sweep_rates);
      List.iter
        (fun (p : Serving.sweep_point) ->
          if p.Serving.sw_offered >= k then
            check bool
              (Printf.sprintf "rate %g past the knee runs saturated"
                 p.Serving.sw_offered)
              true
              (p.Serving.sw_achieved < 0.9 *. p.Serving.sw_offered))
        points

(* --- CLI: serve follows the exit-2 usage discipline ----------------------- *)

(* Relative to the test binary, not the cwd: dune runs the suite from
   the build sandbox but `dune exec` runs it from the project root. *)
let exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "olden_run.exe"

let tmp suffix = Filename.temp_file "olden_serving" suffix

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_cli_usage_errors () =
  List.iter
    (fun (args, expect) ->
      let outfile = tmp ".out" in
      let code =
        Sys.command (Printf.sprintf "%s serve %s > %s 2>&1" exe args outfile)
      in
      let out = read_file outfile in
      check int (args ^ ": exit code") 2 code;
      check bool
        (Printf.sprintf "%s: one-line usage error (got %S)" args out)
        true
        (contains out expect)
    )
    [
      (* --rate=-1, not "--rate -1": cmdliner would eat the bare -1 as an
         unknown option before serve's validation sees it *)
      ("treeadd --profile lognormal", "unknown --profile lognormal");
      ("treeadd --rate=-1", "--rate must be positive");
      ("treeadd --duration 0", "--duration must be at least 1 cycle");
      ("treeadd --streams 0", "--streams must be at least 1");
      ("treeadd --mix point=0", "weight");
      ("treeadd --mix delete=1", "unknown");
      ("btree", "unknown heap btree");
    ]

let test_cli_serve_out () =
  (* `serve --out` exports olden-serving/v1, byte-identical run-twice *)
  let run out =
    Sys.command
      (Printf.sprintf
         "%s serve treeadd --procs 8 --scale 64 --rate 1 --duration 20000 \
          --out %s > /dev/null 2>&1"
         exe out)
  in
  let out1 = tmp ".json" and out2 = tmp ".json" in
  check int "first run exits 0" 0 (run out1);
  check int "second run exits 0" 0 (run out2);
  let a = read_file out1 in
  check string "export run-twice byte-identical" a (read_file out2);
  check bool "carries the schema tag" true
    (contains a "\"schema\": \"olden-serving/v1\"");
  check bool "rows carry request summaries" true (contains a "\"request\"")

(* --- Request-class labels survive CSV quoting ----------------------------- *)

let test_csv_quoting () =
  (* a hostile site label — commas and quotes — must ride in one
     RFC 4180 field and round-trip verbatim, beside the request rows the
     monitor reads off request roots *)
  let probe =
    {
      Monitor.stats = (fun () -> []);
      busy = (fun () -> Array.make 8 0);
      comm = (fun () -> Array.make 8 0);
      recovery_stall = (fun () -> Array.make 8 0);
    }
  in
  let m = Monitor.create ~interval:1_000 ~nprocs:8 ~probe in
  Monitor.install m;
  Fun.protect ~finally:Monitor.uninstall (fun () ->
      let sp = Span.state () in
      Span.reset sp;
      Span.open_root sp ~kind:Span.Deref ~proc:0 ~t0:0;
      Span.close_root sp ~t1:100 ~a:0 ~b:1 (* site 0, cache *);
      Span.root sp ~kind:Span.Request ~proc:0 ~t0:0 ~t1:300 ~a:0 ~b:0;
      Span.root sp ~kind:Span.Request ~proc:1 ~t0:0 ~t1:200 ~a:2 ~b:1;
      Monitor.finish m ~makespan:1_000);
  let site_names = [ (0, "point,\"weird\"") ] in
  let csv = Monitor.latency_csv ~site_names m in
  (* the comma and the doubled quotes stay inside one quoted field *)
  check bool "hostile label is quoted" true
    (contains csv "\"point,\"\"weird\"\"\"");
  check bool "request rows carry their class labels" true
    (contains csv "request,point," && contains csv "request,update,");
  (* no row gained a column: every line still has 12 unquoted commas *)
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  List.iter
    (fun line ->
      let commas = ref 0 and in_quotes = ref false in
      String.iter
        (fun c ->
          if c = '"' then in_quotes := not !in_quotes
          else if c = ',' && not !in_quotes then incr commas)
        line;
      check int
        (Printf.sprintf "12 columns separators in %S" line)
        12 !commas)
    lines;
  (* the hostile label did not leak into the JSON export either *)
  match Json.of_string (Json.to_string (Monitor.latency_json ~site_names m)) with
  | j ->
      check bool "JSON round-trips the label" true
        (contains (Json.to_string j) "point,\\\"weird\\\"")
  | exception Json.Parse_error e ->
      Alcotest.failf "latency_json unparseable: %s" e

let suite =
  [
    Alcotest.test_case "interarrival gaps are pure per (stream, index)"
      `Quick test_interarrival_pure;
    Alcotest.test_case "arrivals merge in canonical order" `Quick
      test_arrivals_canonical;
    Alcotest.test_case "the three profiles generate distinct streams"
      `Quick test_profiles_differ;
    Alcotest.test_case "mix grammar round-trips and rejects junk" `Quick
      test_mix_grammar;
    Alcotest.test_case "serving snapshot run-twice byte-identical" `Quick
      test_run_twice;
    Alcotest.test_case "serving deterministic under mix/crash-mix/failstop"
      `Quick test_chaos_deterministic;
    Alcotest.test_case "arrival seed changes the served stream" `Quick
      test_seed_matters;
    Alcotest.test_case "offered-load sweep locates the TreeAdd knee" `Quick
      test_sweep_finds_knee;
    Alcotest.test_case "CLI serve: usage errors exit 2 with one line"
      `Quick test_cli_usage_errors;
    Alcotest.test_case "CLI serve --out: olden-serving/v1, run-twice" `Quick
      test_cli_serve_out;
    Alcotest.test_case "request-class labels survive RFC 4180 quoting"
      `Quick test_csv_quoting;
  ]
