(* Host-side determinism: a run is a pure function of the program and
   configuration — byte-identical metrics snapshots, span streams, and
   time-series exports run after run, faults off or on (including
   crash-and-restart runs) — and the parallel sweep driver's domain pool
   is invisible in every result. *)

open Olden
module B = Olden_benchmarks
module Event_queue = Olden_runtime.Event_queue

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool
let int = Alcotest.int

(* Small scales so the whole suite stays fast (test_benchmarks' table). *)
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

let snapshot ?faults (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs:8 ?faults () in
  let scale = test_scale s in
  let o, spans =
    Span.collect ~kinds:Span.flat_kinds (fun () -> s.B.Common.run cfg ~scale)
  in
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  Json.to_string (B.Common.metrics_snapshot ~spans s ~cfg ~scale o)

(* --- Snapshots are byte-identical run to run ----------------------------- *)

let test_run_twice_faults_off () =
  List.iter
    (fun (s : B.Common.spec) ->
      check string
        (s.B.Common.name ^ ": run-twice")
        (snapshot s) (snapshot s))
    B.Registry.specs

let test_run_twice_faulty sched () =
  List.iter
    (fun (s : B.Common.spec) ->
      let faults () = Option.get (Config.Faults.by_name sched ~seed:7) in
      check string
        (Printf.sprintf "%s %s: run-twice" s.B.Common.name sched)
        (snapshot ~faults:(faults ()) s)
        (snapshot ~faults:(faults ()) s))
    B.Registry.specs

(* --- Span and time-series exports, too ----------------------------------- *)

let spans_jsonl (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs:8 () in
  let o, spans =
    Span.collect (fun () -> s.B.Common.run cfg ~scale:(test_scale s))
  in
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  Span.jsonl spans

let timeseries_jsonl (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs:8 () in
  (B.Common.hooks ()).monitor_interval <- Some 10_000;
  let o =
    Fun.protect
      ~finally:(fun () -> (B.Common.hooks ()).monitor_interval <- None)
      (fun () -> s.B.Common.run cfg ~scale:(test_scale s))
  in
  let m = Option.get (B.Common.hooks ()).last_monitor in
  (B.Common.hooks ()).last_monitor <- None;
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  Monitor.timeseries_jsonl ~site_names:(Site.labels ())
    ~header:[ ("benchmark", Json.String s.B.Common.name) ]
    m

let test_exports_identical () =
  List.iter
    (fun name ->
      let s =
        List.find
          (fun (s : B.Common.spec) -> s.B.Common.name = name)
          B.Registry.specs
      in
      check string (name ^ " span stream: run-twice") (spans_jsonl s)
        (spans_jsonl s);
      check string (name ^ " timeseries: run-twice") (timeseries_jsonl s)
        (timeseries_jsonl s))
    [ "TreeAdd"; "EM3D" ]

(* --- Sweep driver: pool size is invisible -------------------------------- *)

let test_pool_order () =
  let jobs = List.init 20 Fun.id in
  let run domains =
    let vs, st = Domain_pool.map ~domains (fun i -> (i * i) + 1) jobs in
    check int "workers spawned" (min domains 20) st.Domain_pool.domains;
    check int "per-worker stats sized to the pool"
      st.Domain_pool.domains
      (Array.length st.Domain_pool.busy_seconds);
    vs
  in
  let inline = run 1 in
  check (Alcotest.list int) "submission order"
    (List.map (fun i -> (i * i) + 1) jobs)
    inline;
  check (Alcotest.list int) "pool of 4 = inline" inline (run 4)

let test_pool_exception () =
  (* the earliest failed job in submission order wins, whatever domain
     ran it, and only after the pool has drained *)
  let ran = Array.make 16 false in
  match
    Domain_pool.map ~domains:4
      (fun i ->
        ran.(i) <- true;
        if i = 5 || i = 12 then failwith (Printf.sprintf "boom %d" i))
      (List.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected the sweep to re-raise"
  | exception Failure m ->
      check string "first failure by submission order" "boom 5" m;
      check bool "later jobs still ran" true (Array.for_all Fun.id ran)

let test_pool_runs_simulations () =
  (* simulator runs as pool jobs: every formerly global piece of state
     (site registry, span state, hooks, engine pointer) is
     domain-local, so results off a 4-domain pool must be byte-identical
     to the inline ones *)
  let specs = [ B.Treeadd.spec; B.Em3d.spec; B.Health.spec ] in
  let points =
    List.concat_map
      (fun (s : B.Common.spec) ->
        List.map
          (fun sched -> (s.B.Common.name ^ "/" ^ sched, (s, sched)))
          [ "none"; "mix"; "crash-mix" ])
      specs
  in
  let job ~label:_ ((s : B.Common.spec), sched) =
    let faults =
      if sched = "none" then None
      else Some (Option.get (Config.Faults.by_name sched ~seed:7))
    in
    snapshot ?faults s
  in
  let run domains = Sweep.run ~domains job points in
  let inline, _ = run 1 in
  let pooled, st = run 4 in
  check int "pool of 4" 4 st.Domain_pool.domains;
  List.iter2
    (fun (a : string Sweep.point) (b : string Sweep.point) ->
      check string (a.Sweep.label ^ ": submission order kept") a.Sweep.label
        b.Sweep.label;
      check string (a.Sweep.label ^ ": pooled = inline") a.Sweep.value
        b.Sweep.value)
    inline pooled;
  check bool "efficiency within [0,1]" true
    (let e = Domain_pool.efficiency st in
     e >= 0. && e <= 1.)

(* --- Benchmark references keep no shared state --------------------------- *)

let test_voronoi_reference_two_domains () =
  (* two domains running the sequential Voronoi reference at once must
     each get the single-domain answer *)
  let rng = Random.State.make [| 11 |] in
  let raw =
    Array.init 2048 (fun _ ->
        let x = Random.State.float rng 1. in
        (x, Random.State.float rng 1.))
  in
  Array.sort compare raw;
  let expected = B.Voronoi.Reference.run raw in
  let runs () = List.init 8 (fun _ -> B.Voronoi.Reference.run raw) in
  let other = Domain.spawn runs in
  let here = runs () in
  let there = Domain.join other in
  List.iteri
    (fun i r -> check bool (Printf.sprintf "run %d = sequential" i) true (r = expected))
    (here @ there)

(* --- A run emits into the domain that executes it ----------------------- *)

type bind_sites = {
  b_value : Site.t;
  b_left : Site.t;
  b_right : Site.t;
  b_cache : Site.t;
}

(* A tree spread over the processors, built through a cache site, summed
   through migrate sites with a future per left subtree and a return stub
   per call, then summed again through the cache site: migrations,
   returns, futures, steals, line fills and hits in one small run. *)
let bind_program sites ~nprocs () =
  let rec build depth idx =
    if depth = 0 then Gptr.null
    else begin
      let n = Ops.alloc ~proc:(idx mod nprocs) 3 in
      Ops.store_int sites.b_cache n 0 idx;
      Ops.store_ptr sites.b_cache n 1 (build (depth - 1) (2 * idx));
      Ops.store_ptr sites.b_cache n 2 (build (depth - 1) ((2 * idx) + 1));
      n
    end
  in
  let rec migrate_sum t =
    if Gptr.is_null t then 0
    else begin
      let l = Ops.load_ptr sites.b_left t 1 in
      let f =
        Ops.future (fun () -> Value.Int (Ops.call (fun () -> migrate_sum l)))
      in
      let r = Ops.load_ptr sites.b_right t 2 in
      let s = Ops.call (fun () -> migrate_sum r) in
      let v = Ops.load_int sites.b_value t 0 in
      Value.to_int (Ops.touch f) + s + v
    end
  in
  let rec cache_sum t =
    if Gptr.is_null t then 0
    else begin
      let v = Ops.load_int sites.b_cache t 0 in
      let l = cache_sum (Ops.load_ptr sites.b_cache t 1) in
      v + l + cache_sum (Ops.load_ptr sites.b_cache t 2)
    end
  in
  let root = build 6 1 in
  let m = migrate_sum root in
  (m, cache_sum root)

(* Run the program on [engine] and report its result and final heap. *)
let bind_exec sites ~nprocs engine =
  let result = ref (0, 0) in
  Engine.exec engine (fun () -> result := bind_program sites ~nprocs ());
  (!result, Memory.digest (Engine.memory engine))

let test_binding_follows_exec () =
  let nprocs = 4 in
  let cfg = Config.make ~nprocs () in
  let sites =
    {
      b_value = Site.migrate "bind.value";
      b_left = Site.migrate "bind.left";
      b_right = Site.migrate "bind.right";
      b_cache = Site.cache "bind.cache";
    }
  in
  let inline, inline_spans =
    Span.collect (fun () -> bind_exec sites ~nprocs (Engine.create cfg))
  in
  check bool "the inline run emits spans" true (Array.length inline_spans > 0);
  check bool "the inline run emits flat events" true
    (Array.exists (fun (sp : Span.span) -> Span.is_flat sp.Span.kind)
       inline_spans);
  let same_run name (result, digest) =
    let (m, c), heap = inline in
    check (Alcotest.pair int int) (name ^ ": program result") (m, c) result;
    check string (name ^ ": heap digest") heap digest
  in
  (* created here, with this domain's sinks installed; run on a domain
     that has none *)
  let spans = ref 0 in
  Span.install (fun _ -> incr spans);
  let engine = Engine.create cfg in
  let across =
    Fun.protect ~finally:Span.uninstall (fun () ->
        Domain.join (Domain.spawn (fun () -> bind_exec sites ~nprocs engine)))
  in
  check int "the creating domain's span sink receives nothing" 0 !spans;
  same_run "run on another domain" across;
  (* created here, with no sinks; run on a domain that collects *)
  let engine = Engine.create cfg in
  let there, there_spans =
    Domain.join
      (Domain.spawn (fun () ->
           Span.collect (fun () -> bind_exec sites ~nprocs engine)))
  in
  same_run "run on a collecting domain" there;
  check string "the executing domain's span stream = the inline one"
    (Span.jsonl inline_spans) (Span.jsonl there_spans)

(* --- Event_queue.take releases the vacated slot -------------------------- *)

let test_take_releases_payload () =
  (* after popping the last element the queue must not retain the
     payload: a weak pointer to it dies at the next major collection *)
  let q = Event_queue.create () in
  let w = Weak.create 1 in
  (let payload = ref 42 in
   Weak.set w 0 (Some payload);
   Event_queue.push q ~ready_at:1 ~seq:0 payload;
   let got = Event_queue.take q in
   check int "payload round-trips" 42 !(got.Event_queue.payload));
  Gc.full_major ();
  Gc.full_major ();
  check bool "vacated slot does not retain the payload" true
    (Weak.get w 0 = None)

let suite =
  [
    Alcotest.test_case "snapshots identical run-twice (faults off)" `Quick
      test_run_twice_faults_off;
    Alcotest.test_case "snapshots identical run-twice (mix)" `Quick
      (test_run_twice_faulty "mix");
    Alcotest.test_case "snapshots identical run-twice (crash-mix)" `Quick
      (test_run_twice_faulty "crash-mix");
    Alcotest.test_case "span + timeseries exports identical run-twice"
      `Quick test_exports_identical;
    Alcotest.test_case "pool keeps submission order for any size" `Quick
      test_pool_order;
    Alcotest.test_case "pool re-raises the earliest failure" `Quick
      test_pool_exception;
    Alcotest.test_case "simulations on a pool = inline, byte for byte"
      `Quick test_pool_runs_simulations;
    Alcotest.test_case "Event_queue.take releases the vacated slot" `Quick
      test_take_releases_payload;
    Alcotest.test_case "Voronoi reference on two domains at once" `Quick
      test_voronoi_reference_two_domains;
    Alcotest.test_case "an engine emits into the domain that runs it" `Quick
      test_binding_follows_exec;
  ]
