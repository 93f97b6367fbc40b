(* Open-system serving over persistent Olden heaps.

   The batch harness measures closed runs; this driver keeps one of three
   benchmark structures resident and drives it with a seeded open arrival
   stream.  Three layers:

   - Arrival processes (Poisson, Markov-modulated bursty, diurnal), each
     a *stateless* hash of (arrival_seed, stream, index): any arrival's
     gap can be recomputed in isolation, so the stream is replayable and
     the generated schedule is independent of evaluation order.

   - A request model that reuses the benchmarks' own dereference sites:
     a served point query walks the TreeAdd tree through the same
     migrate-annotated sites the kernel uses, an EM3D neighbour gather
     reads remote values through the cached site, Health villages are
     read through the sim's migrate sites.  The heuristic's mechanism
     choices therefore apply to served traffic unchanged.

   - An open-loop executor: arrivals are injected into the engine's
     event queue (Engine.inject) at absolute simulated times fixed
     before any request runs — admission does not wait for service, so
     queueing delay shows up in the measured latency, which is what
     makes the saturation knee observable.

   Determinism: the arrival schedule is canonical, injection happens in
   one host-side loop before the serving epoch opens, and the engine
   underneath is deterministic — so the serving snapshot is a pure
   function of (arrival_seed, fault_seed, config). *)

module C = Olden_config
module Ops = Olden_runtime.Ops
module Site = Olden_runtime.Site
module Engine = Olden_runtime.Engine
module Common = Olden_benchmarks.Common
module Treeadd = Olden_benchmarks.Treeadd
module Em3d = Olden_benchmarks.Em3d
module Health = Olden_benchmarks.Health
module Monitor = Olden_monitor.Monitor
module Span = Olden_span.Span
module Json = Olden_trace.Json
module Sweep = Olden_parallel.Sweep

(* --- Served heaps ------------------------------------------------------ *)

type heap = Treeadd | Em3d | Health

let heap_name = function
  | Treeadd -> "TreeAdd"
  | Em3d -> "EM3D"
  | Health -> "Health"

let all_heaps = [ Treeadd; Em3d; Health ]
let heap_names = List.map heap_name all_heaps

let heap_of_string s =
  match String.lowercase_ascii s with
  | "treeadd" -> Some Treeadd
  | "em3d" -> Some Em3d
  | "health" -> Some Health
  | _ -> None

(* --- Request classes and the mix grammar ------------------------------- *)

type klass = Point | Scan | Update

let klass_name = function Point -> "point" | Scan -> "scan" | Update -> "update"
let klass_code = function Point -> 0 | Scan -> 1 | Update -> 2

let klass_of_string = function
  | "point" -> Some Point
  | "scan" -> Some Scan
  | "update" -> Some Update
  | _ -> None

type mix = (klass * int) list

let canonical m =
  List.filter_map
    (fun k -> Option.map (fun w -> (k, w)) (List.assoc_opt k m))
    [ Point; Scan; Update ]

let default_mix = [ (Point, 6); (Scan, 3); (Update, 1) ]

let mix_weights m = m

let mix_to_string m =
  String.concat ","
    (List.map (fun (k, w) -> Printf.sprintf "%s=%d" (klass_name k) w) m)

let mix_of_string str =
  let parts =
    String.split_on_char ',' str
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then Error "mix: empty specification"
  else begin
    let rec go acc = function
      | [] -> Ok (canonical (List.rev acc))
      | part :: rest -> (
          let name, weight =
            match String.index_opt part '=' with
            | None -> (part, Ok 1)
            | Some i -> (
                let w =
                  String.trim
                    (String.sub part (i + 1) (String.length part - i - 1))
                in
                ( String.trim (String.sub part 0 i),
                  match int_of_string_opt w with
                  | Some n when n > 0 -> Ok n
                  | _ ->
                      Error
                        (Printf.sprintf
                           "mix: weight in %S must be a positive integer" part)
                ))
          in
          match klass_of_string (String.lowercase_ascii (String.trim name)) with
          | None ->
              Error
                (Printf.sprintf "mix: unknown request class %S (expected %s)"
                   name
                   (String.concat "|" (List.map klass_name [ Point; Scan; Update ])))
          | Some k ->
              if List.mem_assoc k acc then
                Error
                  (Printf.sprintf "mix: duplicate request class %S"
                     (klass_name k))
              else (
                match weight with
                | Ok w -> go ((k, w) :: acc) rest
                | Error e -> Error e))
    in
    go [] parts
  end

let pick_class (m : mix) h =
  let total = List.fold_left (fun a (_, w) -> a + w) 0 m in
  let rec go r = function
    | [] -> Point (* unreachable: canonical mixes are non-empty *)
    | (k, w) :: rest -> if r < w then k else go (r - w) rest
  in
  go (h mod total) m

(* --- The seeded arrival process ---------------------------------------- *)

(* Stateless avalanche hash (same family as Health's decision hashes),
   30-bit output so uniform draws are exact on every host. *)
let mix2 a b =
  let h = (a * 0x9e3779b1) lxor (b * 0x85ebca6b) in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) lxor (h lsr 16) in
  h land 0x3fffffff

let hash ~seed ~stream ~index ~salt =
  mix2 (mix2 (mix2 (seed + 0x1234567) (stream + 0x51)) (index + 0x9e37)) (salt + 0xc3)

(* Salts partition the hash stream: the gap, class, ingress, and payload
   of one arrival are independent draws. *)
let salt_gap = 0
let salt_burst = 1
let salt_class = 2
let salt_ingress = 3
let salt_payload = 4

let uniform h = float_of_int (h + 1) /. 1073741825.0 (* (0, 1] *)

let interarrival ~(spec : C.Serving.spec) ~stream ~index =
  let seed = spec.C.Serving.arrival_seed in
  (* aggregate rate split evenly over the streams *)
  let mean =
    float_of_int spec.C.Serving.streams *. 1000. /. spec.C.Serving.rate
  in
  let u = uniform (hash ~seed ~stream ~index ~salt:salt_gap) in
  let exp_draw m = -.Float.log u *. m in
  let gap =
    match spec.C.Serving.profile with
    | C.Serving.Poisson -> exp_draw mean
    | C.Serving.Bursty ->
        (* on/off windows of eight arrivals each; a window is "on" with
           probability 1/2, five times denser than the mean, and the off
           windows stretch so the aggregate offered load is preserved *)
        let window = index lsr 3 in
        let on = hash ~seed ~stream ~index:window ~salt:salt_burst land 1 = 0 in
        if on then exp_draw (mean /. 5.) else exp_draw (mean *. 1.8)
    | C.Serving.Diurnal ->
        (* the offered rate swings sinusoidally (+-75%) with a 64-arrival
           period — a compressed day *)
        let phase = 2. *. Float.pi *. float_of_int (index land 63) /. 64. in
        exp_draw (mean *. (1. +. (0.75 *. Float.sin phase)))
  in
  max 1 (int_of_float (Float.round gap))

type arrival = { a_stream : int; a_index : int; a_offset : int }

let arrivals ~(spec : C.Serving.spec) =
  let out = ref [] in
  for s = 0 to spec.C.Serving.streams - 1 do
    let t = ref 0 and i = ref 0 and stop = ref false in
    while not !stop do
      t := !t + interarrival ~spec ~stream:s ~index:!i;
      if !t > spec.C.Serving.duration then stop := true
      else begin
        out := { a_stream = s; a_index = !i; a_offset = !t } :: !out;
        incr i
      end
    done
  done;
  (* canonical injection order; the key is unique per arrival, so the
     result is independent of generation order (and an in-place unstable
     sort is exact) *)
  let arr = Array.of_list !out in
  Array.sort
    (fun a b ->
      match Int.compare a.a_offset b.a_offset with
      | 0 -> (
          match Int.compare a.a_stream b.a_stream with
          | 0 -> Int.compare a.a_index b.a_index
          | c -> c)
      | c -> c)
    arr;
  Array.to_list arr

(* --- The request model ------------------------------------------------- *)

(* A server is the built heap plus a request dispatcher; each request
   body returns a small integer folded into the run checksum.  Bodies
   run as injected threads, so every dereference below goes through the
   full migrate-vs-cache machinery of the site it names. *)
type server = { request : klass -> int -> int }

let treeadd_server ~scale =
  let depth = Treeadd.depth_for scale in
  let s = Treeadd.make_sites () in
  let root = Treeadd.build s depth in
  let child t bit =
    if bit = 0 then Ops.load_ptr s.Treeadd.s_left t Treeadd.off_left
    else Ops.load_ptr s.Treeadd.s_right t Treeadd.off_right
  in
  (* hashed root-to-frontier descent, charging the kernel's per-node
     work so a served visit costs what a batch visit costs *)
  let rec descend t path levels =
    if Gptr.is_null t || levels = 0 then t
    else begin
      let next = child t (path land 1) in
      Ops.work Treeadd.node_work;
      if Gptr.is_null next then t else descend next (path lsr 1) (levels - 1)
    end
  in
  let rec subtree_sum t levels =
    if Gptr.is_null t || levels = 0 then 0
    else begin
      let l = child t 0 in
      let r = child t 1 in
      let v = Ops.load_int s.Treeadd.s_val t Treeadd.off_val in
      Ops.work Treeadd.node_work;
      v + subtree_sum l (levels - 1) + subtree_sum r (levels - 1)
    end
  in
  let request k payload =
    match k with
    | Point ->
        let t = descend root payload depth in
        if Gptr.is_null t then 0
        else Ops.load_int s.Treeadd.s_val t Treeadd.off_val
    | Scan ->
        (* bounded subtree scan: descend most of the way, sum the last
           four levels *)
        let t = descend root payload (max 0 (depth - 4)) in
        subtree_sum t 4
    | Update ->
        let t = descend root payload depth in
        if Gptr.is_null t then 0
        else begin
          let old = Ops.load_int s.Treeadd.s_val t Treeadd.off_val in
          Ops.store_int s.Treeadd.s_val t Treeadd.off_val
            ((payload land 0xff) + 1);
          old
        end
  in
  { request }

let em3d_server ~(cfg : C.t) ~scale =
  let n = Common.scaled ~scale ~floor:64 2048 in
  let degree = 8 in
  let s = Em3d.make_sites () in
  let g = Em3d.describe ~n ~degree ~nprocs:cfg.C.nprocs ~seed:cfg.C.seed () in
  let b = Em3d.build s g in
  let node_of payload =
    let side =
      if payload land 1 = 0 then b.Em3d.e_nodes else b.Em3d.h_nodes
    in
    side.((payload lsr 1) mod n)
  in
  (* one node's neighbour gather: local fields through the migrate
     sites, neighbour values through the cached site — the kernel's
     inner loop as a request body *)
  let gather node =
    let acc = ref (Ops.load_float s.Em3d.s_value_local node Em3d.off_value) in
    for j = 0 to degree - 1 do
      let nbr = Ops.load_ptr s.Em3d.s_nbr node (Em3d.off_nbr j) in
      let w = Ops.load_float s.Em3d.s_weight node (Em3d.off_weight j) in
      let v = Ops.load_float s.Em3d.s_value_remote nbr Em3d.off_value in
      Ops.work Em3d.edge_work;
      acc := !acc -. (w *. v)
    done;
    !acc
  in
  let fingerprint f = int_of_float (f *. 65536.) land 0x3fffffff in
  let request k payload =
    match k with
    | Point -> fingerprint (gather (node_of payload))
    | Scan ->
        (* bounded range scan along the per-processor node list *)
        let rec walk node left acc =
          if Gptr.is_null node || left = 0 then acc
          else begin
            let v = Ops.load_float s.Em3d.s_value_local node Em3d.off_value in
            Ops.work Em3d.edge_work;
            walk
              (Ops.load_ptr s.Em3d.s_next node Em3d.off_next)
              (left - 1) (acc +. v)
          end
        in
        fingerprint (walk (node_of payload) 8 0.)
    | Update ->
        let node = node_of payload in
        let acc = gather node in
        Ops.store_float s.Em3d.s_value_local node Em3d.off_value acc;
        fingerprint acc
  in
  { request }

let health_server ~scale =
  let levels = Health.levels_for scale in
  let s = Health.make_sites () in
  let root, villages = Health.build s ~levels in
  let varr = Array.of_list villages in
  let nv = Array.length varr in
  let request k payload =
    match k with
    | Point ->
        (* village status card: three scalar reads *)
        let v = varr.(payload mod nv) in
        let vid = Ops.load_int s.Health.s_vfield v Health.v_vid in
        let t = Ops.load_int s.Health.s_vfield v Health.v_treated in
        let w = Ops.load_int s.Health.s_vfield v Health.v_waitsum in
        Ops.work Health.patient_work;
        vid + t + w
    | Scan ->
        (* referral-path walk: root to a hashed leaf through the child
           sites the sim traverses *)
        let rec go v path acc =
          if Gptr.is_null v then acc
          else begin
            let vid = Ops.load_int s.Health.s_vfield v Health.v_vid in
            Ops.work Health.patient_work;
            go
              (Ops.load_ptr s.Health.s_child v (Health.v_child (path land 3)))
              (path lsr 2) (acc + vid)
          end
        in
        go root payload 0
    | Update ->
        (* register a treatment: read-modify-write two counters *)
        let v = varr.(payload mod nv) in
        let t = Ops.load_int s.Health.s_vfield v Health.v_treated in
        Ops.store_int s.Health.s_vfield v Health.v_treated (t + 1);
        let w = Ops.load_int s.Health.s_vfield v Health.v_waitsum in
        Ops.store_int s.Health.s_vfield v Health.v_waitsum
          (w + (payload land 0xf));
        Ops.work Health.patient_work;
        t + w
  in
  { request }

(* --- Running an open-loop serve ---------------------------------------- *)

type result = {
  r_heap : heap;
  r_scheme : C.coherence;
  r_spec : C.Serving.spec;
  r_mix : mix;
  r_admitted : int;
  r_completed : int;
  r_serve_cycles : int;
  r_total_cycles : int;
  r_throughput : float;
  r_classes : (string * Monitor.summary) list;
  r_ingress : int array;
  r_checksum : string;
  r_ok : bool;
}

let run ?(scale = 64) ~(cfg : C.t) ~(spec : C.Serving.spec) ~mix heap =
  let arr = arrivals ~spec in
  let hooks = Common.hooks () in
  let saved_interval = hooks.Common.monitor_interval in
  let saved_inspect = hooks.Common.inspect_engine in
  (* latency quantiles need a monitor; install one at a duration-derived
     interval unless the caller already asked for a specific one *)
  if saved_interval = None then
    hooks.Common.monitor_interval <-
      Some (max 1_000 (spec.C.Serving.duration / 8));
  let ingress_counts = ref [||] in
  hooks.Common.inspect_engine <-
    Some
      (fun e ->
        ingress_counts := Machine.ingress_counts (Engine.machine e);
        match saved_inspect with Some f -> f e | None -> ());
  let acc = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      hooks.Common.monitor_interval <- saved_interval;
      hooks.Common.inspect_engine <- saved_inspect)
    (fun () ->
      (* site ids restart at 0 per serve, so per-site labels and traces
         are stable run to run *)
      Site.reset ();
      let outcome =
        Common.execute cfg ~program:(fun engine ->
            let server =
              match heap with
              | Treeadd -> treeadd_server ~scale
              | Em3d -> em3d_server ~cfg ~scale
              | Health -> health_server ~scale
            in
            Ops.phase "kernel";
            (* the serving epoch opens one lookahead past the built
               heap's clocks, so no arrival lands in the scheduler's
               past (Engine.inject's contract) *)
            let base = Machine.now (Engine.machine engine) 0 + C.lookahead cfg in
            let seed = spec.C.Serving.arrival_seed in
            List.iter
              (fun a ->
                let draw salt =
                  hash ~seed ~stream:a.a_stream ~index:a.a_index ~salt
                in
                let k = pick_class mix (draw salt_class) in
                let ingress = draw salt_ingress mod cfg.C.nprocs in
                let payload = draw salt_payload in
                let admitted_at = base + a.a_offset in
                Engine.inject engine ~proc:ingress ~ready_at:admitted_at
                  ~on_complete:(fun ~proc ~finish ->
                    (* one domain-local read per request: capturing a
                       bound state would add a word to this closure *)
                    let sp = Span.state () in
                    if Span.on sp then
                      Span.root sp ~kind:Span.Request ~proc ~t0:admitted_at
                        ~t1:finish ~a:(klass_code k) ~b:ingress)
                  (fun () -> acc := mix2 !acc (server.request k payload)))
              arr;
            (* the checksum folds in completion order and is read after
               the drain; the program's own return value is a
               placeholder (the main fiber finishes before any request
               runs) *)
            ("serving", true))
      in
      let admitted = outcome.Common.total_stats.Stats.requests_admitted in
      let completed = outcome.Common.total_stats.Stats.requests_completed in
      let classes =
        match hooks.Common.last_monitor with
        | Some m -> Monitor.request_summaries m
        | None -> []
      in
      let serve_cycles = outcome.Common.kernel_cycles in
      let throughput =
        if serve_cycles <= 0 then 0.
        else float_of_int completed *. 1000. /. float_of_int serve_cycles
      in
      {
        r_heap = heap;
        r_scheme = cfg.C.coherence;
        r_spec = spec;
        r_mix = mix;
        r_admitted = admitted;
        r_completed = completed;
        r_serve_cycles = serve_cycles;
        r_total_cycles = outcome.Common.total_cycles;
        r_throughput = throughput;
        r_classes = classes;
        r_ingress = !ingress_counts;
        r_checksum = Printf.sprintf "acc=%d" !acc;
        r_ok = admitted = List.length arr && completed = admitted;
      })

(* --- The offered-load sweep -------------------------------------------- *)

type sweep_point = { sw_offered : float; sw_achieved : float; sw_p99 : int }

(* Straddles every heap's knee at 8 processors: TreeAdd saturates near
   0.3 req/kcy (every point query descends through migrate sites),
   Health near 1, EM3D near 1.5. *)
let default_sweep_rates = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

let saturation_sweep ?(domains = 1) ?scale ?(rates = default_sweep_rates)
    ~cfg ~(spec : C.Serving.spec) ~mix heap =
  let points =
    List.map
      (fun r -> (Printf.sprintf "%s@%.2f" (heap_name heap) r, r))
      rates
  in
  let pts, _stats =
    Sweep.run ~domains
      (fun ~label:_ rate ->
        let spec = { spec with C.Serving.rate } in
        let r = run ?scale ~cfg ~spec ~mix heap in
        let p99 =
          List.fold_left
            (fun best (_, (s : Monitor.summary)) -> max best s.Monitor.p99)
            0 r.r_classes
        in
        { sw_offered = rate; sw_achieved = r.r_throughput; sw_p99 = p99 })
      points
  in
  let values = List.map (fun (p : _ Sweep.point) -> p.Sweep.value) pts in
  let knee =
    Option.map
      (fun p -> p.sw_offered)
      (List.find_opt (fun p -> p.sw_achieved < 0.9 *. p.sw_offered) values)
  in
  (values, knee)

(* --- Reporting ---------------------------------------------------------- *)

let row_name r =
  Printf.sprintf "%s/%s" (heap_name r.r_heap)
    (C.coherence_to_string r.r_scheme)

(* requests per million cycles: the integer throughput metric the
   snapshot diff gates on (gating needs ints; per-kilocycle rates would
   round to one digit) *)
let rpm throughput = int_of_float (Float.round (throughput *. 1000.))

let summary_json (k, (s : Monitor.summary)) =
  Json.Obj
    [
      ("class", Json.String k);
      ("count", Json.Int s.Monitor.count);
      ("mean", Json.Float s.Monitor.mean);
      ("min", Json.Int s.Monitor.min);
      ("max", Json.Int s.Monitor.max);
      ("p50", Json.Int s.Monitor.p50);
      ("p90", Json.Int s.Monitor.p90);
      ("p99", Json.Int s.Monitor.p99);
      ("p999", Json.Int s.Monitor.p999);
    ]

let result_json ?sweep r =
  let sweep_fields =
    match sweep with
    | None -> []
    | Some (points, knee) ->
        [
          ( "sweep",
            Json.List
              (List.map
                 (fun p ->
                   Json.Obj
                     [
                       ("offered_rpk", Json.Float p.sw_offered);
                       ("achieved_rpk", Json.Float p.sw_achieved);
                       ("achieved_rpm", Json.Int (rpm p.sw_achieved));
                       ("p99", Json.Int p.sw_p99);
                     ])
                 points) );
          ( "knee_rpk",
            match knee with Some k -> Json.Float k | None -> Json.Null );
        ]
  in
  Json.Obj
    [
      ("benchmark", Json.String (row_name r));
      ("heap", Json.String (heap_name r.r_heap));
      ("coherence", Json.String (C.coherence_to_string r.r_scheme));
      ( "profile",
        Json.String (C.Serving.profile_to_string r.r_spec.C.Serving.profile) );
      ("rate_rpk", Json.Float r.r_spec.C.Serving.rate);
      ("duration", Json.Int r.r_spec.C.Serving.duration);
      ("streams", Json.Int r.r_spec.C.Serving.streams);
      ("arrival_seed", Json.Int r.r_spec.C.Serving.arrival_seed);
      ("mix", Json.String (mix_to_string r.r_mix));
      ("verified", Json.Bool r.r_ok);
      ("admitted", Json.Int r.r_admitted);
      ("completed", Json.Int r.r_completed);
      ("serve_cycles", Json.Int r.r_serve_cycles);
      ("total_cycles", Json.Int r.r_total_cycles);
      ("throughput_rpm", Json.Int (rpm r.r_throughput));
      ("checksum", Json.String r.r_checksum);
      ( "ingress",
        Json.List (Array.to_list (Array.map (fun i -> Json.Int i) r.r_ingress))
      );
      ( "serving",
        Json.Obj
          (("request", Json.List (List.map summary_json r.r_classes))
          :: sweep_fields) );
    ]

let pp_result ppf r =
  Format.fprintf ppf "%s: %s mix=%s@." (row_name r)
    (C.Serving.to_string r.r_spec)
    (mix_to_string r.r_mix);
  Format.fprintf ppf
    "  admitted %d  completed %d%s  serve %s cycles  throughput %.3f req/kcy@."
    r.r_admitted r.r_completed
    (if r.r_ok then "" else "  [INCOMPLETE]")
    (Common.commas r.r_serve_cycles)
    r.r_throughput;
  List.iter
    (fun (k, (s : Monitor.summary)) ->
      Format.fprintf ppf
        "  %-8s count %6d  p50 %8d  p90 %8d  p99 %8d  p999 %8d  max %8d@." k
        s.Monitor.count s.Monitor.p50 s.Monitor.p90 s.Monitor.p99
        s.Monitor.p999 s.Monitor.max)
    r.r_classes
