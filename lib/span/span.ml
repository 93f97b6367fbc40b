(* Causal span tracing for the Olden runtime.

   Every dereference opens a *root* span identified by a trace id
   (origin processor, per-processor sequence number); the engine and the
   machine layer then emit *child* spans under an ambient context — the
   current trace id plus the current parent span id — which is saved
   into scheduled-event closures and restored when they run, so
   migration legs, return stubs, retransmits, duplicate-suppressed
   deliveries, recovery messages, and crash replays all land in one
   causal tree even though they execute on other processors' clocks.

   Span kinds split three ways:

   - roots ([Deref], [Return]) — one per episode;
   - hops ([Send] .. [Stall]) — intervals that tile the episode: the
     durations of a root's direct hop children plus a synthesized
     "compute" residual always sum exactly to the episode latency
     (see {!explain});
   - events ([Drop] .. [Crash]) — point or overlapping annotations
     (fault decisions, retries, RPC envelopes) that explain *why* the
     hops took as long as they did.

   Like {!Trace}, emission must cost nothing when off: every site is
   guarded by [on s], one boolean load on the span state [s] the caller
   holds (the engine binds its domain's state at [exec]).  The sink has
   three consumers with different cost budgets: the collector (allocates one
   record per span, only for export/tests), the flight recorder
   ({!Flight}, a fixed int ring that is allocation-free and can stay on
   for whole chaos runs), and the monitor (its latency histograms and
   exemplars are read off the stream, allocation-free).  [on] is true
   when any of them is active. *)

module Json = Olden_trace.Json

type kind =
  | Deref (* root: one dereference episode; a = site, b = mechanism *)
  | Return (* root: return stub to origin; a = target proc *)
  | Send (* hop: request marshalling + send occupancy; a = target *)
  | Wire (* hop: network latency *)
  | Penalty (* hop: fault-injected delivery penalty; a = cycles *)
  | Queue (* hop: waiting in the target's event queue *)
  | Replay (* hop: crash-recovery replay before the op re-runs *)
  | Recv (* hop: receive + cache/thread state acquisition *)
  | Service (* hop: running the continuation at the target *)
  | Cache_service (* hop: software-cache service after a fallback *)
  | Stall (* hop: sender stalled by failed delivery; a = penalty, b = attempts *)
  | Drop (* event: message dropped; a = attempt, b = 1 if outage *)
  | Backoff (* event: retry backoff wait; a = attempt, b = wait *)
  | Delay (* event: fault-injected extra latency; a = cycles *)
  | Dup (* event: duplicate delivery suppressed *)
  | Fallback (* event: migration degraded to caching; a = home, b = attempts *)
  | Rpc (* event: one request/reply envelope; a = dst, b = klass code *)
  | Crash (* event: crash + warm restart; a = pages lost, b = homes notified *)
  | Failover (* event: fail-stop promotion; a = pages moved, b = victim *)
  | Request (* root: one served request; a = class code, b = ingress proc *)

type span = {
  trace_proc : int; (* trace id: processor that opened the root... *)
  trace_seq : int; (* ...and its per-processor root sequence number *)
  id : int; (* unique within a run, in emission order of [enter]/[child] *)
  parent : int; (* parent span id; -1 for roots *)
  kind : kind;
  proc : int; (* processor whose clock domain times this span *)
  t0 : int; (* simulated cycles, inclusive *)
  t1 : int; (* simulated cycles; t0 = t1 for point events *)
  a : int; (* kind-specific payload (see above) *)
  b : int;
}

let kind_code = function
  | Deref -> 0
  | Return -> 1
  | Send -> 2
  | Wire -> 3
  | Penalty -> 4
  | Queue -> 5
  | Replay -> 6
  | Recv -> 7
  | Service -> 8
  | Cache_service -> 9
  | Stall -> 10
  | Drop -> 11
  | Backoff -> 12
  | Delay -> 13
  | Dup -> 14
  | Fallback -> 15
  | Rpc -> 16
  | Crash -> 17
  | Failover -> 18
  | Request -> 19

let kind_of_code = function
  | 0 -> Deref
  | 1 -> Return
  | 2 -> Send
  | 3 -> Wire
  | 4 -> Penalty
  | 5 -> Queue
  | 6 -> Replay
  | 7 -> Recv
  | 8 -> Service
  | 9 -> Cache_service
  | 10 -> Stall
  | 11 -> Drop
  | 12 -> Backoff
  | 13 -> Delay
  | 14 -> Dup
  | 15 -> Fallback
  | 16 -> Rpc
  | 17 -> Crash
  | 18 -> Failover
  | 19 -> Request
  | c -> invalid_arg (Printf.sprintf "Span.kind_of_code: %d" c)

let kind_name = function
  | Deref -> "deref"
  | Return -> "return"
  | Send -> "send"
  | Wire -> "wire"
  | Penalty -> "penalty"
  | Queue -> "queue"
  | Replay -> "replay"
  | Recv -> "recv"
  | Service -> "service"
  | Cache_service -> "cache_service"
  | Stall -> "stall"
  | Drop -> "drop"
  | Backoff -> "backoff"
  | Delay -> "delay"
  | Dup -> "dup"
  | Fallback -> "fallback"
  | Rpc -> "rpc"
  | Crash -> "crash"
  | Failover -> "failover"
  | Request -> "request"

(* Hops tile an episode; events annotate it; roots own it. *)
let is_hop = function
  | Send | Wire | Penalty | Queue | Replay | Recv | Service | Cache_service
  | Stall ->
      true
  | Deref | Return | Drop | Backoff | Delay | Dup | Fallback | Rpc | Crash
  | Failover | Request ->
      false

let is_root = function Deref | Return | Request -> true | _ -> false

(* --- The sink ----------------------------------------------------------- *)

(* All ambient span state — the sink, the in-flight trace context, and
   the per-processor sequence/last-span arrays — lives in one record
   behind a domain-local key: engines running on different domains (the
   parallel sweep driver) keep fully independent span streams, and
   [Span.reset] per run keeps each stream's ids deterministic.  The key
   is read once, where a layer binds the record ([state]); the hooks
   take the bound record and pay field loads only.  The record also
   holds its domain's flight recorder, so emission reads no key
   either. *)

let max_procs = 1024

type consumer =
  tp:int -> ts:int -> kind:kind -> t0:int -> t1:int -> a:int -> b:int -> unit

type state = {
  mutable on : bool;
  mutable collector_on : bool;
  mutable sink : span -> unit;
  mutable monitor_on : bool;
  mutable monitor : consumer;
  mutable next_id : int;
  mutable ctx_tp : int; (* trace id of the episode in flight, -1 when none *)
  mutable ctx_ts : int;
  mutable ctx_parent : int; (* span id new children attach to *)
  mutable root_id : int;
  mutable root_t0 : int;
  mutable root_proc : int;
  mutable root_kind : int;
  root_seq : int array; (* next trace_seq per processor *)
  last_span : int array; (* last span id emitted per proc *)
  flight : Flight.recorder; (* this domain's ring *)
}

let no_consumer ~tp:_ ~ts:_ ~kind:_ ~t0:_ ~t1:_ ~a:_ ~b:_ = ()

let key =
  Domain.DLS.new_key (fun () ->
      {
        on = false;
        collector_on = false;
        sink = (fun _ -> ());
        monitor_on = false;
        monitor = no_consumer;
        next_id = 0;
        ctx_tp = -1;
        ctx_ts = -1;
        ctx_parent = -1;
        root_id = -1;
        root_t0 = 0;
        root_proc = -1;
        root_kind = 0;
        root_seq = Array.make max_procs 0;
        last_span = Array.make max_procs (-1);
        flight = Flight.recorder ();
      })

let state () = Domain.DLS.get key
let on g = g.on
let is_on () = (state ()).on

let refresh_on () =
  let g = state () in
  g.on <- g.collector_on || g.monitor_on || Flight.enabled g.flight

let install sink =
  let g = state () in
  g.sink <- sink;
  g.collector_on <- true;
  refresh_on ()

let uninstall () =
  let g = state () in
  g.collector_on <- false;
  g.sink <- (fun _ -> ());
  refresh_on ()

let attach_monitor f =
  let g = state () in
  g.monitor <- f;
  g.monitor_on <- true;
  refresh_on ()

let detach_monitor () =
  let g = state () in
  g.monitor_on <- false;
  g.monitor <- no_consumer;
  refresh_on ()

let flight_enable ?capacity () =
  Flight.enable ?capacity ();
  refresh_on ()

let flight_disable () =
  Flight.disable ();
  refresh_on ()

let flight_set_path = Flight.set_path
let flight_path = Flight.get_path

(* --- Ambient context ---------------------------------------------------- *)

type saved = {
  s_tp : int;
  s_ts : int;
  s_parent : int;
  s_root : int;
  s_rt0 : int;
  s_rproc : int;
  s_rkind : int;
}

let no_ctx =
  {
    s_tp = -1;
    s_ts = -1;
    s_parent = -1;
    s_root = -1;
    s_rt0 = 0;
    s_rproc = -1;
    s_rkind = 0;
  }

let save g =
  {
    s_tp = g.ctx_tp;
    s_ts = g.ctx_ts;
    s_parent = g.ctx_parent;
    s_root = g.root_id;
    s_rt0 = g.root_t0;
    s_rproc = g.root_proc;
    s_rkind = g.root_kind;
  }

let restore g s =
  g.ctx_tp <- s.s_tp;
  g.ctx_ts <- s.s_ts;
  g.ctx_parent <- s.s_parent;
  g.root_id <- s.s_root;
  g.root_t0 <- s.s_rt0;
  g.root_proc <- s.s_rproc;
  g.root_kind <- s.s_rkind

let clear g = restore g no_ctx

let reset g =
  g.next_id <- 0;
  clear g;
  Array.fill g.root_seq 0 max_procs 0;
  Array.fill g.last_span 0 max_procs (-1)

let trace_proc g = g.ctx_tp
let trace_seq g = g.ctx_ts
let parent g = g.ctx_parent
let root_open g = g.root_id >= 0

let deref_t0 g =
  if g.root_id >= 0 && g.root_kind = kind_code Deref then g.root_t0 else -1

let last_span_on g proc = if proc < max_procs then g.last_span.(proc) else -1

(* --- Emission ----------------------------------------------------------- *)

(* The collector consumer allocates the record; the flight recorder
   stores raw ints and the monitor takes them as arguments.  Guarding
   each consumer separately keeps the flight and monitor paths (chaos
   and serving runs) allocation-free. *)
let emit_raw g ~tp ~ts ~id ~parent ~kind ~proc ~t0 ~t1 ~a ~b =
  if proc >= 0 && proc < max_procs then g.last_span.(proc) <- id;
  if Flight.enabled g.flight then
    Flight.note g.flight ~tp ~ts ~id ~parent ~kind:(kind_code kind) ~proc ~t0
      ~t1 ~a ~b;
  if g.monitor_on then g.monitor ~tp ~ts ~kind ~t0 ~t1 ~a ~b;
  if g.collector_on then
    g.sink { trace_proc = tp; trace_seq = ts; id; parent; kind; proc; t0; t1; a; b }

let fresh_id g =
  let id = g.next_id in
  g.next_id <- id + 1;
  id

let open_root g ~kind ~proc ~t0 =
  let seq = g.root_seq.(proc) in
  g.root_seq.(proc) <- seq + 1;
  g.ctx_tp <- proc;
  g.ctx_ts <- seq;
  let id = fresh_id g in
  g.root_id <- id;
  g.ctx_parent <- id;
  g.root_t0 <- t0;
  g.root_proc <- proc;
  g.root_kind <- kind_code kind

let close_root g ~t1 ~a ~b =
  if g.root_id >= 0 then begin
    emit_raw g ~tp:g.ctx_tp ~ts:g.ctx_ts ~id:g.root_id ~parent:(-1)
      ~kind:(kind_of_code g.root_kind) ~proc:g.root_proc ~t0:g.root_t0 ~t1 ~a ~b;
    clear g
  end

(* A complete root episode in one shot (used for request roots, emitted
   at completion).  Unlike [open_root]/[close_root] this never touches
   the ambient context, so the dereference roots the request's body
   opened and closed on its own clock are unaffected — the request root
   gets its own trace id and stands alone in the stream. *)
let root g ~kind ~proc ~t0 ~t1 ~a ~b =
  let seq = g.root_seq.(proc) in
  g.root_seq.(proc) <- seq + 1;
  emit_raw g ~tp:proc ~ts:seq ~id:(fresh_id g) ~parent:(-1) ~kind ~proc ~t0 ~t1
    ~a ~b

let child g ~kind ~proc ~t0 ~t1 ~a ~b =
  emit_raw g ~tp:g.ctx_tp ~ts:g.ctx_ts ~id:(fresh_id g) ~parent:g.ctx_parent
    ~kind ~proc ~t0 ~t1 ~a ~b

(* Nested envelope spans (RPC, crash): reserve the id up front so fault
   events emitted inside attach to it, emit the envelope on exit.
   Usage:  let prev = parent g in let id = enter g in
           ... ; exit_emit g ~id ~prev ~kind ... *)
let enter g =
  let id = fresh_id g in
  g.ctx_parent <- id;
  id

let exit_emit g ~id ~prev ~kind ~proc ~t0 ~t1 ~a ~b =
  g.ctx_parent <- prev;
  emit_raw g ~tp:g.ctx_tp ~ts:g.ctx_ts ~id ~parent:prev ~kind ~proc ~t0 ~t1 ~a
    ~b

(* --- Collector ----------------------------------------------------------- *)

module Collector = struct
  type t = { mutable arr : span option array; mutable len : int }

  let create () = { arr = Array.make 1024 None; len = 0 }

  let add c sp =
    if c.len = Array.length c.arr then begin
      let bigger = Array.make (2 * c.len) None in
      Array.blit c.arr 0 bigger 0 c.len;
      c.arr <- bigger
    end;
    c.arr.(c.len) <- Some sp;
    c.len <- c.len + 1

  let length c = c.len

  let spans c =
    Array.init c.len (fun i ->
        match c.arr.(i) with Some sp -> sp | None -> assert false)
end

let collect f =
  let c = Collector.create () in
  install (Collector.add c);
  Fun.protect ~finally:uninstall (fun () ->
      let result = f () in
      (result, Collector.spans c))

(* --- olden-spans/v1 JSONL ------------------------------------------------ *)

let trace_label tp ts = string_of_int tp ^ ":" ^ string_of_int ts

let span_json sp =
  Json.Obj
    [
      ("trace", Json.String (trace_label sp.trace_proc sp.trace_seq));
      ("id", Json.Int sp.id);
      ("parent", Json.Int sp.parent);
      ("kind", Json.String (kind_name sp.kind));
      ("proc", Json.Int sp.proc);
      ("t0", Json.Int sp.t0);
      ("t1", Json.Int sp.t1);
      ("a", Json.Int sp.a);
      ("b", Json.Int sp.b);
    ]

let jsonl spans =
  let b = Buffer.create 4096 in
  Json.to_buffer b
    (Json.Obj
       [
         ("schema", Json.String "olden-spans/v1");
         ("spans", Json.Int (Array.length spans));
       ]);
  Buffer.add_char b '\n';
  Array.iter
    (fun sp ->
      Json.to_buffer b (span_json sp);
      Buffer.add_char b '\n')
    spans;
  Buffer.contents b

(* --- Chrome trace_event export ------------------------------------------ *)

(* Complete ("X") slices, one track per processor, plus flow arrows from
   a parent span's track to each child that runs on a different
   processor — migration legs and return stubs draw as arrows across
   tracks.  Cycles render as microseconds, like {!Chrome_trace}. *)
let chrome_json ~nprocs spans =
  let meta name tid args =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  let metadata =
    meta "process_name" 0 [ ("name", Json.String "olden spans") ]
    :: List.concat
         (List.init nprocs (fun p ->
              [
                meta "thread_name" p
                  [ ("name", Json.String (Printf.sprintf "proc %d" p)) ];
                meta "thread_sort_index" p [ ("sort_index", Json.Int p) ];
              ]))
  in
  let by_id = Hashtbl.create (Array.length spans) in
  Array.iter (fun sp -> Hashtbl.replace by_id sp.id sp) spans;
  let slice sp =
    Json.Obj
      [
        ("name", Json.String (kind_name sp.kind));
        ("ph", Json.String "X");
        ("ts", Json.Int sp.t0);
        ("dur", Json.Int (sp.t1 - sp.t0));
        ("pid", Json.Int 0);
        ("tid", Json.Int sp.proc);
        ( "args",
          Json.Obj
            [
              ("trace", Json.String (trace_label sp.trace_proc sp.trace_seq));
              ("id", Json.Int sp.id);
              ("parent", Json.Int sp.parent);
              ("a", Json.Int sp.a);
              ("b", Json.Int sp.b);
            ] );
      ]
  in
  let flow ~phase ~id ~ts ~tid extra =
    Json.Obj
      ([
         ("name", Json.String "causal");
         ("cat", Json.String "flow");
         ("ph", Json.String phase);
         ("id", Json.Int id);
         ("ts", Json.Int ts);
         ("pid", Json.Int 0);
         ("tid", Json.Int tid);
       ]
      @ extra)
  in
  let flows = ref [] in
  Array.iter
    (fun sp ->
      if sp.parent >= 0 then
        match Hashtbl.find_opt by_id sp.parent with
        | Some pa when pa.proc <> sp.proc && pa.proc >= 0 && sp.proc >= 0 ->
            flows :=
              flow ~phase:"f" ~id:sp.id ~ts:sp.t0 ~tid:sp.proc
                [ ("bp", Json.String "e") ]
              :: flow ~phase:"s" ~id:sp.id ~ts:(min pa.t1 sp.t0) ~tid:pa.proc []
              :: !flows
        | _ -> ())
    spans;
  let slices = Array.to_list (Array.map slice spans) in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ slices @ List.rev !flows));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("schema", Json.String "olden-spans/v1");
            ("time_unit", Json.String "simulated cycles (shown as us)");
          ] );
    ]

let chrome_to_string ~nprocs spans =
  Json.to_string (chrome_json ~nprocs spans) ^ "\n"

(* --- Episode reconstruction & explain ----------------------------------- *)

type node = { span : span; mutable kids : node list (* reverse order *) }

(* Build the causal tree of one episode, identified by its trace id.
   Returns the root node, or [None] if the trace id never completed a
   root span. *)
let episode_tree spans ~trace_proc ~trace_seq =
  let mine =
    Array.to_list spans
    |> List.filter (fun sp ->
           sp.trace_proc = trace_proc && sp.trace_seq = trace_seq)
  in
  let nodes = List.map (fun sp -> (sp.id, { span = sp; kids = [] })) mine in
  let find id = List.assoc_opt id nodes in
  let root = ref None in
  List.iter
    (fun (_, n) ->
      if n.span.parent < 0 then begin
        if is_root n.span.kind then root := Some n
      end
      else
        match find n.span.parent with
        | Some p -> p.kids <- n :: p.kids
        | None -> ())
    nodes;
  (match !root with
  | Some r ->
      let rec order n =
        n.kids <-
          List.sort
            (fun x y ->
              if x.span.t0 <> y.span.t0 then compare x.span.t0 y.span.t0
              else compare x.span.id y.span.id)
            (List.rev n.kids);
        List.iter order n.kids
      in
      order r
  | None -> ());
  !root

let mech_names = [| "local"; "cache"; "migrate"; "fallback" |]
let klass_names = [| "data"; "migration"; "return"; "recovery"; "replica" |]
let request_class_names = [| "point"; "scan"; "update" |]

let array_name names i =
  if i >= 0 && i < Array.length names then names.(i) else string_of_int i

let request_class_name = array_name request_class_names

(* One human line per span kind; [site_name] labels dereference sites. *)
let describe ~site_name sp =
  let dur = sp.t1 - sp.t0 in
  let iv =
    if dur = 0 then Printf.sprintf "@%d" sp.t0
    else Printf.sprintf "[%d, %d] %d cy" sp.t0 sp.t1 dur
  in
  let detail =
    match sp.kind with
    | Deref ->
        Printf.sprintf "site %s mech=%s" (site_name sp.a)
          (array_name mech_names sp.b)
    | Return -> Printf.sprintf "to proc %d" sp.a
    | Send -> Printf.sprintf "to proc %d" sp.a
    | Wire -> "network latency"
    | Penalty -> Printf.sprintf "delivery penalty %d cy" sp.a
    | Queue -> "queued at target"
    | Replay -> "crash-recovery replay"
    | Recv -> "receive + state acquisition"
    | Service -> "continuation at target"
    | Cache_service -> "software-cache service"
    | Stall -> Printf.sprintf "sender stalled %d cy after %d attempts" sp.a sp.b
    | Drop ->
        Printf.sprintf "attempt %d dropped%s" sp.a
          (if sp.b <> 0 then " (outage)" else "")
    | Backoff -> Printf.sprintf "retry backoff %d cy before attempt %d" sp.b sp.a
    | Delay -> Printf.sprintf "delivery delayed %d cy" sp.a
    | Dup -> "duplicate suppressed"
    | Fallback ->
        Printf.sprintf "gave up migrating to home %d after %d attempts" sp.a
          sp.b
    | Rpc -> Printf.sprintf "dst=%d klass=%s" sp.a (array_name klass_names sp.b)
    | Crash -> Printf.sprintf "%d pages lost, %d homes notified" sp.a sp.b
    | Failover ->
        Printf.sprintf "%d home pages promoted after p%d fail-stopped" sp.a
          sp.b
    | Request ->
        Printf.sprintf "class=%s ingress proc %d"
          (request_class_name sp.a)
          sp.b
  in
  Printf.sprintf "%-13s proc %d  %-22s %s" (kind_name sp.kind) sp.proc iv
    detail

(* Pretty-print one episode's full causal chain: the tree, then the hop
   accounting.  Direct hop children tile the root interval; whatever the
   instrumented hops do not cover (pointer tests, local compute) is
   reported as one synthesized "(compute)" residual, so per-hop cycles
   always sum exactly to the episode latency. *)
let explain b ~site_name spans ~trace_proc ~trace_seq =
  match episode_tree spans ~trace_proc ~trace_seq with
  | None ->
      Buffer.add_string b
        (Printf.sprintf "  trace %s: no completed episode recorded\n"
           (trace_label trace_proc trace_seq))
  | Some root ->
      let rsp = root.span in
      let episode = rsp.t1 - rsp.t0 in
      Buffer.add_string b
        (Printf.sprintf "trace %s  span %d  %s\n"
           (trace_label trace_proc trace_seq)
           rsp.id (describe ~site_name rsp));
      let rec pp indent n =
        List.iter
          (fun k ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %s\n" indent
                 (if is_hop k.span.kind then "+" else "*")
                 (describe ~site_name k.span));
            pp (indent ^ "  ") k)
          n.kids
      in
      pp "  " root;
      let hops = List.filter (fun k -> is_hop k.span.kind) root.kids in
      let hop_sum =
        List.fold_left (fun acc k -> acc + (k.span.t1 - k.span.t0)) 0 hops
      in
      let residual = episode - hop_sum in
      Buffer.add_string b "  hop accounting:\n";
      List.iter
        (fun k ->
          Buffer.add_string b
            (Printf.sprintf "    %-13s %8d cy\n"
               (kind_name k.span.kind)
               (k.span.t1 - k.span.t0)))
        hops;
      if residual <> 0 then
        Buffer.add_string b
          (Printf.sprintf "    %-13s %8d cy\n" "(compute)" residual);
      Buffer.add_string b
        (Printf.sprintf "    %-13s %8d cy  (episode %d cy)\n" "total"
           (hop_sum + residual) episode)

(* --- Flight-recorder dump ------------------------------------------------ *)

let render_flight_event ev =
  Printf.sprintf
    "trace=%s id=%d parent=%d kind=%s proc=%d t=[%d, %d] a=%d b=%d"
    (trace_label ev.(0) ev.(1))
    ev.(2) ev.(3)
    (kind_name (kind_of_code ev.(4)))
    ev.(5) ev.(6) ev.(7) ev.(8) ev.(9)

let flight_dump ~reason ~state =
  Flight.dump ~reason ~state ~render:render_flight_event ()
