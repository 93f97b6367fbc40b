(* Span tracing for the Olden runtime: the one event stream.

   Every dereference opens a *root* span identified by a trace id
   (origin processor, per-processor sequence number); the engine and the
   machine layer then emit *child* spans under an ambient context — the
   current trace id plus the current parent span id — which is saved
   into scheduled-event closures and restored when they run, so
   migration legs, return stubs, retransmits, duplicate-suppressed
   deliveries, recovery messages, and crash replays all land in one
   causal tree even though they execute on other processors' clocks.

   Span kinds split four ways:

   - roots ([Deref], [Return], [Request]) — one per episode;
   - hops ([Send] .. [Stall]) — intervals that tile the episode: the
     durations of a root's direct hop children plus a synthesized
     "compute" residual always sum exactly to the episode latency
     (see {!explain});
   - events ([Drop] .. [Failover]) — point or overlapping annotations
     (fault decisions, retries, RPC envelopes) that explain *why* the
     hops took as long as they did;
   - flat events ([Migrate_send] .. [Phase]) — point events of the
     runtime and the cache layer (migrations, futures, steals, cache
     hits, misses, flushes, invalidations, directory updates, phase
     marks), stamped with the thread and dereference site in effect.
     They sit outside the causal tree: they take no span id and no root
     sequence number (id, parent and trace are all -1), so adding them
     to a stream moves nothing else in it.

   Emission must cost nothing when off.  The sink has three consumers,
   each taking a set of kinds (a bit mask over kind codes): the
   collector (every kind unless installed for fewer; allocates one
   record per span, for export, analysis and tests), the flight
   recorder ({!Flight}, the causal kinds, in a fixed int ring that is
   allocation-free and can stay on for whole chaos runs), and the
   monitor (the kinds its latency histograms read, allocation-free).
   The state keeps the union of their masks: a flat site is guarded by
   [takes s kind], one load and one test, and the causal sites by
   [on s], true when a consumer takes any causal kind. *)

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
  | Migrate_send (* flat: a computation migration leaves; a = target *)
  | Migrate_arrive (* flat: the migrated thread restarts; a = source *)
  | Return_send (* flat: a return stub fires; a = target *)
  | Return_arrive (* flat: a = source *)
  | Future_spawn (* flat: a = future id *)
  | Future_resolve (* flat: a = future id, b = waiters *)
  | Future_touch (* flat: a = future id, b = 1 if the toucher parked *)
  | Steal (* flat: a continuation popped from the local work list *)
  | Cache_hit (* flat: a = home, b = page, c = line *)
  | Cache_miss (* flat: a line fetch; a = home, b = page, c = line *)
  | Cache_flush (* flat: local scheme's wholesale invalidation; a = entries *)
  | Suspect_all (* flat: bilateral acquire marks every page suspect *)
  | Revalidate (* flat: a = home, b = page, c = lines dropped *)
  | Inval_send (* flat: a = target, b = page *)
  | Inval_recv (* flat: a = source, b = page, c = lines dropped *)
  | Dir_write (* flat: home directory stamps a line; a = page, b = line *)
  | Dir_release (* flat: home timestamp bump at a release; a = page, b = ts *)
  | Remote_alloc (* flat: a = home, b = words *)
  | Phase (* flat: a phase mark; a = interned name ({!phase_name}) *)

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
  c : int; (* third payload word of the flat kinds; 0 elsewhere *)
  tid : int; (* flat kinds: simulated thread id, -1 when none applies *)
  site : int; (* flat kinds: dereference-site id, -1 when none applies *)
}

let[@inline] kind_code = function
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
  | Migrate_send -> 20
  | Migrate_arrive -> 21
  | Return_send -> 22
  | Return_arrive -> 23
  | Future_spawn -> 24
  | Future_resolve -> 25
  | Future_touch -> 26
  | Steal -> 27
  | Cache_hit -> 28
  | Cache_miss -> 29
  | Cache_flush -> 30
  | Suspect_all -> 31
  | Revalidate -> 32
  | Inval_send -> 33
  | Inval_recv -> 34
  | Dir_write -> 35
  | Dir_release -> 36
  | Remote_alloc -> 37
  | Phase -> 38

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
  | 20 -> Migrate_send
  | 21 -> Migrate_arrive
  | 22 -> Return_send
  | 23 -> Return_arrive
  | 24 -> Future_spawn
  | 25 -> Future_resolve
  | 26 -> Future_touch
  | 27 -> Steal
  | 28 -> Cache_hit
  | 29 -> Cache_miss
  | 30 -> Cache_flush
  | 31 -> Suspect_all
  | 32 -> Revalidate
  | 33 -> Inval_send
  | 34 -> Inval_recv
  | 35 -> Dir_write
  | 36 -> Dir_release
  | 37 -> Remote_alloc
  | 38 -> Phase
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
  | Migrate_send -> "migrate_send"
  | Migrate_arrive -> "migrate_arrive"
  | Return_send -> "return_send"
  | Return_arrive -> "return_arrive"
  | Future_spawn -> "future_spawn"
  | Future_resolve -> "future_resolve"
  | Future_touch -> "future_touch"
  | Steal -> "steal"
  | Cache_hit -> "cache_hit"
  | Cache_miss -> "cache_miss"
  | Cache_flush -> "cache_flush"
  | Suspect_all -> "suspect_all"
  | Revalidate -> "revalidate"
  | Inval_send -> "inval_send"
  | Inval_recv -> "inval_recv"
  | Dir_write -> "dir_write"
  | Dir_release -> "dir_release"
  | Remote_alloc -> "remote_alloc"
  | Phase -> "phase"

(* Kind masks: bit [kind_code k] stands for kind [k]. *)
let causal_mask = (1 lsl 20) - 1
let all_mask = (1 lsl 39) - 1
let flat_mask = all_mask land lnot causal_mask
let is_flat k = kind_code k >= 20
let causal_kinds = List.init 20 kind_of_code
let flat_kinds = List.init 19 (fun i -> kind_of_code (20 + i))

let flat spans =
  Array.of_seq (Seq.filter (fun sp -> is_flat sp.kind) (Array.to_seq spans))
let mask_of kinds =
  List.fold_left (fun m k -> m lor (1 lsl kind_code k)) 0 kinds

(* Hops tile an episode; events annotate it; roots own it. *)
let is_hop = function
  | Send | Wire | Penalty | Queue | Replay | Recv | Service | Cache_service
  | Stall ->
      true
  | _ -> false

let is_root = function Deref | Return | Request -> true | _ -> false

(* --- The sink ----------------------------------------------------------- *)

(* All ambient span state — the consumers, the in-flight trace context,
   the thread and site in effect, and the per-processor sequence and
   last-span arrays — lives in one record behind a domain-local key:
   engines running on different domains (the parallel sweep driver) keep
   fully independent span streams, and [Span.reset] per run keeps each
   stream's ids deterministic.  The key is read once, where a layer
   binds the record ([state]); the hooks take the bound record and pay
   field loads only.  The record also holds its domain's flight
   recorder, so emission reads no key either. *)

let max_procs = 1024

type consumer =
  tp:int -> ts:int -> kind:kind -> t0:int -> t1:int -> a:int -> b:int -> unit

type state = {
  mutable on : bool; (* some consumer takes a causal kind *)
  mutable mask : int; (* the kinds some consumer takes *)
  mutable collector_mask : int;
  mutable sink : span -> unit;
  mutable monitor_mask : int;
  mutable monitor : consumer;
  mutable next_id : int;
  mutable ctx_tp : int; (* trace id of the episode in flight, -1 when none *)
  mutable ctx_ts : int;
  mutable ctx_parent : int; (* span id new children attach to *)
  mutable root_id : int;
  mutable root_t0 : int;
  mutable root_proc : int;
  mutable root_kind : int;
  mutable cur_tid : int; (* thread stamped on the cache layer's flat events *)
  mutable cur_site : int; (* and the dereference site *)
  root_seq : int array; (* next trace_seq per processor *)
  last_span : int array; (* last span id emitted per proc *)
  flight : Flight.recorder; (* this domain's ring *)
}

let no_consumer ~tp:_ ~ts:_ ~kind:_ ~t0:_ ~t1:_ ~a:_ ~b:_ = ()

let key =
  Domain.DLS.new_key (fun () ->
      {
        on = false;
        mask = 0;
        collector_mask = 0;
        sink = (fun _ -> ());
        monitor_mask = 0;
        monitor = no_consumer;
        next_id = 0;
        ctx_tp = -1;
        ctx_ts = -1;
        ctx_parent = -1;
        root_id = -1;
        root_t0 = 0;
        root_proc = -1;
        root_kind = 0;
        cur_tid = -1;
        cur_site = -1;
        root_seq = Array.make max_procs 0;
        last_span = Array.make max_procs (-1);
        flight = Flight.recorder ();
      })

let state () = Domain.DLS.get key
let on g = g.on
let is_on () = (state ()).on
let[@inline] takes g kind = g.mask land (1 lsl kind_code kind) <> 0
let[@inline] flat_on g = g.mask land flat_mask <> 0

(* The flight recorder takes the causal kinds; the collector and the
   monitor take the kinds they were installed with. *)
let refresh_on () =
  let g = state () in
  g.mask <-
    g.collector_mask
    lor (if Flight.enabled g.flight then causal_mask else 0)
    lor g.monitor_mask;
  g.on <- g.mask land causal_mask <> 0

let install ?kinds sink =
  let g = state () in
  g.sink <- sink;
  g.collector_mask <-
    (match kinds with Some ks -> mask_of ks | None -> all_mask);
  refresh_on ()

let uninstall () =
  let g = state () in
  g.collector_mask <- 0;
  g.sink <- (fun _ -> ());
  refresh_on ()

let attach_monitor ~kinds f =
  let g = state () in
  g.monitor <- f;
  g.monitor_mask <- mask_of kinds land causal_mask;
  refresh_on ()

let detach_monitor () =
  let g = state () in
  g.monitor_mask <- 0;
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
  g.cur_tid <- -1;
  g.cur_site <- -1;
  Array.fill g.root_seq 0 max_procs 0;
  Array.fill g.last_span 0 max_procs (-1)

let trace_proc g = g.ctx_tp
let trace_seq g = g.ctx_ts
let parent g = g.ctx_parent
let root_open g = g.root_id >= 0

let deref_t0 g =
  if g.root_id >= 0 && g.root_kind = kind_code Deref then g.root_t0 else -1

let last_span_on g proc = if proc < max_procs then g.last_span.(proc) else -1
let set_thread g tid = g.cur_tid <- tid
let set_site g site = g.cur_site <- site
let thread g = g.cur_tid
let site g = g.cur_site

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
  let bit = 1 lsl kind_code kind in
  if g.monitor_mask land bit <> 0 then g.monitor ~tp ~ts ~kind ~t0 ~t1 ~a ~b;
  if g.collector_mask land bit <> 0 then
    g.sink
      { trace_proc = tp; trace_seq = ts; id; parent; kind; proc; t0; t1; a; b;
        c = 0; tid = -1; site = -1 }

(* A flat event: only the collector takes flat kinds, and the call site
   has tested [takes g kind]. *)
let event g ~kind ~proc ~time ~tid ~site ~a ~b ~c =
  if g.collector_mask land (1 lsl kind_code kind) <> 0 then
    g.sink
      { trace_proc = -1; trace_seq = -1; id = -1; parent = -1; kind; proc;
        t0 = time; t1 = time; a; b; c; tid; site }

(* Phase names, interned into [a] of a [Phase] event.  One table for the
   process, so spans collected on one domain name their phases on any
   other; phase marks are rare, so the lock costs nothing. *)
let phase_names = ref [||]
let phase_lock = Mutex.create ()

let intern_phase name =
  Mutex.protect phase_lock (fun () ->
      let names = !phase_names in
      let rec find i =
        if i = Array.length names then begin
          phase_names := Array.append names [| name |];
          i
        end
        else if String.equal names.(i) name then i
        else find (i + 1)
      in
      find 0)

let phase_name i =
  Mutex.protect phase_lock (fun () ->
      let names = !phase_names in
      if i >= 0 && i < Array.length names then names.(i) else string_of_int i)

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

let collect ?kinds f =
  let c = Collector.create () in
  install ?kinds (Collector.add c);
  Fun.protect ~finally:uninstall (fun () ->
      let result = f () in
      (result, Collector.spans c))

(* --- olden-spans/v2 JSONL ------------------------------------------------ *)

let trace_label tp ts = string_of_int tp ^ ":" ^ string_of_int ts

(* The named payload fields of a span, in a fixed order: [a] and [b] for
   the causal kinds, each flat kind's own field names for the flat ones
   (the names the trace JSONL goldens were written with). *)
let payload sp =
  let i name v = (name, Json.Int v) in
  match sp.kind with
  | Migrate_send | Return_send -> [ i "target" sp.a ]
  | Migrate_arrive | Return_arrive -> [ i "source" sp.a ]
  | Future_spawn -> [ i "fid" sp.a ]
  | Future_resolve -> [ i "fid" sp.a; i "waiters" sp.b ]
  | Future_touch -> [ i "fid" sp.a; ("parked", Json.Bool (sp.b <> 0)) ]
  | Steal | Suspect_all -> []
  | Cache_hit | Cache_miss -> [ i "home" sp.a; i "page" sp.b; i "line" sp.c ]
  | Cache_flush -> [ i "entries" sp.a ]
  | Revalidate -> [ i "home" sp.a; i "page" sp.b; i "dropped" sp.c ]
  | Inval_send -> [ i "target" sp.a; i "page" sp.b ]
  | Inval_recv -> [ i "source" sp.a; i "page" sp.b; i "dropped" sp.c ]
  | Dir_write -> [ i "page" sp.a; i "line" sp.b ]
  | Dir_release -> [ i "page" sp.a; i "ts" sp.b ]
  | Remote_alloc -> [ i "home" sp.a; i "words" sp.b ]
  | Phase -> [ ("name", Json.String (phase_name sp.a)) ]
  | Deref | Return | Send | Wire | Penalty | Queue | Replay | Recv | Service
  | Cache_service | Stall | Drop | Backoff | Delay | Dup | Fallback | Rpc
  | Crash | Failover | Request ->
      [ i "a" sp.a; i "b" sp.b ]

(* A flat event carries its thread and site stamps before its payload. *)
let stamps sp =
  if is_flat sp.kind then
    ("tid", Json.Int sp.tid) :: ("site", Json.Int sp.site) :: payload sp
  else payload sp

let span_json sp =
  Json.Obj
    ([
       ("trace", Json.String (trace_label sp.trace_proc sp.trace_seq));
       ("id", Json.Int sp.id);
       ("parent", Json.Int sp.parent);
       ("kind", Json.String (kind_name sp.kind));
       ("proc", Json.Int sp.proc);
       ("t0", Json.Int sp.t0);
       ("t1", Json.Int sp.t1);
     ]
    @ stamps sp)

let schema = "olden-spans/v2"

let jsonl spans =
  let b = Buffer.create 4096 in
  Json.to_buffer b
    (Json.Obj
       [
         ("schema", Json.String schema);
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
   tracks.  Flat events are thread-scoped instants on their processor's
   track.  Cycles render as microseconds: absolute units mean nothing
   for a simulator, and 1 cycle = 1 us keeps the timeline readable. *)
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
  Array.iter
    (fun sp -> if sp.id >= 0 then Hashtbl.replace by_id sp.id sp)
    spans;
  let slice sp =
    if is_flat sp.kind then
      Json.Obj
        [
          ("name", Json.String (kind_name sp.kind));
          ("ph", Json.String "i");
          ("s", Json.String "t");
          ("ts", Json.Int sp.t0);
          ("pid", Json.Int 0);
          ("tid", Json.Int sp.proc);
          ("args", Json.Obj (stamps sp));
        ]
    else
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
              (("trace", Json.String (trace_label sp.trace_proc sp.trace_seq))
              :: ("id", Json.Int sp.id)
              :: ("parent", Json.Int sp.parent)
              :: payload sp) );
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
            ("schema", Json.String schema);
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
    | Migrate_send | Migrate_arrive | Return_send | Return_arrive
    | Future_spawn | Future_resolve | Future_touch | Steal | Cache_hit
    | Cache_miss | Cache_flush | Suspect_all | Revalidate | Inval_send
    | Inval_recv | Dir_write | Dir_release | Remote_alloc | Phase ->
        Printf.sprintf "tid %d%s %s" sp.tid
          (if sp.site < 0 then "" else " site " ^ site_name sp.site)
          (Json.to_string (Json.Obj (payload sp)))
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
