(* The Olden runtime: a deterministic discrete-event simulation of SPMD
   execution with computation migration, software caching, futures, and
   future stealing.

   Each simulated thread is an OCaml fiber.  Performing an effect hands
   control to the handler below, which charges costs to the simulated
   machine and either resumes the fiber immediately (local work, cache
   accesses) or captures the continuation and schedules its resumption
   elsewhere / later (migrations, return stubs, touches of unresolved
   futures).  A processor left idle by an outgoing migration pops the most
   recent continuation from its own work list — Olden's future stealing.

   Scheduling is by globally minimal start time, with sequence numbers
   breaking ties, so a run is a pure function of the program and the
   configuration. *)

module C = Olden_config
module Cache = Olden_cache.Cache_system
module Write_log = Olden_cache.Write_log
module Span = Olden_span.Span
module Monitor = Olden_monitor.Monitor
module Recovery = Olden_recovery.Recovery
module Failover = Olden_recovery.Failover
open Effects

exception Null_dereference of string
exception Deadlock of string

exception Threads_lost of string
(* A processor fail-stopped with unreplicated resident work
   ([replica_spec.threads = false]): the tasks are unrecoverable, so the
   run aborts with a deterministic report instead of wedging. *)

exception Must_perform
(* Raised — with [raise_notrace], before any state is mutated — by the
   immediate-path operation bodies when the operation must capture the
   current fiber (a migration or a park on an unresolved future), so the
   caller falls back to performing the effect. *)

type task = { thread : thread; go : unit -> unit }

type phase_mark = { pname : string; at : int; snapshot : Stats.t }

type t = {
  cfg : C.t;
  machine : Machine.t;
  memory : Memory.t;
  cache : Cache.t;
  recovery : Recovery.t option; (* Some iff a fault schedule is active *)
  failover : Failover.t option; (* Some iff a fault schedule is active *)
  events : task Event_queue.t array; (* per processor *)
  worklists : ((fut, unit) Effect.Deep.continuation, fut) Work_list.t array;
      (* per processor, LIFO: saved futurecall continuations *)
  cands : Candidate_heap.t; (* each processor's next task, see [rekey] *)
  mutable handler : (unit, unit) Effect.Deep.handler; (* built once *)
  migrate_attempts : int option; (* [Some max_migration_attempts] *)
  mutable seq : int;
  mutable cur_proc : int;
  mutable cur_thread : thread;
  mutable next_tid : int;
  mutable next_fid : int;
  mutable blocked : int; (* parked touch waiters *)
  mutable parked : (int * string) list;
      (* (processor, label) per parked waiter — deadlock diagnostics *)
  mutable phases : phase_mark list; (* newest first *)
  mutable finished : bool;
  (* the payload of the effect being dispatched, parked by the handler
     for its prebuilt arm (see [make_handler]) *)
  mutable e_site : Site.t;
  mutable e_gptr : Gptr.t;
  mutable e_field : int;
  mutable e_value : Value.t;
  mutable e_body : unit -> Value.t;
  mutable e_psite : Site.t option;
  mutable e_cell : fut;
  mutable e_target : int;
  (* the executing domain's instrumentation, bound by [exec] (see
     [bind]): every hook below tests these fields and reads no
     domain-local key *)
  mutable sp : Span.state;
  mutable mon : Monitor.slot;
}

(* Placeholder until [create] installs the engine's own handler. *)
let no_handler : (unit, unit) Effect.Deep.handler =
  { retc = Fun.id; exnc = raise; effc = (fun _ -> None) }

(* Placeholders for the parked effect payload between dispatches; never
   read as payload.  The site is not registered with [Site]. *)
let no_site =
  {
    Site.sid = -1;
    sname = "";
    mech = C.Migrate;
    loads = 0;
    stores = 0;
    remote = 0;
    migrations = 0;
    misses = 0;
    retries = 0;
    fallbacks = 0;
  }

let no_body () = Value.Nil

let no_cell =
  {
    fid = -1;
    state = Done Value.Nil;
    resolver_proc = -1;
    resolver_seat = -1;
    resolver_log = clean_log;
  }

let create_state cfg =
  let machine = Machine.create cfg in
  let memory = Memory.create ~nprocs:cfg.C.nprocs in
  let cache = Cache.create cfg machine memory in
  let dummy_thread = { tid = 0; seat = 0; log = clean_log } in
  {
    cfg;
    machine;
    memory;
    cache;
    recovery =
      (* crash machinery exists whenever faults do, so tests can force
         crashes under any schedule; with [crash = 0] it decides nothing
         and consumes no randomness, keeping zero-probability runs
         bit-identical to fault-free ones *)
      (if cfg.C.faults <> None then Some (Recovery.create cfg machine cache)
       else None);
    failover =
      (* same deal as [recovery]: the fail-stop machinery exists whenever
         faults do (tests force deaths under any schedule); with
         [failstop = 0] it decides nothing and consumes no randomness *)
      (if cfg.C.faults <> None then
         Some (Failover.create cfg machine cache memory)
       else None);
    events = Array.init cfg.C.nprocs (fun _ -> Event_queue.create ());
    worklists = Array.init cfg.C.nprocs (fun _ -> Work_list.create ());
    cands = Candidate_heap.create cfg.C.nprocs;
    handler = no_handler;
    migrate_attempts = Some cfg.C.retry.C.max_migration_attempts;
    seq = 0;
    cur_proc = 0;
    cur_thread = dummy_thread;
    next_tid = 1;
    next_fid = 0;
    blocked = 0;
    parked = [];
    phases = [];
    finished = false;
    e_site = no_site;
    e_gptr = Gptr.null;
    e_field = 0;
    e_value = Value.Nil;
    e_body = no_body;
    e_psite = None;
    e_cell = no_cell;
    e_target = 0;
    sp = Span.state ();
    mon = Monitor.slot ();
  }

let memory t = t.memory
let machine t = t.machine
let cache t = t.cache
let recovery t = t.recovery
let failover t = t.failover
let config t = t.cfg
let stats t = Machine.stats t.machine
let costs t = t.cfg.C.costs

let new_thread t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  (* a fresh thread sits where its creator (virtually) sits: a future's
     parent continuation spawned after a collapsed hop must keep
     reporting the original owner as SELF, exactly like the fault-free
     run *)
  { tid; seat = t.cur_thread.seat; log = clean_log }

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

(* --- Scheduling -------------------------------------------------------

   The next task is the one with globally minimal start time.  At equal
   start times a processor steals from its own work list before accepting
   an arrived migration: futurecall continuations unfold depth-first and
   keep generating parallelism, so draining them first is what keeps
   spawn chains from being starved by arriving bodies (the continuation
   was saved by a thread that already owned the processor).  Remaining
   ties fall back to readiness time, then creation order, for
   determinism.

   [t.cands] holds each processor's best candidate under that order:
   key (start, prio, avail, seq), prio 0 for the top of its work list and
   1 for the head of its event queue.  A key changes only when that
   processor's queue, work list or clock does.  During a task only the
   executing processor's clock moves ([Machine] charges every cost to the
   processor doing the work) and only it gains work-list entries, so an
   event push re-keys its processor on the spot and the executing one is
   re-keyed when the task ends.  A phase barrier and a fail-stop move
   other clocks as well; they re-key every processor.  [audit_schedule]
   checks all of this at every step. *)
let rekey t p =
  let clock = Machine.now t.machine p in
  let q = t.events.(p) in
  let estart =
    if Event_queue.is_empty q then max_int
    else
      let avail = Event_queue.top_ready_at q in
      if clock > avail then clock else avail
  in
  let wl = t.worklists.(p) in
  let wavail =
    if Work_list.is_empty wl then max_int else Work_list.top_pushed_at wl
  in
  let wstart = if clock > wavail then clock else wavail in
  if wavail < max_int && wstart <= estart then
    Candidate_heap.set t.cands p ~start:wstart ~prio:0 ~avail:wavail
      ~seq:(Work_list.top_seq wl)
  else if estart < max_int then
    Candidate_heap.set t.cands p ~start:estart ~prio:1
      ~avail:(Event_queue.top_ready_at q) ~seq:(Event_queue.top_seq q)
  else Candidate_heap.remove t.cands p

let rekey_all t =
  for p = 0 to t.cfg.C.nprocs - 1 do
    rekey t p
  done

let schedule_event t ~proc ~ready_at task =
  Event_queue.push t.events.(proc) ~ready_at ~seq:(next_seq t) task;
  rekey t proc

(* Save a futurecall's parent continuation [k] (resumed with [cell], as
   [thread]) on the executing processor's work list; [step] re-keys that
   processor when the task ends. *)
let push_work t thread k cell =
  let proc = t.cur_proc in
  Work_list.push t.worklists.(proc) ~pushed_at:(Machine.now t.machine proc)
    ~seq:(next_seq t) thread k cell

let now t = Machine.now t.machine t.cur_proc
let advance t cycles = Machine.advance t.machine t.cur_proc cycles

(* A flat span event on the current processor's clock, stamped with the
   running thread.  Every call site is guarded on [Span.takes t.sp kind],
   so nothing is allocated when no consumer takes the kind. *)
let event t ?(site = -1) ?(b = 0) kind ~a =
  Span.event t.sp ~kind ~proc:t.cur_proc ~time:(now t) ~tid:t.cur_thread.tid
    ~site ~a ~b ~c:0

(* A toucher acquiring a result resolved on another processor must not see
   stale copies of what the resolver wrote: the same invalidation applies
   as when a thread returns (Section 3.2).  It fires even when the
   resolver wrote nothing: the bilateral scheme then marks every entry
   suspect, and the local scheme without its return refinement flushes,
   whatever the log holds.  Only resolved cells get here. *)
let acquire_result t ~proc ~(toucher : thread) (cell : fut) =
  let log = cell.resolver_log in
  (* seats, not just physical processors: after a failover the resolver
     and toucher can share a processor while the protocol still places
     them at different virtual locations, and the invalidation must fire
     exactly as it would have between the original processors (on a
     healthy machine seat = processor, so the second test adds
     nothing) *)
  if cell.resolver_proc <> proc || cell.resolver_seat <> toucher.seat then
    Cache.on_return_received t.cache ~proc ~log;
  (* the resolver's writes become part of the toucher's causal past: a
     later release by the toucher must cover them too *)
  if Write_log.written_mask log <> 0 then
    Write_log.absorb_written_procs (writable_log toucher) ~from:log

let remove_parked parked ~proc ~label =
  let rec go = function
    | [] -> []
    | (p, l) :: rest when p = proc && String.equal l label -> rest
    | entry :: rest -> entry :: go rest
  in
  go parked

(* Resolve a future: a release point for the resolving thread (its writes
   become visible through the cell), then wake every parked toucher on its
   own processor (remote wakeups pay a notification latency). *)
let resolve t (cell : fut) v =
  match cell.state with
  | Done _ -> failwith "Engine: future resolved twice"
  | Pending waiters ->
      cell.state <- Done v;
      if Span.takes t.sp Span.Future_resolve then
        event t Span.Future_resolve ~a:cell.fid ~b:(List.length waiters);
      Cache.on_migration_sent t.cache ~proc:t.cur_proc ~log:t.cur_thread.log;
      cell.resolver_proc <- t.cur_proc;
      cell.resolver_seat <- t.cur_thread.seat;
      cell.resolver_log <- t.cur_thread.log;
      (* no waiters (the common case): nothing to wake, and no closure *)
      match waiters with
      | [] -> ()
      | _ ->
          let c = costs t in
          List.iter
            (fun w ->
              t.blocked <- t.blocked - 1;
              (* a waiter parked on a processor that has since fail-stopped
                 wakes on its promoted successor (where its work list and
                 parked-entry bookkeeping moved); the home map is the
                 identity until a failover, so this resolves to [wproc]
                 itself on a healthy machine *)
              let wdest =
                if Machine.is_dead t.machine w.wproc then
                  Machine.home_of t.machine w.wproc
                else w.wproc
              in
              t.parked <- remove_parked t.parked ~proc:wdest ~label:w.wlabel;
              let delay = if wdest <> t.cur_proc then c.C.net_latency else 0 in
              schedule_event t ~proc:wdest ~ready_at:(now t + delay)
                {
                  thread = w.wthread;
                  go =
                    (fun () ->
                      (* [t.cur_proc], not the captured destination: the
                         event may have been re-homed again while queued *)
                      acquire_result t ~proc:t.cur_proc ~toucher:w.wthread cell;
                      Effect.Deep.continue w.wk v);
                })
            (List.rev waiters)

(* Effective mechanism at a site, after the policy override (Table 2's
   migrate-only column; cache-only ablation). *)
let effective_mechanism t (site : Site.t) =
  match t.cfg.C.policy with
  | C.Heuristic -> site.Site.mech
  | C.Migrate_only -> C.Migrate
  | C.Cache_only -> C.Cache

(* Crash boundary: consult the recovery layer before an operation touches
   the cache (and when a migrated or returning thread arrives).  Firing
   *before* the operation is what makes replay safe: a store is never
   double-applied and a load never reads a wiped frame — the dereference
   simply runs against the empty table and refetches through the normal
   miss path. *)
let check_crash t ~proc ~(thread : thread) =
  match t.recovery with
  | None -> ()
  | Some r -> ignore (Recovery.maybe_crash r ~proc ~log:thread.log)

(* Suspend the current fiber and ship it to [target]: a computation
   migration.  [on_arrival] completes the interrupted operation there.
   [penalty] is the extra arrival latency charged by the faulty network
   (retransmission waits and delivery delays); zero on a reliable one. *)
let migrate_to t ~site ~target ~vseat ~penalty ~ep0
    ~(k : ('a, unit) Effect.Deep.continuation) ~(complete : unit -> 'a) =
  let c = costs t in
  let s = stats t in
  s.Stats.migrations <- s.Stats.migrations + 1;
  let thread = t.cur_thread in
  let source = t.cur_proc in
  (* an outgoing migration is a release point *)
  Cache.on_migration_sent t.cache ~proc:t.cur_proc ~log:thread.log;
  advance t c.C.migrate_send;
  if Span.takes t.sp Span.Migrate_send then
    event t ~site Span.Migrate_send ~a:target;
  Machine.count_bytes t.machine 256 (* registers + PC + frame *);
  let send_done = now t in
  let ready_at = send_done + c.C.net_latency + penalty in
  (* the trace context crosses the wire inside the scheduled closure:
     saved here, restored when the state arrives, so the hops at the
     target join this episode's tree.  The hop intervals telescope —
     send [ep0, send_done], wire, penalty, queue, replay, recv, service —
     so their durations sum exactly to the episode latency. *)
  let sctx =
    if Span.on t.sp then begin
      Span.child t.sp ~kind:Span.Send ~proc:source ~t0:ep0 ~t1:send_done
        ~a:target ~b:0;
      Span.child t.sp ~kind:Span.Wire ~proc:source ~t0:send_done
        ~t1:(send_done + c.C.net_latency) ~a:0 ~b:0;
      if penalty > 0 then
        Span.child t.sp ~kind:Span.Penalty ~proc:target
          ~t0:(send_done + c.C.net_latency) ~t1:ready_at ~a:penalty ~b:0;
      Span.save t.sp
    end
    else Span.no_ctx
  in
  schedule_event t ~proc:target ~ready_at
    {
      thread;
      go =
        (fun () ->
          (* not the captured target: if the target fail-stopped while
             the state was in flight, this event was re-homed and now
             runs on the promoted successor's clock *)
          let target = t.cur_proc in
          let span_on = Span.on t.sp in
          let t_arr = Machine.now t.machine target in
          if span_on then begin
            Span.restore t.sp sctx;
            if t_arr > ready_at then
              Span.child t.sp ~kind:Span.Queue ~proc:target ~t0:ready_at
                ~t1:t_arr ~a:0 ~b:0
          end;
          (* the target may have crashed while the state was in flight:
             recover first, then install — the transfer itself survives
             (it is retried network state, not victim cache state) *)
          check_crash t ~proc:target ~thread;
          let t_rc = Machine.now t.machine target in
          if span_on && t_rc > t_arr then
            Span.child t.sp ~kind:Span.Replay ~proc:target ~t0:t_arr ~t1:t_rc
              ~a:0 ~b:0;
          Machine.advance t.machine target c.C.migrate_recv;
          if Span.takes t.sp Span.Migrate_arrive then
            Span.event t.sp ~kind:Span.Migrate_arrive ~proc:target
              ~time:(Machine.now t.machine target) ~tid:thread.tid ~site
              ~a:source ~b:0 ~c:0;
          (* an incoming migration is an acquire point *)
          Cache.on_migration_received t.cache ~proc:target;
          (* the thread now sits at the page's (virtual) home: the
             original owner, even when a failover routed the state to
             the owner's promoted successor *)
          thread.seat <- vseat;
          let t_recv = Machine.now t.machine target in
          if span_on then
            Span.child t.sp ~kind:Span.Recv ~proc:target ~t0:t_rc ~t1:t_recv
              ~a:0 ~b:0;
          let v = complete () in
          if span_on then begin
            let t_done = Machine.now t.machine target in
            Span.child t.sp ~kind:Span.Service ~proc:target ~t0:t_recv
              ~t1:t_done ~a:0 ~b:0;
            Span.close_root t.sp ~t1:t_done ~a:site
              ~b:2 (* mech code: migrate *)
          end;
          Effect.Deep.continue k v);
    }

(* --- Immediate operation bodies ------------------------------------ *)

(* Everything below runs to completion without capturing the fiber, so it
   is shared between the effect handler and the fast-path entry points
   [Ops] uses to bypass effect dispatch entirely (a [perform] allocates
   the effect constructor and crosses the handler boundary; a cache hit
   should cost neither).  Each body either finishes the operation or
   raises [Must_perform] before mutating anything. *)

let immediate_work t n = advance t n

let immediate_alloc t ~proc words =
  let c = costs t in
  (* ALLOC needs no round trip even for a remote processor: each
     allocator owns chunks of every heap section, so the address is
     computed locally (Section 2's ALLOC library routine). *)
  if Machine.home_of t.machine proc = t.cur_proc then advance t c.C.alloc_local
  else begin
    (stats t).Stats.remote_allocs <- (stats t).Stats.remote_allocs + 1;
    advance t (c.C.alloc_local + c.C.alloc_service);
    if Span.takes t.sp Span.Remote_alloc then
      event t Span.Remote_alloc ~a:proc ~b:words
  end;
  Memory.alloc t.memory ~proc words

(* A dereference through the software cache: the body of the [C.Cache]
   arms below, also the degraded path a migration falls back to when its
   home keeps dropping thread transfers.  Every caller has tested [g] for
   null already, here and in the migrate arms below. *)
let cached_load t kind (site : Site.t) g field =
  site.Site.loads <- site.Site.loads + 1;
  if Gptr.unsafe_proc g <> t.cur_proc then
    site.Site.remote <- site.Site.remote + 1;
  if Span.flat_on t.sp then begin
    Span.set_thread t.sp t.cur_thread.tid;
    Span.set_site t.sp site.Site.sid
  end;
  let s = stats t in
  let before = s.Stats.cache_misses in
  let retries_before = s.Stats.retries in
  let v = Cache.read_as kind t.cache ~proc:t.cur_proc g ~field in
  site.Site.misses <- site.Site.misses + s.Stats.cache_misses - before;
  site.Site.retries <- site.Site.retries + s.Stats.retries - retries_before;
  v

let cached_store t kind (site : Site.t) g field v =
  site.Site.stores <- site.Site.stores + 1;
  if Gptr.unsafe_proc g <> t.cur_proc then
    site.Site.remote <- site.Site.remote + 1;
  if Span.flat_on t.sp then begin
    Span.set_thread t.sp t.cur_thread.tid;
    Span.set_site t.sp site.Site.sid
  end;
  let s = stats t in
  let retries_before = s.Stats.retries in
  Cache.write_as kind t.cache ~proc:t.cur_proc g ~field v
    ~log:(writable_log t.cur_thread);
  site.Site.retries <- site.Site.retries + s.Stats.retries - retries_before

(* A migration whose source and home-map-resolved target are the same
   physical processor: the thread already sits on the successor that
   adopted the page's home, so no state crosses the network — but the
   protocol's release/acquire pair must still fire.  Under the local and
   bilateral schemes the acquire (cache flush / suspect-all) is what
   invalidates stale cached copies, and under the global scheme the
   release is what pushes the thread's pending invalidations; skipping
   them just because a death collapsed the hop would let surviving
   processors read pre-failover snapshots.  Fault-free runs never reach
   here: the home map is the identity, so a local access always finds
   [seat = Gptr.proc g]. *)
let collapsed_hop t ~seat =
  Cache.on_migration_sent t.cache ~proc:t.cur_proc ~log:t.cur_thread.log;
  Cache.on_migration_received t.cache ~proc:t.cur_proc;
  t.cur_thread.seat <- seat

let immediate_load_u t kind (site : Site.t) g field =
  if Gptr.is_null g then raise (Null_dereference (Site.name site));
  let c = costs t in
  if t.cfg.C.sequential then begin
    site.Site.loads <- site.Site.loads + 1;
    advance t c.C.local_ref;
    Memory.load_as kind t.memory g field
  end
  else begin
    check_crash t ~proc:t.cur_proc ~thread:t.cur_thread;
    match effective_mechanism t site with
    | C.Cache -> cached_load t kind site g field
    | C.Migrate ->
        (* the locality test reads through the home map: pages whose
           home fail-stopped over to *this* processor are local now
           (identity until a failover, so fault-free behaviour is
           untouched) *)
        let home = Gptr.unsafe_proc g in
        if Machine.home_of t.machine home = t.cur_proc then begin
          if t.cur_thread.seat <> home then collapsed_hop t ~seat:home;
          site.Site.loads <- site.Site.loads + 1;
          advance t c.C.pointer_test;
          advance t c.C.local_ref;
          (stats t).Stats.local_refs <- (stats t).Stats.local_refs + 1;
          Memory.load_as kind t.memory g field
        end
        else raise_notrace Must_perform
  end

let immediate_store_u t kind (site : Site.t) g field v =
  if Gptr.is_null g then raise (Null_dereference (Site.name site));
  let c = costs t in
  if t.cfg.C.sequential then begin
    site.Site.stores <- site.Site.stores + 1;
    advance t c.C.local_ref;
    Memory.store_as kind t.memory g field v
  end
  else begin
    check_crash t ~proc:t.cur_proc ~thread:t.cur_thread;
    match effective_mechanism t site with
    | C.Cache -> cached_store t kind site g field v
    | C.Migrate ->
        let home = Gptr.unsafe_proc g in
        if Machine.home_of t.machine home = t.cur_proc then begin
          if t.cur_thread.seat <> home then collapsed_hop t ~seat:home;
          site.Site.stores <- site.Site.stores + 1;
          advance t c.C.pointer_test;
          advance t c.C.local_ref;
          (stats t).Stats.local_refs <- (stats t).Stats.local_refs + 1;
          Memory.store_as kind t.memory g field v;
          Cache.note_migrate_write kind t.cache ~proc:t.cur_proc g ~field v
            ~log:(writable_log t.cur_thread)
        end
        else raise_notrace Must_perform
  end

(* Spanned entry points over the untimed bodies above.  A dereference
   that completes without capturing the fiber is a finished episode: its
   [Deref] root spans the clock movement across the body, including any
   crash stall [check_crash] charged and any cache miss round-trips and
   retries inside [Cache.read/write].

   The root opens here, at episode entry, *before* the body runs: if the
   body raises [Must_perform] (before any mutation) the root stays open
   in the ambient context and the effect-handler arm continues the same
   episode (the arm is always entered with the root already open —
   [Ops] tries the fast path first). *)

(* The mechanism code a root's [b] carries when the body completed:
   0 = local (sequential mode, or a migrate site whose data was local),
   1 = cache. *)
let completed_mech t (site : Site.t) =
  if t.cfg.C.sequential then 0
  else match effective_mechanism t site with C.Cache -> 1 | C.Migrate -> 0

let immediate_load t kind (site : Site.t) g field =
  if not (Span.on t.sp) then immediate_load_u t kind site g field
  else begin
    if not (Span.root_open t.sp) then
      Span.open_root t.sp ~kind:Span.Deref ~proc:t.cur_proc ~t0:(now t);
    let v = immediate_load_u t kind site g field in
    Span.close_root t.sp ~t1:(now t) ~a:site.Site.sid
      ~b:(completed_mech t site);
    v
  end

let immediate_store t kind (site : Site.t) g field v =
  if not (Span.on t.sp) then immediate_store_u t kind site g field v
  else begin
    if not (Span.root_open t.sp) then
      Span.open_root t.sp ~kind:Span.Deref ~proc:t.cur_proc ~t0:(now t);
    immediate_store_u t kind site g field v;
    Span.close_root t.sp ~t1:(now t) ~a:site.Site.sid
      ~b:(completed_mech t site)
  end

let immediate_touch t (cell : fut) =
  match cell.state with
  | Done v ->
      let c = costs t in
      let s = stats t in
      s.Stats.touches <- s.Stats.touches + 1;
      advance t c.C.future_touch;
      if Span.takes t.sp Span.Future_touch then
        event t Span.Future_touch ~a:cell.fid ~b:0;
      acquire_result t ~proc:t.cur_proc ~toucher:t.cur_thread cell;
      v
  | Pending _ -> raise_notrace Must_perform

(* --- Fast-path entry points ----------------------------------------- *)

(* The engine currently driving fibers; set for the duration of [exec].
   [Ops] reads it to run non-suspending operations as plain calls,
   performing the effect only when [Must_perform] says the fiber must be
   captured (or when no engine is running, where the effect surfaces the
   usual [Effect.Unhandled]).  Domain-local so engines on different
   domains of the parallel sweep driver never see each other. *)
let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let engine () =
  match !(current ()) with Some t -> t | None -> raise_notrace Must_perform

let fast_work n = immediate_work (engine ()) n
(* SELF is the thread's virtual seat, not the physical processor: after a
   failover collapses a hop onto a promoted successor the program must
   still see itself "at" the original owner, so seat-relative allocation
   and [Ops.call]'s return stub behave exactly as on the healthy
   machine.  Identity while no processor has died. *)
let fast_self () = (engine ()).cur_thread.seat
let fast_nprocs () = (engine ()).cfg.C.nprocs
let fast_alloc ~proc words = immediate_alloc (engine ()) ~proc words
let fast_load kind site g field = immediate_load (engine ()) kind site g field

let fast_store kind site g field v =
  immediate_store (engine ()) kind site g field v

let fast_touch cell = immediate_touch (engine ()) cell

(* Decide the fate of a migration's thread-state transfer before the fiber
   is captured.  A penalty [>= 0]: the state will arrive, that many cycles
   late.  [-1]: the home kept dropping the transfer and the sender gave
   up after its attempt budget ([retry.max_migration_attempts]); the
   thread pays the retry timers on its own clock and degrades to the
   caching mechanism instead of wedging on an unreachable home. *)
let try_migrate t ~(site : Site.t) ~home =
  let s = stats t in
  let retries_before = s.Stats.retries in
  match
    Machine.thread_delivery t.machine ~dst:home ~klass:Fault_plan.Migration
      ~send_time:(now t)
      ~give_up_after:t.migrate_attempts
  with
  | penalty ->
      site.Site.retries <- site.Site.retries + s.Stats.retries - retries_before;
      penalty
  | exception Machine.Gave_up { penalty; attempts } ->
      site.Site.retries <- site.Site.retries + s.Stats.retries - retries_before;
      s.Stats.migration_fallbacks <- s.Stats.migration_fallbacks + 1;
      site.Site.fallbacks <- site.Site.fallbacks + 1;
      Machine.stall t.machine t.cur_proc penalty;
      if Span.on t.sp then begin
        Span.child t.sp ~kind:Span.Stall ~proc:t.cur_proc ~t0:(now t - penalty)
          ~t1:(now t) ~a:penalty ~b:attempts;
        Span.child t.sp ~kind:Span.Fallback ~proc:t.cur_proc ~t0:(now t)
          ~t1:(now t) ~a:home ~b:attempts
      end;
      -1

(* --- The effect handler ---------------------------------------------

   Built once per engine by [create]: every futurecall, [exec] and
   [inject] installs the same record, and each arm below that can be
   performed inside an engine is one closure built with it.  [effc]
   parks the effect's payload in the engine's [e_*] fields and returns
   the prebuilt arm, so dispatching an effect allocates nothing.  An arm
   reads the payload before doing anything else: a futurecall's body, or
   a migration's completion, performs effects of its own that overwrite
   the fields. *)

(* A dereference that must migrate continues its episode in the arm,
   from [ep0], the arm's entry.  The fast path opened the root on the
   same processor; if the clock moved since (a crash stall [check_crash]
   charged before [Must_perform]), that gap is a source-side [Replay]
   hop, as on the target side, so the hops tile the episode from the
   root's own entry. *)
let resume_root t ~ep0 =
  if not (Span.root_open t.sp) then
    Span.open_root t.sp ~kind:Span.Deref ~proc:t.cur_proc ~t0:ep0
  else begin
    let r0 = Span.deref_t0 t.sp in
    if r0 >= 0 && ep0 > r0 then
      Span.child t.sp ~kind:Span.Replay ~proc:t.cur_proc ~t0:r0 ~t1:ep0 ~a:0
        ~b:0
  end

let load_arm t kind (k : ('a, unit) Effect.Deep.continuation) =
  let site = t.e_site and g = t.e_gptr and field = t.e_field in
  let ep0 = now t in
  match immediate_load t kind site g field with
  | v -> Effect.Deep.continue k v
  | exception Must_perform -> (
      (* the reference must migrate: only here is the fiber captured *)
      let c = costs t in
      let home = Gptr.proc g in
      if Span.on t.sp then resume_root t ~ep0;
      advance t c.C.pointer_test;
      let penalty = try_migrate t ~site ~home in
      if penalty >= 0 then begin
        site.Site.loads <- site.Site.loads + 1;
        site.Site.remote <- site.Site.remote + 1;
        site.Site.migrations <- site.Site.migrations + 1;
        migrate_to t ~site:site.Site.sid
          ~target:(Machine.home_of t.machine home) ~vseat:home ~penalty ~ep0
          ~k
          ~complete:(fun () ->
            (* re-resolve: the home may have failed over while the state
               was in flight.  [costs t] is read here, not captured:
               every captured value is one more word of this closure,
               which each migrating load allocates *)
            Machine.advance t.machine (Machine.home_of t.machine home)
              (costs t).C.local_ref;
            Memory.load_as kind t.memory g field)
      end
      else begin
        let sp = Span.on t.sp in
        let prev = if sp then Span.parent t.sp else -1 in
        let cid = if sp then Span.enter t.sp else -1 in
        let cs0 = now t in
        let v = cached_load t kind site g field in
        if sp then begin
          Span.exit_emit t.sp ~id:cid ~prev ~kind:Span.Cache_service
            ~proc:t.cur_proc ~t0:cs0 ~t1:(now t) ~a:home ~b:0;
          Span.close_root t.sp ~t1:(now t) ~a:site.Site.sid
            ~b:3 (* mech code: fallback *)
        end;
        Effect.Deep.continue k v
      end)

let store_arm t (k : (unit, unit) Effect.Deep.continuation) =
  let site = t.e_site and g = t.e_gptr and field = t.e_field in
  let v = t.e_value in
  let ep0 = now t in
  match immediate_store t Word.Value site g field v with
  | () -> Effect.Deep.continue k ()
  | exception Must_perform -> (
      let c = costs t in
      let home = Gptr.proc g in
      if Span.on t.sp then resume_root t ~ep0;
      advance t c.C.pointer_test;
      let penalty = try_migrate t ~site ~home in
      if penalty >= 0 then begin
        site.Site.stores <- site.Site.stores + 1;
        site.Site.remote <- site.Site.remote + 1;
        site.Site.migrations <- site.Site.migrations + 1;
        migrate_to t ~site:site.Site.sid
          ~target:(Machine.home_of t.machine home) ~vseat:home ~penalty ~ep0
          ~k
          ~complete:(fun () ->
            let h = Machine.home_of t.machine home in
            Machine.advance t.machine h c.C.local_ref;
            Memory.store t.memory g field v;
            Cache.note_migrate_write Word.Value t.cache ~proc:h g ~field v
              ~log:(writable_log t.cur_thread))
      end
      else begin
        let sp = Span.on t.sp in
        let prev = if sp then Span.parent t.sp else -1 in
        let cid = if sp then Span.enter t.sp else -1 in
        let cs0 = now t in
        cached_store t Word.Value site g field v;
        if sp then begin
          Span.exit_emit t.sp ~id:cid ~prev ~kind:Span.Cache_service
            ~proc:t.cur_proc ~t0:cs0 ~t1:(now t) ~a:home ~b:0;
          Span.close_root t.sp ~t1:(now t) ~a:site.Site.sid
            ~b:3 (* mech code: fallback *)
        end;
        Effect.Deep.continue k ()
      end)

(* The fiber every futurecall runs its body in: one closure per engine,
   built by [make_handler], that reads the body and the cell
   [future_arm] parked, so a futurecall allocates no closure of its
   own. *)
let run_future t () =
  let body = t.e_body and cell = t.e_cell in
  t.e_body <- no_body;
  t.e_cell <- no_cell;
  let v = body () in
  resolve t cell v

let future_arm t run (k : (fut, unit) Effect.Deep.continuation) =
  let c = costs t in
  let s = stats t in
  s.Stats.futures <- s.Stats.futures + 1;
  advance t c.C.future_spawn;
  t.next_fid <- t.next_fid + 1;
  let cell =
    {
      fid = t.next_fid;
      state = Pending [];
      resolver_proc = -1;
      resolver_seat = -1;
      resolver_log = clean_log;
    }
  in
  if Span.takes t.sp Span.Future_spawn then
    event t Span.Future_spawn ~a:cell.fid;
  (* Save the return continuation on this processor's work list.  If it
     is stolen it becomes a new thread (on the clean log until it
     writes); if the body completes without migrating, the processor
     pops it right back — Olden's cheap no-migration path. *)
  push_work t (new_thread t) k cell;
  (* The body is evaluated directly by the current thread, as Olden's
     futurecall does; only a migration during it hands control back to
     the scheduler.  [effc] parked the body; [run] reads both. *)
  t.e_cell <- cell;
  Effect.Deep.match_with run () t.handler

let touch_arm t (k : (Value.t, unit) Effect.Deep.continuation) =
  let psite = t.e_psite and cell = t.e_cell in
  t.e_psite <- None;
  t.e_cell <- no_cell;
  match immediate_touch t cell with
  | v -> Effect.Deep.continue k v
  | exception Must_perform -> (
      match cell.state with
      | Done _ -> assert false
      | Pending waiters ->
          let c = costs t in
          let s = stats t in
          s.Stats.touches <- s.Stats.touches + 1;
          advance t c.C.future_touch;
          if Span.takes t.sp Span.Future_touch then
            event t Span.Future_touch ~a:cell.fid ~b:1;
          let label =
            match psite with
            | Some site -> Site.name site
            | None -> Printf.sprintf "fut#%d" cell.fid
          in
          t.blocked <- t.blocked + 1;
          t.parked <- (t.cur_proc, label) :: t.parked;
          cell.state <-
            Pending
              ({ wk = k; wproc = t.cur_proc; wthread = t.cur_thread;
                 wlabel = label }
              :: waiters))

let return_arm t (k : (unit, unit) Effect.Deep.continuation) =
  (* the origin may have fail-stopped while the thread was away; its
     promoted successor adopts the continuation *)
  let origin = t.e_target in
  let target = Machine.home_of t.machine origin in
  if target = t.cur_proc then begin
    (if t.cur_thread.seat <> origin then begin
       (* the return collapsed onto this processor through a failover:
          still a release at the (virtual) source and the origin's
          return-side acquire *)
       Cache.on_migration_sent t.cache ~proc:t.cur_proc ~log:t.cur_thread.log;
       Cache.on_return_received t.cache ~proc:t.cur_proc
         ~log:t.cur_thread.log;
       t.cur_thread.seat <- origin
     end);
    Effect.Deep.continue k ()
  end
  else begin
    let c = costs t in
    let s = stats t in
    let sp = Span.on t.sp in
    let ep0 = now t in
    s.Stats.returns <- s.Stats.returns + 1;
    let thread = t.cur_thread in
    let source = t.cur_proc in
    (* a return stub is its own episode: a fresh root whose children are
       its send/wire/penalty/queue/replay/recv hops and any fault events
       along the way *)
    if sp && not (Span.root_open t.sp) then
      Span.open_root t.sp ~kind:Span.Return ~proc:source ~t0:ep0;
    (* a return is also a release point *)
    Cache.on_migration_sent t.cache ~proc:t.cur_proc ~log:thread.log;
    advance t c.C.return_send;
    if Span.takes t.sp Span.Return_send then
      event t Span.Return_send ~a:target;
    Machine.count_bytes t.machine 64 (* registers + return addr *);
    (* a return stub must reach its origin: retry without an attempt
       bound (only [max_attempts] backstops it) *)
    let penalty =
      Machine.thread_delivery t.machine ~dst:target ~klass:Fault_plan.Return
        ~send_time:(now t) ~give_up_after:None
    in
    let send_done = now t in
    let ready_at = send_done + c.C.net_latency + penalty in
    let sctx =
      if sp then begin
        Span.child t.sp ~kind:Span.Send ~proc:source ~t0:ep0 ~t1:send_done
          ~a:target ~b:0;
        Span.child t.sp ~kind:Span.Wire ~proc:source ~t0:send_done
          ~t1:(send_done + c.C.net_latency) ~a:0 ~b:0;
        if penalty > 0 then
          Span.child t.sp ~kind:Span.Penalty ~proc:target
            ~t0:(send_done + c.C.net_latency) ~t1:ready_at ~a:penalty ~b:0;
        Span.save t.sp
      end
      else Span.no_ctx
    in
    schedule_event t ~proc:target ~ready_at
      {
        thread;
        go =
          (fun () ->
            (* not the captured target: if it fail-stopped while the stub
               was in flight the event was re-homed and runs on the
               successor's clock *)
            let target = t.cur_proc in
            let span_on = Span.on t.sp in
            let t_arr = Machine.now t.machine target in
            if span_on then begin
              Span.restore t.sp sctx;
              if t_arr > ready_at then
                Span.child t.sp ~kind:Span.Queue ~proc:target ~t0:ready_at
                  ~t1:t_arr ~a:0 ~b:0
            end;
            check_crash t ~proc:target ~thread;
            let t_rc = Machine.now t.machine target in
            if span_on && t_rc > t_arr then
              Span.child t.sp ~kind:Span.Replay ~proc:target ~t0:t_arr ~t1:t_rc
                ~a:0 ~b:0;
            Machine.advance t.machine target c.C.return_recv;
            if Span.takes t.sp Span.Return_arrive then
              Span.event t.sp ~kind:Span.Return_arrive ~proc:target
                ~time:(Machine.now t.machine target) ~tid:thread.tid ~site:(-1)
                ~a:source ~b:0 ~c:0;
            Cache.on_return_received t.cache ~proc:target ~log:thread.log;
            (* back at the (virtual) origin, wherever the home map routed
               the stub *)
            thread.seat <- origin;
            if span_on then begin
              let t_done = Machine.now t.machine target in
              Span.child t.sp ~kind:Span.Recv ~proc:target ~t0:t_rc ~t1:t_done
                ~a:0 ~b:0;
              Span.close_root t.sp ~t1:t_done ~a:target ~b:0
            end;
            Effect.Deep.continue k ());
      }
  end

let phase_arm t name (k : (unit, unit) Effect.Deep.continuation) =
  (* measurement boundary: all processors synchronize *)
  let m = Machine.makespan t.machine in
  for p = 0 to t.cfg.C.nprocs - 1 do
    Machine.wait_until t.machine p m
  done;
  (* the one place a task moves other processors' clocks *)
  rekey_all t;
  t.phases <- { pname = name; at = m; snapshot = Stats.copy (stats t) } :: t.phases;
  if Span.takes t.sp Span.Phase then
    Span.event t.sp ~kind:Span.Phase ~proc:t.cur_proc ~time:m
      ~tid:t.cur_thread.tid ~site:(-1) ~a:(Span.intern_phase name) ~b:0 ~c:0;
  Effect.Deep.continue k ()

let park_load t site g field =
  t.e_site <- site;
  t.e_gptr <- g;
  t.e_field <- field

let make_handler t : (unit, unit) Effect.Deep.handler =
  let load = Some (load_arm t Word.Value) in
  let load_int = Some (load_arm t Word.Int) in
  let load_float = Some (load_arm t Word.Float) in
  let load_ptr = Some (load_arm t Word.Ptr) in
  let store = Some (store_arm t) in
  let future = Some (future_arm t (run_future t)) in
  let touch = Some (touch_arm t) in
  let return = Some (return_arm t) in
  let effc : type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option =
    function
    | Load (site, g, field) ->
        park_load t site g field;
        load
    | Load_int (site, g, field) ->
        park_load t site g field;
        load_int
    | Load_float (site, g, field) ->
        park_load t site g field;
        load_float
    | Load_ptr (site, g, field) ->
        park_load t site g field;
        load_ptr
    | Store (site, g, field, v) ->
        t.e_site <- site;
        t.e_gptr <- g;
        t.e_field <- field;
        t.e_value <- v;
        store
    | Future body ->
        t.e_body <- body;
        future
    | Touch (psite, cell) ->
        t.e_psite <- psite;
        t.e_cell <- cell;
        touch
    | Return_to target ->
        t.e_target <- target;
        return
    (* [Ops] runs these on the fast path inside an engine; performed,
       they are rare enough to build their arm per effect *)
    | Work n ->
        Some
          (fun k ->
            immediate_work t n;
            Effect.Deep.continue k ())
    | Self -> Some (fun k -> Effect.Deep.continue k t.cur_thread.seat)
    | Nprocs -> Some (fun k -> Effect.Deep.continue k t.cfg.C.nprocs)
    | Alloc (proc, words) ->
        Some (fun k -> Effect.Deep.continue k (immediate_alloc t ~proc words))
    | Phase name -> Some (phase_arm t name)
    | _ -> None
  in
  { retc = Fun.id; exnc = raise; effc }

let create cfg =
  let t = create_state cfg in
  t.handler <- make_handler t;
  t

(* --- The scheduler loop -------------------------------------------- *)

(* A fail-stop observed at the scheduler: run the failover protocol
   (promote the backup, rewrite the home map, handle dependents), then
   deal with the victim's resident work.  With [replica_spec.threads]
   the victim's event queue, work list, and parked waiters all move to
   the promoted successor — events keep their (ready_at, seq) keys, so
   the global execution order stays total.  Without it the tasks are
   unrecoverable and the run aborts with a deterministic report
   ([Threads_lost]). *)
let fail_stop t fo ~victim =
  let successor = Failover.fail_over fo ~victim in
  let replicate_threads =
    match t.cfg.C.replication with Some r -> r.C.threads | None -> false
  in
  let q = t.events.(victim) in
  let wl = t.worklists.(victim) in
  let parked_count =
    List.fold_left
      (fun n (p, _) -> if p = victim then n + 1 else n)
      0 t.parked
  in
  if replicate_threads then begin
    (* resident events: re-home, keys unchanged *)
    while not (Event_queue.is_empty q) do
      let ready_at = Event_queue.top_ready_at q in
      let seq = Event_queue.top_seq q in
      Event_queue.push t.events.(successor) ~ready_at ~seq
        (Event_queue.take_payload q)
    done;
    (* resident continuations, the victim's LIFO order kept on top *)
    Work_list.move_all wl ~onto:t.worklists.(successor);
    (* parked-waiter bookkeeping follows the continuations *)
    if parked_count > 0 then
      t.parked <-
        List.map
          (fun (p, label) ->
            if p = victim then (successor, label) else (p, label))
          t.parked
  end
  else begin
    let lost = Event_queue.length q + Work_list.length wl + parked_count in
    if lost > 0 then begin
      let s = stats t in
      s.Stats.threads_lost <- s.Stats.threads_lost + lost;
      Failover.note_threads_lost fo ~proc:victim ~count:lost;
      raise
        (Threads_lost
           (Printf.sprintf
              "p%d fail-stopped with %d unreplicated resident task(s) \
               (events=%d worklist=%d parked=%d); rerun with replica \
               threads enabled or treat the computation as lost"
              victim lost (Event_queue.length q) (Work_list.length wl)
              parked_count))
    end
  end;
  (* the protocol moved several clocks (successor, announcement
     targets) and two queues changed shape *)
  rekey_all t

(* Start running [thread] on [proc] (already set as [t.cur_proc]). *)
let enter_task t thread =
  t.cur_thread <- thread;
  if Span.flat_on t.sp then Span.set_thread t.sp thread.tid;
  (* a task must not inherit the ambient span context of whatever ran
     last: cross-task context travels only inside scheduled closures
     (via [Span.save]/[restore]), which re-install it themselves *)
  if Span.on t.sp then Span.clear t.sp

(* --- Scheduler audit (tests) ----------------------------------------

   With [audit_schedule] set, every [step] first recomputes each
   processor's key from its queues and clock and checks that [t.cands]
   picks what a linear scan over those fresh keys picks.  A key left
   stale — a push or clock move the re-key discipline above missed —
   fails the step. *)
let audit_schedule = ref false

let fresh_key t p =
  let clock = Machine.now t.machine p in
  let cand ~prio ~avail ~seq =
    Some ((if clock > avail then clock else avail), prio, avail, seq)
  in
  let q = t.events.(p) and wl = t.worklists.(p) in
  let e =
    if Event_queue.is_empty q then None
    else
      cand ~prio:1 ~avail:(Event_queue.top_ready_at q)
        ~seq:(Event_queue.top_seq q)
  in
  let w =
    if Work_list.is_empty wl then None
    else
      cand ~prio:0 ~avail:(Work_list.top_pushed_at wl)
        ~seq:(Work_list.top_seq wl)
  in
  match (e, w) with Some a, Some b -> Some (min a b) | k, None | None, k -> k

let audit t =
  let best = ref None in
  for p = 0 to t.cfg.C.nprocs - 1 do
    match (fresh_key t p, !best) with
    | Some k, None -> best := Some (k, p)
    | Some k, Some (b, _) when k < b -> best := Some (k, p)
    | _ -> ()
  done;
  let got = Candidate_heap.min t.cands in
  let heap_pick =
    if got < 0 then None
    else
      Some
        (got, Candidate_heap.start t.cands got, Candidate_heap.prio t.cands got)
  in
  let scan_pick =
    Option.map (fun ((start, prio, _, _), p) -> (p, start, prio)) !best
  in
  if heap_pick <> scan_pick then
    let show = function
      | Some (p, start, prio) ->
          Printf.sprintf "p%d at %d (prio %d)" p start prio
      | None -> "nothing"
    in
    failwith
      (Printf.sprintf
         "Engine.step: the candidate heap picks %s, a scan over fresh keys \
          picks %s"
         (show heap_pick) (show scan_pick))

let step t =
  if !audit_schedule then audit t;
  let proc = Candidate_heap.min t.cands in
  if proc < 0 then false
  else begin
    let best_start = Candidate_heap.start t.cands proc in
    match t.failover with
    | Some fo when Failover.pending fo ~proc ~time:best_start ->
        (* the pick observed a fail-stop: the victim dies *before*
           running its task; the task either moves to the promoted
           successor (replicated threads) or aborts the run.  The next
           [step] re-picks against the rewritten queues. *)
        fail_stop t fo ~victim:proc;
        true
    | _ ->
    (* [best_start] is the global virtual time: it never decreases across
       steps, so it drives the monitor's interval windows *)
    Monitor.tick t.mon best_start;
    Machine.wait_until t.machine proc best_start;
    t.cur_proc <- proc;
    if Candidate_heap.prio t.cands proc = 0 then begin
      (* steal the most recent saved continuation *)
      let wl = t.worklists.(proc) in
      let thread = Work_list.top_thread wl in
      let k = Work_list.top_k wl in
      let cell = Work_list.top_v wl in
      Work_list.drop wl;
      let s = stats t in
      s.Stats.steals <- s.Stats.steals + 1;
      Machine.advance t.machine proc (costs t).C.steal;
      if Span.takes t.sp Span.Steal then
        Span.event t.sp ~kind:Span.Steal ~proc
          ~time:(Machine.now t.machine proc) ~tid:thread.tid ~site:(-1) ~a:0
          ~b:0 ~c:0;
      enter_task t thread;
      Effect.Deep.continue k cell
    end
    else begin
      let task = Event_queue.take_payload t.events.(proc) in
      enter_task t task.thread;
      task.go ()
    end;
    (* the task popped this processor's queue or work list, moved its
       clock, and may have pushed to it *)
    rekey t proc;
    true
  end

(* One line per processor for flight-recorder dumps: where each clock
   stands, what work is still queued, and the last span emitted there. *)
let flight_state t =
  let busy = Machine.busy_cycles t.machine in
  let comm = Machine.comm_cycles t.machine in
  List.init t.cfg.C.nprocs (fun p ->
      Printf.sprintf
        "p%d clock=%d busy=%d comm=%d events=%d worklist=%d last_span=%d" p
        (Machine.now t.machine p)
        busy.(p) comm.(p)
        (Event_queue.length t.events.(p))
        (Work_list.length t.worklists.(p))
        (Span.last_span_on t.sp p))

(* The drained-but-blocked diagnostic: which sites the stuck threads
   parked at, and how many pending continuations each processor holds —
   enough to see where the missing resolution was supposed to come
   from. *)
let deadlock_message t =
  let parked = List.rev t.parked (* park order *) in
  let labels =
    (* dedup preserving first-park order, with multiplicities *)
    List.fold_left
      (fun acc (_, label) ->
        if List.mem_assoc label acc then
          List.map
            (fun (l, c) -> if String.equal l label then (l, c + 1) else (l, c))
            acc
        else acc @ [ (label, 1) ])
      [] parked
  in
  let per_proc = Array.make t.cfg.C.nprocs 0 in
  List.iter (fun (p, _) -> per_proc.(p) <- per_proc.(p) + 1) parked;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d thread(s) parked on unresolved futures" t.blocked);
  if labels <> [] then begin
    Buffer.add_string buf "; parked at: ";
    Buffer.add_string buf
      (String.concat ", "
         (List.map
            (fun (l, c) -> if c = 1 then l else Printf.sprintf "%s (x%d)" l c)
            labels))
  end;
  let pending =
    List.filter
      (fun (_, c) -> c > 0)
      (List.init t.cfg.C.nprocs (fun p -> (p, per_proc.(p))))
  in
  if pending <> [] then begin
    Buffer.add_string buf "; pending continuations: ";
    Buffer.add_string buf
      (String.concat " "
         (List.map (fun (p, c) -> Printf.sprintf "p%d=%d" p c) pending))
  end;
  (* span tracing localizes the wedge further: the last span each parked
     processor emitted, and a flight-recorder dump when one is running *)
  let parked_procs =
    List.sort_uniq compare (List.map (fun (p, _) -> p) parked)
  in
  if Span.on t.sp && parked_procs <> [] then begin
    Buffer.add_string buf "; last span per parked proc: ";
    Buffer.add_string buf
      (String.concat " "
         (List.map
            (fun p -> Printf.sprintf "p%d=#%d" p (Span.last_span_on t.sp p))
            parked_procs))
  end;
  (match Span.flight_dump ~reason:"deadlock" ~state:(flight_state t) with
  | Some path -> Buffer.add_string buf ("; flight recorder: " ^ path)
  | None -> ());
  Buffer.contents buf

(* Bind the executing domain's span state and monitor slot into the
   engine, its machine and its cache system: after this the hooks of the
   run read fields, never a domain-local key.  [exec] binds,
   not [create]: a sweep pool may create an engine on one domain and run
   it on another, and the run's events belong to the domain that runs
   it. *)
let bind t =
  let sp = Span.state () in
  t.sp <- sp;
  t.mon <- Monitor.slot ();
  Machine.bind t.machine sp;
  Cache.bind t.cache sp

(* Run [program] to completion as the initial thread on processor 0. *)
let exec t program =
  bind t;
  (* span ids and per-proc sequences restart so same-seed runs export
     byte-identical spans, and the ambient thread/site clear so events
     fired before the first dereference don't inherit a stale one from a
     previous run *)
  Span.reset t.sp;
  let main_thread = new_thread t in
  schedule_event t ~proc:0 ~ready_at:0
    {
      thread = main_thread;
      go =
        (fun () ->
          Effect.Deep.match_with
            (fun () ->
              program ();
              t.finished <- true)
            () t.handler);
    };
  let cur = current () in
  let saved = !cur in
  cur := Some t;
  Fun.protect
    ~finally:(fun () -> cur := saved)
    (fun () ->
      while step t do
        ()
      done);
  if t.blocked > 0 then raise (Deadlock (deadlock_message t));
  if not t.finished then raise (Deadlock "main thread never completed")

(* Open-loop injection: admit a fresh thread into the event queue at an
   absolute simulated time, independent of the main program's control
   flow.  This is how the serving driver turns the engine into an open
   system — each injected request starts at its ingress processor as a
   brand-new thread and runs under the full migrate-vs-cache machinery,
   exactly like work the program spawned itself.

   Called from inside the running program (the serving driver injects
   the whole arrival schedule from its main thread).  [ready_at] should
   lie at least [Olden_config.lookahead] cycles past the injecting
   processor's clock, as any message sent from there would: an arrival
   in the past would run before work the scheduler has already done,
   and virtual time would step backwards.  [on_complete] runs inside the
   request's fiber on the processor that finished it, with that
   processor's clock — the serving driver measures admission→completion
   latency from it. *)
let inject t ~proc ~ready_at ?on_complete fn =
  (* an ingress processor that has fail-stopped redirects to its
     promoted successor, like every other send (identity on a healthy
     machine) *)
  let proc =
    if Machine.is_dead t.machine proc then Machine.home_of t.machine proc
    else proc
  in
  let thread = new_thread t in
  (* the request resides at its ingress processor, not wherever the
     injecting thread happens to sit *)
  thread.seat <- proc;
  Machine.note_ingress t.machine proc;
  schedule_event t ~proc ~ready_at
    {
      thread;
      go =
        (fun () ->
          Effect.Deep.match_with
            (fun () ->
              fn ();
              Machine.note_request_done t.machine;
              match on_complete with
              | Some f -> f ~proc:t.cur_proc ~finish:(now t)
              | None -> ())
            () t.handler);
    }

type report = {
  makespan : int;
  stats : Stats.t;
  utilization : float;
  avg_chain_length : float;
  phases : (string * int) list; (* in program order *)
}

let report (t : t) =
  {
    makespan = Machine.makespan t.machine;
    stats = Machine.stats t.machine;
    utilization = Machine.utilization t.machine;
    avg_chain_length = Cache.average_chain_length t.cache;
    phases = List.rev_map (fun p -> (p.pname, p.at)) t.phases;
  }

let phase_snapshots (t : t) =
  List.rev_map (fun p -> (p.pname, p.at, p.snapshot)) t.phases

let run cfg program =
  let t = create cfg in
  exec t program;
  report t

(* Duration and statistics of the region between phase marks [start] and
   [stop] (or the end of the run). *)
let interval t ~start ~stop =
  let marks = phase_snapshots t in
  let find name =
    List.find_opt (fun (n, _, _) -> String.equal n name) marks
  in
  match find start with
  | None -> invalid_arg ("Engine.interval: no phase " ^ start)
  | Some (_, t0, s0) ->
      let t1, s1 =
        match Option.bind stop find with
        | Some (_, t1, s1) -> (t1, s1)
        | None -> (Machine.makespan t.machine, Machine.stats t.machine)
      in
      (t1 - t0, Stats.diff s1 s0)
