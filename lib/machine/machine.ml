(* The simulated distributed-memory machine.

   Deterministic discrete-event timing: each processor carries a cycle
   clock for its compute thread, plus a separate availability time for its
   active-message handler.  Handler occupancy models the serialization of
   requests at a hot home node (the bottleneck of Section 4.3) without
   having to rewind the home's compute clock; handler cycles are assumed to
   be interleaved with computation, which matches the CM-5's interrupt-driven
   active messages closely enough for the ratios we reproduce. *)

module Span = Olden_span.Span

type t = {
  cfg : Olden_config.t;
  clock : int array; (* per-processor compute clock, cycles *)
  handler_free : int array; (* time the AM handler becomes free *)
  busy : int array; (* total busy cycles, for utilization accounting *)
  comm : int array; (* cycles a processor's compute thread spent blocked
                       on request/reply round trips *)
  stats : Stats.t;
  fault : Fault_plan.t option; (* None: the network is reliable *)
  home : int array;
      (* the home map: [home.(owner)] is the processor currently serving
         [owner]'s pages.  Identity until a fail-stop failover promotes a
         backup; every message send resolves its destination through it,
         so a request racing a death replays against the new home instead
         of targeting a corpse. *)
  dead : bool array; (* fail-stopped processors, permanently *)
  mutable live : int; (* processors not in [dead]; the scheduler asks *)
  mutable sends_to_dead : int;
      (* sends whose *resolved* destination was still dead — must stay 0
         when the failover protocol is correct (the checker asserts it) *)
  mutable intervals : (int * int * int) list;
      (* busy intervals (proc, start, stop), newest first, when recording *)
  mutable record_intervals : bool;
  ingress : int array;
      (* open-loop serving requests admitted at each processor; identity
         zero outside serving runs, so batch exports never see it *)
  mutable span : Span.state;
      (* the span state of the domain running the machine: the creating
         domain's until an engine's [exec] binds its own ([bind]) *)
}

exception
  Undeliverable of { dst : int; klass : Fault_plan.klass; attempts : int }

(* The one-line rendering every consumer (CLI, logs, tests) shares, so
   "what died and where was it headed" reads the same everywhere. *)
let undeliverable_to_string ~dst ~klass ~attempts =
  Printf.sprintf "%s message to processor %d undeliverable after %d attempts"
    (Fault_plan.klass_to_string klass)
    dst attempts

let create cfg =
  let n = cfg.Olden_config.nprocs in
  {
    cfg;
    clock = Array.make n 0;
    handler_free = Array.make n 0;
    busy = Array.make n 0;
    comm = Array.make n 0;
    stats = Stats.create ();
    fault =
      Option.map
        (fun spec -> Fault_plan.create spec cfg.Olden_config.retry)
        cfg.Olden_config.faults;
    home = Array.init n Fun.id;
    dead = Array.make n false;
    live = n;
    sends_to_dead = 0;
    intervals = [];
    record_intervals = false;
    ingress = Array.make n 0;
    span = Span.state ();
  }

let bind t span = t.span <- span
let span t = t.span

let set_record_intervals t flag = t.record_intervals <- flag
let busy_intervals t = List.rev t.intervals

let nprocs t = t.cfg.Olden_config.nprocs
let costs t = t.cfg.Olden_config.costs
let stats t = t.stats
let fault_plan t = t.fault
let now t proc = t.clock.(proc)

(* --- Fail-stop bookkeeping: the home map and the dead set ------------- *)

let home_of t owner = t.home.(owner)
let is_dead t proc = t.dead.(proc)
let mark_dead t proc =
  if not t.dead.(proc) then begin
    t.dead.(proc) <- true;
    t.live <- t.live - 1
  end

let rehome t ~owner ~target = t.home.(owner) <- target
let live_count t = t.live

let dead_sends t = t.sends_to_dead

(* --- Serving ingress accounting --------------------------------------- *)

let note_ingress t proc =
  t.ingress.(proc) <- t.ingress.(proc) + 1;
  t.stats.Stats.requests_admitted <- t.stats.Stats.requests_admitted + 1

let note_request_done t =
  t.stats.Stats.requests_completed <- t.stats.Stats.requests_completed + 1

let ingress_counts t = Array.copy t.ingress

(* Every send resolves its destination through the home map: before any
   failover this is the identity and perturbs nothing; afterwards traffic
   aimed at a dead home lands at its promoted backup.  A resolved
   destination that is still dead is a failover-protocol bug, counted so
   the invariant checker can assert it never happened. *)
let resolve t dst =
  let d = t.home.(dst) in
  if t.dead.(d) then t.sends_to_dead <- t.sends_to_dead + 1;
  d

(* The deterministic backup for [owner]'s home pages: the first live
   processor at or after [(owner + stride) mod nprocs] that is not the
   one currently serving them.  After a failover this walks past the
   promoted backup to elect the fresh one. *)
let backup_of t ~stride ~owner =
  let n = nprocs t in
  let serving = t.home.(owner) in
  let rec go k =
    if k >= n then serving
    else
      let c = (owner + stride + k) mod n in
      if c <> serving && not t.dead.(c) then c else go (k + 1)
  in
  go 0

(* Charge [cycles] of computation on [proc]. *)
let advance t proc cycles =
  if cycles < 0 then invalid_arg "Machine.advance: negative cost";
  let start = t.clock.(proc) in
  t.clock.(proc) <- start + cycles;
  t.busy.(proc) <- t.busy.(proc) + cycles;
  if t.record_intervals && cycles > 0 then
    t.intervals <- (proc, start, start + cycles) :: t.intervals

(* Move a processor's clock forward to [time] (idle waiting, e.g. a thread
   arriving at a processor that has nothing else to do). *)
let wait_until t proc time =
  if time > t.clock.(proc) then t.clock.(proc) <- time

(* A compute thread stalled on a retry timer: the clock moves but no busy
   time is charged, and the cycles count as communication so the profiler's
   busy + comm + idle accounting identity still holds. *)
let stall t proc cycles =
  if cycles > 0 then begin
    t.clock.(proc) <- t.clock.(proc) + cycles;
    t.comm.(proc) <- t.comm.(proc) + cycles
  end

(* --- Fault bookkeeping helpers -------------------------------------- *)

let note_drop t ~dst ~time ~attempt ~outage =
  t.stats.Stats.msg_drops <- t.stats.Stats.msg_drops + 1;
  if outage then t.stats.Stats.outage_drops <- t.stats.Stats.outage_drops + 1;
  if Span.on t.span then
    Span.child t.span ~kind:Span.Drop ~proc:dst ~t0:time ~t1:time ~a:attempt
      ~b:(if outage then 1 else 0)

let note_delay t ~dst ~time ~cycles =
  if cycles > 0 then begin
    t.stats.Stats.msg_delays <- t.stats.Stats.msg_delays + 1;
    if Span.on t.span then
      Span.child t.span ~kind:Span.Delay ~proc:dst ~t0:(time - cycles) ~t1:time
        ~a:cycles ~b:0
  end

(* A duplicate delivery: the receiver's sequence-number check discards it.
   [duplicates_suppressed] equals [msg_duplicates] exactly when the
   idempotent receive path catches every duplicate — the invariant the
   checker asserts.  [note_suppressed] is for deliveries whose transmission
   was already counted (a retransmission reaching an already-serviced
   handler); [note_duplicate] also counts the extra copy the network
   minted. *)
let note_suppressed t ~dst ~time =
  t.stats.Stats.msg_duplicates <- t.stats.Stats.msg_duplicates + 1;
  t.stats.Stats.duplicates_suppressed <-
    t.stats.Stats.duplicates_suppressed + 1;
  if Span.on t.span then
    Span.child t.span ~kind:Span.Dup ~proc:dst ~t0:time ~t1:time ~a:0 ~b:0

let note_duplicate t ~dst ~time =
  t.stats.Stats.messages <- t.stats.Stats.messages + 1;
  note_suppressed t ~dst ~time

(* Charge one retry timer: raise [Undeliverable] when the budget is gone,
   otherwise count the retransmission and return the backoff wait. *)
let note_retry t plan ~dst ~klass ~time ~attempt =
  if attempt + 1 >= (Fault_plan.retry plan).Olden_config.max_attempts then
    raise (Undeliverable { dst; klass; attempts = attempt + 1 });
  let wait = Fault_plan.retry_wait plan ~attempt in
  t.stats.Stats.retries <- t.stats.Stats.retries + 1;
  t.stats.Stats.retry_cycles <- t.stats.Stats.retry_cycles + wait;
  if Span.on t.span then
    Span.child t.span ~kind:Span.Backoff ~proc:dst ~t0:time ~t1:(time + wait)
      ~a:attempt ~b:wait;
  wait

(* Deliver one attempt into [dst]'s handler and return the service finish
   time (shared by the reliable and faulty paths). *)
let handler_accept t ~dst ~arrive ~service =
  let start =
    if t.cfg.Olden_config.handler_contention then
      max arrive t.handler_free.(dst)
    else arrive
  in
  t.handler_free.(dst) <- start + service;
  start + service

(* A request/reply round trip from [src] to the handler of [dst].  The
   requester blocks; the reply arrives after network latency both ways plus
   handler service, plus any queueing if the handler is busy.  Returns the
   reply arrival time and advances the requester's clock to it. *)
let request_reply_reliable t ~src ~dst ~service =
  let c = costs t in
  let arrive = t.clock.(src) + c.Olden_config.net_latency in
  let reply = handler_accept t ~dst ~arrive ~service + c.Olden_config.net_latency in
  t.stats.Stats.messages <- t.stats.Stats.messages + 2;
  t.comm.(src) <- t.comm.(src) + (reply - t.clock.(src));
  t.clock.(src) <- reply;
  reply

(* The same round trip over the faulty network.  Each logical request
   carries one sequence number; a lost request or reply makes the blocked
   requester stall for the backoff wait and retransmit under the same
   sequence number.  The receiver's sequence check makes the service
   idempotent: a retransmission of an already-serviced request only
   re-sends the cached reply, and duplicated deliveries are discarded.
   With a schedule whose probabilities are all zero this degenerates to
   exactly the reliable path: same clocks, same handler occupancy, same
   counters. *)
let request_reply_faulty t plan ~klass ~src ~dst ~service =
  let c = costs t in
  let seq = Fault_plan.fresh_seq plan in
  let serviced = ref false in
  let attempt = ref 0 in
  let reply = ref (-1) in
  while !reply < 0 do
    let k = !attempt in
    let fwd = Fault_plan.decide plan ~klass ~leg:Fault_plan.Forward ~seq ~attempt:k in
    t.stats.Stats.messages <- t.stats.Stats.messages + 1;
    let arrive =
      t.clock.(src) + c.Olden_config.net_latency + fwd.Fault_plan.delay
    in
    let outage =
      (not fwd.Fault_plan.dropped)
      && Fault_plan.handler_down plan ~proc:dst ~time:arrive
    in
    if fwd.Fault_plan.dropped || outage then begin
      note_drop t ~dst ~time:arrive ~attempt:k ~outage;
      let wait = note_retry t plan ~dst ~klass ~time:t.clock.(src) ~attempt:k in
      stall t src wait;
      incr attempt
    end
    else begin
      note_delay t ~dst ~time:arrive ~cycles:fwd.Fault_plan.delay;
      if fwd.Fault_plan.duplicated then note_duplicate t ~dst ~time:arrive;
      let finish =
        if !serviced then begin
          (* retransmission of an already-serviced request: the sequence
             check recognizes it and re-sends the cached reply without
             executing the service again *)
          note_suppressed t ~dst ~time:arrive;
          arrive
        end
        else begin
          serviced := true;
          handler_accept t ~dst ~arrive ~service
        end
      in
      let ack = Fault_plan.decide plan ~klass ~leg:Fault_plan.Ack ~seq ~attempt:k in
      t.stats.Stats.messages <- t.stats.Stats.messages + 1;
      let back = finish + c.Olden_config.net_latency + ack.Fault_plan.delay in
      if ack.Fault_plan.dropped then begin
        note_drop t ~dst:src ~time:back ~attempt:k ~outage:false;
        let wait = note_retry t plan ~dst ~klass ~time:t.clock.(src) ~attempt:k in
        stall t src wait;
        incr attempt
      end
      else begin
        note_delay t ~dst:src ~time:back ~cycles:ack.Fault_plan.delay;
        if ack.Fault_plan.duplicated then note_duplicate t ~dst:src ~time:back;
        t.comm.(src) <- t.comm.(src) + (back - t.clock.(src));
        t.clock.(src) <- back;
        reply := back
      end
    end
  done;
  !reply

let klass_code = function
  | Fault_plan.Data -> 0
  | Fault_plan.Migration -> 1
  | Fault_plan.Return -> 2
  | Fault_plan.Recovery -> 3
  | Fault_plan.Replica -> 4

(* Emit the Rpc envelope span of a round trip opened at [t0]. *)
let close_rpc t ~id ~prev ~klass ~src ~dst ~t0 =
  Span.exit_emit t.span ~id ~prev ~kind:Span.Rpc ~proc:src ~t0 ~t1:t.clock.(src)
    ~a:dst ~b:(klass_code klass)

let request_reply ?(klass = Fault_plan.Data) t ~src ~dst ~service =
  let dst = resolve t dst in
  if Span.on t.span then begin
    (* one Rpc envelope span per logical round trip; the fault events
       the legs emit (drop/backoff/delay/dup) nest under it *)
    let t0 = t.clock.(src) in
    let prev = Span.parent t.span in
    let id = Span.enter t.span in
    match
      match t.fault with
      | None -> request_reply_reliable t ~src ~dst ~service
      | Some plan -> request_reply_faulty t plan ~klass ~src ~dst ~service
    with
    | reply ->
        close_rpc t ~id ~prev ~klass ~src ~dst ~t0;
        reply
    | exception e ->
        (* Undeliverable: still emit the envelope so the flight recorder
           shows the failed RPC as the last thing that happened *)
        close_rpc t ~id ~prev ~klass ~src ~dst ~t0;
        raise e
  end
  else
    match t.fault with
    | None -> request_reply_reliable t ~src ~dst ~service
    | Some plan -> request_reply_faulty t plan ~klass ~src ~dst ~service

(* A one-way message whose effect is applied at the destination handler;
   the sender does not block.  Returns the time the handler finishes.
   Under faults the transport layer retransmits in the background — lost
   attempts push the delivery time back by the backoff wait without
   touching the sender's clock, and the effect is applied exactly once. *)
let one_way ?(klass = Fault_plan.Data) t ~src ~dst ~service =
  let dst = resolve t dst in
  let c = costs t in
  match t.fault with
  | None ->
      t.stats.Stats.messages <- t.stats.Stats.messages + 1;
      handler_accept t ~dst ~arrive:(t.clock.(src) + c.Olden_config.net_latency)
        ~service
  | Some plan ->
      let seq = Fault_plan.fresh_seq plan in
      let lag = ref 0 in
      let attempt = ref 0 in
      let finish = ref (-1) in
      while !finish < 0 do
        let k = !attempt in
        let fwd =
          Fault_plan.decide plan ~klass ~leg:Fault_plan.Forward ~seq
            ~attempt:k
        in
        t.stats.Stats.messages <- t.stats.Stats.messages + 1;
        let arrive =
          t.clock.(src) + !lag + c.Olden_config.net_latency
          + fwd.Fault_plan.delay
        in
        let outage =
          (not fwd.Fault_plan.dropped)
          && Fault_plan.handler_down plan ~proc:dst ~time:arrive
        in
        if fwd.Fault_plan.dropped || outage then begin
          note_drop t ~dst ~time:arrive ~attempt:k ~outage;
          let wait =
            note_retry t plan ~dst ~klass ~time:t.clock.(src) ~attempt:k
          in
          lag := !lag + wait;
          incr attempt
        end
        else begin
          note_delay t ~dst ~time:arrive ~cycles:fwd.Fault_plan.delay;
          if fwd.Fault_plan.duplicated then note_duplicate t ~dst ~time:arrive;
          finish := handler_accept t ~dst ~arrive ~service
        end
      done;
      !finish

(* Reliable delivery of a thread-state transfer (migration or return stub).
   The base message cost is charged by the engine; this only answers: how
   much later than the fault-free schedule does the state arrive, or did
   the sender give up?  Lost forward legs delay the arrival by the backoff
   wait; a lost acknowledgement triggers a retransmission that the
   receiver's sequence check discards (the thread must start exactly
   once), delaying nothing.  Returns the penalty, an int, so a delivery
   allocates nothing; giving up, the rare case, raises [Gave_up]. *)
exception Gave_up of { penalty : int; attempts : int }

let thread_delivery t ~dst ~klass ~send_time ~give_up_after =
  let dst = resolve t dst in
  match t.fault with
  | None -> 0
  | Some plan ->
      let c = costs t in
      let seq = Fault_plan.fresh_seq plan in
      let max_attempts = (Fault_plan.retry plan).Olden_config.max_attempts in
      let penalty = ref 0 in
      let attempt = ref 0 in
      let delivered = ref false in
      while not !delivered do
        let k = !attempt in
        let fwd = Fault_plan.decide plan ~klass ~leg:Fault_plan.Forward ~seq ~attempt:k in
        if k > 0 then t.stats.Stats.messages <- t.stats.Stats.messages + 1;
        let arrive =
          send_time + !penalty + c.Olden_config.net_latency
          + fwd.Fault_plan.delay
        in
        let outage =
          (not fwd.Fault_plan.dropped)
          && Fault_plan.handler_down plan ~proc:dst ~time:arrive
        in
        if fwd.Fault_plan.dropped || outage then begin
          note_drop t ~dst ~time:arrive ~attempt:k ~outage;
          let attempts = k + 1 in
          match give_up_after with
          | Some n when attempts >= n ->
              raise (Gave_up { penalty = !penalty; attempts })
          | _ ->
              let wait = note_retry t plan ~dst ~klass ~time:send_time ~attempt:k in
              penalty := !penalty + wait;
              incr attempt
        end
        else begin
          note_delay t ~dst ~time:arrive ~cycles:fwd.Fault_plan.delay;
          penalty := !penalty + fwd.Fault_plan.delay;
          if fwd.Fault_plan.duplicated then note_duplicate t ~dst ~time:arrive;
          (* acknowledgement chain: each lost ack triggers one background
             retransmission of the state, which the receiver's sequence
             check discards — the fiber is resumed exactly once *)
          let j = ref k in
          let acked = ref false in
          while not !acked do
            let ack =
              Fault_plan.decide plan ~klass ~leg:Fault_plan.Ack ~seq
                ~attempt:!j
            in
            if ack.Fault_plan.dropped && !j + 1 < max_attempts then begin
              note_drop t ~dst ~time:arrive ~attempt:!j ~outage:false;
              t.stats.Stats.retries <- t.stats.Stats.retries + 1;
              note_duplicate t ~dst ~time:arrive;
              incr j
            end
            else acked := true
          done;
          delivered := true
        end
      done;
      !penalty

let count_bytes t n = t.stats.Stats.bytes <- t.stats.Stats.bytes + n

(* Finishing time of the whole run. *)
let makespan t = Array.fold_left max 0 t.clock

let total_busy t = Array.fold_left ( + ) 0 t.busy

let utilization t =
  let span = makespan t in
  if span = 0 then 1.
  else float_of_int (total_busy t) /. float_of_int (span * nprocs t)

let pp ppf t =
  Format.fprintf ppf "@[<v>makespan=%d utilization=%.3f@,%a@]" (makespan t)
    (utilization t) Stats.pp t.stats

let busy_cycles t = Array.copy t.busy
let clocks t = Array.copy t.clock
let comm_cycles t = Array.copy t.comm

(* Per-processor idle time relative to the whole run: whatever part of
   the makespan was neither charged as computation nor spent blocked on a
   round trip.  By construction busy + comm + idle sums to
   [nprocs * makespan] exactly — the accounting identity the profiler's
   reconciliation line leans on. *)
let idle_cycles t =
  let span = makespan t in
  Array.init (nprocs t) (fun p -> span - t.busy.(p) - t.comm.(p))
