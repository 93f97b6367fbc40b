(** The simulated distributed-memory machine.

    Deterministic discrete-event timing: each processor carries a cycle
    clock for its compute thread plus a separate availability time for its
    active-message handler.  Handler occupancy (when enabled) models the
    serialization of requests at a hot home node without rewinding the
    home's compute clock: handler cycles interleave with computation, as
    with the CM-5's interrupt-driven active messages. *)

type t

exception
  Undeliverable of { dst : int; klass : Fault_plan.klass; attempts : int }
(** A message exhausted [retry_spec.max_attempts] retransmissions; names
    the destination processor and the message class that failed. *)

val undeliverable_to_string :
  dst:int -> klass:Fault_plan.klass -> attempts:int -> string
(** The canonical one-line rendering of an {!Undeliverable} payload —
    what the CLI prints and what tests assert against. *)

val create : Olden_config.t -> t
(** A fresh machine whose span hooks emit into the calling domain's span
    state until {!bind} says otherwise. *)

val bind : t -> Olden_span.Span.state -> unit
(** Emit into this span state from now on.  The engine calls it when its
    [exec] starts, with the executing domain's state. *)

val span : t -> Olden_span.Span.state
(** The bound span state, for the layers that emit under the machine
    (recovery, failover). *)

val nprocs : t -> int
val costs : t -> Olden_config.costs
val stats : t -> Stats.t

val fault_plan : t -> Fault_plan.t option
(** The active fault schedule, when [cfg.faults] is set. *)

(** {2 The home map and the dead set}

    Fail-stop failover works through one indirection: every message send
    resolves its destination processor through the home map, which is
    the identity until a failover rewrites it (so the fault-free
    simulation is bit-identical to a machine without the map).  The
    failover layer ({!Olden_recovery.Failover}) marks victims dead and
    points their entries at the promoted backup. *)

val home_of : t -> int -> int
(** [home_of t owner] is the processor currently serving [owner]'s home
    pages: [owner] itself until a failover promotes a backup. *)

val is_dead : t -> int -> bool
(** Has this processor fail-stopped?  Permanent. *)

val mark_dead : t -> int -> unit
(** Record a fail-stop death.  The failover layer must also {!rehome}
    every owner the victim was serving. *)

val rehome : t -> owner:int -> target:int -> unit
(** Point [owner]'s home-map entry at [target] (the promoted backup). *)

val live_count : t -> int
(** Processors not (yet) fail-stopped.  Constant time: the scheduler asks
    on every step under a fault schedule. *)

val dead_sends : t -> int
(** Sends whose destination, *after* home-map resolution, was still a
    dead processor.  Zero when the failover protocol is correct — the
    invariant checker asserts it. *)

val backup_of : t -> stride:int -> owner:int -> int
(** The deterministic backup for [owner]'s home pages: the first live
    processor at or after [(owner + stride) mod nprocs] that is not the
    one currently serving them.  Returns the serving processor itself
    only when no other live processor exists (no mirror possible). *)

val now : t -> int -> int
(** Current cycle count of a processor's compute clock. *)

(** {2 Serving ingress accounting}

    The open-loop serving driver ({!Olden_serving.Serving}) admits each
    request at a seeded ingress processor; the machine keeps the
    per-processor admission tally so ingress load balance shows up in
    serving snapshots.  All zero outside serving runs. *)

val note_ingress : t -> int -> unit
(** Count one request admitted at a processor (also bumps
    [Stats.requests_admitted]). *)

val note_request_done : t -> unit
(** Count one injected request that ran to completion. *)

val ingress_counts : t -> int array
(** Per-processor requests admitted (a copy). *)

val advance : t -> int -> int -> unit
(** [advance t proc cycles] charges computation.
    @raise Invalid_argument on a negative cost. *)

val wait_until : t -> int -> int -> unit
(** Move a processor's clock forward to a time (idle waiting); never moves
    it backward and charges no busy time. *)

val stall : t -> int -> int -> unit
(** [stall t proc cycles] parks [proc]'s compute thread on a retry timer:
    the clock advances, the cycles count as communication (not busy), so
    the [busy + comm + idle] accounting identity is preserved. *)

val request_reply :
  ?klass:Fault_plan.klass -> t -> src:int -> dst:int -> service:int -> int
(** A blocking round trip from [src] to the handler of [dst]: network
    latency both ways plus handler service, plus queueing when
    [handler_contention] is on.  Advances [src]'s clock to the reply time
    and returns it.  Under a fault schedule the requester stalls and
    retransmits on loss (bounded exponential backoff); the receive path is
    idempotent — duplicates and retransmissions of serviced requests are
    recognized by sequence number and do not re-execute the service.
    @raise Undeliverable when the retry budget is exhausted. *)

val one_way :
  ?klass:Fault_plan.klass -> t -> src:int -> dst:int -> service:int -> int
(** A non-blocking message; returns the time the handler finishes.  Under
    a fault schedule the transport retransmits in the background: losses
    push the delivery time back without blocking the sender, and the
    handler effect is applied exactly once.  [klass] (default [Data])
    classifies the traffic for the fault plan and error reporting —
    replica mirroring sends [Fault_plan.Replica].
    @raise Undeliverable when the retry budget is exhausted. *)

exception Gave_up of { penalty : int; attempts : int }
(** A thread-state transfer the sender abandoned after [attempts] tries,
    having burned [penalty] cycles on retry timers. *)

val thread_delivery :
  t ->
  dst:int ->
  klass:Fault_plan.klass ->
  send_time:int ->
  give_up_after:int option ->
  int
(** Deliver a thread-state transfer (migration or return stub) sent at
    [send_time], and return its penalty: how many cycles later than the
    fault-free schedule it arrives.  The engine charges the base
    send/receive costs and the one base message; this only accounts for
    faults: lost forward legs delay the arrival by the backoff wait, lost
    acknowledgements trigger retransmissions that the receiver's sequence
    check discards (the fiber resumes exactly once).  [give_up_after]
    bounds the forward attempts — used by migrations so a flaky home
    degrades to caching instead of wedging the thread; with [None] the
    transfer retries up to [max_attempts].  Reliable network: always [0].
    Allocation-free unless it raises.
    @raise Gave_up when [give_up_after] attempts were all lost.
    @raise Undeliverable when the retry budget is exhausted. *)

val count_bytes : t -> int -> unit
(** Account payload bytes to the statistics. *)

val makespan : t -> int
(** Finishing time of the whole run (max over clocks). *)

val total_busy : t -> int

val utilization : t -> float
(** [total_busy / (makespan * nprocs)]. *)

val busy_cycles : t -> int array
(** Per-processor busy time (a copy). *)

val clocks : t -> int array
(** Per-processor clocks (a copy). *)

val comm_cycles : t -> int array
(** Per-processor cycles the compute thread spent blocked on
    request/reply round trips (cache-line fetches, revalidations) — a
    copy. *)

val idle_cycles : t -> int array
(** Per-processor idle time against the final makespan:
    [makespan - busy - comm], so [busy + comm + idle] sums to
    [nprocs * makespan] exactly (the profiler's accounting identity). *)

val set_record_intervals : t -> bool -> unit
(** Enable recording of per-processor busy intervals (for timelines). *)

val busy_intervals : t -> (int * int * int) list
(** Recorded [(proc, start, stop)] busy intervals, in charge order. *)

val pp : Format.formatter -> t -> unit
