(** A fixed pool of OCaml domains draining a list of independent jobs.

    The assignment of jobs to domains is racy (an atomic claim counter),
    but results come back in submission order and the first failure in
    submission order is re-raised after the pool drains — so callers
    whose jobs are independent and deterministic observe identical
    output for any pool size.  Simulator runs qualify: every formerly
    ambient global (site registry, span state, monitor, driver hooks,
    engine pointer) is domain-local state, though
    jobs must still reset per-run state they depend on (e.g.
    [Site.reset]) because pool domains are reused across jobs. *)

type stats = {
  domains : int;  (** workers actually spawned (≤ requested, ≤ jobs) *)
  wall_seconds : float;  (** whole [map] call, submission to last join *)
  busy_seconds : float array;  (** per worker, summed over its jobs *)
  wait_seconds : float array;
      (** per worker: lifetime minus busy — startup, claim contention,
          and the tail wait while other workers finish the last jobs *)
}

val efficiency : stats -> float
(** Parallel efficiency: total busy over [domains × wall] (1.0 when the
    pool never waited). *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list * stats
(** [map ~domains f jobs] runs [f] over [jobs] on a pool of [domains]
    workers (default 1, which runs inline on the calling domain) and
    returns the results in submission order.
    @raise Invalid_argument if [domains < 1].
    If any job raised, the exception of the earliest failed job (by
    submission order) is re-raised with its backtrace — but only after
    every worker has drained. *)
