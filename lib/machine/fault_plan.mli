(** Deterministic fault injection for the simulated network.

    A fault plan turns an {!Olden_config.fault_spec} into per-message
    decisions: drop, delay, or duplicate a delivery attempt, or declare a
    destination handler down for a window of simulated time.  Every
    decision is a pure function of the schedule seed and the message's
    identity (sequence number, attempt, leg) drawn through {!Prng}, so a
    fault schedule is replayable bit-for-bit.

    The plan only decides; the retry/timeout protocol reacting to it
    lives in {!Machine} and the engine. *)

type klass =
  | Data  (** cache-line fetches, revalidations, stores, invalidations *)
  | Migration  (** forward thread-state transfer (honors [migrate_drop]) *)
  | Return  (** return-stub thread-state transfer *)
  | Recovery  (** warm-restart announcement from a crashed processor *)
  | Replica  (** write-through mirror of a home store to its backup *)

val klass_to_string : klass -> string

type leg =
  | Forward  (** the payload-carrying message *)
  | Ack  (** the reply / acknowledgement coming back *)

type decision = {
  dropped : bool;
  delay : int;  (** extra latency in cycles; 0 when not delayed *)
  duplicated : bool;
}

type t

val create : Olden_config.fault_spec -> Olden_config.retry_spec -> t

val spec : t -> Olden_config.fault_spec
val retry : t -> Olden_config.retry_spec

val fresh_seq : t -> int
(** Sequence number for one logical message; retransmissions reuse it
    (that is what makes the receive path's duplicate suppression work). *)

val decide : t -> klass:klass -> leg:leg -> seq:int -> attempt:int -> decision
(** The fate of delivery attempt [attempt] of message [seq].  A dropped
    attempt is neither delayed nor duplicated.  Allocation-free: the
    result is one of five immutable values built by {!create}.  The same
    holds for the three windowed queries below. *)

val handler_down : t -> proc:int -> time:int -> bool
(** Transient outages: is [proc]'s active-message handler down at
    [time]?  Constant within each [outage_cycles]-long window. *)

val crash_due : t -> proc:int -> time:int -> bool
(** Seeded crash schedule: does [proc] crash in the window containing
    [time]?  Constant within each [crash_cycles]-long window; the caller
    must fire at most one crash per positive window. *)

val failstop_due : t -> proc:int -> time:int -> bool
(** Seeded fail-stop schedule: does [proc] die for good in the window
    containing [time]?  Constant within each [failstop_cycles]-long
    window (independent of the crash schedule); the failover layer
    latches the death so a positive window fires at most once. *)

val retry_wait : t -> attempt:int -> int
(** Cycles a sender waits after losing [attempt] before retransmitting:
    [timeout * backoff^attempt], capped at [max_timeout].  The cap is
    applied inside the accumulation, so high attempt counts (up to
    [max_attempts]) can never overflow into a negative wait. *)
