(** The event count that host-throughput figures are quoted against. *)

val events_of : Stats.t -> int
(** Simulated operation events of a run: dereferences (both mechanisms),
    thread movements, future operations, and messages. *)
