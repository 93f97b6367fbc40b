(** The dependency DAG implied by the flat events of a span stream.

    Every event waits on at most a handful of predecessors: the previous
    event of its thread (program order; for arrivals this is the matching
    send), the previous event on its processor (one compute thread per
    processor), and — when the thread's previous event was a parked
    future touch — the [Future_resolve] that released it.  The realized
    predecessor is the one with the latest timestamp: the dependency that
    actually determined when the event could happen.  Walking realized
    predecessors backwards from the last event yields the run's critical
    path (see [Olden_profile.Critical_path]). *)

type edge =
  | Start  (** no predecessor: the first event of the run *)
  | Program of int  (** previous event of the same thread *)
  | Processor of int  (** previous event on the same processor *)
  | Resolve of int  (** the [Future_resolve] that unparked this thread *)

val predecessor : edge -> int option
(** The predecessor's event index, if any. *)

type t = {
  events : Olden_span.Span.span array;  (** the stream's flat events *)
  realized : edge array;  (** per event, the latest-finishing dependency *)
}

val build : Olden_span.Span.span array -> t
(** Indices throughout are into the flat events ({!Olden_span.Span.flat})
    of the stream. *)

val last : t -> int option
(** Index of the event with the greatest timestamp (ties resolved toward
    the latest emission, matching scheduler order); [None] on an empty
    stream. *)

val chain : t -> int list
(** Realized-predecessor chain from the first event to {!last}, in time
    order — the critical path as event indices.  Empty for an empty
    stream. *)
