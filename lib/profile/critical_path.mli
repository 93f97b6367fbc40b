(** Critical-path analysis over the migration/future/steal dependency DAG
    ({!Depgraph}) of a span stream's flat events.

    The longest chain of realized dependencies from the first event to
    the last is the run's critical path: the sequence of hops no amount
    of extra processors could shorten.  Each hop is classified by what
    the time between it and its predecessor was spent on, giving the
    mechanism-level breakdown the paper's selection argument turns on —
    and a "what-if" bound: the makespan if migrations (and their return
    stubs) were free, i.e. the span minus the migration cycles on the
    critical path. *)

type hop_class =
  | Compute  (** local work between two events of the same thread/processor *)
  | Migration  (** a migration in flight (send to restart) *)
  | Return  (** a return stub in flight *)
  | Future_wait  (** parked on a future, released by its resolve *)
  | Steal  (** popping a continuation off the local work list *)

val hop_class_name : hop_class -> string

type hop = {
  index : int;  (** index into the stream's flat events *)
  ev : Olden_span.Span.span;
  cost : int;  (** cycles between the realized predecessor and this event *)
  cls : hop_class;
}

type t = {
  hops : hop list;  (** the critical path, in time order *)
  span : int;  (** timestamp of the last event — the traced makespan *)
  length : int;  (** number of events on the path *)
  compute_cycles : int;
  migration_cycles : int;
  return_cycles : int;
  wait_cycles : int;
  steal_cycles : int;
  what_if_free_migration : int;
      (** [span - migration_cycles - return_cycles]: the bound on the
          makespan were migrations free *)
}

val analyze : Olden_span.Span.span array -> t
(** Empty streams yield a zero analysis (no hops, span 0). *)

val pp : ?site_name:(int -> string option) -> ?tail:int ->
  Format.formatter -> t -> unit
(** Breakdown plus the last [tail] hops of the path (default 0: summary
    only). *)

(** {2 Per-processor time accounting}

    Complements the path view: where each processor's share of the
    makespan went.  Busy and comm come from the machine's accounting
    ({!Machine.busy_cycles} / [comm_cycles]); idle is the remainder, so
    each row sums to the makespan and the table to
    [nprocs * makespan]. *)

type proc_row = {
  proc : int;
  busy : int;
  comm : int;
  idle : int;
  recovery : int;
      (** crash-recovery stall cycles, an overlay on [comm] (0 when the
          run had no fault schedule) *)
}

val breakdown :
  ?recovery:int array ->
  makespan:int ->
  busy:int array ->
  comm:int array ->
  unit ->
  proc_row list
(** [recovery] is the per-processor recovery-stall array from
    {!Olden_recovery.Recovery.stall_cycles}; rows beyond its length get
    0 (default: all 0). *)

val pp_breakdown : Format.formatter -> makespan:int -> proc_row list -> unit
(** The recovery column only renders when some row has a nonzero
    stall. *)
