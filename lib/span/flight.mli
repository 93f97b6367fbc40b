(** Bounded allocation-free flight recorder for span events.

    A fixed ring of int slots retains the last [capacity] span events
    while enabled; on a failure (deadlock, undeliverable message,
    invariant violation) {!dump} writes them — plus caller-supplied
    machine state — to a file for post-mortem debugging.  Recording costs
    a few integer stores per event and never allocates; the ring contents
    survive {!disable} so a top-level exception handler can still dump
    after cleanup.  Kind codes are opaque here; the span layer
    ({!Span.flight_dump}) renders them. *)

val fields : int
(** Ints per recorded event: trace_proc, trace_seq, id, parent, kind
    code, proc, t0, t1, a, b. *)

val default_capacity : int

val enable : ?capacity:int -> unit -> unit
(** Start recording into a fresh ring (allocated once per capacity).
    @raise Invalid_argument if [capacity < 1]. *)

val disable : unit -> unit
val is_enabled : unit -> bool
val capacity : unit -> int

val recorded : unit -> int
(** Events ever recorded since {!enable} (may exceed the capacity). *)

val set_path : string -> unit
(** Where {!dump} writes (default ["flight-recorder.dump"]). *)

val get_path : unit -> string

type recorder
(** One domain's ring, enabled flag and dump path. *)

val recorder : unit -> recorder
(** This domain's recorder: one domain-local read.  The span layer holds
    it in its own domain-local state, so recording reads no key. *)

val enabled : recorder -> bool

val note :
  recorder -> tp:int -> ts:int -> id:int -> parent:int -> kind:int ->
  proc:int -> t0:int -> t1:int -> a:int -> b:int -> unit
(** Record one event; caller guards on {!enabled}.  Allocation-free. *)

val events : unit -> int array array
(** Retained events, oldest first, each a [fields]-slot array. *)

val dump :
  reason:string -> state:string list -> render:(int array -> string) ->
  unit -> string option
(** Write the dump file; [None] when the recorder was never enabled. *)
