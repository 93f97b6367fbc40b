(* The operations a simulated Olden thread can perform, expressed as OCaml
   effects.  Effect handlers give us exactly what Olden implements in SPARC
   assembly: the ability to capture a running thread's state (a one-shot
   continuation), ship it to another processor, and resume it there.

   Threads and futures are defined here because both the performers
   ([Ops]) and the handler ([Engine]) need them. *)

(* A simulated thread: carries the write log the coherence protocols need
   at releases (outgoing migrations) and returns, plus its seat — the
   processor the migration protocol considers the thread to reside at.
   On a healthy machine the seat always equals the physical processor;
   they diverge only after a fail-stop failover, when a migration's
   resolved target collapses onto the processor the thread already
   occupies (the successor adopted the page's home).  The hop then moves
   no state, but the protocol's release/acquire pair must still fire —
   the seat is what detects such collapsed hops.

   Most threads (each future's parent continuation, each served request)
   never write, so a thread starts on the shared, always-empty
   [clean_log] and gets a log of its own at its first write
   ([writable_log]).  An empty log of its own and [clean_log] read the
   same to every release and acquire. *)
type thread = {
  tid : int;
  mutable seat : int;
  mutable log : Olden_cache.Write_log.t;
}

(* Shared by every engine on every domain, so nothing may write it: a
   write goes through [writable_log]. *)
let clean_log = Olden_cache.Write_log.create ()

(* The thread's log, to record a write in: its own, made on first use. *)
let writable_log th =
  if th.log == clean_log then th.log <- Olden_cache.Write_log.create ();
  th.log

type cell_state =
  | Done of Value.t
  | Pending of waiter list

and waiter = {
  wk : (Value.t, unit) Effect.Deep.continuation;
  wproc : int; (* processor the toucher was on; it resumes there *)
  wthread : thread;
  wlabel : string; (* where it parked — for deadlock diagnostics *)
}

(* A future cell ("return continuation on the work list" plus result slot).
   The resolver's identity is kept so touching the result is an acquire
   with respect to the resolving thread's writes (the paper's "virtual
   locks" cover the data a thread wrote). *)
and fut = {
  fid : int;
  mutable state : cell_state;
  mutable resolver_proc : int;
  mutable resolver_seat : int;
      (* the resolver thread's seat: after a failover, resolver and
         toucher can share a physical processor while the protocol still
         considers them at different (virtual) locations, and the
         acquire-side invalidation must not be skipped *)
  mutable resolver_log : Olden_cache.Write_log.t;
      (* the resolver thread's log; [clean_log] until the cell is resolved *)
}

type _ Effect.t +=
  | Work : int -> unit Effect.t (* charge compute cycles *)
  | Alloc : int * int -> Gptr.t Effect.t (* ALLOC (proc, words) *)
  | Load : Site.t * Gptr.t * int -> Value.t Effect.t (* site, base, field *)
  (* a typed load that must migrate: one constructor per word kind, so
     the payload is the same three fields and the word comes back
     unboxed *)
  | Load_int : Site.t * Gptr.t * int -> int Effect.t
  | Load_float : Site.t * Gptr.t * int -> float Effect.t
  | Load_ptr : Site.t * Gptr.t * int -> Gptr.t Effect.t
  | Store : Site.t * Gptr.t * int * Value.t -> unit Effect.t
  | Future : (unit -> Value.t) -> fut Effect.t (* futurecall *)
  | Touch : Site.t option * fut -> Value.t Effect.t
      (* the site, when known, labels the park for deadlock diagnostics *)
  | Self : int Effect.t (* current processor *)
  | Nprocs : int Effect.t
  | Return_to : int -> unit Effect.t (* return stub target *)
  | Phase : string -> unit Effect.t (* barrier + measurement boundary *)
