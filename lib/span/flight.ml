(* The flight recorder: a bounded ring of span events kept in fixed int
   arrays so that recording is allocation-free — it can stay on for the
   whole of a chaos run without perturbing the host allocator, and when a
   run wedges (deadlock, undeliverable message, invariant failure) the
   last [capacity] events are still in memory to dump post mortem.

   The ring stores raw integers; naming the kind codes and rendering the
   dump is the span layer's job ({!Span.flight_dump}), which keeps this
   module dependency-free.  Events survive {!disable}: the dump runs from
   a top-level exception handler, after the driver's cleanup path has
   already turned recording off.

   All recorder state is domain-local: chaos points running on different
   domains of the parallel sweep driver each keep their own ring and dump
   path, so concurrent faulty runs cannot interleave their post-mortems. *)

let fields = 10
(* slot layout: trace_proc, trace_seq, id, parent, kind code, proc, t0,
   t1, a, b *)

type recorder = {
  mutable cap : int;
  mutable buf : int array;
  mutable head : int; (* events ever recorded; the ring keeps the last [cap] *)
  mutable enabled : bool;
  mutable path : string;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        cap = 0;
        buf = [||];
        head = 0;
        enabled = false;
        path = "flight-recorder.dump";
      })

let recorder () = Domain.DLS.get key

let default_capacity = 512

let enable ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight.enable: capacity < 1";
  let r = recorder () in
  if r.cap <> capacity then begin
    r.cap <- capacity;
    r.buf <- Array.make (capacity * fields) 0
  end;
  r.head <- 0;
  r.enabled <- true

let disable () = (recorder ()).enabled <- false
let is_enabled () = (recorder ()).enabled
let capacity () = (recorder ()).cap
let recorded () = (recorder ()).head

let set_path p = (recorder ()).path <- p
let get_path () = (recorder ()).path

let enabled r = r.enabled

(* Record one event into [r].  Callers guard on {!enabled}; nothing here
   allocates. *)
let note r ~tp ~ts ~id ~parent ~kind ~proc ~t0 ~t1 ~a ~b =
  let base = r.head mod r.cap * fields in
  let arr = r.buf in
  arr.(base) <- tp;
  arr.(base + 1) <- ts;
  arr.(base + 2) <- id;
  arr.(base + 3) <- parent;
  arr.(base + 4) <- kind;
  arr.(base + 5) <- proc;
  arr.(base + 6) <- t0;
  arr.(base + 7) <- t1;
  arr.(base + 8) <- a;
  arr.(base + 9) <- b;
  r.head <- r.head + 1

(* The retained events, oldest first, each as a [fields]-slot array. *)
let events () =
  let r = recorder () in
  if r.cap = 0 then [||]
  else begin
    let n = min r.head r.cap in
    let first = r.head - n in
    Array.init n (fun i ->
        let base = (first + i) mod r.cap * fields in
        Array.sub r.buf base fields)
  end

(* Dump the retained events plus caller-supplied per-processor state to
   [get_path ()].  [render] names one event line (the span layer knows
   the kind codes).  Returns the path written, or [None] when nothing was
   ever recorded. *)
let dump ~reason ~state ~render () =
  let r = recorder () in
  if r.cap = 0 then None
  else begin
    let file = r.path in
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc "olden flight-recorder dump\nreason: %s\n" reason;
        let evs = events () in
        Printf.fprintf oc "events retained: %d (of %d recorded, ring %d)\n"
          (Array.length evs) r.head r.cap;
        if state <> [] then begin
          output_string oc "machine state:\n";
          List.iter (fun line -> Printf.fprintf oc "  %s\n" line) state
        end;
        output_string oc "last events (oldest first):\n";
        Array.iter
          (fun ev -> Printf.fprintf oc "  %s\n" (render ev))
          evs);
    Some file
  end
