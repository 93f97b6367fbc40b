(* A binary min-heap of scheduler items keyed by (ready_at, seq).

   The sequence number makes the simulation fully deterministic: two items
   ready at the same cycle pop in creation order.

   The heap is three parallel arrays, so the scheduler's push /
   [top_ready_at] / [top_seq] / [take_payload] cycle allocates nothing;
   [top] and [take] build an [item] for callers that want one. *)

type 'a item = { ready_at : int; seq : int; payload : 'a }

type 'a t = {
  mutable ready : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
}

(* Payload slots at index >= size are dead, but the array would still
   root whatever they last held — on long runs that pins popped closures
   (and everything they capture).  Dead slots therefore hold this unit
   stand-in.  No caller ever reads a slot at index >= size, and the
   payload array is created from it, an immediate, so it is never a float
   array: the cast is unobservable. *)
let dummy () : 'a = Obj.magic ()

let create () = { ready = [||]; seqs = [||]; payloads = [||]; size = 0 }
let is_empty q = q.size = 0
let length q = q.size

let before q i j =
  let ri = q.ready.(i) and rj = q.ready.(j) in
  ri < rj || (ri = rj && q.seqs.(i) < q.seqs.(j))

let swap q i j =
  let r = q.ready.(i) and s = q.seqs.(i) and p = q.payloads.(i) in
  q.ready.(i) <- q.ready.(j);
  q.seqs.(i) <- q.seqs.(j);
  q.payloads.(i) <- q.payloads.(j);
  q.ready.(j) <- r;
  q.seqs.(j) <- s;
  q.payloads.(j) <- p

let grow q =
  let cap = max 16 (2 * q.size) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 q.size;
    b
  in
  q.ready <- extend q.ready 0;
  q.seqs <- extend q.seqs 0;
  q.payloads <- extend q.payloads (dummy ())

let push q ~ready_at ~seq payload =
  if q.size = Array.length q.ready then grow q;
  let i = ref q.size in
  q.ready.(!i) <- ready_at;
  q.seqs.(!i) <- seq;
  q.payloads.(!i) <- payload;
  q.size <- q.size + 1;
  (* sift up *)
  while !i > 0 && before q !i ((!i - 1) / 2) do
    swap q !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let nonempty q =
  if q.size = 0 then invalid_arg "Event_queue: empty queue"

let top_ready_at q =
  nonempty q;
  q.ready.(0)

let top_seq q =
  nonempty q;
  q.seqs.(0)

let top q =
  nonempty q;
  { ready_at = q.ready.(0); seq = q.seqs.(0); payload = q.payloads.(0) }

(* Remove the minimum and return its payload; raises on empty. *)
let take_payload q =
  nonempty q;
  let payload = q.payloads.(0) in
  let last = q.size - 1 in
  q.size <- last;
  swap q 0 last;
  (* clear the vacated slot so the popped payload is collectable now, not
     when the slot is next overwritten *)
  q.payloads.(last) <- dummy ();
  (* sift down *)
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < last && before q (l + 1) l then l + 1 else l in
    if c < last && before q c !i then begin
      swap q c !i;
      i := c
    end
    else continue := false
  done;
  payload

let take q =
  let it = top q in
  ignore (take_payload q);
  it
