(* An indexed binary min-heap of per-processor scheduling candidates.

   A processor with runnable work holds exactly one entry, keyed by
   (start, prio, avail, seq) in lexicographic order; a processor with
   nothing to run has none.  Keys live in one int array (four slots per
   processor) and [pos] maps a processor to its heap slot, so re-keying
   a processor is an O(log nprocs) sift and nothing here allocates after
   [create].  With [seq] globally unique no two keys are equal, so [min]
   is exactly the processor a linear scan for the least key would pick. *)

type t = {
  heap : int array; (* slot -> processor *)
  pos : int array; (* processor -> slot, -1 when absent *)
  key : int array; (* 4p .. 4p+3: processor p's start, prio, avail, seq *)
  mutable size : int;
}

let create nprocs =
  {
    heap = Array.make nprocs 0;
    pos = Array.make nprocs (-1);
    key = Array.make (4 * nprocs) 0;
    size = 0;
  }

let mem h p = h.pos.(p) >= 0

(* The processor holding the least key, or -1 when none has work. *)
let min h = if h.size = 0 then -1 else h.heap.(0)
let start h p = h.key.(4 * p)
let prio h p = h.key.((4 * p) + 1)

(* [a]'s key is below [b]'s, comparing from key field [i] on *)
let rec below h a b i =
  i < 4
  &&
  let x = h.key.((4 * a) + i) and y = h.key.((4 * b) + i) in
  x < y || (x = y && below h a b (i + 1))

let less h a b = below h a b 0

let place h i p =
  h.heap.(i) <- p;
  h.pos.(p) <- i

(* Move [p] from slot [i] towards the root, or towards the leaves, until
   the heap order holds again. *)
let rec sift_up h i p =
  let parent = (i - 1) / 2 in
  if i > 0 && less h p h.heap.(parent) then begin
    place h i h.heap.(parent);
    sift_up h parent p
  end
  else place h i p

let rec sift_down h i p =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < h.size && less h h.heap.(l + 1) h.heap.(l) then l + 1 else l
  in
  if c < h.size && less h h.heap.(c) p then begin
    place h i h.heap.(c);
    sift_down h c p
  end
  else place h i p

let fix h i p =
  if i > 0 && less h p h.heap.((i - 1) / 2) then sift_up h i p
  else sift_down h i p

(* Insert [p], or re-key it if present. *)
let set h p ~start ~prio ~avail ~seq =
  h.key.(4 * p) <- start;
  h.key.((4 * p) + 1) <- prio;
  h.key.((4 * p) + 2) <- avail;
  h.key.((4 * p) + 3) <- seq;
  if h.pos.(p) >= 0 then fix h h.pos.(p) p
  else begin
    h.size <- h.size + 1;
    sift_up h (h.size - 1) p
  end

(* Drop [p]'s entry; a no-op when it has none. *)
let remove h p =
  let i = h.pos.(p) in
  if i >= 0 then begin
    h.pos.(p) <- -1;
    h.size <- h.size - 1;
    if i < h.size then fix h i h.heap.(h.size)
  end
