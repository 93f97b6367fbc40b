(* A processor's work list: the LIFO of saved futurecall continuations
   that Olden's future stealing pops (paper Section 2).

   An entry says: resume continuation [k] with value [v] as [thread].  It
   carries the scheduler's key too: the processor clock when it was
   pushed and a globally unique sequence number.  Entries live in
   parallel arrays, so a push and a pop allocate nothing; popped slots
   are cleared, as in [Event_queue]. *)

type ('k, 'v) t = {
  mutable pushed_at : int array;
  mutable seqs : int array;
  mutable threads : Effects.thread array;
  mutable ks : 'k array;
  mutable vs : 'v array;
  mutable size : int;
}

let dummy () : 'a = Obj.magic ()

let create () =
  { pushed_at = [||]; seqs = [||]; threads = [||]; ks = [||]; vs = [||];
    size = 0 }

let is_empty w = w.size = 0
let length w = w.size

let grow w =
  let cap = max 16 (2 * w.size) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 w.size;
    b
  in
  w.pushed_at <- extend w.pushed_at 0;
  w.seqs <- extend w.seqs 0;
  w.threads <- extend w.threads (dummy ());
  w.ks <- extend w.ks (dummy ());
  w.vs <- extend w.vs (dummy ())

let push w ~pushed_at ~seq thread k v =
  if w.size = Array.length w.seqs then grow w;
  let i = w.size in
  w.pushed_at.(i) <- pushed_at;
  w.seqs.(i) <- seq;
  w.threads.(i) <- thread;
  w.ks.(i) <- k;
  w.vs.(i) <- v;
  w.size <- i + 1

(* The top entry's fields; raise on an empty list. *)
let top w =
  if w.size = 0 then invalid_arg "Work_list: empty";
  w.size - 1

let top_pushed_at w = w.pushed_at.(top w)
let top_seq w = w.seqs.(top w)
let top_thread w = w.threads.(top w)
let top_k w = w.ks.(top w)
let top_v w = w.vs.(top w)

(* Pop the top entry. *)
let drop w =
  let i = top w in
  w.threads.(i) <- dummy ();
  w.ks.(i) <- dummy ();
  w.vs.(i) <- dummy ();
  w.size <- i

(* Move every entry onto [onto], bottom first, so this list's LIFO order
   survives on top of [onto]'s; this list is left empty. *)
let move_all w ~onto =
  for i = 0 to w.size - 1 do
    push onto ~pushed_at:w.pushed_at.(i) ~seq:w.seqs.(i) w.threads.(i)
      w.ks.(i) w.vs.(i)
  done;
  while w.size > 0 do
    drop w
  done
