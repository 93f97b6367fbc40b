(* Per-thread record of heap writes, kept at line granularity.

   The global- and bilateral-knowledge coherence schemes need to know, at
   each outgoing migration (a "release"), which lines the thread wrote; the
   local scheme's return refinement needs the set of processors whose
   memories the thread wrote (Section 3.2).

   [record] runs on every cacheable (and migration-mechanism) write, so it
   is hot, and a release walks the whole dirty set, so that must not
   allocate either.  The dirty set is one int array of (page, line mask)
   pairs sorted by page — a release reads it in ascending page order by
   index, with no extraction, sort or closure — and a one-page memo in
   front of it: consecutive writes to the same page (the common case)
   update one slot without a search.  The written-processor set is an int
   bitmask, not a list.

   Most threads (each future, each served request) never write a
   cacheable line, so the runtime starts every thread on one shared,
   always-empty log and creates its own at the first write.  The local
   scheme never reads the dirty set at all: the array is created on the
   first [record], and [record_home] logs only the processor. *)

type t = {
  mutable entries : int array;
      (* [entries.(2i)]: the i-th dirty page in ascending order,
         [entries.(2i+1)]: its line mask; [||] until the first [record] *)
  mutable pages : int; (* dirty pages held: the used prefix is 2 * pages *)
  mutable written : int; (* bitmask of processors written, cumulative *)
  mutable memo_gpage : int; (* last page written; min_int = no memo *)
  mutable memo_slot : int; (* index of its mask in [entries] *)
}

let create () =
  { entries = [||]; pages = 0; written = 0; memo_gpage = min_int; memo_slot = 0 }

(* Written-processor masks live in one OCaml int. *)
let max_procs = Sys.int_size - 1

let record_home t ~home =
  if home < 0 || home >= max_procs then
    invalid_arg (Printf.sprintf "Write_log.record: processor %d out of range" home);
  t.written <- t.written lor (1 lsl home)

(* The first pair index in [lo, hi) whose page is >= [gpage]. *)
let rec lower_bound entries gpage lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if entries.(2 * mid) < gpage then lower_bound entries gpage (mid + 1) hi
    else lower_bound entries gpage lo mid

(* Open a zero mask for [gpage] at pair index [i], shifting the pages
   above it up by one pair. *)
let insert t i gpage =
  let used = 2 * t.pages in
  if used = Array.length t.entries then begin
    let grown = Array.make (max 16 (2 * used)) 0 in
    Array.blit t.entries 0 grown 0 used;
    t.entries <- grown
  end;
  Array.blit t.entries (2 * i) t.entries ((2 * i) + 2) (used - (2 * i));
  t.entries.(2 * i) <- gpage;
  t.entries.((2 * i) + 1) <- 0;
  t.pages <- t.pages + 1

let record t ~gpage ~line ~home =
  record_home t ~home;
  let bit = 1 lsl line in
  if t.memo_gpage <> gpage then begin
    let i = lower_bound t.entries gpage 0 t.pages in
    if i = t.pages || t.entries.(2 * i) <> gpage then insert t i gpage;
    t.memo_gpage <- gpage;
    t.memo_slot <- (2 * i) + 1
  end;
  t.entries.(t.memo_slot) <- t.entries.(t.memo_slot) lor bit

let dirty_count t = t.pages
let dirty_page t i = t.entries.(2 * i)
let dirty_mask t i = t.entries.((2 * i) + 1)

let dirty_pages t =
  List.init t.pages (fun i -> (dirty_page t i, dirty_mask t i))

let written_mask t = t.written

let written_procs t =
  let rec go p mask acc =
    if mask = 0 then List.rev acc
    else if mask land 1 <> 0 then go (p + 1) (mask lsr 1) (p :: acc)
    else go (p + 1) (mask lsr 1) acc
  in
  go 0 t.written []

let is_empty t = t.pages = 0

(* Called after a release has pushed/stamped the logged writes; the
   array is kept for the thread's next batch. *)
let clear_dirty t =
  t.pages <- 0;
  t.memo_gpage <- min_int

let line_count t =
  let n = ref 0 in
  for i = 0 to t.pages - 1 do
    n := !n + Olden_config.popcount (dirty_mask t i)
  done;
  !n

(* Acquiring another thread's result makes its writes part of what this
   thread "has written" for later release/return invalidation purposes
   (transitive causality through future touches). *)
let absorb_written_procs t ~from = t.written <- t.written lor from.written
