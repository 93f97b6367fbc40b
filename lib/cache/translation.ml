(* Olden's software cache translation table (Figure 1), rebuilt for host
   speed.

   The original implementation mirrored the paper's structure literally: a
   1024-bucket hash table of entry *lists*.  That put a cons cell, a list
   walk, and an option allocation on every dereference the simulator
   models.  This version keeps the same observable semantics (same
   entries, same valid bits, same counters) on an open-addressed,
   array-backed table:

   - linear probing over a power-of-two slot array, no tombstones: the
     only deletion is the wholesale [flush], done by bumping a generation
     counter, so a stale slot is exactly as free as a never-used one;
   - a one-entry last-translation memo (the real Olden runtime's
     single-entry TLB): repeated hits to the same page skip the probe;
   - [mark_all_suspect] bumps a suspicion epoch instead of walking every
     entry; an entry is suspect when its last-validated epoch is behind;
   - the common-case [probe] returns the entry itself (or the [no_entry]
     sentinel), so a cache hit allocates nothing.

   Each entry still describes one cached 2 KB remote page: a tag
   identifying the global page, 32 per-line valid bits, and the local
   copy of the data.  The cache is fully associative and write-through;
   it grows with use and is only emptied by coherence events, mirroring
   Olden's use of all local memory as cache. *)

module G = Olden_config.Geometry

type entry = {
  gpage : int; (* global page id (tag) *)
  home : int; (* owning processor *)
  page_index : int; (* page number within the home's section *)
  mutable valid : int; (* bitmask over the 32 lines *)
  data : Word.block; (* local copy, words_per_page words, laid out as a
                         heap chunk so a line fill is two blits *)
  mutable ts : int; (* bilateral: home timestamp at last validation *)
  mutable egen : int; (* internal: flush generation this entry belongs to *)
  mutable vepoch : int; (* internal: suspicion epoch at last validation *)
}

(* The miss sentinel: [egen = -1] never equals a live generation, so the
   probe loop needs no separate emptiness test for it. *)
let no_entry =
  {
    gpage = -1;
    home = -1;
    page_index = -1;
    valid = 0;
    data = Word.block 0;
    ts = 0;
    egen = -1;
    vepoch = 0;
  }

type t = {
  mutable slots : entry array; (* power-of-two sized, holds [no_entry] too *)
  mutable mask : int; (* capacity - 1 *)
  mutable gen : int; (* current flush generation; a slot whose entry has
                        an older [egen] is free *)
  mutable sepoch : int; (* suspicion epoch: entries validated earlier are
                           suspect (bilateral scheme) *)
  mutable live : int; (* entries of the current generation *)
  mutable ever : int; (* entries ever created, across flushes *)
  mutable lookups : int;
  mutable memo : entry; (* last translation: the one-entry TLB *)
}

let create () =
  {
    slots = Array.make G.hash_buckets no_entry;
    mask = G.hash_buckets - 1;
    gen = 0;
    sepoch = 0;
    live = 0;
    ever = 0;
    lookups = 0;
    memo = no_entry;
  }

(* Global page ids are [Gptr.page_id]s, the home above bit 16 and the
   page index below: several processors' dense page ranges, which any
   mask-the-low-bits hash would pile into one small slot window (fatal
   for linear probing — primary clustering).  A multiplicative mix
   (Knuth's golden-ratio constant, sized to OCaml's 63-bit int) spreads
   them across the whole table first. *)
let home_slot t gpage =
  let h = gpage * 0x3C79AC492BA7B653 in
  (h lsr 24) land t.mask

(* The probe and placement loops are top-level functions of [t], not
   local closures: a closure over the table would be allocated on every
   memo miss. *)

(* Linear probe for [gpage] from slot [i]: the live entry (remembered in
   the memo), or [no_entry] at the first free slot. *)
let rec seek t gpage i =
  let e = Array.unsafe_get t.slots i in
  if e.egen <> t.gen then no_entry
  else if e.gpage = gpage then begin
    t.memo <- e;
    e
  end
  else seek t gpage ((i + 1) land t.mask)

(* Store [e] in the first free slot from [i] on. *)
let rec place t e i =
  if t.slots.(i).egen <> t.gen then t.slots.(i) <- e
  else place t e ((i + 1) land t.mask)

(* The hot path: find the live entry for [gpage], or [no_entry] (test
   with [==]).  Zero allocation, memo miss included; the memo skips even
   the probe when the same page is touched twice in a row. *)
let probe t gpage =
  t.lookups <- t.lookups + 1;
  let m = t.memo in
  if m.gpage = gpage && m.egen = t.gen then m
  else seek t gpage (home_slot t gpage)

let find t gpage =
  let e = probe t gpage in
  if e == no_entry then None else Some e

(* Double the table, keeping only live entries (stale generations are
   dropped, which also shortens future probe sequences).  In the fresh
   slot array a slot is free exactly when it still holds [no_entry]. *)
let grow t =
  let old = t.slots in
  let cap = 2 * Array.length old in
  t.slots <- Array.make cap no_entry;
  t.mask <- cap - 1;
  for i = 0 to Array.length old - 1 do
    let e = old.(i) in
    if e.egen = t.gen then place t e (home_slot t e.gpage)
  done

(* Allocate a (fully invalid) entry for [gpage]; performed at page
   granularity on the first miss to the page, as in Blizzard-S.  The
   caller must have probed first: inserting an already-present page
   would shadow the live entry. *)
let insert t ~gpage ~home ~page_index =
  if 2 * (t.live + 1) > Array.length t.slots then grow t;
  let e =
    {
      gpage;
      home;
      page_index;
      valid = 0;
      data = Word.block G.words_per_page;
      ts = 0;
      egen = t.gen;
      vepoch = t.sepoch;
    }
  in
  place t e (home_slot t gpage);
  t.live <- t.live + 1;
  t.ever <- t.ever + 1;
  t.memo <- e;
  e

let line_valid e line = e.valid land (1 lsl line) <> 0
let set_line_valid e line = e.valid <- e.valid lor (1 lsl line)
let invalidate_line e line = e.valid <- e.valid land lnot (1 lsl line)

let invalidate_lines e mask =
  let before = e.valid in
  e.valid <- e.valid land lnot mask;
  (* number of lines actually invalidated *)
  Olden_config.popcount (before land mask)

(* Bilateral suspicion is epoch-based: [mark_all_suspect] advances the
   table's epoch in O(1); an entry validated at an older epoch must
   revalidate before its next use. *)
let is_suspect t e = e.vepoch <> t.sepoch
let clear_suspect t e = e.vepoch <- t.sepoch

let mark_all_suspect t = t.sepoch <- t.sepoch + 1

(* Local-knowledge scheme: clear the whole cache on migration receipt.
   A generation bump frees every slot at once; entries are re-allocated
   on next use.  [entries_ever] keeps counting across flushes. *)
let flush t =
  t.gen <- t.gen + 1;
  t.live <- 0;
  t.memo <- no_entry

let live_entries t = t.live
let entries_ever t = t.ever
let entry_count t = t.live

let iter t f =
  Array.iter (fun e -> if e.egen = t.gen then f e) t.slots

(* Invalidate every line whose home processor is in the [procs] bitmask
   (the local scheme's return refinement). Returns the number of lines
   invalidated.  An empty mask or an empty table (every return receipt
   right after a flush) answers without walking the slots. *)
let invalidate_homes t procs =
  if procs = 0 || t.live = 0 then 0
  else begin
    let slots = t.slots and gen = t.gen in
    let count = ref 0 in
    for i = 0 to Array.length slots - 1 do
      let e = Array.unsafe_get slots i in
      if e.egen = gen && procs land (1 lsl e.home) <> 0 then begin
        count := !count + Olden_config.popcount e.valid;
        e.valid <- 0
      end
    done;
    !count
  end

(* Mean linear-probe sequence length over live entries (1.0 = every entry
   in its home slot) — the open-addressed analogue of the paper's
   bucket-chain statistic, which it reports as about one in practice. *)
let average_chain_length t =
  let total = ref 0 and n = ref 0 in
  Array.iteri
    (fun i e ->
      if e.egen = t.gen then begin
        incr n;
        let cap = Array.length t.slots in
        total := !total + ((i - home_slot t e.gpage + cap) land (cap - 1)) + 1
      end)
    t.slots;
  if !n = 0 then 0. else float_of_int !total /. float_of_int !n
