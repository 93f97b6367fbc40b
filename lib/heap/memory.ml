(* The distributed heap: one section per processor (Section 2).

   Each section is a growable word store with a bump allocator.  ALLOC
   rounds no sizes: Olden allocates objects contiguously; the cache layer
   imposes the page/line structure on top of plain word addresses.

   A section grows by whole chunks of [chunk_words] words rather than by
   doubling one array: growth copies nothing, leaves no dead half-size
   array behind for the GC, and holds at most one chunk of slack.  The
   simulated heaps are the largest live structure on the host, so this
   is what sets the simulator's peak memory.  A chunk is a whole number
   of pages, so a cache line never straddles two chunks.

   A chunk is a [Word.block]: a tag byte and one slot per word, 9 host
   bytes a word (25 for a float, whose slot holds its box).  The typed
   accessors read and write the slots directly; [Value.t] is built only
   at the edges ([load], [word_at], [read_line], [digest]). *)

let chunk_bits = 12
let chunk_words = 1 lsl chunk_bits
let chunk_mask = chunk_words - 1
let () = assert (chunk_words mod Olden_config.Geometry.words_per_page = 0)

type section = {
  mutable chunks : Word.block array; (* each [chunk_words] long *)
  mutable used : int; (* bump pointer, in words *)
}

type t = { sections : section array }

let new_chunk () = Word.block chunk_words

let create ~nprocs =
  if nprocs <= 0 then invalid_arg "Memory.create: nprocs must be positive";
  {
    sections =
      Array.init nprocs (fun _ -> { chunks = [| new_chunk () |]; used = 0 });
  }

let nprocs t = Array.length t.sections

let ensure_capacity s words =
  let needed = s.used + words in
  while needed > Array.length s.chunks * chunk_words do
    s.chunks <- Array.append s.chunks [| new_chunk () |]
  done

(* The chunk holding local address [addr], and the offset within it.
   [unsafe_chunk] skips the bounds check, for [load_as] and [store_as]:
   once they have checked [0 <= addr < s.used] the chunk exists, since
   [alloc] grows the chunks before it moves [used]. *)
let chunk s addr = s.chunks.(addr lsr chunk_bits)
let unsafe_chunk s addr = Array.unsafe_get s.chunks (addr lsr chunk_bits)
let offset addr = addr land chunk_mask

(* Allocate [words] words on processor [proc]; returns the global pointer
   to the first word.  This is Olden's ALLOC library routine. *)
let alloc t ~proc words =
  if proc < 0 || proc >= nprocs t then
    invalid_arg (Printf.sprintf "Memory.alloc: no processor %d" proc);
  if words <= 0 then invalid_arg "Memory.alloc: size must be positive";
  let s = t.sections.(proc) in
  ensure_capacity s words;
  let addr = s.used in
  s.used <- s.used + words;
  Gptr.make ~proc ~addr

let words_used t proc = t.sections.(proc).used

(* Cold error paths, out of line so load/store compile to straight-line
   checks with no tuple or closure allocation.  The processor message
   names the word as [Gptr.to_string] would. *)
let no_processor ~proc ~addr =
  invalid_arg (Printf.sprintf "Memory: <%d,%d>: no processor" proc addr)

let out_of_range p field =
  invalid_arg
    (Printf.sprintf "Memory: %s+%d: address out of allocated range"
       (Gptr.to_string p) field)

(* The same [Invalid_argument] a null pointer raises in [Gptr.proc]. *)
let null_pointer () = invalid_arg "Gptr.proc: null pointer"

(* Direct (home) accesses; the runtime charges their costs.  One null
   test, then the pointer is decoded without re-testing it.  [section]
   returns the section holding [p + field] once every check has
   passed. *)
let section t p field =
  if Gptr.is_null p then null_pointer ();
  let proc = Gptr.unsafe_proc p and addr = Gptr.unsafe_addr p + field in
  if proc >= nprocs t then no_processor ~proc ~addr:(Gptr.unsafe_addr p);
  let s = Array.unsafe_get t.sections proc in
  if addr < 0 || addr >= s.used then out_of_range p field;
  s

let load_as kind t p field =
  let s = section t p field and addr = Gptr.unsafe_addr p + field in
  Word.get kind (unsafe_chunk s addr) (offset addr)

let store_as kind t p field v =
  let s = section t p field and addr = Gptr.unsafe_addr p + field in
  Word.set kind (unsafe_chunk s addr) (offset addr) v

let load t p field = load_as Word.Value t p field
let load_int t p field = load_as Word.Int t p field
let load_float t p field = load_as Word.Float t p field
let load_ptr t p field = load_as Word.Ptr t p field
let store t p field v = store_as Word.Value t p field v
let store_int t p field v = store_as Word.Int t p field v
let store_float t p field v = store_as Word.Float t p field v
let store_ptr t p field v = store_as Word.Ptr t p field v

(* Fill [dst] (at [dst_pos]) with one line of [proc]'s section directly —
   the cache's allocation-free line fill: one tag blit and one slot
   blit.  Words past the section's bump pointer read as Nil (the line
   straddles unallocated space). *)
let blit_line t ~proc ~line_index ~dst ~dst_pos =
  let words = Olden_config.Geometry.words_per_line in
  let base = line_index * words in
  let s = t.sections.(proc) in
  let avail = s.used - base in
  if avail >= words then
    Word.blit (chunk s base) (offset base) dst dst_pos words
  else begin
    let n = if avail > 0 then avail else 0 in
    if n > 0 then Word.blit (chunk s base) (offset base) dst dst_pos n;
    Word.clear dst (dst_pos + n) (words - n)
  end

(* Allocating variant, kept for tests and tools; the cache hot path uses
   [blit_line]. *)
let read_line t ~proc ~line_index =
  let words = Olden_config.Geometry.words_per_line in
  let dst = Word.block words in
  blit_line t ~proc ~line_index ~dst ~dst_pos:0;
  Array.init words (Word.get Word.Value dst)

let word_at t ~proc ~addr =
  if proc < 0 || proc >= nprocs t then no_processor ~proc ~addr;
  let s = t.sections.(proc) in
  if addr >= 0 && addr < s.used then
    Word.get Word.Value (chunk s addr) (offset addr)
  else Value.Nil

(* A digest of every allocated word in every section, for whole-heap
   equality checks (the invariant checker compares a faulty run's final
   heap against the fault-free run's).  Floats are hashed by their exact
   bit pattern, so equal digests mean structurally equal heaps. *)
let digest t =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun proc s ->
      Buffer.add_string buf (Printf.sprintf "#%d:%d\n" proc s.used);
      for i = 0 to s.used - 1 do
        (match Word.get Word.Value (chunk s i) (offset i) with
        | Value.Nil -> Buffer.add_char buf 'n'
        | Value.Int v ->
            Buffer.add_char buf 'i';
            Buffer.add_string buf (string_of_int v)
        | Value.Float f ->
            Buffer.add_char buf 'f';
            Buffer.add_string buf (Int64.to_string (Int64.bits_of_float f))
        | Value.Ptr p ->
            Buffer.add_char buf 'p';
            Buffer.add_string buf (Gptr.to_string p));
        Buffer.add_char buf ';'
      done)
    t.sections;
  Digest.to_hex (Digest.string (Buffer.contents buf))
