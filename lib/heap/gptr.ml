(* Global heap pointers.

   Olden views a heap address as a pair <p, l> of a processor name and a
   local word address, encoded in a single 32-bit word (Section 2).  We keep
   the same encoding discipline in a native OCaml int: the low [addr_bits]
   bits hold the local word address, the bits above hold the processor
   number, and the whole encoding is offset by one so that [null] is 0. *)

type t = int

let addr_bits = 24
let addr_mask = (1 lsl addr_bits) - 1
let max_addr = addr_mask
let max_procs = 1 lsl 10

let null : t = 0
let is_null (p : t) = p = 0

let make ~proc ~addr : t =
  if proc < 0 || proc >= max_procs then
    invalid_arg (Printf.sprintf "Gptr.make: processor %d out of range" proc);
  if addr < 0 || addr > max_addr then
    invalid_arg (Printf.sprintf "Gptr.make: address %d out of range" addr);
  (proc lsl addr_bits) lor addr lor (1 lsl (addr_bits + 10))

let proc (p : t) =
  if is_null p then invalid_arg "Gptr.proc: null pointer";
  (p lsr addr_bits) land (max_procs - 1)

let addr (p : t) =
  if is_null p then invalid_arg "Gptr.addr: null pointer";
  p land addr_mask

let unsafe_proc (p : t) = (p lsr addr_bits) land (max_procs - 1)
let unsafe_addr (p : t) = p land addr_mask

(* Pointer arithmetic within an object: fields are word offsets. *)
let offset (p : t) n =
  if is_null p then invalid_arg "Gptr.offset: null pointer";
  let a = addr p + n in
  make ~proc:(proc p) ~addr:a

(* Exactly the encodings [make] and [null] produce: the tag bit above the
   processor field and nothing higher. *)
let of_int i : t =
  if i <> 0 && i lsr (addr_bits + 10) <> 1 then invalid_arg "Gptr.of_int";
  i

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Int.compare a b
let hash (p : t) = Hashtbl.hash p

let to_string p =
  if is_null p then "<null>"
  else Printf.sprintf "<%d,%d>" (proc p) (addr p)

let pp ppf p = Format.pp_print_string ppf (to_string p)

(* Global page ids, the software cache's tags: the home processor above
   bit 16, the page's index within the home's section below (a section
   holds [max_addr / words_per_page] < 2^16 pages). *)
let page_bits = 16
let () =
  assert (Olden_config.Geometry.page_of_word max_addr < 1 lsl page_bits)

let page_id ~home ~page_index = (home lsl page_bits) lor page_index
let page_home gpage = gpage lsr page_bits
let page_index gpage = gpage land ((1 lsl page_bits) - 1)

let global_page (p : t) =
  page_id ~home:(proc p)
    ~page_index:(Olden_config.Geometry.page_of_word (addr p))
