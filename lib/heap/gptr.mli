(** Global heap pointers.

    Olden encodes a heap address as a pair [<p, l>] of a processor name and
    a local word address packed into a single 32-bit word (Section 2 of the
    paper).  This module keeps the same discipline in a native OCaml [int]:
    the encoding is total, cheap, and [null] is distinguishable from every
    valid pointer (including processor 0, address 0). *)

type t = private int
(** A global pointer, or {!null}. *)

val addr_bits : int
(** Number of bits of local word address (24: 16M words per processor). *)

val max_addr : int
(** Largest encodable local word address. *)

val max_procs : int
(** Largest encodable processor count (1024). *)

val null : t
(** The null pointer. *)

val is_null : t -> bool

val make : proc:int -> addr:int -> t
(** [make ~proc ~addr] encodes [<proc, addr>].
    @raise Invalid_argument if either component is out of range. *)

val proc : t -> int
(** Owning processor. @raise Invalid_argument on {!null}. *)

val addr : t -> int
(** Local word address. @raise Invalid_argument on {!null}. *)

val unsafe_proc : t -> int
val unsafe_addr : t -> int
(** {!proc} and {!addr} without the null test, for callers that have
    just made it; on {!null} they return processor 0, address 0. *)

val offset : t -> int -> t
(** [offset p n] is the pointer [n] words past [p] (field access within an
    object). @raise Invalid_argument on {!null} or out-of-range result. *)

val of_int : int -> t
(** [of_int (p :> int)] is [p] again, for pointers packed into a larger
    integer and unpacked.
    @raise Invalid_argument if the integer is not {!null} and was not
    made by {!make}. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val global_page : t -> int
(** Identifier of the 2 KB global page containing the pointer, unique
    across processors: [page_id ~home:(proc p) ~page_index], the tag the
    software cache files the page under.
    @raise Invalid_argument on {!null}. *)

val page_id : home:int -> page_index:int -> int
(** The global page id of page [page_index] of [home]'s section: the
    home in the bits from 16 up, the page index below. *)

val page_home : int -> int
val page_index : int -> int
(** The two halves of a global page id. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
