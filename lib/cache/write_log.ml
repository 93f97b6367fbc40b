(* Per-thread record of heap writes, kept at line granularity.

   The global- and bilateral-knowledge coherence schemes need to know, at
   each outgoing migration (a "release"), which lines the thread wrote; the
   local scheme's return refinement needs the set of processors whose
   memories the thread wrote (Section 3.2).

   [record] runs on every cacheable (and migration-mechanism) write, so it
   is hot: the dirty set is a hashtable of mutable line-mask cells with a
   one-page memo in front — consecutive writes to the same page (the
   common case) update one cell without touching the table — and the
   written-processor set is an int bitmask, not a list.

   Every thread (each future, each served request) gets a log, most of
   them never write a cacheable line, and the local scheme never reads
   the dirty set at all: the table is created on the first [record], and
   [record_home] logs only the processor. *)

type t = {
  mutable dirty : (int, int ref) Hashtbl.t;
      (* global page id -> bitmask of lines; [no_dirty] until the first
         [record] *)
  mutable written : int; (* bitmask of processors written, cumulative *)
  mutable memo_gpage : int; (* last page written; min_int = no memo *)
  mutable memo_cell : int ref; (* its mask cell *)
}

(* Shared sentinels, never written: [no_dirty] is replaced before any
   insertion, and [no_cell] is only reachable through a memo whose page
   is [min_int], which no real page id equals. *)
let no_dirty : (int, int ref) Hashtbl.t = Hashtbl.create 1
let no_cell = ref 0

let create () =
  { dirty = no_dirty; written = 0; memo_gpage = min_int; memo_cell = no_cell }

(* Written-processor masks live in one OCaml int. *)
let max_procs = Sys.int_size - 1

let record_home t ~home =
  if home < 0 || home >= max_procs then
    invalid_arg (Printf.sprintf "Write_log.record: processor %d out of range" home);
  t.written <- t.written lor (1 lsl home)

let record t ~gpage ~line ~home =
  record_home t ~home;
  let bit = 1 lsl line in
  if t.memo_gpage = gpage then t.memo_cell := !(t.memo_cell) lor bit
  else begin
    if t.dirty == no_dirty then t.dirty <- Hashtbl.create 16;
    (match Hashtbl.find t.dirty gpage with
    | cell ->
        cell := !cell lor bit;
        t.memo_cell <- cell
    | exception Not_found ->
        let cell = ref bit in
        Hashtbl.add t.dirty gpage cell;
        t.memo_cell <- cell);
    t.memo_gpage <- gpage
  end

(* [Hashtbl.fold] marks the table it walks, and every domain shares
   [no_dirty], so it is never folded. *)
let fold_dirty f t init =
  if t.dirty == no_dirty then init else Hashtbl.fold f t.dirty init

(* Sorted extraction keeps release processing deterministic (the order
   coherence messages are issued in) regardless of hashtable internals. *)
let dirty_pages t =
  fold_dirty (fun gpage cell acc -> (gpage, !cell) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let written_mask t = t.written

let written_procs t =
  let rec go p mask acc =
    if mask = 0 then List.rev acc
    else if mask land 1 <> 0 then go (p + 1) (mask lsr 1) (p :: acc)
    else go (p + 1) (mask lsr 1) acc
  in
  go 0 t.written []

let is_empty t = Hashtbl.length t.dirty = 0

(* Called after a release has pushed/stamped the logged writes. *)
let clear_dirty t =
  if t.dirty != no_dirty then Hashtbl.reset t.dirty;
  t.memo_gpage <- min_int

let line_count t =
  fold_dirty (fun _ cell acc -> acc + Olden_config.popcount !cell) t 0

(* Acquiring another thread's result makes its writes part of what this
   thread "has written" for later release/return invalidation purposes
   (transitive causality through future touches). *)
let absorb_written_procs t ~from = t.written <- t.written lor from.written
