(* Home-side per-page bookkeeping.

   The local-knowledge scheme needs none of this.  The global scheme tracks
   sharers (recorded when the home services cache requests) so that a
   releasing thread's written lines can be invalidated eagerly.  The
   bilateral scheme keeps a timestamp per page, plus per-line write stamps
   so a revalidating sharer can be told exactly which lines to drop
   (Appendix A). *)

type page = {
  mutable sharers : int; (* bitmask of processors holding a copy (global) *)
  mutable ts : int; (* current timestamp (bilateral scheme) *)
  line_ts : int array; (* per-line stamp of the last release-visible write *)
  mutable ever_shared : bool; (* drives the 7-vs-23-cycle write-track cost *)
}

(* Pure bookkeeping: the cache system emits the directory's trace
   events ([Dir_write], [Dir_release]) on its behalf. *)
type t = {
  mutable pages : page array;
      (* indexed by local page index (dense from 0 in every section);
         [no_page] where no record was created *)
  registered : (int * int, int) Hashtbl.t option;
      (* (page_index, proc) -> time of the latest sharer registration;
         kept only under a fault schedule, where the recovery checker
         needs to prove no mask names a processor past its crash epoch *)
}

let create ?(track_registrations = false) () =
  {
    pages = [||];
    registered = (if track_registrations then Some (Hashtbl.create 64) else None);
  }

(* The absent-record sentinel (test with [==]).  Never written: every
   mutation goes through [get], which replaces it first.  Lookups run on
   every global/bilateral write, fill and release; an array read
   allocates nothing and, unlike a hash lookup that raises on a miss,
   costs the same for pages never shared. *)
let no_page = { sharers = 0; ts = 0; line_ts = [||]; ever_shared = false }

let find t page_index =
  if page_index < Array.length t.pages then t.pages.(page_index) else no_page

let get t page_index =
  let p = find t page_index in
  if p != no_page then p
  else begin
    let n = Array.length t.pages in
    if page_index >= n then begin
      let pages = Array.make (max (page_index + 1) (2 * n)) no_page in
      Array.blit t.pages 0 pages 0 n;
      t.pages <- pages
    end;
    let p =
      {
        sharers = 0;
        ts = 0;
        line_ts = Array.make Olden_config.Geometry.lines_per_page 0;
        ever_shared = false;
      }
    in
    t.pages.(page_index) <- p;
    p
  end

let iter_pages t f =
  Array.iteri (fun i p -> if p != no_page then f i p) t.pages

let add_sharer ~at t ~page_index ~proc =
  let p = get t page_index in
  p.ever_shared <- true;
  p.sharers <- p.sharers lor (1 lsl proc);
  match t.registered with
  | None -> ()
  | Some reg ->
      (* [at] is in the *sharer's* clock domain: the recovery checker
         compares registration times against the sharer's crash epoch,
         and per-processor clocks are not mutually synchronized *)
      Hashtbl.replace reg (page_index, proc) at

let registered_at t ~page_index ~proc =
  match t.registered with
  | None -> 0
  | Some reg ->
      Option.value ~default:0 (Hashtbl.find_opt reg (page_index, proc))

(* A crashed sharer lost its copies: strike it from every mask.  Returns
   the number of pages it was pruned from (the invalidations the global
   scheme will no longer waste on it). *)
let prune_sharer t ~proc =
  let bit = 1 lsl proc in
  let pruned = ref 0 in
  iter_pages t (fun _index p ->
      if p.sharers land bit <> 0 then begin
        p.sharers <- p.sharers land lnot bit;
        incr pruned
      end);
  !pruned

let remove_sharer t ~page_index ~proc =
  let p = find t page_index in
  if p != no_page then p.sharers <- p.sharers land lnot (1 lsl proc)

let sharer_mask t page_index = (find t page_index).sharers

let sharers t page_index =
  let rec go p mask acc =
    if mask = 0 then List.rev acc
    else if mask land 1 <> 0 then go (p + 1) (mask lsr 1) (p :: acc)
    else go (p + 1) (mask lsr 1) acc
  in
  go 0 (sharer_mask t page_index) []

let is_shared t page_index = (find t page_index).ever_shared

(* Record a write-through arriving at the home: stamp the line with the
   next (not yet released) timestamp so a reader validated at the current
   timestamp will be told to drop it. *)
let record_write t ~page_index ~line =
  let p = get t page_index in
  p.line_ts.(line) <- p.ts + 1

(* A release (outgoing migration) makes the logged writes visible:
   advance the page timestamp past all pending stamps. *)
let bump_timestamp t ~page_index =
  let p = get t page_index in
  p.ts <- p.ts + 1

(* Bilateral revalidation: given the sharer's last-validated timestamp,
   return the mask of lines written since then and the current timestamp. *)
let stale_lines t ~page_index ~since =
  let p = find t page_index in
  let mask = ref 0 in
  Array.iteri
    (fun line ts -> if ts > since then mask := !mask lor (1 lsl line))
    p.line_ts;
  (!mask, p.ts)
