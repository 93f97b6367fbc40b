(* Derive a metrics registry from the flat events of a span stream.

   This is where the per-mechanism breakdowns the flat [Stats] record
   cannot express come from:

   - "events"            — one counter per event kind (labels: kind);
   - "events_by_proc"    — the same, split per processor;
   - "events_by_site"    — cache/migration traffic split per
                           dereference site (labels: site id, and the
                           site's name when a resolver is given);
   - "migration_latency_cycles" / "return_latency_cycles" — histograms
     of send-to-arrival time, pairing each send with the same thread's
     next arrival;
   - "miss_burst"        — histogram of runs of consecutive cache
     misses on one processor uninterrupted by a hit there: long bursts
     are cold caches or invalidation storms, the signature the
     migrate-vs-cache trade-off turns on. *)

module Metrics = Olden_trace.Metrics
module Span = Olden_span.Span

(* A site-name table (e.g. [Site.labels ()], sourced from the runtime's
   site registry) as a lookup function.  Tables are tiny — tens of sites —
   but lookups run per event, so build a hashtable once. *)
let lookup table =
  let h = Hashtbl.create (List.length table) in
  List.iter (fun (sid, name) -> Hashtbl.replace h sid name) table;
  fun sid -> Hashtbl.find_opt h sid

let of_spans ?site_table ?(site_name = fun (_ : int) -> None) spans =
  let site_name =
    match site_table with
    | None -> site_name
    | Some table ->
        let find = lookup table in
        fun sid ->
          (match find sid with Some _ as r -> r | None -> site_name sid)
  in
  let m = Metrics.create () in
  let migration_latency = Metrics.histogram m "migration_latency_cycles" in
  let return_latency = Metrics.histogram m "return_latency_cycles" in
  let pending_sends : (int, int Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let send_queue tid =
    match Hashtbl.find_opt pending_sends tid with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add pending_sends tid q;
        q
  in
  let bursts : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let burst proc =
    match Hashtbl.find_opt bursts proc with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add bursts proc r;
        r
  in
  let miss_burst = Metrics.histogram m "miss_burst" in
  let end_burst r =
    if !r > 0 then begin
      Metrics.observe miss_burst !r;
      r := 0
    end
  in
  let site_labels site =
    let id = [ ("site", string_of_int site) ] in
    match site_name site with
    | Some name -> ("site_name", name) :: id
    | None -> id
  in
  Array.iter
    (fun (ev : Span.span) ->
      let kind = Span.kind_name ev.kind in
      Metrics.inc (Metrics.counter m ~labels:[ ("kind", kind) ] "events");
      Metrics.inc
        (Metrics.counter m
           ~labels:[ ("kind", kind); ("proc", string_of_int ev.proc) ]
           "events_by_proc");
      if ev.site >= 0 then
        Metrics.inc
          (Metrics.counter m
             ~labels:(("kind", kind) :: site_labels ev.site)
             "events_by_site");
      (match ev.kind with
      | Migrate_send | Return_send -> Queue.push ev.t0 (send_queue ev.tid)
      | Migrate_arrive -> (
          match Queue.take_opt (send_queue ev.tid) with
          | Some sent -> Metrics.observe migration_latency (ev.t0 - sent)
          | None -> ())
      | Return_arrive -> (
          match Queue.take_opt (send_queue ev.tid) with
          | Some sent -> Metrics.observe return_latency (ev.t0 - sent)
          | None -> ())
      | _ -> ());
      match ev.kind with
      | Cache_miss -> incr (burst ev.proc)
      | Cache_hit -> end_burst (burst ev.proc)
      | _ -> ())
    (Span.flat spans);
  (* close the bursts still open at end of run, lowest proc first so the
     snapshot stays deterministic *)
  Hashtbl.fold (fun proc r acc -> (proc, r) :: acc) bursts []
  |> List.sort compare
  |> List.iter (fun (_, r) -> end_burst r);
  m
