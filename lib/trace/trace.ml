(* Structured event tracing for the Olden runtime.

   The engine and the cache system (for itself and its coherence
   directories) emit events into one sink per domain.  Tracing must cost
   nothing when it is off: each layer holds its domain's emitter (the
   engine binds it at [exec]) and every emission site is written

     if Trace.on e then Trace.emit e { ... }

   so with no sink installed the only work done is one boolean load —
   no event record is ever allocated.  [emit] itself re-checks the sink
   so a stray unguarded call is still safe.

   Events are stamped with simulated time, processor, thread id, and
   dereference-site id.  The engine knows its current thread and site;
   the cache and directory layers run beneath it and pick the stamps up
   from the context set by {!set_thread} / {!set_site} (both writes are
   themselves guarded, so the context costs nothing when tracing is
   off).

   Fault, fallback, crash and failover activity is recorded only as
   spans (lib/span), not here. *)

type kind =
  | Migrate_send of { target : int }
  | Migrate_arrive of { source : int }
  | Return_send of { target : int }
  | Return_arrive of { source : int }
  | Future_spawn of { fid : int }
  | Future_resolve of { fid : int; waiters : int }
  | Future_touch of { fid : int; parked : bool }
  | Steal
  | Cache_hit of { home : int; page : int; line : int }
  | Cache_miss of { home : int; page : int; line : int }
  | Cache_flush of { entries : int }
  | Suspect_all
  | Revalidate of { home : int; page : int; dropped : int }
  | Inval_send of { target : int; page : int }
  | Inval_recv of { source : int; page : int; dropped : int }
  | Dir_write of { page : int; line : int }
  | Dir_release of { page : int; ts : int }
  | Remote_alloc of { home : int; words : int }
  | Phase_mark of string

type event = {
  time : int;  (* simulated cycles *)
  proc : int;
  tid : int;  (* -1 when no thread applies *)
  site : int;  (* dereference-site id; -1 when no site applies *)
  kind : kind;
}

(* --- The sink ---------------------------------------------------------- *)

(* All emitter state — the installed sink and the ambient thread/site
   context — lives in one record behind a domain-local key, so engines
   running on different domains (the parallel sweep driver) trace
   independently.  The key is read once, where a layer binds the record
   ([emitter]); every hook after that is a field load on the bound
   record. *)
type emitter = {
  mutable on : bool;
  mutable sink : event -> unit;
  mutable cur_tid : int;
  mutable cur_site : int;
}

let emitter_key =
  Domain.DLS.new_key (fun () ->
      { on = false; sink = (fun _ -> ()); cur_tid = -1; cur_site = -1 })

let emitter () = Domain.DLS.get emitter_key
let on e = e.on
let is_on () = (emitter ()).on

let install sink =
  let e = emitter () in
  e.sink <- sink;
  e.on <- true

let uninstall () =
  let e = emitter () in
  e.on <- false;
  e.sink <- (fun _ -> ())

let emit e ev = if e.on then e.sink ev

(* --- Emitter context --------------------------------------------------- *)

let set_thread e tid = e.cur_tid <- tid
let set_site e site = e.cur_site <- site
let thread e = e.cur_tid
let site e = e.cur_site

(* --- Collector --------------------------------------------------------- *)

module Collector = struct
  (* A grow-only vector (no Dynarray before OCaml 5.2). *)
  type t = { mutable arr : event option array; mutable len : int }

  let create () = { arr = Array.make 1024 None; len = 0 }

  let add c ev =
    if c.len = Array.length c.arr then begin
      let bigger = Array.make (2 * c.len) None in
      Array.blit c.arr 0 bigger 0 c.len;
      c.arr <- bigger
    end;
    c.arr.(c.len) <- Some ev;
    c.len <- c.len + 1

  let length c = c.len

  let events c =
    Array.init c.len (fun i ->
        match c.arr.(i) with Some ev -> ev | None -> assert false)
end

let collect f =
  let c = Collector.create () in
  install (Collector.add c);
  Fun.protect ~finally:uninstall (fun () ->
      let result = f () in
      (result, Collector.events c))

(* --- Names and structured arguments ------------------------------------ *)

let kind_name = function
  | Migrate_send _ -> "migrate_send"
  | Migrate_arrive _ -> "migrate_arrive"
  | Return_send _ -> "return_send"
  | Return_arrive _ -> "return_arrive"
  | Future_spawn _ -> "future_spawn"
  | Future_resolve _ -> "future_resolve"
  | Future_touch _ -> "future_touch"
  | Steal -> "steal"
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Cache_flush _ -> "cache_flush"
  | Suspect_all -> "suspect_all"
  | Revalidate _ -> "revalidate"
  | Inval_send _ -> "inval_send"
  | Inval_recv _ -> "inval_recv"
  | Dir_write _ -> "dir_write"
  | Dir_release _ -> "dir_release"
  | Remote_alloc _ -> "remote_alloc"
  | Phase_mark _ -> "phase"

(* Payload fields beyond the common stamps, in a fixed order. *)
let kind_args = function
  | Migrate_send { target } | Return_send { target } ->
      [ ("target", Json.Int target) ]
  | Migrate_arrive { source } | Return_arrive { source } ->
      [ ("source", Json.Int source) ]
  | Future_spawn { fid } -> [ ("fid", Json.Int fid) ]
  | Future_resolve { fid; waiters } ->
      [ ("fid", Json.Int fid); ("waiters", Json.Int waiters) ]
  | Future_touch { fid; parked } ->
      [ ("fid", Json.Int fid); ("parked", Json.Bool parked) ]
  | Steal -> []
  | Cache_hit { home; page; line } | Cache_miss { home; page; line } ->
      [ ("home", Json.Int home); ("page", Json.Int page);
        ("line", Json.Int line) ]
  | Cache_flush { entries } -> [ ("entries", Json.Int entries) ]
  | Suspect_all -> []
  | Revalidate { home; page; dropped } ->
      [ ("home", Json.Int home); ("page", Json.Int page);
        ("dropped", Json.Int dropped) ]
  | Inval_send { target; page } ->
      [ ("target", Json.Int target); ("page", Json.Int page) ]
  | Inval_recv { source; page; dropped } ->
      [ ("source", Json.Int source); ("page", Json.Int page);
        ("dropped", Json.Int dropped) ]
  | Dir_write { page; line } ->
      [ ("page", Json.Int page); ("line", Json.Int line) ]
  | Dir_release { page; ts } ->
      [ ("page", Json.Int page); ("ts", Json.Int ts) ]
  | Remote_alloc { home; words } ->
      [ ("home", Json.Int home); ("words", Json.Int words) ]
  | Phase_mark name -> [ ("name", Json.String name) ]

(* One line per event: the JSONL schema (docs/OBSERVABILITY.md). *)
let event_json ev =
  let stamps =
    [ ("t", Json.Int ev.time); ("proc", Json.Int ev.proc);
      ("tid", Json.Int ev.tid); ("site", Json.Int ev.site);
      ("ev", Json.String (kind_name ev.kind)) ]
  in
  Json.Obj (stamps @ kind_args ev.kind)
