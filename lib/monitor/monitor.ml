(* Simulated-clock telemetry.  See monitor.mli for the model.

   Layering: this module depends only on olden_trace (Metrics + Json)
   and olden_span, whose emission feeds the latency histograms; the
   layers that emit spans never call in here.  The driver supplies the
   machine state it samples as a [probe] of closures. *)

module Metrics = Olden_trace.Metrics
module Json = Olden_trace.Json
module Span = Olden_span.Span

type mech = Local | Cache | Migrate | Fallback

let mech_index = function Local -> 0 | Cache -> 1 | Migrate -> 2 | Fallback -> 3
let mech_name = function
  | Local -> "local"
  | Cache -> "cache"
  | Migrate -> "migrate"
  | Fallback -> "fallback"

let mechs = [| Local; Cache; Migrate; Fallback |]

type probe = {
  stats : unit -> (string * int) list;
  busy : unit -> int array;
  comm : unit -> int array;
  recovery_stall : unit -> int array;
}

type window = {
  w_t0 : int;
  w_t1 : int;
  w_stats : (string * int) list;
  w_procs : (int * int * int * int) array;
  w_latency : Json.t;
}

type t = {
  interval : int;
  nprocs : int;
  probe : probe;
  lat : Metrics.t; (* aggregate latency histograms; windowed via deltas *)
  deref_h : Metrics.histogram array; (* indexed by mech_index *)
  migration_h : Metrics.histogram;
  return_h : Metrics.histogram;
  retry_h : Metrics.histogram;
  recovery_h : Metrics.histogram;
  site_reg : Metrics.t; (* per-site histograms, kept out of window rows *)
  mutable site_h : Metrics.histogram array;
      (* indexed by sid * 4 + mech_index, so the consumer reads a slot
         instead of hashing; [no_hist] where unseen *)
  req_reg : Metrics.t; (* per-request-class admission→completion latency *)
  mutable req_h : Metrics.histogram array;
      (* indexed by the request root's class code; [no_hist] where unseen *)
  (* Exemplars: per mechanism, the trace ids of the worst episodes seen,
     in fixed parallel int arrays so recording stays allocation-free;
     filtered against a percentile threshold at report time. *)
  ex_n : int array; (* exemplars held, per mech_index *)
  ex_cy : int array array; (* [mech].(slot) episode cycles *)
  ex_tp : int array array; (* [mech].(slot) trace proc *)
  ex_ts : int array array; (* [mech].(slot) trace seq *)
  ex_min : int array;
      (* per mech_index, once its slots are full: the first slot holding
         the smallest exemplar, the one a worse episode displaces *)
  mutable mark : int; (* left edge of the open window *)
  mutable prev_stats : (string * int) list;
  mutable prev_busy : int array;
  mutable prev_comm : int array;
  mutable prev_recovery : int array;
  mutable prev_lat : Metrics.snapshot;
  mutable rev_windows : window list;
  mutable finished : bool;
}

let exemplar_slots = 16

(* Placeholder for site and request slots never observed; never
   written. *)
let no_hist = Metrics.histogram (Metrics.create ()) "unused"

let create ~interval ~nprocs ~probe =
  if interval < 1 then invalid_arg "Monitor.create: interval < 1";
  let lat = Metrics.create () in
  {
    interval;
    nprocs;
    probe;
    lat;
    deref_h =
      Array.map
        (fun m ->
          Metrics.histogram lat
            ~labels:[ ("mech", mech_name m) ]
            "deref_latency")
        mechs;
    migration_h = Metrics.histogram lat "migration_latency";
    return_h = Metrics.histogram lat "return_latency";
    retry_h = Metrics.histogram lat "retry_wait_cycles";
    recovery_h = Metrics.histogram lat "recovery_stall_cycles";
    site_reg = Metrics.create ();
    site_h = [||];
    req_reg = Metrics.create ();
    req_h = [||];
    ex_n = Array.make 4 0;
    ex_cy = Array.init 4 (fun _ -> Array.make exemplar_slots 0);
    ex_tp = Array.init 4 (fun _ -> Array.make exemplar_slots 0);
    ex_ts = Array.init 4 (fun _ -> Array.make exemplar_slots 0);
    ex_min = Array.make 4 0;
    mark = 0;
    prev_stats = probe.stats ();
    prev_busy = probe.busy ();
    prev_comm = probe.comm ();
    prev_recovery = probe.recovery_stall ();
    prev_lat = Metrics.snapshot lat;
    rev_windows = [];
    finished = false;
  }

let interval t = t.interval
let nprocs t = t.nprocs

(* Close the open window at [t1]: compute every delta against the
   previous sample, then advance the sample point. *)
let sample t ~t1 =
  let stats = t.probe.stats () in
  let busy = t.probe.busy () in
  let comm = t.probe.comm () in
  let recovery = t.probe.recovery_stall () in
  let w_stats =
    List.map2
      (fun (name, v) (_, v0) -> (name, v - v0))
      stats t.prev_stats
  in
  let span = t1 - t.mark in
  let w_procs =
    Array.init t.nprocs (fun p ->
        let b = busy.(p) - t.prev_busy.(p) in
        let c = comm.(p) - t.prev_comm.(p) in
        let r =
          if p < Array.length recovery then
            recovery.(p) - t.prev_recovery.(p)
          else 0
        in
        (b, c, span - b - c, r))
  in
  let w_latency = Metrics.delta_json t.lat ~since:t.prev_lat in
  t.rev_windows <-
    { w_t0 = t.mark; w_t1 = t1; w_stats; w_procs; w_latency }
    :: t.rev_windows;
  t.mark <- t1;
  t.prev_stats <- stats;
  t.prev_busy <- busy;
  t.prev_comm <- comm;
  t.prev_recovery <- recovery;
  t.prev_lat <- Metrics.snapshot t.lat

let tick_m t time =
  if (not t.finished) && time - t.mark >= t.interval then
    (* close every whole window the clock has passed; [mark] stays a
       multiple of [interval], so one sample covers them all *)
    sample t ~t1:(time / t.interval * t.interval)

let finish t ~makespan =
  if not t.finished then begin
    if makespan > t.mark || t.rev_windows = [] then
      sample t ~t1:(max makespan t.mark);
    t.finished <- true
  end

let windows t = List.rev t.rev_windows

(* --- The domain-wide sink --------------------------------------------- *)

(* One installed monitor per domain: runs on different domains of the
   parallel sweep driver sample independently. *)
type slot = t option ref

let slot_key : slot Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let slot () = Domain.DLS.get slot_key

let is_on () = match !(slot ()) with Some _ -> true | None -> false

(* The first slot holding mechanism [m]'s smallest exemplar. *)
let min_slot t m =
  let cy = t.ex_cy.(m) in
  let worst = ref 0 in
  for i = 1 to exemplar_slots - 1 do
    if cy.(i) < cy.(!worst) then worst := i
  done;
  !worst

(* Keep the worst [exemplar_slots] episodes per mechanism: append while
   there is room, otherwise displace the (first) smallest held exemplar
   when the new episode is strictly worse — deterministic, bounded, and
   allocation-free.  That slot is kept in [ex_min], so an episode that
   displaces nothing costs one comparison. *)
let note_exemplar t ~m ~cycles ~tp ~ts =
  let n = t.ex_n.(m) in
  if n < exemplar_slots then begin
    t.ex_cy.(m).(n) <- cycles;
    t.ex_tp.(m).(n) <- tp;
    t.ex_ts.(m).(n) <- ts;
    t.ex_n.(m) <- n + 1;
    if n + 1 = exemplar_slots then t.ex_min.(m) <- min_slot t m
  end
  else begin
    let worst = t.ex_min.(m) in
    if cycles > t.ex_cy.(m).(worst) then begin
      t.ex_cy.(m).(worst) <- cycles;
      t.ex_tp.(m).(worst) <- tp;
      t.ex_ts.(m).(worst) <- ts;
      t.ex_min.(m) <- min_slot t m
    end
  end

(* [slots] with room for index [i]. *)
let grown slots i =
  if i < Array.length slots then slots
  else begin
    let g = Array.make (max 64 (2 * (i + 1))) no_hist in
    Array.blit slots 0 g 0 (Array.length slots);
    g
  end

(* The per-site histogram for [key] = sid * 4 + mech_index, created on
   first use. *)
let new_site t ~key =
  let h =
    Metrics.histogram t.site_reg
      ~labels:
        [
          ("mech", mech_name mechs.(key mod 4));
          ("sid", Printf.sprintf "%06d" (key / 4));
        ]
      "deref_latency"
  in
  t.site_h <- grown t.site_h key;
  t.site_h.(key) <- h;
  h

(* A [Deref] root closed: one dereference episode, [m] its mechanism
   code, the root's own trace id its exemplar link. *)
let deref_m t ~sid ~m ~cycles ~tp ~ts =
  Metrics.observe t.deref_h.(m) cycles;
  note_exemplar t ~m ~cycles ~tp ~ts;
  if sid >= 0 then begin
    let key = (sid * 4) + m in
    let h =
      if key < Array.length t.site_h && t.site_h.(key) != no_hist then
        t.site_h.(key)
      else new_site t ~key
    in
    Metrics.observe h cycles
  end

(* One served request's admission→completion latency, bucketed by its
   class.  The histogram registry is separate from the windowed one
   (like per-site), so batch exports stay byte-identical when no
   requests were served. *)
let request_m t ~code ~cycles =
  let h =
    if code < Array.length t.req_h && t.req_h.(code) != no_hist then
      t.req_h.(code)
    else begin
      let h =
        Metrics.histogram t.req_reg
          ~labels:[ ("class", Span.request_class_name code) ]
          "request_latency"
      in
      t.req_h <- grown t.req_h code;
      t.req_h.(code) <- h;
      h
    end
  in
  Metrics.observe h cycles

(* The span consumer: each episode is measured once, where it is
   emitted, and every latency histogram reads that emission.  The
   monitor attaches for exactly these kinds, so the stream's other
   spans never reach it. *)
let kinds = Span.[ Deref; Recv; Return; Backoff; Crash; Failover; Request ]

let note t sp ~tp ~ts ~(kind : Span.kind) ~t0 ~t1 ~a ~b =
  match kind with
  | Deref -> deref_m t ~sid:a ~m:b ~cycles:(t1 - t0) ~tp ~ts
  | Recv ->
      (* under a dereference root, the migrated state restarting at its
         target: the migration leg, from episode entry *)
      let r0 = Span.deref_t0 sp in
      if r0 >= 0 then Metrics.observe t.migration_h (t1 - r0)
  | Return -> Metrics.observe t.return_h (t1 - t0)
  | Backoff -> Metrics.observe t.retry_h b
  | Crash | Failover -> Metrics.observe t.recovery_h (t1 - t0)
  | Request -> request_m t ~code:a ~cycles:(t1 - t0)
  | _ -> ()

let install m =
  let a = slot () in
  (match !a with
  | Some _ -> invalid_arg "Monitor.install: a monitor is already installed"
  | None -> ());
  a := Some m;
  (* the consumer is attached to this domain's span state, so the state
     it reads the open root from is that one *)
  let sp = Span.state () in
  Span.attach_monitor ~kinds (fun ~tp ~ts ~kind ~t0 ~t1 ~a ~b ->
      note m sp ~tp ~ts ~kind ~t0 ~t1 ~a ~b)

let uninstall () =
  slot () := None;
  Span.detach_monitor ()

let tick slot time = match !slot with None -> () | Some t -> tick_m t time

(* --- Latency summaries ------------------------------------------------- *)

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
}

let summarize h =
  {
    count = Metrics.observations h;
    sum = Metrics.sum h;
    min = Metrics.min_value h;
    max = Metrics.max_value h;
    mean = Metrics.mean h;
    p50 = Metrics.quantile h 0.5;
    p90 = Metrics.quantile h 0.9;
    p99 = Metrics.quantile h 0.99;
    p999 = Metrics.quantile h 0.999;
  }

let deref_summaries t =
  Array.to_list mechs
  |> List.filter_map (fun m ->
         let h = t.deref_h.(mech_index m) in
         if Metrics.observations h = 0 then None
         else Some (mech_name m, summarize h))

let episode_summaries t =
  [
    ("migration", t.migration_h);
    ("return", t.return_h);
    ("retry_wait", t.retry_h);
    ("recovery_stall", t.recovery_h);
  ]
  |> List.filter_map (fun (name, h) ->
         if Metrics.observations h = 0 then None
         else Some (name, summarize h))

let request_summaries t =
  Array.to_list (Array.mapi (fun code h -> (code, h)) t.req_h)
  |> List.filter (fun (_, h) -> h != no_hist)
  |> List.map (fun (code, h) -> (Span.request_class_name code, summarize h))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let site_summaries ?(site_names = []) t =
  (* in key order: by sid, then mechanism *)
  Array.to_list (Array.mapi (fun key h -> (key, h)) t.site_h)
  |> List.filter (fun (_, h) -> h != no_hist)
  |> List.map (fun (key, h) ->
         let sid = key / 4 in
         let label =
           match List.assoc_opt sid site_names with
           | Some l -> l
           | None -> Printf.sprintf "site#%d" sid
         in
         (sid, label, mech_name mechs.(key mod 4), summarize h))

(* --- Exemplars ---------------------------------------------------------- *)

type exemplar = {
  ex_mech : mech;
  ex_cycles : int;
  ex_trace_proc : int;
  ex_trace_seq : int;
}

let held_exemplars t mech =
  let m = mech_index mech in
  Array.init t.ex_n.(m) (fun i ->
      (t.ex_cy.(m).(i), t.ex_tp.(m).(i), t.ex_ts.(m).(i)))

let deref_quantile t mech q = Metrics.quantile t.deref_h.(mech_index mech) q

(* The retained exemplars at or above the [percentile] threshold of
   their mechanism's own latency histogram, worst first (ties broken by
   trace id, so the order is deterministic). *)
let exemplars ?(percentile = 0.99) t =
  let out = ref [] in
  Array.iter
    (fun m ->
      let mi = mech_index m in
      if Metrics.observations t.deref_h.(mi) > 0 then begin
        let threshold = Metrics.quantile t.deref_h.(mi) percentile in
        for i = 0 to t.ex_n.(mi) - 1 do
          if t.ex_cy.(mi).(i) >= threshold then
            out :=
              {
                ex_mech = m;
                ex_cycles = t.ex_cy.(mi).(i);
                ex_trace_proc = t.ex_tp.(mi).(i);
                ex_trace_seq = t.ex_ts.(mi).(i);
              }
              :: !out
        done
      end)
    mechs;
  List.sort
    (fun a b ->
      if a.ex_cycles <> b.ex_cycles then compare b.ex_cycles a.ex_cycles
      else
        compare
          (a.ex_trace_proc, a.ex_trace_seq)
          (b.ex_trace_proc, b.ex_trace_seq))
    !out

(* --- Serialization ----------------------------------------------------- *)

let summary_fields s =
  [
    ("count", Json.Int s.count);
    ("sum", Json.Int s.sum);
    ("min", Json.Int s.min);
    ("max", Json.Int s.max);
    ("mean", Json.Float s.mean);
    ("p50", Json.Int s.p50);
    ("p90", Json.Int s.p90);
    ("p99", Json.Int s.p99);
    ("p999", Json.Int s.p999);
  ]

let latency_json ?site_names t =
  let deref =
    List.map
      (fun (m, s) -> Json.Obj (("mech", Json.String m) :: summary_fields s))
      (deref_summaries t)
  in
  let episode =
    List.map
      (fun (k, s) -> Json.Obj (("kind", Json.String k) :: summary_fields s))
      (episode_summaries t)
  in
  let per_site =
    List.map
      (fun (sid, label, m, s) ->
        Json.Obj
          ([
             ("sid", Json.Int sid);
             ("site", Json.String label);
             ("mech", Json.String m);
           ]
          @ summary_fields s))
      (site_summaries ?site_names t)
  in
  (* the request section appears only when requests were served, so
     every batch (non-serving) export stays byte-identical *)
  let request =
    match request_summaries t with
    | [] -> []
    | rows ->
        [
          ( "request",
            Json.List
              (List.map
                 (fun (k, s) ->
                   Json.Obj (("class", Json.String k) :: summary_fields s))
                 rows) );
        ]
  in
  Json.Obj
    ([
       ("deref", Json.List deref);
       ("episode", Json.List episode);
       ("per_site", Json.List per_site);
     ]
    @ request)

let window_json w =
  Json.Obj
    [
      ("t0", Json.Int w.w_t0);
      ("t1", Json.Int w.w_t1);
      ( "stats",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) w.w_stats) );
      ( "per_proc",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun p (b, c, i, r) ->
                  Json.Obj
                    [
                      ("proc", Json.Int p);
                      ("busy", Json.Int b);
                      ("comm", Json.Int c);
                      ("idle", Json.Int i);
                      ("recovery_stall", Json.Int r);
                    ])
                w.w_procs)) );
      ("latency", w.w_latency);
    ]

let timeseries_jsonl ?site_names ~header t =
  let ws = windows t in
  let head =
    Json.Obj
      ([ ("schema", Json.String "olden-timeseries/v1") ]
      @ header
      @ [
          ("interval", Json.Int t.interval);
          ("nprocs", Json.Int t.nprocs);
          ("windows", Json.Int (List.length ws));
        ])
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Json.to_string head);
  Buffer.add_char buf '\n';
  List.iter
    (fun w ->
      Buffer.add_string buf (Json.to_string (window_json w));
      Buffer.add_char buf '\n')
    ws;
  Buffer.add_string buf
    (Json.to_string
       (Json.Obj [ ("latency_total", latency_json ?site_names t) ]));
  Buffer.add_char buf '\n';
  Buffer.contents buf

let csv t =
  let ws = windows t in
  let stat_names =
    match ws with
    | w :: _ -> List.map fst w.w_stats
    | [] -> List.map fst (t.probe.stats ())
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "t0,t1";
  (* stat names are identifiers today, but quote defensively: one odd
     label must not shift every column after it *)
  List.iter
    (fun n ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (Json.csv_field n))
    stat_names;
  for p = 0 to t.nprocs - 1 do
    Buffer.add_string buf (Printf.sprintf ",p%d_busy,p%d_comm,p%d_idle,p%d_recovery_stall" p p p p)
  done;
  Buffer.add_char buf '\n';
  List.iter
    (fun w ->
      Buffer.add_string buf (string_of_int w.w_t0);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int w.w_t1);
      List.iter
        (fun (_, v) ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int v))
        w.w_stats;
      Array.iter
        (fun (b, c, i, r) ->
          Buffer.add_string buf (Printf.sprintf ",%d,%d,%d,%d" b c i r))
        w.w_procs;
      Buffer.add_char buf '\n')
    ws;
  Buffer.contents buf

(* Latency summaries as CSV: one row per mechanism, episode kind,
   request class, and (site, mechanism) pair.  Site labels are "field@function" strings
   from user programs — always quoted through [Json.csv_field] so
   commas or quotes in a label cannot corrupt the row. *)
let latency_csv ?site_names t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "scope,kind,sid,site,count,sum,min,max,mean,p50,p90,p99,p999\n";
  let row ~scope ~kind ~sid ~site s =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s,%d,%d,%d,%d,%.3f,%d,%d,%d,%d\n"
         (Json.csv_field scope) (Json.csv_field kind) sid
         (Json.csv_field site) s.count s.sum s.min s.max s.mean s.p50 s.p90
         s.p99 s.p999)
  in
  List.iter
    (fun (m, s) -> row ~scope:"deref" ~kind:m ~sid:"" ~site:"" s)
    (deref_summaries t);
  List.iter
    (fun (k, s) -> row ~scope:"episode" ~kind:k ~sid:"" ~site:"" s)
    (episode_summaries t);
  List.iter
    (fun (k, s) -> row ~scope:"request" ~kind:k ~sid:"" ~site:"" s)
    (request_summaries t);
  List.iter
    (fun (sid, label, m, s) ->
      row ~scope:"site" ~kind:m ~sid:(string_of_int sid) ~site:label s)
    (site_summaries ?site_names t);
  Buffer.contents buf
