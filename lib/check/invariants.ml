(* Coherence and delivery invariants over a finished run.

   The fault layer (Fault_plan + the retry protocol in Machine and the
   engine) is allowed to change *when* things happen — retransmission
   waits, delivery delays, degraded migrations — but never *what* state
   the protocols apply: each message's effect must land exactly once, no
   write may be lost, and the home directories must stay consistent with
   the sharers' translation tables.  This module audits those claims after
   a run completes; the chaos harness and tests fail on any violation. *)

module C = Olden_config
module E = Olden_runtime.Engine
module Cache = Olden_cache.Cache_system
module Directory = Olden_cache.Directory
module Translation = Olden_cache.Translation
module Recovery = Olden_recovery.Recovery
module Failover = Olden_recovery.Failover
module G = Olden_config.Geometry

type violation = { rule : string; detail : string }

let violation rule fmt = Printf.ksprintf (fun detail -> { rule; detail }) fmt

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.rule v.detail

let heap_digest engine = Memory.digest (E.memory engine)

(* Every duplicate delivery the network minted (or retransmission of an
   already-serviced message) must have been discarded by the receiver's
   sequence-number check: the exactly-once property of the idempotent
   receive path. *)
let check_exactly_once (s : Stats.t) =
  if s.Stats.duplicates_suppressed = s.Stats.msg_duplicates then []
  else
    [
      violation "exactly-once"
        "%d duplicate deliveries but %d suppressed by the sequence check"
        s.Stats.msg_duplicates s.Stats.duplicates_suppressed;
    ]

(* Outage drops are a subset of all drops, and retry timers only ever run
   when something was lost. *)
let check_fault_counters (s : Stats.t) =
  let faults = []
  in
  let faults =
    if s.Stats.outage_drops <= s.Stats.msg_drops then faults
    else
      violation "fault-counters" "outage_drops=%d exceeds msg_drops=%d"
        s.Stats.outage_drops s.Stats.msg_drops
      :: faults
  in
  if s.Stats.msg_drops = 0 && s.Stats.retries > 0 then
    violation "fault-counters" "%d retries with no recorded drops"
      s.Stats.retries
    :: faults
  else faults

(* The profiler's accounting identity: every processor's makespan is
   exactly busy + comm + idle, even with retry stalls charged as
   communication. *)
let check_accounting machine =
  let n = Machine.nprocs machine in
  let span = Machine.makespan machine in
  let busy = Machine.busy_cycles machine in
  let comm = Machine.comm_cycles machine in
  let idle = Machine.idle_cycles machine in
  let bad = ref [] in
  for p = n - 1 downto 0 do
    if busy.(p) + comm.(p) + idle.(p) <> span then
      bad :=
        violation "accounting"
          "p%d: busy=%d + comm=%d + idle=%d <> makespan=%d" p busy.(p)
          comm.(p) idle.(p) span
        :: !bad
  done;
  !bad

(* Global scheme: a processor holding any valid line of a remote page must
   appear in the home directory's sharer set for that page — the home can
   over-approximate (a flushed copy is only discovered at the next
   release) but must never lose a sharer, or an invalidation would miss a
   live copy. *)
let check_sharer_sets engine =
  match (E.config engine).C.coherence with
  | C.Local | C.Bilateral -> [] (* no sharer tracking in these schemes *)
  | C.Global ->
      let cache = E.cache engine in
      let nprocs = Machine.nprocs (E.machine engine) in
      let bad = ref [] in
      for proc = 0 to nprocs - 1 do
        Translation.iter (Cache.table cache proc) (fun e ->
            if e.Translation.valid <> 0 then begin
              let mask =
                Directory.sharer_mask
                  (Cache.directory cache e.Translation.home)
                  e.Translation.page_index
              in
              if mask land (1 lsl proc) = 0 then
                bad :=
                  violation "sharer-sets"
                    "p%d holds %d valid line(s) of page %d homed at p%d \
                     but is not in the directory's sharer set"
                    proc
                    (let rec pop m = if m = 0 then 0 else (m land 1) + pop (m lsr 1) in
                     pop e.Translation.valid)
                    e.Translation.page_index e.Translation.home
                  :: !bad
            end)
      done;
      !bad

(* Recovery's sharer-epoch invariant (global scheme): once a processor
   crashes, every directory entry still naming it as a sharer must be a
   *re*-registration from after the crash — the warm-restart prune struck
   the stale ones, and anything the victim fetched since carries a
   registration stamp (in the victim's own clock domain) at or past its
   crash epoch.  A pre-crash stamp surviving in a live mask means a home
   missed the recovery announcement and would keep invalidating a copy
   that no longer exists. *)
let check_sharer_epochs engine =
  match E.recovery engine with
  | None -> []
  | Some r -> (
      match (E.config engine).C.coherence with
      | C.Local | C.Bilateral -> []
      | C.Global ->
          let cache = E.cache engine in
          let nprocs = Machine.nprocs (E.machine engine) in
          let bad = ref [] in
          for home = 0 to nprocs - 1 do
            let dir = Cache.directory cache home in
            Directory.iter_pages dir (fun page_index p ->
                let mask = p.Directory.sharers in
                for proc = 0 to nprocs - 1 do
                  if mask land (1 lsl proc) <> 0 then begin
                    let crashed_at = Recovery.last_crash_time r ~proc in
                    if crashed_at >= 0 then
                      let registered =
                        Directory.registered_at dir ~page_index ~proc
                      in
                      if registered < crashed_at then
                        bad :=
                          violation "sharer-epoch"
                            "home p%d still names p%d as sharer of page %d \
                             registered at t=%d, before its crash at t=%d"
                            home proc page_index registered crashed_at
                          :: !bad
                  end
                done)
          done;
          !bad)

(* Crash-counter sanity: the global counters must agree with the recovery
   layer's per-processor ledger, and under the global scheme every crash
   announces to exactly [nprocs - 1] homes. *)
let check_crash_counters engine (s : Stats.t) =
  match E.recovery engine with
  | None -> []
  | Some r ->
      let total = Recovery.total_crashes r in
      let bad =
        if s.Stats.crashes = total then []
        else
          [
            violation "crash-counters"
              "Stats.crashes=%d but the recovery ledger holds %d"
              s.Stats.crashes total;
          ]
      in
      let expected_msgs =
        match (E.config engine).C.coherence with
        | C.Global -> total * (Machine.nprocs (E.machine engine) - 1)
        | C.Local | C.Bilateral -> 0
      in
      if s.Stats.recovery_messages = expected_msgs then bad
      else
        violation "crash-counters"
          "recovery_messages=%d, expected %d (%d crash(es) under %s)"
          s.Stats.recovery_messages expected_msgs total
          (C.coherence_to_string (E.config engine).C.coherence)
        :: bad

(* Fail-stop failover invariants: no send may ever have resolved to a
   dead processor (the home map must always have been rewritten before
   traffic could chase a corpse); after the run every owner's home entry
   names a live server; the death counters agree between Stats, the
   machine's live set, and the failover ledger; and deaths can only have
   happened with a replication layer configured to absorb them. *)
let check_failover engine (s : Stats.t) =
  match E.failover engine with
  | None -> []
  | Some fo ->
      let machine = E.machine engine in
      let nprocs = Machine.nprocs machine in
      let bad = ref [] in
      if Machine.dead_sends machine > 0 then
        bad :=
          violation "failover" "%d send(s) resolved to a dead processor"
            (Machine.dead_sends machine)
          :: !bad;
      for owner = nprocs - 1 downto 0 do
        let h = Machine.home_of machine owner in
        if Machine.is_dead machine h then
          bad :=
            violation "failover"
              "owner p%d's home map names p%d, which is dead" owner h
          :: !bad
      done;
      let dead = nprocs - Machine.live_count machine in
      if s.Stats.failstops <> dead then
        bad :=
          violation "failover"
            "Stats.failstops=%d but %d processor(s) are dead"
            s.Stats.failstops dead
          :: !bad;
      if Failover.failstops fo <> dead then
        bad :=
          violation "failover"
            "failover ledger holds %d death(s) but %d processor(s) are dead"
            (Failover.failstops fo) dead
          :: !bad;
      (match (E.config engine).C.replication with
      | None when dead > 0 ->
          bad :=
            violation "failover"
              "%d fail-stop(s) survived with no replication configured" dead
            :: !bad
      | _ -> ());
      !bad

(* No structurally impossible cache entries: caches hold remote pages
   only (a processor's own section is always accessed directly), and a
   valid line's local copy exists. *)
let check_tables engine =
  let cache = E.cache engine in
  let nprocs = Machine.nprocs (E.machine engine) in
  let bad = ref [] in
  for proc = 0 to nprocs - 1 do
    Translation.iter (Cache.table cache proc) (fun e ->
        if e.Translation.home = proc then
          bad :=
            violation "tables" "p%d caches page %d of its own section" proc
              e.Translation.page_index
            :: !bad;
        if Word.length e.Translation.data <> G.words_per_page then
          bad :=
            violation "tables" "p%d: page %d copy has %d words (want %d)"
              proc e.Translation.page_index
              (Word.length e.Translation.data)
              G.words_per_page
            :: !bad)
  done;
  !bad

(* Final heap vs the fault-free reference: faults may reorder and delay,
   but every write must land and land once, so the heaps must be
   structurally equal. *)
let check_heap ~expected engine =
  let got = heap_digest engine in
  if String.equal got expected then []
  else
    [
      violation "heap" "final heap digest %s differs from fault-free %s" got
        expected;
    ]

(* Run every applicable invariant; [expected_heap] (the digest of a
   fault-free run of the same program and configuration) enables the
   whole-heap comparison. *)
let check ?expected_heap engine =
  let s = Machine.stats (E.machine engine) in
  let violations =
    check_exactly_once s
    @ check_fault_counters s
    @ check_accounting (E.machine engine)
    @ check_sharer_sets engine
    @ check_sharer_epochs engine
    @ check_crash_counters engine s
    @ check_failover engine s
    @ check_tables engine
    @
    match expected_heap with
    | None -> []
    | Some expected -> check_heap ~expected engine
  in
  (* a violated run is a failure like a deadlock: if the flight recorder
     was running, preserve its last span events for the post-mortem *)
  (if violations <> [] then
     let reason =
       Printf.sprintf "invariant-check failure: [%s] %s"
         (List.hd violations).rule (List.hd violations).detail
     in
     ignore
       (Olden_span.Span.flight_dump ~reason ~state:(E.flight_state engine)));
  violations
