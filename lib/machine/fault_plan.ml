(* Deterministic fault injection for the simulated network.

   The paper's runtime rides the CM-5's reliable active messages; this
   module removes that assumption.  A fault plan is a *seeded schedule*:
   every decision — drop this attempt, delay it, duplicate it, take this
   handler down for a window — is a pure function of the plan's seed and
   the message's identity (sequence number, attempt number, leg), drawn
   through the runtime's splitmix64 {!Prng}.  Nothing depends on host
   state or call order across messages, so a fault schedule replays
   bit-for-bit and two runs with the same seed see the same faults.

   The plan only *decides*; the retry/timeout protocol that reacts to the
   decisions lives in {!Machine} (request/reply and one-way messages) and
   the engine (thread-state transfers). *)

type klass =
  | Data (* cache-line fetches, revalidations, stores, invalidations *)
  | Migration (* forward thread-state transfer to a (possibly flaky) home *)
  | Return (* return-stub thread-state transfer back to the origin *)
  | Recovery (* warm-restart announcement from a crashed processor *)
  | Replica (* write-through mirror of a home store to its backup *)

let klass_to_string = function
  | Data -> "data"
  | Migration -> "migration"
  | Return -> "return"
  | Recovery -> "recovery"
  | Replica -> "replica"

type leg = Forward | Ack

type decision = {
  dropped : bool; (* the attempt vanished in the network *)
  delay : int; (* extra latency (0 when not delayed) *)
  duplicated : bool; (* the attempt was delivered twice *)
}

type t = {
  spec : Olden_config.fault_spec;
  retry : Olden_config.retry_spec;
  mutable next_seq : int; (* logical message sequence numbers *)
  drop : decision; (* a dropped attempt's fate *)
  fates : decision array;
      (* delivered fates, indexed delayed + 2 * duplicated; with [drop]
         the only values [decide] returns, so it allocates nothing *)
}

let create spec retry =
  let fate ~delayed ~duplicated =
    {
      dropped = false;
      delay = (if delayed then spec.Olden_config.delay_cycles else 0);
      duplicated;
    }
  in
  {
    spec;
    retry;
    next_seq = 0;
    drop = { dropped = true; delay = 0; duplicated = false };
    fates =
      [|
        fate ~delayed:false ~duplicated:false;
        fate ~delayed:true ~duplicated:false;
        fate ~delayed:false ~duplicated:true;
        fate ~delayed:true ~duplicated:true;
      |];
  }

let spec t = t.spec
let retry t = t.retry

(* Allocate the sequence number carried by one logical message.  The
   scheduler is deterministic, so allocation order — and with it every
   per-message decision — is reproducible. *)
let fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* One independent splitmix64 stream per (message, attempt, leg): the
   stream key mixes the schedule seed with the message identity, so the
   decision is insensitive to what any other message drew.  Draws are
   taken by index ({!Prng.below}), so no stream is ever built. *)
let key t ~seq ~attempt ~salt =
  t.spec.Olden_config.fault_seed
  lxor (seq * 0x9E3779B9)
  lxor (attempt * 0x85EBCA6B)
  lxor (salt * 0xC2B2AE3D)

let drop_probability t = function
  | Migration -> (
      match t.spec.Olden_config.migrate_drop with
      | Some p -> p
      | None -> t.spec.Olden_config.drop)
  | Data | Return | Recovery | Replica -> t.spec.Olden_config.drop

(* Fixed draw order within the stream: 0 drop, 1 delay, 2 duplicate. *)
let decide t ~klass ~leg ~seq ~attempt =
  let salt = match leg with Forward -> 0x0f0e | Ack -> 0x0acc in
  let key = key t ~seq ~attempt ~salt in
  if Prng.below ~key ~draw:0 (drop_probability t klass) then t.drop
  else
    let delayed = Prng.below ~key ~draw:1 t.spec.Olden_config.delay in
    let duplicated = Prng.below ~key ~draw:2 t.spec.Olden_config.duplicate in
    t.fates.((if delayed then 1 else 0) + if duplicated then 2 else 0)

(* Windowed schedules: simulated time is divided into windows of
   [cycles]; each (processor, window) pair is independently positive
   with probability [p].  Keyed by the window index — not by PRNG call
   order — so every query in the same window agrees. *)
let windowed t ~p ~cycles ~salt ~proc ~time =
  p > 0.
  && cycles > 0
  && Prng.below
       ~key:(key t ~seq:(proc * 0x51ed) ~attempt:(time / cycles) ~salt)
       ~draw:0 p

(* Transient handler outages: every message attempt arriving in the same
   window agrees on whether the handler was up. *)
let handler_down t ~proc ~time =
  let s = t.spec in
  windowed t ~p:s.Olden_config.outage ~cycles:s.Olden_config.outage_cycles
    ~salt:0x0d0c ~proc ~time

(* Crash decisions mirror handler outages, keyed by the window index so
   the decision is insensitive to how often the engine polls.  The
   recovery layer tracks which windows already fired so one positive
   window means one crash. *)
let crash_due t ~proc ~time =
  let s = t.spec in
  windowed t ~p:s.Olden_config.crash ~cycles:s.Olden_config.crash_cycles
    ~salt:0x0c4a ~proc ~time

(* Fail-stop decisions use the same windowed keying as crashes, under a
   distinct salt so the two schedules draw independently.  A positive
   window kills the processor permanently; the failover layer latches the
   death so the window can only fire once. *)
let failstop_due t ~proc ~time =
  let s = t.spec in
  windowed t ~p:s.Olden_config.failstop ~cycles:s.Olden_config.failstop_cycles
    ~salt:0x0f57 ~proc ~time

(* Bounded exponential backoff: wait [timeout * backoff^attempt] cycles
   before retransmission [attempt + 1], capped at [max_timeout].  The
   accumulated wait is capped *inside* the loop: with max_attempts = 64,
   [timeout * backoff^attempt] overflows the host int long before the
   final [min] would apply, and a wrapped-negative wait would move clocks
   backwards. *)
let rec backoff ~factor ~cap wait k =
  if k <= 0 || wait >= cap then wait
  else
    let next = wait * factor in
    if next < wait then cap (* overflow wrapped; the cap dominates *)
    else backoff ~factor ~cap next (k - 1)

let retry_wait t ~attempt =
  let r = t.retry in
  let cap = r.Olden_config.max_timeout in
  min
    (backoff ~factor:r.Olden_config.backoff ~cap r.Olden_config.timeout attempt)
    cap
