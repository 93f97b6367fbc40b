(** Per-dereference-site cost attribution over the flat events of a span
    stream.

    The paper's mechanism-selection argument is about where remote-access
    cycles go: each dereference site pays for the migrations, cache-line
    fetches, revalidations, and return stubs it causes.  This module
    charges those costs back to sites from the flat events alone:

    - migration latency: each [Migrate_send] paired with the same
      thread's next arrival, the measured send-to-restart time charged
      to the site that migrated;
    - return-stub overhead: each [Return_send]/[Return_arrive] pair,
      charged to the site whose migration the thread is returning from
      (returns carry no site of their own);
    - cache-miss stalls: each [Cache_miss] at the cost-model round trip
      ([Olden_config.miss_round_trip]) — the event is stamped at reply
      time, so the model price is the stall actually paid sans queueing;
    - revalidation stalls (bilateral): each [Revalidate] at
      [2 * net_latency + timestamp_service].

    Events with no site (id [-1], e.g. build-phase flushes) accumulate
    under a single unattributed entry so totals still cover the whole
    stream. *)

type entry = {
  site : int;  (** dereference-site id; [-1] collects unattributed costs *)
  name : string;  (** site label, e.g. ["t->left@treeadd"] *)
  migrations : int;
  migration_cycles : int;  (** measured send-to-arrival latency, summed *)
  returns : int;
  return_cycles : int;
  misses : int;
  miss_cycles : int;
  revalidations : int;
  revalidate_cycles : int;
}

val total : entry -> int
(** All cycles attributed to the entry. *)

val of_spans :
  ?site_name:(int -> string option) ->
  costs:Olden_config.costs ->
  Olden_span.Span.span array ->
  entry list
(** Entries ranked by {!total} descending (ties by site id), empty
    entries dropped. *)

val grand_total : entry list -> int

val pp_table : Format.formatter -> entry list -> unit
(** The ranked per-site cost table. *)

val folded : ?prefix:string -> entry list -> string
(** Folded-stack (flamegraph-collapsed) rendering: one
    ["prefix;site;component cycles"] line per nonzero cost component,
    ready for [flamegraph.pl] or speedscope.  [prefix] defaults to
    ["olden"]. *)
