(** Derive a {!Olden_trace.Metrics} registry from the flat events of a
    span stream: per-kind, per-processor, and per-site counters,
    migration/return latency histograms, and cache-miss-burst
    histograms.  The causal spans of the stream are ignored.

    [site_name] maps a dereference-site id to a human-readable name for
    the per-site labels (default: ids only).  [site_table] is the same
    thing as an association table — pass the runtime's site registry
    (e.g. [Site.labels ()], entries like ["t->left@treeadd"]) so the
    labels read [field@function] end-to-end; when both are given the
    table wins and [site_name] covers ids the table misses. *)

val of_spans :
  ?site_table:(int * string) list ->
  ?site_name:(int -> string option) ->
  Olden_span.Span.span array ->
  Olden_trace.Metrics.t

val lookup : (int * string) list -> int -> string option
(** A site-name table as a lookup function (hashed once; shared by the
    profiler and the stream summary). *)
