(** Compact textual digest of the flat events of a span stream (for
    [olden-run spans --head]): totals per kind, per-processor activity,
    phase marks, and the first [head] raw events. *)

val pp :
  ?site_name:(int -> string option) ->
  ?head:int ->
  Format.formatter ->
  Olden_span.Span.span array ->
  unit
