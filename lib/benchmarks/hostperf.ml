(* Simulated operation events of a run, the denominator of the host
   throughput figures that benchmark/ reports. *)

let events_of (st : Stats.t) =
  st.Stats.migrations + st.Stats.returns + st.Stats.futures + st.Stats.touches
  + st.Stats.steals + st.Stats.local_refs + st.Stats.cacheable_reads
  + st.Stats.cacheable_writes + st.Stats.messages
