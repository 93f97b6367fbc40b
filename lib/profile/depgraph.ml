(* Build the dependency DAG the flat events of a span stream imply.

   One forward pass maintains, per thread, the index of its previous
   event; per processor, the index of the previous event there; and per
   future id, the index of its resolve.  Each event's realized
   predecessor is whichever candidate finished last (ties go to the
   candidate emitted latest, which matches the scheduler's tie-breaking
   on sequence numbers — later emission means a later or equal effect). *)

module Span = Olden_span.Span

type edge =
  | Start
  | Program of int
  | Processor of int
  | Resolve of int

let predecessor = function
  | Start -> None
  | Program i | Processor i | Resolve i -> Some i

type t = {
  events : Span.span array;
  realized : edge array;
}

let build spans =
  let events = Span.flat spans in
  let n = Array.length events in
  let realized = Array.make n Start in
  let last_of_tid : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let last_of_proc : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let resolve_of_fid : (int, int) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let ev = events.(i) in
    let candidates = ref [] in
    (match Hashtbl.find_opt last_of_proc ev.Span.proc with
    | Some j -> candidates := Processor j :: !candidates
    | None -> ());
    (match Hashtbl.find_opt last_of_tid ev.Span.tid with
    | Some j -> (
        candidates := Program j :: !candidates;
        (* a thread resuming after a parked touch additionally waited for
           the future's resolve *)
        let prev = events.(j) in
        if prev.Span.kind = Span.Future_touch && prev.Span.b <> 0 then
          match Hashtbl.find_opt resolve_of_fid prev.Span.a with
          | Some r -> candidates := Resolve r :: !candidates
          | None -> ())
    | None -> ());
    (* the latest-finishing dependency wins; ties prefer the latest
       emission (larger index) for determinism *)
    let best =
      List.fold_left
        (fun best edge ->
          match predecessor edge with
          | None -> best
          | Some j -> (
              let key = (events.(j).Span.t0, j) in
              match best with
              | None -> Some (key, edge)
              | Some (bkey, _) when key > bkey -> Some (key, edge)
              | Some _ -> best))
        None !candidates
    in
    (match best with Some (_, edge) -> realized.(i) <- edge | None -> ());
    Hashtbl.replace last_of_tid ev.Span.tid i;
    Hashtbl.replace last_of_proc ev.Span.proc i;
    if ev.Span.kind = Span.Future_resolve then
      Hashtbl.replace resolve_of_fid ev.Span.a i
  done;
  { events; realized }

let last t =
  let n = Array.length t.events in
  if n = 0 then None
  else begin
    let best = ref 0 in
    for i = 1 to n - 1 do
      (* >= : ties resolve toward the latest emission *)
      if t.events.(i).Span.t0 >= t.events.(!best).Span.t0 then best := i
    done;
    Some !best
  end

let chain t =
  match last t with
  | None -> []
  | Some stop ->
      let rec walk i acc =
        let acc = i :: acc in
        match predecessor t.realized.(i) with
        | Some j -> walk j acc
        | None -> acc
      in
      walk stop []
