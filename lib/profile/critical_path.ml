(* Critical-path analysis: walk the realized-dependency chain built by
   [Depgraph] and classify every hop by what the elapsed time was spent
   on. *)

module Span = Olden_span.Span

type hop_class = Compute | Migration | Return | Future_wait | Steal

let hop_class_name = function
  | Compute -> "compute"
  | Migration -> "migration"
  | Return -> "return"
  | Future_wait -> "future-wait"
  | Steal -> "steal"

type hop = {
  index : int;
  ev : Span.span;
  cost : int;
  cls : hop_class;
}

type t = {
  hops : hop list;
  span : int;
  length : int;
  compute_cycles : int;
  migration_cycles : int;
  return_cycles : int;
  wait_cycles : int;
  steal_cycles : int;
  what_if_free_migration : int;
}

(* What the gap between an event and its realized predecessor was spent
   on.  The arriving end of a hop names the mechanism: an arrival means
   the thread was in flight, a post-park event reached through a Resolve
   edge means the thread was waiting on the future. *)
let classify (edge : Depgraph.edge) (ev : Span.span) =
  match ev.Span.kind with
  | Span.Migrate_arrive -> Migration
  | Span.Return_arrive -> Return
  | Span.Steal -> Steal
  | _ -> ( match edge with Depgraph.Resolve _ -> Future_wait | _ -> Compute)

let analyze spans =
  let g = Depgraph.build spans in
  let indices = Depgraph.chain g in
  let hops =
    List.map
      (fun i ->
        let ev = g.Depgraph.events.(i) in
        let edge = g.Depgraph.realized.(i) in
        let cost =
          match Depgraph.predecessor edge with
          | None -> ev.Span.t0 (* from t = 0 to the first event *)
          | Some j -> max 0 (ev.Span.t0 - g.Depgraph.events.(j).Span.t0)
        in
        { index = i; ev; cost; cls = classify edge ev })
      indices
  in
  let sum cls =
    List.fold_left
      (fun acc h -> if h.cls = cls then acc + h.cost else acc)
      0 hops
  in
  let span =
    match List.rev hops with [] -> 0 | last :: _ -> last.ev.Span.t0
  in
  let migration_cycles = sum Migration and return_cycles = sum Return in
  {
    hops;
    span;
    length = List.length hops;
    compute_cycles = sum Compute;
    migration_cycles;
    return_cycles;
    wait_cycles = sum Future_wait;
    steal_cycles = sum Steal;
    what_if_free_migration = span - migration_cycles - return_cycles;
  }

let pp ?(site_name = fun (_ : int) -> None) ?(tail = 0) ppf t =
  Format.fprintf ppf "critical path: %d events, span %d cycles@." t.length
    t.span;
  let pct c =
    if t.span = 0 then 0. else 100. *. float_of_int c /. float_of_int t.span
  in
  List.iter
    (fun (label, c) ->
      if c > 0 then Format.fprintf ppf "  %-12s %10d cycles (%5.1f%%)@." label c (pct c))
    [
      ("compute", t.compute_cycles);
      ("migration", t.migration_cycles);
      ("return", t.return_cycles);
      ("future-wait", t.wait_cycles);
      ("steal", t.steal_cycles);
    ];
  Format.fprintf ppf
    "what-if (migrations free): %d cycles (%.2fx of the traced span)@."
    t.what_if_free_migration
    (if t.span = 0 then 1.
     else float_of_int t.what_if_free_migration /. float_of_int t.span);
  if tail > 0 && t.hops <> [] then begin
    let hops = Array.of_list t.hops in
    let n = Array.length hops in
    let first = max 0 (n - tail) in
    Format.fprintf ppf "last %d hops:@." (n - first);
    for i = first to n - 1 do
      let h = hops.(i) in
      let site =
        if h.ev.Span.site < 0 then ""
        else
          match site_name h.ev.Span.site with
          | Some s -> " site=" ^ s
          | None -> Printf.sprintf " site=%d" h.ev.Span.site
      in
      Format.fprintf ppf "  [t=%8d p=%2d tid=%d] %-14s +%-8d %s%s@."
        h.ev.Span.t0 h.ev.Span.proc h.ev.Span.tid
        (Span.kind_name h.ev.Span.kind)
        h.cost
        (hop_class_name h.cls)
        site
    done
  end

(* --- Per-processor accounting ------------------------------------------ *)

type proc_row = {
  proc : int;
  busy : int;
  comm : int;
  idle : int;
  recovery : int;
}

let breakdown ?(recovery = [||]) ~makespan ~busy ~comm () =
  List.init (Array.length busy) (fun p ->
      let b = busy.(p) and c = comm.(p) in
      let r = if p < Array.length recovery then recovery.(p) else 0 in
      { proc = p; busy = b; comm = c; idle = makespan - b - c; recovery = r })

let pp_breakdown ppf ~makespan rows =
  let with_recovery = List.exists (fun r -> r.recovery > 0) rows in
  let pct c =
    if makespan = 0 then 0.
    else 100. *. float_of_int c /. float_of_int makespan
  in
  if with_recovery then
    Format.fprintf ppf "%-5s %12s %12s %12s %12s  %s@." "proc" "busy" "comm"
      "idle" "recovery" "busy%"
  else
    Format.fprintf ppf "%-5s %12s %12s %12s  %s@." "proc" "busy" "comm" "idle"
      "busy%";
  List.iter
    (fun r ->
      if with_recovery then
        Format.fprintf ppf "p%-4d %12d %12d %12d %12d  %5.1f%%@." r.proc
          r.busy r.comm r.idle r.recovery (pct r.busy)
      else
        Format.fprintf ppf "p%-4d %12d %12d %12d  %5.1f%%@." r.proc r.busy
          r.comm r.idle (pct r.busy))
    rows;
  let tb = List.fold_left (fun a r -> a + r.busy) 0 rows in
  let tc = List.fold_left (fun a r -> a + r.comm) 0 rows in
  let ti = List.fold_left (fun a r -> a + r.idle) 0 rows in
  Format.fprintf ppf "%-5s %12d %12d %12d  (sum = %d x makespan %d)@." "all"
    tb tc ti (List.length rows) makespan
