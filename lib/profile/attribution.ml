(* Charge migration latency, cache-miss stalls, revalidation stalls, and
   return-stub overhead back to dereference sites, from the flat events
   of a span stream alone.

   Send/arrive pairing is per thread id in FIFO order (a thread is
   one-shot; its hops are ordered), the same pairing the latency
   histograms in [Recorder] use.  A return stub has no site of its own —
   it is the tail end of a migration — so its latency is charged to the
   site of the thread's most recent migration. *)

module C = Olden_config
module Span = Olden_span.Span

type entry = {
  site : int;
  name : string;
  migrations : int;
  migration_cycles : int;
  returns : int;
  return_cycles : int;
  misses : int;
  miss_cycles : int;
  revalidations : int;
  revalidate_cycles : int;
}

type acc = {
  mutable a_migrations : int;
  mutable a_migration_cycles : int;
  mutable a_returns : int;
  mutable a_return_cycles : int;
  mutable a_misses : int;
  mutable a_miss_cycles : int;
  mutable a_revalidations : int;
  mutable a_revalidate_cycles : int;
}

let total e =
  e.migration_cycles + e.return_cycles + e.miss_cycles + e.revalidate_cycles

let grand_total entries = List.fold_left (fun s e -> s + total e) 0 entries

type pending = { p_site : int; p_sent : int; p_is_return : bool }

let of_spans ?(site_name = fun (_ : int) -> None) ~(costs : C.costs) spans =
  let accs : (int, acc) Hashtbl.t = Hashtbl.create 32 in
  let acc site =
    match Hashtbl.find_opt accs site with
    | Some a -> a
    | None ->
        let a =
          {
            a_migrations = 0;
            a_migration_cycles = 0;
            a_returns = 0;
            a_return_cycles = 0;
            a_misses = 0;
            a_miss_cycles = 0;
            a_revalidations = 0;
            a_revalidate_cycles = 0;
          }
        in
        Hashtbl.add accs site a;
        a
  in
  (* per-thread in-flight hops and the site of the last migration, for
     charging the eventual return stub *)
  let in_flight : (int, pending Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let queue_for tid =
    match Hashtbl.find_opt in_flight tid with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add in_flight tid q;
        q
  in
  let last_migration_site : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let miss_cost = C.miss_round_trip costs in
  let revalidate_cost =
    (2 * costs.C.net_latency) + costs.C.timestamp_service
  in
  Array.iter
    (fun (ev : Span.span) ->
      match ev.kind with
      | Migrate_send ->
          Hashtbl.replace last_migration_site ev.tid ev.site;
          Queue.push
            { p_site = ev.site; p_sent = ev.t0; p_is_return = false }
            (queue_for ev.tid)
      | Return_send ->
          let site =
            Option.value ~default:(-1)
              (Hashtbl.find_opt last_migration_site ev.tid)
          in
          Queue.push
            { p_site = site; p_sent = ev.t0; p_is_return = true }
            (queue_for ev.tid)
      | Migrate_arrive | Return_arrive -> (
          match Queue.take_opt (queue_for ev.tid) with
          | None -> ()
          | Some p ->
              let a = acc p.p_site in
              let latency = ev.t0 - p.p_sent in
              if p.p_is_return then begin
                a.a_returns <- a.a_returns + 1;
                a.a_return_cycles <- a.a_return_cycles + latency
              end
              else begin
                a.a_migrations <- a.a_migrations + 1;
                a.a_migration_cycles <- a.a_migration_cycles + latency
              end)
      | Cache_miss ->
          let a = acc ev.site in
          a.a_misses <- a.a_misses + 1;
          a.a_miss_cycles <- a.a_miss_cycles + miss_cost
      | Revalidate ->
          let a = acc ev.site in
          a.a_revalidations <- a.a_revalidations + 1;
          a.a_revalidate_cycles <- a.a_revalidate_cycles + revalidate_cost
      | _ -> ())
    spans;
  Hashtbl.fold
    (fun site a rest ->
      let name =
        if site < 0 then "<unattributed>"
        else
          match site_name site with
          | Some n -> n
          | None -> Printf.sprintf "site#%d" site
      in
      {
        site;
        name;
        migrations = a.a_migrations;
        migration_cycles = a.a_migration_cycles;
        returns = a.a_returns;
        return_cycles = a.a_return_cycles;
        misses = a.a_misses;
        miss_cycles = a.a_miss_cycles;
        revalidations = a.a_revalidations;
        revalidate_cycles = a.a_revalidate_cycles;
      }
      :: rest)
    accs []
  |> List.filter (fun e -> total e > 0)
  |> List.sort (fun a b ->
         match compare (total b) (total a) with
         | 0 -> compare a.site b.site
         | c -> c)

let pp_table ppf entries =
  let gt = grand_total entries in
  Format.fprintf ppf
    "%-34s %6s %12s %6s %10s %6s %10s %10s %6s@." "site" "migr" "migr-cyc"
    "ret" "ret-cyc" "miss" "miss-cyc" "total" "%";
  List.iter
    (fun e ->
      let pct =
        if gt = 0 then 0. else 100. *. float_of_int (total e) /. float_of_int gt
      in
      Format.fprintf ppf "%-34s %6d %12d %6d %10d %6d %10d %10d %5.1f%%@."
        e.name e.migrations e.migration_cycles e.returns e.return_cycles
        (e.misses + e.revalidations)
        (e.miss_cycles + e.revalidate_cycles)
        (total e) pct)
    entries;
  Format.fprintf ppf "%-34s %6s %12s %6s %10s %6s %10s %10d 100.0%%@."
    "TOTAL" "" "" "" "" "" "" gt

let folded ?(prefix = "olden") entries =
  let b = Buffer.create 1024 in
  let line name component cycles =
    if cycles > 0 then
      Buffer.add_string b
        (Printf.sprintf "%s;%s;%s %d\n" prefix name component cycles)
  in
  List.iter
    (fun e ->
      line e.name "migration" e.migration_cycles;
      line e.name "return" e.return_cycles;
      line e.name "cache-miss" e.miss_cycles;
      line e.name "revalidate" e.revalidate_cycles)
    entries;
  Buffer.contents b
