(* Compact textual digest of the flat events of a span stream, for
   `olden-run spans --head`: totals per event kind, a per-processor
   activity table, the phase marks, and optionally the first few raw
   events. *)

module Json = Olden_trace.Json
module Span = Olden_span.Span

let pp ?(site_name = fun (_ : int) -> None) ?(head = 0) ppf spans =
  let events = Span.flat spans in
  let n = Array.length events in
  Format.fprintf ppf "%d events@." n;
  if n > 0 then begin
    let first = events.(0) and last = events.(n - 1) in
    Format.fprintf ppf "time span: %d .. %d cycles@." first.Span.t0
      last.Span.t0;
    (* totals per kind *)
    let kinds : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
    let nprocs = ref 0 in
    Array.iter
      (fun (ev : Span.span) ->
        nprocs := max !nprocs (ev.proc + 1);
        let k = Span.kind_name ev.kind in
        match Hashtbl.find_opt kinds k with
        | Some r -> incr r
        | None -> Hashtbl.add kinds k (ref 1))
      events;
    let sorted =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) kinds []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    Format.fprintf ppf "by kind:@.";
    List.iter
      (fun (k, c) -> Format.fprintf ppf "  %-16s %9d@." k c)
      sorted;
    (* per-processor row: total events and the dominant kind there *)
    Format.fprintf ppf "by processor:@.";
    for p = 0 to !nprocs - 1 do
      let mine : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
      let total = ref 0 in
      Array.iter
        (fun (ev : Span.span) ->
          if ev.proc = p then begin
            incr total;
            let k = Span.kind_name ev.kind in
            match Hashtbl.find_opt mine k with
            | Some r -> incr r
            | None -> Hashtbl.add mine k (ref 1)
          end)
        events;
      let top =
        Hashtbl.fold (fun k r acc -> (k, !r) :: acc) mine []
        |> List.sort (fun (ka, a) (kb, b) ->
               match compare b a with 0 -> compare ka kb | c -> c)
      in
      match top with
      | [] -> Format.fprintf ppf "  p%-3d %9d events@." p 0
      | (k, c) :: _ ->
          Format.fprintf ppf "  p%-3d %9d events (mostly %s: %d)@." p !total
            k c
    done;
    (* phase marks *)
    let phases =
      Array.to_list events
      |> List.filter_map (fun (ev : Span.span) ->
             match ev.kind with
             | Phase -> Some (Span.phase_name ev.a, ev.t0)
             | _ -> None)
    in
    if phases <> [] then begin
      Format.fprintf ppf "phases:@.";
      List.iter
        (fun (name, at) -> Format.fprintf ppf "  %-16s t=%d@." name at)
        phases
    end;
    if head > 0 then begin
      Format.fprintf ppf "first %d events:@." (min head n);
      Array.iteri
        (fun i (ev : Span.span) ->
          if i < head then begin
            let site =
              if ev.site < 0 then ""
              else
                match site_name ev.site with
                | Some s -> " site=" ^ s
                | None -> Printf.sprintf " site=%d" ev.site
            in
            Format.fprintf ppf "  [t=%8d p=%2d tid=%d]%s %s@." ev.t0 ev.proc
              ev.tid site
              (Json.to_string (Json.Obj (Span.payload ev)) |> fun args ->
               Span.kind_name ev.kind ^ if args = "{}" then "" else " " ^ args)
          end)
        events
    end
  end
