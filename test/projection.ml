(* Projections of a span stream onto the two formats it replaced, so the
   goldens committed in those formats keep pinning the stream byte for
   byte:

   - [trace_jsonl]: the flat events as the old trace stream's JSONL, one
     [{"t","proc","tid","site","ev",<payload>}] object per line — the
     format of golden/treeadd_p2_trace.jsonl and of the kernel pins;
   - [spans_v1]: the causal spans as the olden-spans/v1 export — the
     format of golden/treeadd_p2_spans.jsonl.  A v2 causal line is a v1
     line, so this drops the flat events and restates the header. *)

open Olden

let lines b jsons =
  List.iter
    (fun j ->
      Json.to_buffer b j;
      Buffer.add_char b '\n')
    jsons;
  Buffer.contents b

let trace_jsonl spans =
  Span.flat spans |> Array.to_list
  |> List.map (fun (sp : Span.span) ->
         Json.Obj
           ([
              ("t", Json.Int sp.Span.t0);
              ("proc", Json.Int sp.Span.proc);
              ("tid", Json.Int sp.Span.tid);
              ("site", Json.Int sp.Span.site);
              ("ev", Json.String (Span.kind_name sp.Span.kind));
            ]
           @ Span.payload sp))
  |> lines (Buffer.create 4096)

let spans_v1 spans =
  let causal =
    Array.to_list spans
    |> List.filter (fun (sp : Span.span) -> not (Span.is_flat sp.Span.kind))
  in
  Json.Obj
    [
      ("schema", Json.String "olden-spans/v1");
      ("spans", Json.Int (List.length causal));
    ]
  :: List.map Span.span_json causal
  |> lines (Buffer.create 4096)
