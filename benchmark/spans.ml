(* Host-time spans recorded by the harness around its own calls into the
   simulator (spans inside lib/ are not recorded).  Spans live in memory
   while a traced pass runs and are written out when the run ends; with
   recording off, [span] is a direct call. *)

module Json = Olden.Json

type t = {
  id : int;
  parent : int;  (** 0 for a root *)
  trace : string;  (** the workload *)
  name : string;
  start : float;  (** host seconds since the process started *)
  stop : float;
  minor_words : float;  (** minor-heap words allocated inside the span *)
}

(* Host seconds on the monotonic clock (nanosecond resolution). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Taken at module initialisation, which is as close to process start as
   the harness gets (the runtime and the simulator libraries initialise
   first, in about a millisecond). *)
let epoch = now ()
let recording = ref false
let trace = ref ""
let next_id = ref 1
let current = ref 0
let finished : t list ref = ref []

let start ~trace:tr =
  recording := true;
  trace := tr

let stop () = recording := false

let span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let close () =
      let t1 = now () in
      current := parent;
      finished :=
        {
          id;
          parent;
          trace = !trace;
          name;
          start = t0 -. epoch;
          stop = t1 -. epoch;
          minor_words = Gc.minor_words () -. w0;
        }
        :: !finished
    in
    Fun.protect ~finally:close f
  end

let all () = List.rev !finished

(* Children of one span run one after another, so their durations add up
   to the part of the parent's interval they cover. *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      Hashtbl.replace covered s.parent
        (d +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt covered s.id) in
      (s, s.stop -. s.start -. kids))
    spans

let to_json s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("trace", Json.String s.trace);
      ("name", Json.String s.name);
      ("start", Json.Float s.start);
      ("end", Json.Float s.stop);
      ("minor_words", Json.Float s.minor_words);
    ]

let write_jsonl path spans =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Json.to_string (to_json s));
          output_char oc '\n')
        spans)

let pp_top ppf spans =
  let rows =
    self_times spans
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.filteri (fun i _ -> i < 12)
  in
  Format.fprintf ppf "top spans by self time:@.";
  Format.fprintf ppf "  %-22s %-36s %10s %10s %14s@." "trace" "span" "self ms"
    "total ms" "minor words";
  List.iter
    (fun (s, self) ->
      Format.fprintf ppf "  %-22s %-36s %10.1f %10.1f %14.0f@." s.trace s.name
        (1000. *. self)
        (1000. *. (s.stop -. s.start))
        s.minor_words)
    rows
