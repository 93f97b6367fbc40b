(* A registry of named counters and histograms.

   This generalizes the flat [Stats] record: metrics are created on
   demand, carry label sets (e.g. [("proc", "3")] or [("site",
   "treeadd.t->left")]), and snapshot to a stable JSON schema — entries
   sorted by name then labels, so two identical runs serialize to
   identical bytes.

   Histograms use power-of-two buckets: observation [v] lands in bucket
   [ceil(log2 (v + 1))], i.e. bucket upper bounds 0, 1, 3, 7, 15, ... —
   cheap, and wide enough for cycle-scale latencies. *)

type labels = (string * string) list

type counter = { mutable count : int }

let buckets_count = 48 (* covers every value an OCaml int can hold *)

type histogram = {
  mutable observations : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
  buckets : int array; (* buckets.(i): observations <= 2^i - 1 *)
}

type metric =
  | Counter of counter
  | Histogram of histogram

type t = { table : (string * labels, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let normalize labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let counter t ?(labels = []) name =
  let key = (name, normalize labels) in
  match Hashtbl.find_opt t.table key with
  | Some (Counter c) -> c
  | Some (Histogram _) ->
      invalid_arg ("Metrics.counter: " ^ name ^ " is a histogram")
  | None ->
      let c = { count = 0 } in
      Hashtbl.add t.table key (Counter c);
      c

let add c n = c.count <- c.count + n
let inc c = add c 1
let count c = c.count

let histogram t ?(labels = []) name =
  let key = (name, normalize labels) in
  match Hashtbl.find_opt t.table key with
  | Some (Histogram h) -> h
  | Some (Counter _) ->
      invalid_arg ("Metrics.histogram: " ^ name ^ " is a counter")
  | None ->
      let h =
        {
          observations = 0;
          sum = 0;
          min_v = max_int;
          max_v = min_int;
          buckets = Array.make buckets_count 0;
        }
      in
      Hashtbl.add t.table key (Histogram h);
      h

(* Top-level so that [observe] allocates nothing: a local loop closing
   over [v] would cost a closure per observation. *)
let rec bucket_from v i bound =
  if v <= bound || i = buckets_count - 1 then i
  else bucket_from v (i + 1) ((2 * bound) + 1)

let bucket_of v = bucket_from (max 0 v) 0 0

let observe h v =
  h.observations <- h.observations + 1;
  h.sum <- h.sum + v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let observations h = h.observations
let sum h = h.sum
let min_value h = if h.observations = 0 then 0 else h.min_v
let max_value h = if h.observations = 0 then 0 else h.max_v

let mean h =
  if h.observations = 0 then 0.
  else float_of_int h.sum /. float_of_int h.observations

(* Populated buckets in increasing bound order, as (upper bound, count). *)
let iter_buckets h f =
  let bound = ref 0 in
  Array.iteri
    (fun i n ->
      if n > 0 then f ~le:!bound ~n;
      if i < buckets_count - 1 then bound := (2 * !bound) + 1)
    h.buckets

(* Exact-rank quantile over the log-bucketed data: the smallest bucket
   upper bound covering at least [ceil (q * count)] observations, clamped
   to the observed maximum.  The rank is exact; the returned value is an
   upper bound on the true quantile tight to the bucket resolution (a
   factor of two), and exact when the histogram holds one distinct value.
   Empty histogram: 0. *)
let quantile h q =
  if h.observations = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.observations)) in
      if r < 1 then 1 else if r > h.observations then h.observations else r
    in
    let result = ref 0 in
    let cum = ref 0 in
    (try
       iter_buckets h (fun ~le ~n ->
           cum := !cum + n;
           if !cum >= rank then begin
             result := le;
             raise Exit
           end)
     with Exit -> ());
    if !result > h.max_v then h.max_v else !result
  end

(* --- Snapshots --------------------------------------------------------- *)

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let histogram_json h =
  (* only the populated prefix of the bucket array, as (upper bound,
     count) pairs with empty buckets skipped *)
  let cells = ref [] in
  let bound = ref 0 in
  Array.iteri
    (fun i n ->
      if n > 0 then cells := (!bound, n) :: !cells;
      if i < buckets_count - 1 then bound := (2 * !bound) + 1)
    h.buckets;
  let mean =
    if h.observations = 0 then 0.
    else float_of_int h.sum /. float_of_int h.observations
  in
  Json.Obj
    [
      ("count", Json.Int h.observations);
      ("sum", Json.Int h.sum);
      ("min", Json.Int (if h.observations = 0 then 0 else h.min_v));
      ("max", Json.Int (if h.observations = 0 then 0 else h.max_v));
      ("mean", Json.Float mean);
      ( "buckets",
        Json.List
          (List.rev_map
             (fun (le, n) ->
               Json.Obj [ ("le", Json.Int le); ("n", Json.Int n) ])
             !cells) );
    ]

let sorted_entries t =
  Hashtbl.fold (fun key metric acc -> (key, metric) :: acc) t.table []
  |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)

let render_common (name, labels) =
  let common = [ ("name", Json.String name) ] in
  if labels = [] then common else common @ [ ("labels", labels_json labels) ]

let to_json t =
  let render (key, metric) =
    let common = render_common key in
    match metric with
    | Counter c -> Json.Obj (common @ [ ("value", Json.Int c.count) ])
    | Histogram h -> Json.Obj (common @ [ ("histogram", histogram_json h) ])
  in
  Json.List (List.map render (sorted_entries t))

(* --- Windowed deltas --------------------------------------------------- *)

type snapshot = (string * labels, metric) Hashtbl.t

let copy_metric = function
  | Counter c -> Counter { count = c.count }
  | Histogram h -> Histogram { h with buckets = Array.copy h.buckets }

let snapshot t =
  let s = Hashtbl.create (max 16 (Hashtbl.length t.table)) in
  Hashtbl.iter (fun key metric -> Hashtbl.replace s key (copy_metric metric)) t.table;
  s

let zero_histogram =
  {
    observations = 0;
    sum = 0;
    min_v = max_int;
    max_v = min_int;
    buckets = Array.make buckets_count 0;
  }

let delta_json t ~since =
  let render (key, metric) =
    match metric with
    | Counter c ->
        let before =
          match Hashtbl.find_opt since key with
          | Some (Counter o) -> o.count
          | _ -> 0
        in
        let d = c.count - before in
        if d = 0 then None
        else Some (Json.Obj (render_common key @ [ ("value", Json.Int d) ]))
    | Histogram h ->
        let before =
          match Hashtbl.find_opt since key with
          | Some (Histogram o) -> o
          | _ -> zero_histogram
        in
        let dcount = h.observations - before.observations in
        if dcount = 0 then None
        else begin
          let cells = ref [] in
          let bound = ref 0 in
          Array.iteri
            (fun i n ->
              let grew = n - before.buckets.(i) in
              if grew > 0 then cells := (!bound, grew) :: !cells;
              if i < buckets_count - 1 then bound := (2 * !bound) + 1)
            h.buckets;
          let hist =
            Json.Obj
              [
                ("count", Json.Int dcount);
                ("sum", Json.Int (h.sum - before.sum));
                ( "buckets",
                  Json.List
                    (List.rev_map
                       (fun (le, n) ->
                         Json.Obj [ ("le", Json.Int le); ("n", Json.Int n) ])
                       !cells) );
              ]
          in
          Some (Json.Obj (render_common key @ [ ("histogram", hist) ]))
        end
  in
  Json.List (List.filter_map render (sorted_entries t))
