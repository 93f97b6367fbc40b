(* The benchmark's results file (schema olden-benchmark/v1): provenance
   plus, per workload, every metric with its unit, whether it is a host
   timing or a deterministic simulator output, and the samples behind a
   timing. *)

module Json = Olden.Json

let schema = "olden-benchmark/v1"

(* [Timed] values are host measurements and vary run to run; [Exact]
   values are deterministic for a given seed and build, so two runs of
   the same code must agree bit for bit. *)
type kind = Timed | Exact

type metric = {
  name : string;
  value : float;
  unit_ : string;
  kind : kind;
  samples : float list;  (** one per measured pass or probe; [] if single *)
}

type workload = {
  workload : string;
  config : string list;  (** one line per job *)
  attempted : int;
  failed : int;
  metrics : metric list;
}

type provenance = {
  git_rev : string;
  git_dirty : bool;
  profile : string;
  seed : int;
  nproc : int;
  ocaml : string;
  seconds : int;
}

type t = { provenance : provenance; workloads : workload list }

let timed ?(samples = []) name unit_ value =
  { name; value; unit_; kind = Timed; samples }

let exact name unit_ value = { name; value; unit_; kind = Exact; samples = [] }

let find name (w : workload) = List.find_opt (fun m -> m.name = name) w.metrics

(* --- JSON ------------------------------------------------------------- *)

let metric_to_json m =
  let stats =
    match m.samples with
    | [] -> []
    | xs ->
        let p25, _, p75 = Quartiles.quartiles xs in
        [
          ("p25", Json.Float p25);
          ("p75", Json.Float p75);
          ("n", Json.Int (List.length xs));
          ("samples", Json.List (List.map (fun x -> Json.Float x) xs));
        ]
  in
  Json.Obj
    ([
       ("name", Json.String m.name);
       ("value", Json.Float m.value);
       ("unit", Json.String m.unit_);
       ("kind", Json.String (match m.kind with Timed -> "timed" | Exact -> "exact"));
     ]
    @ stats)

let workload_to_json w =
  Json.Obj
    [
      ("workload", Json.String w.workload);
      ("config", Json.List (List.map (fun c -> Json.String c) w.config));
      ("attempted", Json.Int w.attempted);
      ("failed", Json.Int w.failed);
      ("metrics", Json.List (List.map metric_to_json w.metrics));
    ]

let to_json t =
  let p = t.provenance in
  Json.Obj
    [
      ("schema", Json.String schema);
      ( "provenance",
        Json.Obj
          [
            ("git_rev", Json.String p.git_rev);
            ("git_dirty", Json.Bool p.git_dirty);
            ("profile", Json.String p.profile);
            ("seed", Json.Int p.seed);
            ("nproc", Json.Int p.nproc);
            ("ocaml", Json.String p.ocaml);
            ("seconds", Json.Int p.seconds);
          ] );
      ("workloads", Json.List (List.map workload_to_json t.workloads));
    ]

let write path t =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_pretty_string (to_json t)))

exception Bad of string

let field k j =
  match Json.member k j with
  | Some v -> v
  | None -> raise (Bad ("missing field " ^ k))

let num j =
  match j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> raise (Bad "expected a number")

let str j =
  match Json.string_value j with Some s -> s | None -> raise (Bad "expected a string")

let int j = match Json.int_value j with Some i -> i | None -> raise (Bad "expected an integer")

let metric_of_json j =
  {
    name = str (field "name" j);
    value = num (field "value" j);
    unit_ = str (field "unit" j);
    kind = (match str (field "kind" j) with "exact" -> Exact | _ -> Timed);
    samples =
      (match Json.member "samples" j with
      | Some l -> List.map num (Json.to_list l)
      | None -> []);
  }

let workload_of_json j =
  {
    workload = str (field "workload" j);
    config = List.map str (Json.to_list (field "config" j));
    attempted = int (field "attempted" j);
    failed = int (field "failed" j);
    metrics = List.map metric_of_json (Json.to_list (field "metrics" j));
  }

let of_json j =
  if str (field "schema" j) <> schema then
    raise (Bad (Printf.sprintf "not an %s file" schema));
  let p = field "provenance" j in
  {
    provenance =
      {
        git_rev = str (field "git_rev" p);
        git_dirty = (match field "git_dirty" p with Json.Bool b -> b | _ -> true);
        profile = str (field "profile" p);
        seed = int (field "seed" p);
        nproc = int (field "nproc" p);
        ocaml = str (field "ocaml" p);
        seconds = int (field "seconds" p);
      };
    workloads = List.map workload_of_json (Json.to_list (field "workloads" j));
  }

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
      match Json.of_string s with
      | exception Json.Parse_error e -> Error (path ^ ": " ^ e)
      | j -> Ok j)

let read path =
  Result.bind (read_json path) (fun j ->
      try Ok (of_json j) with Bad e -> Error (path ^ ": " ^ e))

(* --- BENCHMARK.json ----------------------------------------------------- *)

type declared = {
  d_name : string;
  d_unit : string;
  d_lower_better : bool;
  d_bound : float;  (** 0 for per-layer metrics, which have none *)
}

type benchmark = {
  workload_names : string list;
  end_to_end : declared list;
  per_layer : declared list;
}

let benchmark_of_json j =
  let declared l =
    List.map
      (fun d ->
        {
          d_name = str (field "name" d);
          d_unit = str (field "unit" d);
          d_lower_better = str (field "better" d) = "lower";
          d_bound =
            (match Json.member "bound" d with Some b -> num b | None -> 0.);
        })
      (Json.to_list (field l j))
  in
  {
    workload_names =
      List.map (fun w -> str (field "name" w)) (Json.to_list (field "workloads" j));
    end_to_end = declared "end_to_end";
    per_layer = declared "per_layer";
  }

let read_benchmark path =
  Result.bind (read_json path) (fun j ->
      try Ok (benchmark_of_json j) with Bad e -> Error (path ^ ": " ^ e))

(* The object a run prints last: exactly BENCHMARK.json's end-to-end
   metrics, or its per-layer ones for a traced run.  An error names a
   declared metric the run did not measure, or measured in another unit. *)
let result ~trace bench w =
  let declared = if trace then bench.per_layer else bench.end_to_end in
  let unmatched =
    List.filter
      (fun d ->
        match find d.d_name w with Some m -> m.unit_ <> d.d_unit | None -> true)
      declared
  in
  match unmatched with
  | d :: _ -> Error ("no measurement in " ^ d.d_unit ^ " for " ^ d.d_name)
  | [] ->
      let metric d =
        let m = Option.get (find d.d_name w) in
        (d.d_name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ])
      in
      Ok
        (Json.Obj
           [
             ("correct", Json.Bool (w.failed = 0));
             ("attempted", Json.Int w.attempted);
             ("failed", Json.Int w.failed);
             ("metrics", Json.Obj (List.map metric declared));
           ])
