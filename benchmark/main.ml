(* The benchmark's one command.

     main.exe [--seed S] [--seconds T]
       every workload, each in its own child process, one at a time;
       writes BENCH_benchmark.json and BENCH_benchmark_spans.jsonl
     main.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--out P]
       one workload in this process: --trace 0 reports the end-to-end
       metrics of BENCHMARK.json, --trace 1 the per-layer ones; the last
       line of output is the result object
     main.exe compare A.json B.json
       B against baseline A, with BENCHMARK.json's bounds

   Run from the repository root (BENCHMARK.json is read from there),
   under the release profile.  Exit codes: 0 all outputs correct, 1 an
   output failed its check (or compare found a regression), 2 bad usage
   or runs that cannot be compared. *)

open Olden_bench
module Json = Olden.Json

let usage =
  "usage: main.exe [--seed S] [--seconds T] [--workload W [--trace 0|1] [--out \
   PREFIX]]\n\
  \       main.exe compare A.json B.json"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchmark: " ^ msg);
      exit 2)
    fmt

let benchmark_file = "BENCHMARK.json"
(* set-up samples from fresh child processes, besides this process's own *)
let setup_probes = 2

type args = {
  seed : int;
  seconds : int;
  workload : string option;
  trace : bool;
  out : string;
  probe : bool;  (** internal: one cold pass, for a setup sample *)
}

let parse argv =
  let nat flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> die "%s needs a non-negative integer (got %S)" flag v
  in
  let rec go a = function
    | [] -> a
    | "--seed" :: v :: rest -> go { a with seed = nat "--seed" v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = nat "--seconds" v } rest
    | "--workload" :: v :: rest ->
        if not (List.mem v Workload.names) then
          die "unknown workload %S (expected %s)" v (String.concat "|" Workload.names);
        go { a with workload = Some v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--out" :: v :: rest -> go { a with out = v } rest
    | "--setup-probe" :: rest -> go { a with probe = true } rest
    | arg :: _ -> die "unexpected argument %S\n%s" arg usage
  in
  go
    {
      seed = 42;
      seconds = 20;
      workload = None;
      trace = false;
      out = "BENCH_benchmark";
      probe = false;
    }
    argv

(* --- Provenance ------------------------------------------------------------ *)

let git args =
  if not (Sys.file_exists ".git") then None
  else
    match
      Unix.open_process_args_in "git"
        (Array.of_list ("git" :: "--git-dir=.git" :: "--work-tree=." :: args))
    with
    | exception Unix.Unix_error _ -> None
    | ic ->
        let out = In_channel.input_all ic in
        if Unix.close_process_in ic = Unix.WEXITED 0 then Some out else None

let provenance args =
  {
    Record.git_rev =
      (match git [ "rev-parse"; "HEAD" ] with
      | Some s -> String.trim s
      | None -> "unknown");
    git_dirty =
      (match git [ "status"; "--porcelain"; "--untracked-files=no" ] with
      | Some s -> String.trim s <> ""
      | None -> false);
    profile = Build_profile.name;
    seed = args.seed;
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    seconds = args.seconds;
  }

(* --- Child processes ---------------------------------------------------------- *)

let spawn argv =
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: argv))
      Unix.stdin Unix.stdout Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 255

(* Set-up time as a one-shot user pays it: a fresh process from exec to
   the end of its cold pass, timed from here. *)
let setup_samples args name () =
  List.init setup_probes (fun _ ->
      let t0 = Spans.now () in
      let code =
        spawn [ "--workload"; name; "--seed"; string_of_int args.seed; "--setup-probe" ]
      in
      if code <> 0 then die "setup probe of %s failed (exit %d)" name code;
      Spans.now () -. t0)

(* --- One workload -------------------------------------------------------------- *)

let print_metric workload (m : Record.metric) =
  Printf.printf "%s %s %.17g %s\n" workload m.Record.name m.Record.value m.Record.unit_

let one_workload args name =
  let w = Option.get (Workload.find ~seed:args.seed ~size:Workload.Full name) in
  if args.probe then begin
    let p = Measure.run_pass w in
    exit (if List.for_all (fun j -> j.Measure.ok) p.Measure.jobs then 0 else 1)
  end;
  let bench =
    match Record.read_benchmark benchmark_file with
    | Ok b -> b
    | Error e -> die "%s (run from the repository root)" e
  in
  let setup_probes = if args.trace then None else Some (setup_samples args name) in
  let run =
    Measure.measure ?setup_probes ~seconds:(float_of_int args.seconds) ~trace:args.trace w
  in
  let record = Measure.record run in
  List.iter (print_metric name) record.Record.metrics;
  Record.write (args.out ^ ".json")
    { Record.provenance = provenance args; workloads = [ record ] };
  if args.trace then begin
    let spans = Spans.all () in
    Spans.write_jsonl (args.out ^ "_spans.jsonl") spans;
    Format.printf "%a%!" Spans.pp_top spans
  end;
  match Record.result ~trace:args.trace bench record with
  | Ok line ->
      print_endline (Json.to_string line);
      exit (if record.Record.failed = 0 then 0 else 1)
  | Error e ->
      prerr_endline ("benchmark: " ^ e);
      exit 1

(* --- Every workload ------------------------------------------------------------- *)

let merge (a : Record.workload) (b : Record.workload) =
  let fresh =
    List.filter (fun m -> Record.find m.Record.name a = None) b.Record.metrics
  in
  {
    a with
    Record.attempted = a.Record.attempted + b.Record.attempted;
    failed = a.Record.failed + b.Record.failed;
    metrics = a.Record.metrics @ fresh;
  }

let all_workloads args =
  let parts =
    List.concat_map
      (fun name ->
        List.map
          (fun trace ->
            let prefix = Printf.sprintf "%s.%s.t%d" args.out name trace in
            let code =
              spawn
                [
                  "--workload"; name; "--seed"; string_of_int args.seed;
                  "--seconds"; string_of_int args.seconds;
                  "--trace"; string_of_int trace; "--out"; prefix;
                ]
            in
            (prefix, code))
          [ 0; 1 ])
      Workload.names
  in
  let records =
    List.filter_map
      (fun (prefix, _) ->
        let file = prefix ^ ".json" in
        let r = Record.read file in
        if Sys.file_exists file then Sys.remove file;
        Result.to_option r)
      parts
  in
  let workloads =
    List.filter_map
      (fun name ->
        match
          List.concat_map
            (fun r ->
              List.filter (fun w -> w.Record.workload = name) r.Record.workloads)
            records
        with
        | [] -> None
        | w :: rest -> Some (List.fold_left merge w rest))
      Workload.names
  in
  Record.write (args.out ^ ".json") { Record.provenance = provenance args; workloads };
  let spans = Buffer.create 4096 in
  List.iter
    (fun (prefix, _) ->
      let file = prefix ^ "_spans.jsonl" in
      if Sys.file_exists file then begin
        Buffer.add_string spans (In_channel.with_open_bin file In_channel.input_all);
        Sys.remove file
      end)
    parts;
  Out_channel.with_open_bin (args.out ^ "_spans.jsonl") (fun oc ->
      Buffer.output_buffer oc spans);
  Printf.printf "\nhost timings (median [p25, p75] over n samples):\n";
  List.iter
    (fun (w : Record.workload) ->
      List.iter
        (fun (m : Record.metric) ->
          match m.Record.samples with
          | [] -> ()
          | xs ->
              let p25, med, p75 = Quartiles.quartiles xs in
              Printf.printf "  %-22s %-16s %14.6g [%.6g, %.6g] n=%d %s\n"
                w.Record.workload m.Record.name med p25 p75 (List.length xs)
                m.Record.unit_)
        w.Record.metrics;
      Printf.printf "  %-22s %d of %d operations failed\n" w.Record.workload
        w.Record.failed w.Record.attempted)
    workloads;
  Printf.printf "wrote %s.json and %s_spans.jsonl\n" args.out args.out;
  let ok =
    List.for_all (fun (_, code) -> code = 0) parts
    && List.length workloads = List.length Workload.names
    && List.for_all (fun w -> w.Record.failed = 0) workloads
  in
  exit (if ok then 0 else 1)

(* --- compare ---------------------------------------------------------------------- *)

let compare_files a_path b_path =
  let load path = match Record.read path with Ok r -> r | Error e -> die "%s" e in
  let bench =
    match Record.read_benchmark benchmark_file with Ok b -> b | Error e -> die "%s" e
  in
  exit
    (Compare.run Format.std_formatter bench ~a_path (load a_path) ~b_path
       (load b_path))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_files a b
  | "compare" :: _ -> die "%s" usage
  | argv -> (
      let args = parse argv in
      match args.workload with
      | Some name -> one_workload args name
      | None -> all_workloads args)
