(* Driver for the compiler side: parse a mini-Olden program, print its
   update matrices and the heuristic's mechanism selection, and optionally
   run it on the simulated machine.

     olden-analyze program.olden
     olden-analyze --run --procs 8 program.olden
*)

open Cmdliner
module C = Olden_config
module Site = Olden_runtime.Site
module Span = Olden_span.Span

let analyze file run_it procs coherence threshold profile spans_file =
  let src =
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  match Olden_compiler.Parser.parse_program src with
  | exception Olden_compiler.Parser.Error msg ->
      Format.eprintf "parse error: %s@." msg;
      exit 1
  | exception Olden_compiler.Lexer.Error msg ->
      Format.eprintf "lex error: %s@." msg;
      exit 1
  | prog -> (
      (match Olden_compiler.Typecheck.check prog with
      | exception Olden_compiler.Typecheck.Type_error msg ->
          Format.eprintf "type error: %s@." msg;
          exit 1
      | _ -> ());
      let threshold = if threshold > 0. then Some (threshold /. 100.) else None in
      let sel = Olden_compiler.Heuristic.of_program ?threshold prog in
      List.iter
        (fun l -> Format.printf "%a@." Olden_compiler.Analysis.pp_matrix l)
        sel.Olden_compiler.Heuristic.analysis.Olden_compiler.Analysis.loops;
      Format.printf "%a@." Olden_compiler.Heuristic.pp sel;
      if run_it then begin
        let coherence =
          match C.coherence_of_string coherence with
          | Some c -> c
          | None -> C.Local
        in
        let cfg = C.make ~nprocs:procs ~coherence () in
        let compiled = Olden_interp.Interp.compile ~selection:sel prog in
        let run_spanned () =
          (* the span stream rides along when --profile or --spans asks
             for it *)
          let run () = Olden_interp.Interp.run cfg compiled in
          if Option.is_some spans_file then Span.collect run
          else if profile then Span.collect ~kinds:Span.flat_kinds run
          else (run (), [||])
        in
        match run_spanned () with
        | exception Olden_interp.Interp.Runtime_error msg ->
            Format.eprintf "runtime error: %s@." msg;
            exit 1
        | result, spans ->
            if result.Olden_interp.Interp.output <> "" then
              Format.printf "--- output ---@.%s"
                result.Olden_interp.Interp.output;
            let report = result.Olden_interp.Interp.report in
            Format.printf "--- run on %d processor(s) ---@." procs;
            Format.printf "return value: %s@."
              (Value.to_string result.Olden_interp.Interp.return_value);
            Format.printf "makespan: %d cycles, utilization %.2f@."
              report.Olden_runtime.Engine.makespan
              report.Olden_runtime.Engine.utilization;
            Format.printf "%a@." Stats.pp report.Olden_runtime.Engine.stats;
            if profile then begin
              let site_name = Olden_profile.Recorder.lookup (Site.labels ()) in
              Format.printf "--- per-site cost attribution ---@.";
              Format.printf "%a" Olden_profile.Attribution.pp_table
                (Olden_profile.Attribution.of_spans ~site_name
                   ~costs:cfg.C.costs spans);
              Format.printf "--- critical path ---@.";
              Format.printf "%a"
                (Olden_profile.Critical_path.pp ~site_name ~tail:0)
                (Olden_profile.Critical_path.analyze spans)
            end;
            Option.iter
              (fun file ->
                let oc = open_out file in
                output_string oc (Span.jsonl spans);
                close_out oc;
                Format.printf "spans: %s (%s JSONL, %d span(s))@." file
                  Span.schema (Array.length spans))
              spans_file
      end)

let file_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let run_t =
  Arg.(value & flag & info [ "r"; "run" ] ~doc:"Interpret the program too.")

let procs_t =
  Arg.(value & opt int 8 & info [ "p"; "procs" ] ~docv:"P" ~doc:"Processors.")

let coherence_t =
  Arg.(
    value & opt string "local"
    & info [ "c"; "coherence" ] ~docv:"SCHEME" ~doc:"Coherence scheme.")

let threshold_t =
  Arg.(
    value & opt float 0.
    & info [ "threshold" ] ~docv:"PERCENT"
        ~doc:
          "Override the 90 percent migration threshold (the knob a port to            another machine would turn).")

let profile_t =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "With --run: trace the execution and print the per-site cost \
           attribution and critical-path breakdown afterwards.")

let spans_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans" ] ~docv:"FILE"
        ~doc:
          "With --run: record causal dereference spans and write them to \
           $(docv) as olden-spans/v2 JSONL.")

let cmd =
  Cmd.v
    (Cmd.info "olden-analyze" ~version:"1.0"
       ~doc:"Analyze (and optionally run) a mini-Olden program.")
    Term.(
      const analyze $ file_t $ run_t $ procs_t $ coherence_t $ threshold_t
      $ profile_t $ spans_t)

let () = exit (Cmd.eval cmd)
