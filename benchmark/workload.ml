(* The four workloads.  Each one stresses a different part of the
   simulator, so that an optimisation of one path shows on the workload
   that runs it and shows no change on the ones that bypass it:

   - table2-p8: the paper's Table 2 suite in the hostperf configuration;
     every mechanism, with the local scheme's flush on each migration.
   - migrate-p32: migration, futures and the scheduler at 32 processors,
     with the cache layer bypassed (no cacheable reads at all).
   - coherence-global-p16: translation probes, line fills, the write log
     and eager invalidation; migration almost absent.
   - serve-crash-bilateral: open-loop request injection under a crash
     and message-fault schedule with bilateral revalidation; the only
     workload with the fault layer on. *)

module C = Olden.Config
module Common = Olden_benchmarks.Common
module Registry = Olden_benchmarks.Registry
module Serving = Olden.Serving

type job =
  | Batch of { spec : Common.spec; scale : int; cfg : C.t }
  | Serve of {
      heap : Serving.heap;
      scale : int;
      cfg : C.t;
      serving : C.Serving.spec;
      mix : Serving.mix;
    }

type t = {
  name : string;
  nprocs : int;
  coherence : C.coherence;
  jobs : job list;
}

(* [Toy] shrinks every job to its minimum problem for the smoke test;
   the mechanism mix stays the same. *)
type size = Full | Toy

let spec name =
  match Registry.find name with
  | Some s -> s
  | None -> invalid_arg ("Workload.spec: no benchmark " ^ name)

let job_name = function
  | Batch { spec; _ } -> spec.Common.name
  | Serve { heap; _ } -> Serving.heap_name heap

(* The mini-language model the compiler heuristic analyses for a job. *)
let ir = function
  | Batch { spec; _ } -> spec.Common.ir
  | Serve { heap; _ } -> (spec (Serving.heap_name heap)).Common.ir

let cfg_of = function Batch { cfg; _ } | Serve { cfg; _ } -> cfg

let describe job =
  let cfg = cfg_of job in
  let machine =
    Printf.sprintf "nprocs=%d coherence=%s policy=%s seed=%d" cfg.C.nprocs
      (C.coherence_to_string cfg.C.coherence)
      (C.policy_to_string cfg.C.policy)
      cfg.C.seed
  in
  match job with
  | Batch { spec; scale; _ } ->
      Printf.sprintf "%s scale=%d %s" spec.Common.name scale machine
  | Serve { heap; scale; serving; mix; _ } ->
      Printf.sprintf "serve %s scale=%d %s faults=[%s] %s mix=%s"
        (Serving.heap_name heap) scale machine
        (match cfg.C.faults with
        | Some f -> C.Faults.to_string f
        | None -> "none")
        (C.Serving.to_string serving)
        (Serving.mix_to_string mix)

(* Dividing by this floors every benchmark to its minimum problem. *)
let toy_scale = 100_000

let batch ~size ~cfg ?scale name =
  let spec = spec name in
  let scale =
    match size with
    | Toy -> toy_scale
    | Full -> Option.value scale ~default:spec.Common.default_scale
  in
  Batch { spec; scale; cfg }

let table2_p8 ~seed ~size =
  let cfg = C.make ~nprocs:8 ~seed () in
  {
    name = "table2-p8";
    nprocs = 8;
    coherence = C.Local;
    jobs =
      List.map
        (fun (s : Common.spec) -> batch ~size ~cfg s.Common.name)
        Registry.specs;
  }

let migrate_p32 ~seed ~size =
  let heuristic = C.make ~nprocs:32 ~seed () in
  let migrate_only = C.make ~nprocs:32 ~policy:C.Migrate_only ~seed () in
  {
    name = "migrate-p32";
    nprocs = 32;
    coherence = C.Local;
    jobs =
      [
        batch ~size ~cfg:heuristic ~scale:1 "TreeAdd";
        batch ~size ~cfg:heuristic ~scale:1 "MST";
        batch ~size ~cfg:heuristic "TSP";
        batch ~size ~cfg:heuristic "Power";
        batch ~size ~cfg:migrate_only ~scale:1 "EM3D";
        batch ~size ~cfg:migrate_only ~scale:16 "Bisort";
        batch ~size ~cfg:migrate_only ~scale:1 "Health";
      ];
  }

let coherence_global_p16 ~seed ~size =
  let cfg = C.make ~nprocs:16 ~coherence:C.Global ~seed () in
  {
    name = "coherence-global-p16";
    nprocs = 16;
    coherence = C.Global;
    jobs =
      List.map (batch ~size ~cfg)
        [ "Bisort"; "Voronoi"; "EM3D"; "Barnes-Hut"; "Perimeter"; "Health" ];
  }

(* Rates sit below this configuration's saturation knees (0.5, 4.0 and
   2.0 req/kcycle), so the backlog stays bounded and every admitted
   request completes. *)
let serve_crash_bilateral ~seed ~size =
  let cfg =
    C.make ~nprocs:8 ~coherence:C.Bilateral ~seed
      ~faults:(C.Faults.crash_mix ~seed ())
      ()
  in
  let duration, scale =
    match size with Full -> (120_000_000, 8) | Toy -> (200_000, 64)
  in
  let serve heap rate =
    Serve
      {
        heap;
        scale;
        cfg;
        serving = C.Serving.make ~rate ~duration ~streams:4 ~arrival_seed:seed ();
        mix = Serving.default_mix;
      }
  in
  {
    name = "serve-crash-bilateral";
    nprocs = 8;
    coherence = C.Bilateral;
    jobs =
      [
        serve Serving.Treeadd 0.25; serve Serving.Em3d 1.0; serve Serving.Health 0.5;
      ];
  }

let all ~seed ~size =
  [
    table2_p8 ~seed ~size;
    migrate_p32 ~seed ~size;
    coherence_global_p16 ~seed ~size;
    serve_crash_bilateral ~seed ~size;
  ]

let names = List.map (fun w -> w.name) (all ~seed:0 ~size:Toy)
let find ~seed ~size name = List.find_opt (fun w -> w.name = name) (all ~seed ~size)
