(* Coherence soundness: a properly synchronized program (threads only
   share data across future/touch and migration edges, as Olden's
   semantics guarantee) computes the same result under every coherence
   scheme, every mechanism policy, and any processor count — and that
   result equals the sequential one.  This is the Appendix A claim,
   exercised with randomized programs. *)

open Olden

(* A random "phased update" program, EM3D-like: two arrays of cells on
   random processors; in each phase, one side is recomputed from the other
   side through randomly chosen remote references; phases are separated by
   future/touch synchronization.  The result is a function of the program
   description only. *)

type program = {
  n : int;
  phases : int;
  owners_a : int array;
  owners_b : int array;
  nbrs : int array array; (* per phase per cell: the index read *)
  mechanisms : Config.mechanism array; (* per phase *)
}

let gen_program ~nprocs =
  QCheck.Gen.(
    let* n = 4 -- 24 in
    let* phases = 1 -- 5 in
    let* owners_a = array_size (return n) (int_bound (nprocs - 1)) in
    let* owners_b = array_size (return n) (int_bound (nprocs - 1)) in
    let* nbrs =
      array_size (return phases) (array_size (return n) (int_bound (n - 1)))
    in
    let* mechs =
      array_size (return phases)
        (map (fun b -> if b then Config.Migrate else Config.Cache) bool)
    in
    return { n; phases; owners_a; owners_b; nbrs; mechanisms = mechs })

let print_program p =
  Printf.sprintf "{n=%d phases=%d}" p.n p.phases

(* Reference result, pure OCaml.  Within a phase the parallel bodies read
   the other (frozen) side and write distinct cells of their own side, so a
   plain in-place loop matches any interleaving. *)
let reference p =
  let a = Array.init p.n (fun i -> i + 1) in
  let b = Array.init p.n (fun i -> (2 * i) + 1) in
  for ph = 0 to p.phases - 1 do
    let src, dst = if ph mod 2 = 0 then (b, a) else (a, b) in
    for i = 0 to p.n - 1 do
      dst.(i) <- dst.(i) + (3 * src.(p.nbrs.(ph).(i))) + ph
    done
  done;
  (Array.fold_left ( + ) 0 a * 31) + Array.fold_left ( + ) 0 b

(* The same computation on the simulated machine: each phase spawns one
   future per cell-group owner; each body updates its cells reading the
   other side through the phase's mechanism. *)
let simulate p ~nprocs ~coherence ~policy =
  let cfg = Config.make ~nprocs ~coherence ~policy () in
  let engine = Engine.create cfg in
  let result = ref 0 in
  Engine.exec engine (fun () ->
      let s_own = Site.migrate "coh.own" in
      let cells_a =
        Array.init p.n (fun i -> Ops.alloc ~proc:(p.owners_a.(i) mod nprocs) 1)
      in
      let cells_b =
        Array.init p.n (fun i -> Ops.alloc ~proc:(p.owners_b.(i) mod nprocs) 1)
      in
      Array.iteri (fun i c -> Ops.store_int s_own c 0 (i + 1)) cells_a;
      Array.iteri (fun i c -> Ops.store_int s_own c 0 ((2 * i) + 1)) cells_b;
      for ph = 0 to p.phases - 1 do
        let site =
          Site.make ~mech:p.mechanisms.(ph)
            (Printf.sprintf "coh.phase%d" ph)
        in
        let src, dst =
          if ph mod 2 = 0 then (cells_b, cells_a) else (cells_a, cells_b)
        in
        (* one future per cell: reads src.(nbr), updates dst.(i) *)
        let futs =
          Array.init p.n (fun i ->
              Ops.future (fun () ->
                  let v = Ops.load_int site src.(p.nbrs.(ph).(i)) 0 in
                  let d = Ops.load_int site dst.(i) 0 in
                  Ops.store_int site dst.(i) 0 (d + (3 * v) + ph);
                  Value.Int 0))
        in
        Array.iter (fun f -> ignore (Ops.touch f)) futs
      done;
      let sum arr =
        Array.fold_left (fun acc c -> acc + Ops.load_int s_own c 0) 0 arr
      in
      result := (sum cells_a * 31) + sum cells_b);
  !result

let arb_program = QCheck.make ~print:print_program (gen_program ~nprocs:6)

let coherence_test coherence policy =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "synchronized programs are sequentially consistent (%s, %s)"
         (Config.coherence_to_string coherence)
         (Config.policy_to_string policy))
    ~count:40 arb_program
    (fun p ->
      let expected = reference p in
      List.for_all
        (fun nprocs ->
          simulate p ~nprocs ~coherence ~policy = expected)
        [ 1; 3; 6 ])

let all_schemes_agree =
  QCheck.Test.make ~name:"all schemes and policies agree" ~count:25 arb_program
    (fun p ->
      let expected = reference p in
      List.for_all
        (fun coherence ->
          List.for_all
            (fun policy ->
              simulate p ~nprocs:5 ~coherence ~policy = expected)
            [ Config.Heuristic; Config.Migrate_only; Config.Cache_only ])
        [ Config.Local; Config.Global; Config.Bilateral ])

(* A future resolved on another processor by a thread that wrote
   nothing, then touched: the touch is still an acquire, whatever the
   resolver's write log holds.  Main, on p0, caches a line of p1's memory
   and spawns a body that migrates to p1 and resolves there without
   writing; the parent continuation, stolen on p0, parks on the touch and
   wakes when the body resolves.  The whole program writes nothing. *)
let acquire_after_clean_resolve cfg =
  let engine = Engine.create cfg in
  let before = ref (-1, false) and after = ref (-1, false) in
  let table () = Cache_system.table (Engine.cache engine) 0 in
  (* (live entries, every entry suspect) of p0's cache *)
  let state () =
    let tbl = table () in
    let all = ref true in
    Translation.iter tbl (fun e ->
        if not (Translation.is_suspect tbl e) then all := false);
    (Translation.live_entries tbl, !all)
  in
  Engine.exec engine (fun () ->
      let cached = Site.cache "acquire.cached"
      and away = Site.migrate "acquire.away" in
      let x = Ops.alloc ~proc:1 4 and y = Ops.alloc ~proc:1 4 in
      ignore (Ops.load cached x 0);
      let f =
        Ops.future (fun () ->
            ignore (Ops.load away y 0);
            Value.Int 0)
      in
      assert (Ops.self () = 0);
      before := state ();
      ignore (Ops.touch f);
      assert (Ops.self () = 0);
      after := state ());
  (!before, !after)

let test_bilateral_touch_marks_suspect () =
  let (live0, suspect0), (live1, suspect1) =
    acquire_after_clean_resolve
      (Config.make ~nprocs:2 ~coherence:Config.Bilateral ())
  in
  Alcotest.(check (pair int bool)) "p0 caches the line before the touch"
    (1, false) (live0, suspect0);
  Alcotest.(check (pair int bool)) "the touch marks every entry suspect"
    (1, true) (live1, suspect1)

let test_local_touch_flushes () =
  let (live0, _), (live1, _) =
    acquire_after_clean_resolve
      (Config.make ~nprocs:2 ~coherence:Config.Local
         ~return_invalidate_refinement:false ())
  in
  Alcotest.(check int) "p0 caches the line before the touch" 1 live0;
  Alcotest.(check int) "the touch flushes the cache" 0 live1

let suite =
  [
    QCheck_alcotest.to_alcotest (coherence_test Config.Local Config.Heuristic);
    QCheck_alcotest.to_alcotest (coherence_test Config.Global Config.Heuristic);
    QCheck_alcotest.to_alcotest
      (coherence_test Config.Bilateral Config.Heuristic);
    QCheck_alcotest.to_alcotest (coherence_test Config.Local Config.Cache_only);
    QCheck_alcotest.to_alcotest (coherence_test Config.Global Config.Cache_only);
    QCheck_alcotest.to_alcotest
      (coherence_test Config.Bilateral Config.Cache_only);
    QCheck_alcotest.to_alcotest all_schemes_agree;
    Alcotest.test_case "bilateral: touch of a clean resolve marks suspect"
      `Quick test_bilateral_touch_marks_suspect;
    Alcotest.test_case "local, no refinement: touch of a clean resolve flushes"
      `Quick test_local_touch_flushes;
  ]
