(* [main.exe compare A.json B.json]: B against the baseline A, one row
   per workload and end-to-end metric of BENCHMARK.json, plus an exact
   check of every deterministic output.

   A timed metric is "unresolved" when either side's quartile spread
   exceeds its bound and the samples of the two sides interleave; it is
   "regressed" when B's median is worse than A's by more than the bound.
   The win fraction counts the paired passes (i-th sample against i-th
   sample) in which B is better; ties count for neither side. *)

open Record

type verdict = Ok | Regressed | Unresolved | Mismatch

let verdict_name = function
  | Ok -> "ok"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Mismatch -> "MISMATCH"

let samples m = match m.samples with [] -> [ m.value ] | xs -> xs

let timed_verdict d ~a ~b =
  let xa = samples a and xb = samples b in
  let a25, am, a75 = Quartiles.quartiles xa in
  let b25, bm, b75 = Quartiles.quartiles xb in
  let better x y = if d.d_lower_better then x < y else x > y in
  let worse_by =
    let delta = (bm -. am) /. am in
    if d.d_lower_better then delta else -.delta
  in
  let spread = Float.max ((a75 -. a25) /. am) ((b75 -. b25) /. bm) in
  let all_better = List.for_all (fun y -> List.for_all (better y) xa) xb in
  let all_worse = List.for_all (fun y -> List.for_all (fun x -> better x y) xa) xb in
  let n = min (List.length xa) (List.length xb) in
  let take l = List.filteri (fun i _ -> i < n) l in
  let wins =
    List.fold_left2 (fun k x y -> if better y x then k + 1 else k) 0 (take xa) (take xb)
  in
  let verdict =
    if spread > d.d_bound && not (all_better || all_worse) then Unresolved
    else if worse_by > d.d_bound then Regressed
    else Ok
  in
  ( verdict,
    Printf.sprintf "%12.6g [%.6g, %.6g]  %12.6g [%.6g, %.6g]  %+7.2f%%  %d/%d"
      am a25 a75 bm b25 b75 (100. *. (bm -. am) /. am) wins n )

let provenance_problems a b =
  let pa = a.provenance and pb = b.provenance in
  let configs =
    List.filter_map
      (fun wa ->
        match List.find_opt (fun wb -> wb.workload = wa.workload) b.workloads with
        | Some wb when wb.config <> wa.config ->
            Some ("config of " ^ wa.workload)
        | _ -> None)
      a.workloads
  in
  (if pa.profile <> pb.profile then [ "build profile" ] else [])
  @ (if pa.seed <> pb.seed then [ "seed" ] else [])
  @ configs

(* Returns the exit code: 0 all ok, 1 any regressed, unresolved or
   mismatched metric, 2 when the two runs are not comparable. *)
let run ppf (bench : benchmark) ~a_path a ~b_path b =
  List.iter
    (fun (path, r) ->
      Format.fprintf ppf "%s: rev %s%s, %s profile, seed %d, nproc %d, OCaml %s@."
        path r.provenance.git_rev
        (if r.provenance.git_dirty then " (dirty)" else "")
        r.provenance.profile r.provenance.seed r.provenance.nproc r.provenance.ocaml;
      if r.provenance.profile <> "release" then
        Format.fprintf ppf
          "  note: %s was built under the %s profile; its timings do not \
           represent a release build@."
          path r.provenance.profile)
    [ (a_path, a); (b_path, b) ];
  match provenance_problems a b with
  | _ :: _ as problems ->
      Format.fprintf ppf "not comparable: %s differ@." (String.concat ", " problems);
      2
  | [] ->
      let worst = ref 0 in
      let flag v = if v <> Ok then worst := 1 in
      Format.fprintf ppf "%-22s %-22s %-8s %30s  %30s  %8s  %s  %s@." "workload"
        "metric" "bound" "A median [p25, p75]" "B median [p25, p75]" "delta"
        "B wins" "verdict";
      List.iter
        (fun wa ->
          match List.find_opt (fun wb -> wb.workload = wa.workload) b.workloads with
          | None -> ()
          | Some wb ->
              List.iter
                (fun d ->
                  match (find d.d_name wa, find d.d_name wb) with
                  | Some ma, Some mb ->
                      let v, detail =
                        match ma.kind with
                        | Exact ->
                            ( (if ma.value = mb.value then Ok else Mismatch),
                              Printf.sprintf "%12.6g  %12.6g  (exact)" ma.value
                                mb.value )
                        | Timed -> timed_verdict d ~a:ma ~b:mb
                      in
                      flag v;
                      Format.fprintf ppf "%-22s %-22s %-8.3g %s  %s@." wa.workload
                        d.d_name d.d_bound detail (verdict_name v)
                  | _ -> ())
                bench.end_to_end;
              (* every other deterministic output must repeat exactly *)
              let is_row m = List.exists (fun d -> d.d_name = m.name) bench.end_to_end in
              List.iter
                (fun ma ->
                  match find ma.name wb with
                  | Some mb when ma.kind = Exact && mb.value <> ma.value && not (is_row ma) ->
                      flag Mismatch;
                      Format.fprintf ppf "%-22s %-22s exact: %.17g -> %.17g  MISMATCH@."
                        wa.workload ma.name ma.value mb.value
                  | _ -> ())
                wa.metrics)
        a.workloads;
      !worst
