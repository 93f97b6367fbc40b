(* Health: simulation of the Colombian health-care system (Lomow et al.),
   Table 1: 1365 villages; whole-program times; heuristic choice M+C.

   Villages form a four-way tree five levels deep (1 + 4 + 16 + 64 + 256 +
   1024 = 1365).  Each time step the tree is traversed; at each village
   patients are generated, wait, are assessed, and are then either treated
   locally or referred up to the parent village.  The tree traversal
   migrates (futures per subtree); patient records referred across a
   processor boundary are accessed with software caching — but fewer than
   two percent of patients cross processors, so caching buys little and the
   paper measures a slight net loss from its overheads (M-only 16.52 vs
   M+C 16.42 at 32 processors).

   Patient generation and triage are driven by pure hashes of village and
   patient identity, so the simulation is deterministic and independent of
   list order and execution interleaving; the host-side reference then
   checks the heap outcome exactly. *)

open Common

let ir =
  {|
struct village {
  village child0 @ 95;
  village child1 @ 95;
  village child2 @ 95;
  village child3 @ 95;
  patient waiting @ 100;
  int vid;
  int seed;
}

struct patient {
  patient next @ 60;
  int entered;
  int assessed;
  int pid;
}

patient sim(village v, int time) {
  if (v == null) { return null; }
  patient r0 = future sim(v->child0, time);
  patient r1 = future sim(v->child1, time);
  patient r2 = future sim(v->child2, time);
  patient r3 = future sim(v->child3, time);
  patient q = v->waiting;
  while (q != null) {
    work(20);
    q = q->next;
  }
  work(80);
  patient up = touch(r0);
  touch(r1);
  touch(r2);
  touch(r3);
  return up;
}
|}

(* Village record:
   [child0..3; waiting; assess; inside; vid; treated; waitsum].
   Patient record: [next; entered; assessed; pid]. *)
let v_child i = i
let v_waiting = 4
let v_assess = 5
let v_inside = 6
let v_vid = 7
let v_treated = 8
let v_waitsum = 9
let village_words = 10

let p_next = 0
let p_entered = 1
let p_assessed = 2
let p_pid = 3
let patient_words = 4

type sites = {
  s_child : Site.t; (* tree traversal: migrate *)
  s_vfield : Site.t; (* village scalars and list heads: migrate (local) *)
  s_pnext : Site.t; (* patient chain links: cache *)
  s_pfield : Site.t; (* patient record fields: cache *)
}

let make_sites () =
  let _sel, mech = sites_of_ir ir in
  {
    s_child =
      site_of mech ~func:"sim" ~var:"v" ~field:"child0" ~fallback:C.Migrate;
    s_vfield =
      site_of mech ~func:"sim" ~var:"v" ~field:"waiting" ~fallback:C.Migrate;
    s_pnext = site_of mech ~func:"sim" ~var:"q" ~field:"next" ~fallback:C.Cache;
    s_pfield =
      site_of mech ~func:"sim" ~var:"q" ~field:"entered" ~fallback:C.Cache;
  }

(* Simulation parameters. *)
let branching = 4
let assess_time = 3
let treat_time = 10
let village_work = 700
let patient_work = 20

let levels_for scale = if scale >= 8 then 4 else if scale >= 2 then 5 else 6
let steps_for scale = if scale >= 4 then 20 else 40

let village_count levels =
  let rec go l acc pow = if l = 0 then acc else go (l - 1) (acc + pow) (pow * branching) in
  go levels 0 1

(* Pure decision hashes: identical on both sides. *)
let mix a b =
  let h = (a * 0x9e3779b1) lxor (b * 0x85ebca6b) in
  let h = h lxor (h lsr 13) in
  h land 0x3fffffff

let generates ~vid ~time = mix vid (time + 7) mod 3 = 0
let treats_here ~vid ~pid = mix (vid + 13) pid mod 10 < 9

(* --- Host-side reference ----------------------------------------------- *)

module Reference = struct
  type patient = { mutable entered : int; pid : int }

  type village = {
    vid : int;
    level : int;
    children : village list;
    mutable waiting : patient list;
    mutable assess : patient list;
    mutable inside : (int * patient) list; (* assessed time, patient *)
    mutable treated : int;
    mutable waitsum : int;
  }

  let rec make ~vid ~level =
    let children =
      if level = 0 then []
      else
        List.init branching (fun i ->
            make ~vid:((vid * branching) + i + 1) ~level:(level - 1))
    in
    {
      vid;
      level;
      children;
      waiting = [];
      assess = [];
      inside = [];
      treated = 0;
      waitsum = 0;
    }

  (* One step at one village; returns patients referred up. *)
  let step_village ~time ~top v =
    v.inside <-
      List.filter (fun (at, _) -> time - at < treat_time) v.inside;
    let done_, rest =
      List.partition (fun p -> time - p.entered >= assess_time) v.assess
    in
    v.assess <- rest;
    let referred =
      List.filter
        (fun p ->
          if top || treats_here ~vid:v.vid ~pid:p.pid then begin
            v.treated <- v.treated + 1;
            v.waitsum <- v.waitsum + (time - p.entered);
            v.inside <- (time, p) :: v.inside;
            false
          end
          else true)
        done_
    in
    v.assess <- v.assess @ v.waiting;
    v.waiting <- [];
    if generates ~vid:v.vid ~time then
      v.waiting <-
        { entered = time; pid = mix v.vid time } :: v.waiting;
    referred

  let rec step ~time ~top v =
    let from_children =
      List.concat_map (step ~time ~top:false) v.children
    in
    let own = step_village ~time ~top v in
    List.iter
      (fun p ->
        p.entered <- time;
        v.waiting <- p :: v.waiting)
      from_children;
    own

  let run ~levels ~steps =
    let root = make ~vid:0 ~level:(levels - 1) in
    for time = 0 to steps - 1 do
      ignore (step ~time ~top:true root)
    done;
    let rec totals v =
      List.fold_left
        (fun (t, w) c ->
          let t', w' = totals c in
          (t + t', w + w'))
        (v.treated, v.waitsum) v.children
    in
    totals root
end

(* --- The Olden program ------------------------------------------------- *)

let build sites ~levels =
  let nprocs = Ops.nprocs () in
  let all = ref [] in
  let rec go ~vid ~level ~lo ~hi =
    let v = Ops.alloc ~proc:lo village_words in
    all := v :: !all;
    Ops.store_int sites.s_vfield v v_vid vid;
    Ops.store_int sites.s_vfield v v_treated 0;
    Ops.store_int sites.s_vfield v v_waitsum 0;
    Ops.store_ptr sites.s_vfield v v_waiting Gptr.null;
    Ops.store_ptr sites.s_vfield v v_assess Gptr.null;
    Ops.store_ptr sites.s_vfield v v_inside Gptr.null;
    for i = 0 to branching - 1 do
      let child =
        if level = 0 then Gptr.null
        else begin
          (* earlier-futurecalled children go to the far end of the range,
             as in TreeAdd, so their bodies migrate while the last child
             (spawned last) stays local and runs inline *)
          let span = hi - lo in
          let j = branching - 1 - i in
          let clo = lo + (j * span / branching) in
          let chi = lo + ((j + 1) * span / branching) in
          let clo = min clo (nprocs - 1) in
          go
            ~vid:((vid * branching) + i + 1)
            ~level:(level - 1) ~lo:clo ~hi:(max chi (clo + 1))
        end
      in
      Ops.store_ptr sites.s_child v (v_child i) child
    done;
    v
  in
  let root = Ops.call (fun () -> go ~vid:0 ~level:(levels - 1) ~lo:0 ~hi:nprocs) in
  (root, List.rev !all)

(* Walk the [v_inside] list dropping discharged patients.  Order-free. *)
let filter_inside sites v ~time =
  let rec go p kept =
    if Gptr.is_null p then kept
    else begin
      let next = Ops.load_ptr sites.s_pnext p p_next in
      let at = Ops.load_int sites.s_pfield p p_assessed in
      Ops.work patient_work;
      if time - at < treat_time then begin
        Ops.store_ptr sites.s_pnext p p_next kept;
        go next p
      end
      else go next kept
    end
  in
  let head = Ops.load_ptr sites.s_vfield v v_inside in
  Ops.store_ptr sites.s_vfield v v_inside (go head Gptr.null)

(* Scan the assess list: finished patients are treated here or referred.
   Returns the head of the referred chain. *)
let scan_assess sites v ~vid ~time ~top =
  let rec go p still referred =
    if Gptr.is_null p then (still, referred)
    else begin
      let next = Ops.load_ptr sites.s_pnext p p_next in
      let entered = Ops.load_int sites.s_pfield p p_entered in
      Ops.work patient_work;
      if time - entered >= assess_time then begin
        let pid = Ops.load_int sites.s_pfield p p_pid in
        if top || treats_here ~vid ~pid then begin
          Ops.store_int sites.s_vfield v v_treated
            (Ops.load_int sites.s_vfield v v_treated + 1);
          Ops.store_int sites.s_vfield v v_waitsum
            (Ops.load_int sites.s_vfield v v_waitsum + (time - entered));
          Ops.store_int sites.s_pfield p p_assessed time;
          Ops.store_ptr sites.s_pnext p p_next
            (Ops.load_ptr sites.s_vfield v v_inside);
          Ops.store_ptr sites.s_vfield v v_inside p;
          go next still referred
        end
        else begin
          Ops.store_ptr sites.s_pnext p p_next referred;
          go next still p
        end
      end
      else begin
        Ops.store_ptr sites.s_pnext p p_next still;
        go next p referred
      end
    end
  in
  let head = Ops.load_ptr sites.s_vfield v v_assess in
  let still, referred = go head Gptr.null Gptr.null in
  Ops.store_ptr sites.s_vfield v v_assess still;
  referred

(* Move the waiting list into assess, generate a possible new patient. *)
let admit sites v ~vid ~time =
  (* concatenate waiting onto assess *)
  let waiting = Ops.load_ptr sites.s_vfield v v_waiting in
  if not (Gptr.is_null waiting) then begin
    let rec tail p =
      let next = Ops.load_ptr sites.s_pnext p p_next in
      if Gptr.is_null next then p else tail next
    in
    let t = tail waiting in
    Ops.store_ptr sites.s_pnext t p_next
      (Ops.load_ptr sites.s_vfield v v_assess);
    Ops.store_ptr sites.s_vfield v v_assess waiting;
    Ops.store_ptr sites.s_vfield v v_waiting Gptr.null
  end;
  if generates ~vid ~time then begin
    let p = Ops.alloc ~proc:(Ops.self ()) patient_words in
    Ops.store_int sites.s_pfield p p_entered time;
    Ops.store_int sites.s_pfield p p_assessed 0;
    Ops.store_int sites.s_pfield p p_pid (mix vid time);
    Ops.store_ptr sites.s_pnext p p_next
      (Ops.load_ptr sites.s_vfield v v_waiting);
    Ops.store_ptr sites.s_vfield v v_waiting p
  end

(* Link a chain of referred patients (living on children's processors)
   into this village's waiting list: the cached accesses of the paper.
   The running list head is kept in a register so the patient-record
   traffic is all on the chain's side: under migration the thread moves to
   the chain once and comes back once, rather than bouncing per field. *)
let absorb sites v ~time chain =
  if not (Gptr.is_null chain) then begin
    let rec go p head =
      if Gptr.is_null p then head
      else begin
        let next = Ops.load_ptr sites.s_pnext p p_next in
        Ops.store_int sites.s_pfield p p_entered time;
        Ops.store_ptr sites.s_pnext p p_next head;
        Ops.work patient_work;
        go next p
      end
    in
    let head = go chain (Ops.load_ptr sites.s_vfield v v_waiting) in
    Ops.store_ptr sites.s_vfield v v_waiting head
  end

(* One simulation step over the subtree rooted at [v]; returns the chain of
   patients referred up.  The four child steps are futurecalled; touching
   them after the local work overlaps subtree execution. *)
let rec sim sites v ~time ~top =
  if Gptr.is_null v then Gptr.null
  else begin
    let futs =
      Array.init branching (fun i ->
          let child = Ops.load_ptr sites.s_child v (v_child i) in
          Ops.future (fun () ->
              Value.Ptr (sim sites child ~time ~top:false)))
    in
    let vid = Ops.load_int sites.s_vfield v v_vid in
    Ops.work village_work;
    filter_inside sites v ~time;
    let referred = scan_assess sites v ~vid ~time ~top in
    admit sites v ~vid ~time;
    Array.iter
      (fun f -> absorb sites v ~time (Value.to_ptr (Ops.touch f)))
      futs;
    referred
  end

let run cfg ~scale =
  let levels = levels_for scale and steps = steps_for scale in
  execute cfg ~program:(fun engine ->
      let sites = make_sites () in
      let root, villages = build sites ~levels in
      Ops.phase "kernel";
      for time = 0 to steps - 1 do
        ignore (Ops.call (fun () -> sim sites root ~time ~top:true))
      done;
      let expected_treated, expected_waitsum = Reference.run ~levels ~steps in
      let memory = Engine.memory engine in
      let treated, waitsum =
        List.fold_left
          (fun (t, w) v ->
            ( t + Memory.load_int memory v v_treated,
              w + Memory.load_int memory v v_waitsum ))
          (0, 0) villages
      in
      ( Printf.sprintf "treated=%d waitsum=%d (villages=%d)" treated waitsum
          (village_count levels),
        treated = expected_treated && waitsum = expected_waitsum ))

let spec =
  {
    name = "Health";
    descr = "Simulates the Colombian health care system";
    problem = "1365 villages";
    choice = "M+C";
    whole_program = true;
    (* several village fibers share each processor and allocate patient
       records mid-simulation, so heap addresses follow the scheduler *)
    heap_stable = false;
    ir;
    default_scale = 1;
    run;
  }
