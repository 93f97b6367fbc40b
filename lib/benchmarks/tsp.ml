(* TSP: estimate of the best Hamiltonian circuit, Karp's partitioning
   heuristic (Table 1: 32K cities; heuristic choice M).

   Cities live in a binary tree sorted by x coordinate (in-order),
   distributed by subtree like TreeAdd.  Small partitions are toured
   directly with greedy nearest-edge insertion (the quadratic work that
   dominates); larger subproblems solve both halves (the first as a
   futurecall) and then merge: the merge walks one tour to find the node
   closest to the other tour's head, walks the second for the node closest
   to that, and splices the two circular doubly-linked tours through the
   subtree's root city.  The merge walks are sequential and touch a lot of
   data per processor, so migration is the right mechanism throughout —
   the paper notes caching would increase communication here. *)

open Common

let ir =
  {|
struct city {
  city left @ 80;
  city right @ 80;
  city next @ 95;
  city prev @ 95;
  float x;
  float y;
}

city tsp(city t, int sz) {
  if (sz < 64) { work(600); return t; }
  city l = future tsp(t->left, sz / 2);
  city r = tsp(t->right, sz / 2);
  return merge(touch(l), r, t);
}

city merge(city a, city b, city t) {
  city p = a;
  float best = 1000000.0;
  while (p != null) {
    float d = p->x - b->x;
    work(25);
    if (d < best) { best = d; }
    p = p->next;
  }
  return a;
}
|}

let off_left = 0
let off_right = 1
let off_next = 2
let off_prev = 3
let off_x = 4
let off_y = 5
let node_words = 6

type sites = {
  s_left : Site.t;
  s_right : Site.t;
  s_next : Site.t;
  s_prev : Site.t;
  s_x : Site.t;
  s_y : Site.t;
}

let make_sites () =
  let _sel, mech = sites_of_ir ir in
  let t = site_of mech ~func:"tsp" ~var:"t" ~fallback:C.Migrate in
  let w = site_of mech ~func:"merge" ~var:"p" ~fallback:C.Migrate in
  {
    s_left = t ~field:"left";
    s_right = t ~field:"right";
    s_next = w ~field:"next";
    s_prev = w ~field:"prev";
    s_x = w ~field:"x";
    s_y = w ~field:"y";
  }

let conquer_threshold = 64
let dist_work = 25
let insert_work = 18

(* Distance between (x1, y1) and (x2, y2).  Inlined so that no float
   argument or result is boxed in the quadratic scans. *)
let[@inline] dist x1 y1 x2 y2 =
  let dx = x1 -. x2 and dy = y1 -. y2 in
  Float.sqrt ((dx *. dx) +. (dy *. dy))

(* --- Host-side reference ----------------------------------------------- *)

(* Cities are indices into flat arrays; -1 stands for no city. *)
module Reference = struct
  type t = {
    xs : float array;
    ys : float array;
    left : int array;
    right : int array;
    next : int array;
    prev : int array;
    order : int array; (* [collect]'s output, reused by every conquer *)
  }

  let[@inline] dist_c t a b = dist t.xs.(a) t.ys.(a) t.xs.(b) t.ys.(b)

  (* In-order balanced tree over cities sorted by x. *)
  let rec build t lo hi =
    if lo >= hi then -1
    else begin
      let mid = (lo + hi) / 2 in
      t.left.(mid) <- build t lo mid;
      t.right.(mid) <- build t (mid + 1) hi;
      mid
    end

  (* Writes subtree [c]'s cities in order into [t.order] from index [k];
     returns the index past the last. *)
  let rec collect t c k =
    if c < 0 then k
    else begin
      let k = collect t t.left.(c) k in
      t.order.(k) <- c;
      collect t t.right.(c) (k + 1)
    end

  (* Greedy nearest-edge insertion over the subtree's cities. *)
  let conquer t root =
    let k = collect t root 0 in
    assert (k > 0);
    let first = t.order.(0) in
    t.next.(first) <- first;
    t.prev.(first) <- first;
    for j = 1 to k - 1 do
      let c = t.order.(j) in
      (* find the tour edge (p, p.next) whose detour through c is
         cheapest *)
      let best = ref infinity and best_after = ref first in
      let p = ref first in
      let continue_ = ref true in
      while !continue_ do
        let q = t.next.(!p) in
        let detour = dist_c t !p c +. dist_c t c q -. dist_c t !p q in
        if detour < !best then begin
          best := detour;
          best_after := !p
        end;
        p := q;
        if !p = first then continue_ := false
      done;
      let a = !best_after in
      let b = t.next.(a) in
      t.next.(a) <- c;
      t.prev.(c) <- a;
      t.next.(c) <- b;
      t.prev.(b) <- c
    done;
    first

  let merge t a b c =
    (* one scan: the node of tour [a] closest to [b]'s head; splice there
       (the merge is linear in the larger tour, the paper's sequential
       subtree walk) *)
    let na = ref a and best = ref infinity in
    let p = ref a and continue_ = ref true in
    while !continue_ do
      let d = dist_c t !p b in
      if d < !best then begin
        best := d;
        na := !p
      end;
      p := t.next.(!p);
      if !p = a then continue_ := false
    done;
    let na = !na in
    let nb = b in
    let na_next = t.next.(na) and nb_next = t.next.(nb) in
    t.next.(na) <- c;
    t.prev.(c) <- na;
    t.next.(c) <- nb_next;
    t.prev.(nb_next) <- c;
    t.next.(nb) <- na_next;
    t.prev.(na_next) <- nb;
    a

  let rec tsp t c sz =
    assert (c >= 0);
    if sz <= conquer_threshold then conquer t c
    else begin
      let l = tsp t t.left.(c) (sz / 2) in
      let r = tsp t t.right.(c) (sz / 2) in
      (* the root city is not in either half-tour; merge through it *)
      merge t l r c
    end

  let tour_length t start =
    let total = ref 0. and p = ref start and continue_ = ref true in
    let count = ref 0 in
    while !continue_ do
      total := !total +. dist_c t !p t.next.(!p);
      incr count;
      p := t.next.(!p);
      if !p = start then continue_ := false
    done;
    (!total, !count)

  let run points =
    let n = Array.length points in
    let t =
      {
        xs = Array.map fst points;
        ys = Array.map snd points;
        left = Array.make n (-1);
        right = Array.make n (-1);
        next = Array.make n (-1);
        prev = Array.make n (-1);
        order = Array.make n (-1);
      }
    in
    let root = build t 0 n in
    let start = tsp t root n in
    tour_length t start
end

(* --- The Olden program ------------------------------------------------- *)

(* Build the x-sorted in-order tree; subtree ranges over processors,
   futurecalled left child to the far half. *)
let build sites (points : (float * float) array) =
  let nprocs = Ops.nprocs () in
  let rec go lo hi plo phi =
    if lo >= hi then Gptr.null
    else begin
      let mid = (lo + hi) / 2 in
      let node = Ops.alloc ~proc:plo node_words in
      let x, y = points.(mid) in
      let pmid = (plo + phi) / 2 in
      let left, right =
        if phi - plo >= 2 then (go lo mid pmid phi, go (mid + 1) hi plo pmid)
        else (go lo mid plo phi, go (mid + 1) hi plo phi)
      in
      Ops.store_ptr sites.s_left node off_left left;
      Ops.store_ptr sites.s_right node off_right right;
      Ops.store_ptr sites.s_next node off_next Gptr.null;
      Ops.store_ptr sites.s_prev node off_prev Gptr.null;
      Ops.store_float sites.s_x node off_x x;
      Ops.store_float sites.s_y node off_y y;
      node
    end
  in
  Ops.call (fun () -> go 0 (Array.length points) 0 nprocs)

(* A growable array of city pointers. *)
type cities = { mutable ptrs : Gptr.t array; mutable len : int }

let push cs c =
  if cs.len = Array.length cs.ptrs then begin
    let a = Array.make (2 * cs.len) Gptr.null in
    Array.blit cs.ptrs 0 a 0 cs.len;
    cs.ptrs <- a
  end;
  cs.ptrs.(cs.len) <- c;
  cs.len <- cs.len + 1

(* Appends subtree [t]'s cities in reverse order: each node's pointers
   are read, then its right subtree is visited before its left, the load
   order test/golden/kernel_pins.txt pins.  A buffer per call: another
   conquer can run while this one's thread waits on a migration. *)
let rec collect sites t cs =
  if not (Gptr.is_null t) then begin
    let l = Ops.load_ptr sites.s_left t off_left in
    let r = Ops.load_ptr sites.s_right t off_right in
    collect sites r cs;
    push cs t;
    collect sites l cs
  end

(* Greedy nearest-edge insertion; coordinates are read once per city, the
   quadratic scan itself uses the local copies (registers/stack in Olden
   terms) with its compute charged per comparison.  The local mirror of
   the tour keeps each city's pointer and position in tour order. *)
let conquer sites t =
  let cs = { ptrs = Array.make conquer_threshold Gptr.null; len = 0 } in
  collect sites t cs;
  let n = cs.len in
  assert (n > 0);
  let first = cs.ptrs.(n - 1) in
  Ops.store_ptr sites.s_next first off_next first;
  Ops.store_ptr sites.s_prev first off_prev first;
  let ptrs = Array.make n first in
  let xs = Array.make n 0. and ys = Array.make n 0. in
  ys.(0) <- Ops.load_float sites.s_y first off_y;
  xs.(0) <- Ops.load_float sites.s_x first off_x;
  for j = n - 2 downto 0 do
    let c = cs.ptrs.(j) in
    let cy = Ops.load_float sites.s_y c off_y in
    let cx = Ops.load_float sites.s_x c off_x in
    let k = n - 1 - j in
    let best = ref infinity and best_i = ref 0 in
    (* walk the tour pairs (p, p.next) in order *)
    Ops.work (dist_work * k);
    for i = 0 to k - 1 do
      let q = if i + 1 = k then 0 else i + 1 in
      let px = xs.(i) and py = ys.(i) and qx = xs.(q) and qy = ys.(q) in
      let detour = dist px py cx cy +. dist cx cy qx qy -. dist px py qx qy in
      if detour < !best then begin
        best := detour;
        best_i := i
      end
    done;
    let a = ptrs.(!best_i) in
    let b = Ops.load_ptr sites.s_next a off_next in
    Ops.store_ptr sites.s_next a off_next c;
    Ops.store_ptr sites.s_prev c off_prev a;
    Ops.store_ptr sites.s_next c off_next b;
    Ops.store_ptr sites.s_prev b off_prev c;
    Ops.work insert_work;
    (* keep the mirror in tour order: insert c after a *)
    let at = !best_i + 1 in
    Array.blit ptrs at ptrs (at + 1) (k - at);
    Array.blit xs at xs (at + 1) (k - at);
    Array.blit ys at ys (at + 1) (k - at);
    ptrs.(at) <- c;
    xs.(at) <- cx;
    ys.(at) <- cy
  done;
  first

(* Walk tour [start] for the node closest to position (tx, ty). *)
let closest_on_tour sites start ~tx ~ty =
  let best = ref infinity and best_node = ref start in
  let p = ref start and continue_ = ref true in
  while !continue_ do
    let py = Ops.load_float sites.s_y !p off_y in
    let px = Ops.load_float sites.s_x !p off_x in
    let d = dist px py tx ty in
    Ops.work dist_work;
    if d < !best then begin
      best := d;
      best_node := !p
    end;
    let next = Ops.load_ptr sites.s_next !p off_next in
    if Gptr.equal next start then continue_ := false else p := next
  done;
  !best_node

let merge sites a b t =
  let ty = Ops.load_float sites.s_y b off_y in
  let tx = Ops.load_float sites.s_x b off_x in
  let na = closest_on_tour sites a ~tx ~ty in
  let nb = b in
  let na_next = Ops.load_ptr sites.s_next na off_next in
  let nb_next = Ops.load_ptr sites.s_next nb off_next in
  Ops.store_ptr sites.s_next na off_next t;
  Ops.store_ptr sites.s_prev t off_prev na;
  Ops.store_ptr sites.s_next t off_next nb_next;
  Ops.store_ptr sites.s_prev nb_next off_prev t;
  Ops.store_ptr sites.s_next nb off_next na_next;
  Ops.store_ptr sites.s_prev na_next off_prev nb;
  a

let rec tsp sites t sz ~span =
  if sz <= conquer_threshold then Ops.call (fun () -> conquer sites t)
  else begin
    let left = Ops.load_ptr sites.s_left t off_left in
    let right = Ops.load_ptr sites.s_right t off_right in
    let half = max 1 (span / 2) in
    if span >= 2 then begin
      let fut =
        Ops.future (fun () -> Value.Ptr (tsp sites left (sz / 2) ~span:half))
      in
      let r = tsp sites right (sz / 2) ~span:half in
      let l = Value.to_ptr (Ops.touch fut) in
      Ops.call (fun () -> merge sites l r t)
    end
    else begin
      let l = Ops.call (fun () -> tsp sites left (sz / 2) ~span:1) in
      let r = Ops.call (fun () -> tsp sites right (sz / 2) ~span:1) in
      Ops.call (fun () -> merge sites l r t)
    end
  end

let size_for scale = scaled ~scale ~floor:255 32767

let run cfg ~scale =
  let n = size_for scale in
  execute cfg ~program:(fun engine ->
      let sites = make_sites () in
      let prng = Prng.create cfg.Olden_config.seed in
      let points = Array.init n (fun _ -> (Prng.float prng, Prng.float prng)) in
      let root = build sites points in
      let nprocs = Ops.nprocs () in
      Ops.phase "kernel";
      let start = Ops.call (fun () -> tsp sites root n ~span:nprocs) in
      let expected_len, expected_count = Reference.run points in
      (* validate the heap tour *)
      let memory = Engine.memory engine in
      let total = ref 0. and count = ref 0 and p = ref start in
      let continue_ = ref true in
      let coord c off = Memory.load_float memory c off in
      while !continue_ do
        let next = Memory.load_ptr memory !p off_next in
        let prev_of_next = Memory.load_ptr memory next off_prev in
        if not (Gptr.equal prev_of_next !p) then begin
          count := -1;
          continue_ := false
        end
        else begin
          total :=
            !total
            +. dist (coord !p off_x) (coord !p off_y) (coord next off_x)
                 (coord next off_y);
          incr count;
          p := next;
          if Gptr.equal !p start then continue_ := false
        end
      done;
      let ok = !count = n && !count = expected_count && Float.equal !total expected_len in
      (Printf.sprintf "tour=%.4f cities=%d" !total !count, ok))

let spec =
  {
    name = "TSP";
    descr = "Computes an estimate of the best Hamiltonian circuit";
    problem = "32K cities";
    choice = "M";
    whole_program = false;
    heap_stable = true;
    ir;
    default_scale = 1;
    run;
  }
