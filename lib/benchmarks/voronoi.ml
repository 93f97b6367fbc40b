(* Voronoi: the Voronoi diagram of a point set (Table 1: 64K points;
   heuristic choice M+C), computed as its dual — the Delaunay
   triangulation — with the Guibas-Stolfi divide-and-conquer algorithm on
   quad-edges.

   The divide phase solves the two halves of the x-sorted points (the
   first as a futurecall whose body migrates to the half's processors);
   the conquer phase walks the convex hulls of the two subresults,
   alternating between them irregularly while it knits them together.
   As the paper describes, the heuristic pins the merge on the processor
   that owns one subresult and brings the other in through the cache: all
   quad-edge and point dereferences in the merge are cached, and only the
   descent into a subproblem migrates.

   A quad-edge record holds four directed edge parts; an edge reference is
   (record, rotation).  Each part stores its onext reference (record and
   rotation words) and its origin point. *)

open Common

let ir =
  {|
struct qedge {
  qedge onextr @ 70;
  point data @ 70;
  int onextrot;
  int alive;
}

struct point {
  float x;
  float y;
}

struct anchor {
  anchor range @ 30;
}

int merge_hulls(qedge basel) {
  int n = 0;
  while (basel != null) {
    qedge lcand = basel->onextr;
    float x = lcand->data->x;
    work(60);
    basel = basel->onextr;
    n = n + 1;
  }
  return n;
}

int delaunay(anchor a, int depth) {
  if (depth == 0) { work(200); return 1; }
  int l = future delaunay(a->range, depth - 1);
  int r = delaunay(a->range, depth - 1);
  int m = merge_hulls(null);
  return touch(l) + r + m;
}
|}

(* Edge record: 4 parts of [next_rec; next_rot; data] at offsets 3*rot,
   plus an alive flag at offset 12. *)
let part_next_rec rot = 3 * rot
let part_next_rot rot = (3 * rot) + 1
let part_data rot = (3 * rot) + 2
let off_alive = 12
let edge_words = 13

let p_x = 0
let p_y = 1
let point_words = 2

let anchor_words = 1

type sites = {
  s_next : Site.t; (* onext record/rot words: cache *)
  s_data : Site.t; (* origin point pointers: cache *)
  s_point : Site.t; (* point coordinates: cache *)
  s_anchor : Site.t; (* per-range anchors: migrate (moves the builder) *)
}

let make_sites () =
  let _sel, mech = sites_of_ir ir in
  {
    s_next =
      site_of mech ~func:"merge_hulls" ~var:"basel" ~field:"onextr"
        ~fallback:C.Cache;
    s_data =
      site_of mech ~func:"merge_hulls" ~var:"lcand" ~field:"data"
        ~fallback:C.Cache;
    s_point = Site.cache "voronoi.point.x";
    s_anchor =
      site_of mech ~func:"delaunay" ~var:"a" ~field:"range" ~fallback:C.Migrate;
  }

let ccw_work = 60
let incircle_work = 150
let makeedge_work = 80
let splice_work = 50

(* An edge reference is a quad-edge record and a rotation packed in one
   int, [record lsl 2 lor rot]; the int doubles as the edge part's key
   when a face is named by its least part.  The rotations work on the low
   two bits alone. *)
type eref = int

let[@inline] rot (e : eref) : eref = (e land lnot 3) lor ((e + 1) land 3)
let[@inline] sym (e : eref) : eref = (e land lnot 3) lor ((e + 2) land 3)
let[@inline] invrot (e : eref) : eref = (e land lnot 3) lor ((e + 3) land 3)

(* Whether a, b, c turn counterclockwise. *)
let[@inline] ccw_xy ax ay bx by cx cy =
  ((bx -. ax) *. (cy -. ay)) -. ((by -. ay) *. (cx -. ax)) > 0.

(* Whether d lies inside the circle through a, b and c. *)
let[@inline] in_circle_xy ax ay bx by cx cy dx dy =
  let az = (ax *. ax) +. (ay *. ay) in
  let bz = (bx *. bx) +. (by *. by) in
  let cz = (cx *. cx) +. (cy *. cy) in
  let dz = (dx *. dx) +. (dy *. dy) in
  let m11 = ax -. dx and m12 = ay -. dy and m13 = az -. dz in
  let m21 = bx -. dx and m22 = by -. dy and m23 = bz -. dz in
  let m31 = cx -. dx and m32 = cy -. dy and m33 = cz -. dz in
  (m11 *. ((m22 *. m33) -. (m23 *. m32)))
  -. (m12 *. ((m21 *. m33) -. (m23 *. m31)))
  +. (m13 *. ((m21 *. m32) -. (m22 *. m31)))
  > 0.

(* [a <= b] for points compared as (x, y) pairs, x first. *)
let[@inline] point_le ax ay bx by = ax < bx || (ax = bx && ay <= by)

let circumcenter ax ay bx by cx cy =
  let d = 2. *. ((ax *. (by -. cy)) +. (bx *. (cy -. ay)) +. (cx *. (ay -. by))) in
  if Float.abs d < 1e-18 then None
  else begin
    let a2 = (ax *. ax) +. (ay *. ay) in
    let b2 = (bx *. bx) +. (by *. by) in
    let c2 = (cx *. cx) +. (cy *. cy) in
    let ux = ((a2 *. (by -. cy)) +. (b2 *. (cy -. ay)) +. (c2 *. (ay -. by))) /. d in
    let uy = ((a2 *. (cx -. bx)) +. (b2 *. (ax -. cx)) +. (c2 *. (bx -. ax))) /. d in
    Some (ux, uy)
  end

(* The circumcentre of a triangular face, its corners rotated to start at
   the smallest origin point: intrinsic to the face, so the operand order
   is independent of discovery order and of the parallel schedule. *)
let face_vertex ax ay bx by cx cy =
  if point_le ax ay bx by && point_le ax ay cx cy then
    circumcenter ax ay bx by cx cy
  else if point_le bx by ax ay && point_le bx by cx cy then
    circumcenter bx by cx cy ax ay
  else circumcenter cx cy ax ay bx by

(* Sets of faces, each named by an int. *)
module Faces = Hashtbl.Make (Int)

(* An alive edge (o, d) as one int, [min o d * n + max o d], for point
   indices below [n]. *)
let[@inline] pair_key ~n o d = (min o d * n) + max o d

(* --- Host-side reference (the validated prototype) --------------------- *)

(* Records are numbered from 0 in creation order; record [r]'s part [i]
   is the edge reference [4r + i].  All state belongs to one run. *)
module Reference = struct
  type t = {
    px : float array;
    py : float array;
    mutable next : eref array; (* onext of every part *)
    mutable data : int array; (* origin point of every part, or -1 *)
    mutable alive : Bytes.t; (* per record *)
    mutable records : int;
  }

  let[@inline] onext t e = t.next.(e)
  let[@inline] set_onext t e x = t.next.(e) <- x
  let oprev t e = rot (onext t (rot e))
  let lnext t e = rot (onext t (invrot e))
  let rprev t e = onext t (sym e)
  let[@inline] org t e = t.data.(e)
  let[@inline] dest t e = org t (sym e)

  let grow t =
    let cap = 2 * Bytes.length t.alive in
    let next = Array.make (4 * cap) 0 and data = Array.make (4 * cap) (-1) in
    Array.blit t.next 0 next 0 (4 * t.records);
    Array.blit t.data 0 data 0 (4 * t.records);
    let alive = Bytes.make cap '\000' in
    Bytes.blit t.alive 0 alive 0 t.records;
    t.next <- next;
    t.data <- data;
    t.alive <- alive

  let make_edge t a b : eref =
    if t.records = Bytes.length t.alive then grow t;
    let r = t.records in
    t.records <- r + 1;
    let e = 4 * r in
    set_onext t e e;
    set_onext t (e + 1) (e + 3);
    set_onext t (e + 2) (e + 2);
    set_onext t (e + 3) (e + 1);
    t.data.(e) <- a;
    t.data.(e + 2) <- b;
    Bytes.set t.alive r '\001';
    e

  let splice t a b =
    let alpha = rot (onext t a) and beta = rot (onext t b) in
    let ta = onext t a and tb = onext t b in
    set_onext t a tb;
    set_onext t b ta;
    let talpha = onext t alpha and tbeta = onext t beta in
    set_onext t alpha tbeta;
    set_onext t beta talpha

  let connect t a b =
    let e = make_edge t (dest t a) (org t b) in
    splice t e (lnext t a);
    splice t (sym e) b;
    e

  let delete_edge t e =
    splice t e (oprev t e);
    splice t (sym e) (oprev t (sym e));
    Bytes.set t.alive (e lsr 2) '\000'

  let ccw t a b c =
    ccw_xy t.px.(a) t.py.(a) t.px.(b) t.py.(b) t.px.(c) t.py.(c)

  let in_circle t a b c d =
    in_circle_xy t.px.(a) t.py.(a) t.px.(b) t.py.(b) t.px.(c) t.py.(c)
      t.px.(d) t.py.(d)

  let rightof t p e = ccw t p (dest t e) (org t e)
  let leftof t p e = ccw t p (org t e) (dest t e)
  let valid t basel e = rightof t (dest t e) basel

  (* Points [lo, hi) of the x-sorted set; returns the hull edges. *)
  let rec delaunay t lo hi : eref * eref =
    let n = hi - lo in
    if n = 2 then begin
      let a = make_edge t lo (lo + 1) in
      (a, sym a)
    end
    else if n = 3 then begin
      let s1 = lo and s2 = lo + 1 and s3 = lo + 2 in
      let a = make_edge t s1 s2 in
      let b = make_edge t s2 s3 in
      splice t (sym a) b;
      if ccw t s1 s2 s3 then begin
        let _c = connect t b a in
        (a, sym b)
      end
      else if ccw t s1 s3 s2 then begin
        let c = connect t b a in
        (sym c, c)
      end
      else (a, sym b)
    end
    else begin
      let mid = (lo + hi) / 2 in
      let ldo, ldi = delaunay t lo mid in
      let rdi, rdo = delaunay t mid hi in
      let ldi = ref ldi and rdi = ref rdi and ldo = ref ldo and rdo = ref rdo in
      let continue_ = ref true in
      while !continue_ do
        if leftof t (org t !rdi) !ldi then ldi := lnext t !ldi
        else if rightof t (org t !ldi) !rdi then rdi := rprev t !rdi
        else continue_ := false
      done;
      let basel = ref (connect t (sym !rdi) !ldi) in
      if org t !ldi = org t !ldo then ldo := sym !basel;
      if org t !rdi = org t !rdo then rdo := !basel;
      let merging = ref true in
      while !merging do
        let lcand = ref (onext t (sym !basel)) in
        if valid t !basel !lcand then begin
          while
            in_circle t (dest t !basel) (org t !basel) (dest t !lcand)
              (dest t (onext t !lcand))
          do
            let e = onext t !lcand in
            delete_edge t !lcand;
            lcand := e
          done
        end;
        let rcand = ref (oprev t !basel) in
        if valid t !basel !rcand then begin
          while
            in_circle t (dest t !basel) (org t !basel) (dest t !rcand)
              (dest t (oprev t !rcand))
          do
            let e = oprev t !rcand in
            delete_edge t !rcand;
            rcand := e
          done
        end;
        if (not (valid t !basel !lcand)) && not (valid t !basel !rcand) then
          merging := false
        else if
          (not (valid t !basel !lcand))
          || valid t !basel !rcand
             && in_circle t (dest t !lcand) (org t !lcand) (org t !rcand)
                  (dest t !rcand)
        then basel := connect t !rcand (sym !basel)
        else basel := connect t (sym !basel) (sym !lcand)
      done;
      (!ldo, !rdo)
    end

  (* The dual, mirrored: circumcentres of triangular left faces, in the
     same enumeration order as the simulated extraction. *)
  let face t seen vertices e =
    let e1 = lnext t e in
    if e1 <> e then begin
      let e2 = lnext t e1 in
      if e2 <> e && lnext t e2 = e then begin
        let face_id = min e (min e1 e2) in
        if not (Faces.mem seen face_id) then begin
          Faces.replace seen face_id ();
          let a = org t e and b = org t e1 and c = org t e2 in
          match
            face_vertex t.px.(a) t.py.(a) t.px.(b) t.py.(b) t.px.(c) t.py.(c)
          with
          | Some v -> vertices := v :: !vertices
          | None -> ()
        end
      end
    end

  (* Returns the sorted alive-edge keys ({!pair_key}) and the dual's
     vertices. *)
  let run pts_raw =
    let n = Array.length pts_raw in
    let cap = max 4 (3 * n) in
    let t =
      {
        px = Array.map fst pts_raw;
        py = Array.map snd pts_raw;
        next = Array.make (4 * cap) 0;
        data = Array.make (4 * cap) (-1);
        alive = Bytes.make cap '\000';
        records = 0;
      }
    in
    ignore (delaunay t 0 n);
    let keys = Array.make t.records 0 and nkeys = ref 0 in
    let seen = Faces.create (2 * n) and vertices = ref [] in
    for r = t.records - 1 downto 0 do
      if Bytes.get t.alive r = '\001' then begin
        keys.(!nkeys) <- pair_key ~n (org t (4 * r)) (dest t (4 * r));
        incr nkeys;
        face t seen vertices (4 * r);
        face t seen vertices (sym (4 * r))
      end
    done;
    let keys = Array.sub keys 0 !nkeys in
    Array.sort Int.compare keys;
    (keys, !vertices)
end

(* --- The Olden program ------------------------------------------------- *)

type state = {
  sites : sites;
  mutable records : Gptr.t array; (* every quad-edge record allocated *)
  mutable nrecords : int;
  point_index : (Gptr.t, int) Hashtbl.t;
}

let[@inline] eref (r : Gptr.t) i : eref = ((r :> int) lsl 2) lor i
let[@inline] record (e : eref) = Gptr.of_int (e lsr 2)

let onext st (e : eref) : eref =
  let r = record e and i = e land 3 in
  let rec_ = Ops.load_ptr st.sites.s_next r (part_next_rec i) in
  let rot_ = Ops.load_int st.sites.s_next r (part_next_rot i) in
  eref rec_ rot_

let set_onext st (e : eref) (t : eref) =
  let r = record e and i = e land 3 in
  Ops.store_ptr st.sites.s_next r (part_next_rec i) (record t);
  Ops.store_int st.sites.s_next r (part_next_rot i) (t land 3)

let oprev st e = rot (onext st (rot e))
let lnext st e = rot (onext st (invrot e))
let rprev st e = onext st (sym e)

let org st (e : eref) = Ops.load_ptr st.sites.s_data (record e) (part_data (e land 3))
let dest st e = org st (sym e)

let make_edge st a b : eref =
  let r = Ops.alloc ~proc:(Ops.self ()) edge_words in
  if st.nrecords = Array.length st.records then begin
    let grown = Array.make (2 * st.nrecords) Gptr.null in
    Array.blit st.records 0 grown 0 st.nrecords;
    st.records <- grown
  end;
  st.records.(st.nrecords) <- r;
  st.nrecords <- st.nrecords + 1;
  Ops.work makeedge_work;
  let e = eref r 0 in
  set_onext st e e;
  set_onext st (e + 1) (e + 3);
  set_onext st (e + 2) (e + 2);
  set_onext st (e + 3) (e + 1);
  Ops.store_ptr st.sites.s_data r (part_data 0) a;
  Ops.store_ptr st.sites.s_data r (part_data 1) Gptr.null;
  Ops.store_ptr st.sites.s_data r (part_data 2) b;
  Ops.store_ptr st.sites.s_data r (part_data 3) Gptr.null;
  Ops.store_int st.sites.s_data r off_alive 1;
  e

let splice st a b =
  Ops.work splice_work;
  let alpha = rot (onext st a) and beta = rot (onext st b) in
  let ta = onext st a and tb = onext st b in
  set_onext st a tb;
  set_onext st b ta;
  let talpha = onext st alpha and tbeta = onext st beta in
  set_onext st alpha tbeta;
  set_onext st beta talpha

let connect st a b =
  let e = make_edge st (dest st a) (org st b) in
  splice st e (lnext st a);
  splice st (sym e) b;
  e

let delete_edge st e =
  splice st e (oprev st e);
  splice st (sym e) (oprev st (sym e));
  Ops.store_int st.sites.s_data (record e) off_alive 0

(* Coordinates are read y first, then x, point by point: the load order
   test/golden/kernel_pins.txt pins. *)
let ccw st a b c =
  let ay = Ops.load_float st.sites.s_point a p_y in
  let ax = Ops.load_float st.sites.s_point a p_x in
  let by = Ops.load_float st.sites.s_point b p_y in
  let bx = Ops.load_float st.sites.s_point b p_x in
  let cy = Ops.load_float st.sites.s_point c p_y in
  let cx = Ops.load_float st.sites.s_point c p_x in
  Ops.work ccw_work;
  ccw_xy ax ay bx by cx cy

let in_circle st a b c d =
  let ay = Ops.load_float st.sites.s_point a p_y in
  let ax = Ops.load_float st.sites.s_point a p_x in
  let by = Ops.load_float st.sites.s_point b p_y in
  let bx = Ops.load_float st.sites.s_point b p_x in
  let cy = Ops.load_float st.sites.s_point c p_y in
  let cx = Ops.load_float st.sites.s_point c p_x in
  let dy = Ops.load_float st.sites.s_point d p_y in
  let dx = Ops.load_float st.sites.s_point d p_x in
  Ops.work incircle_work;
  in_circle_xy ax ay bx by cx cy dx dy

let rightof st p e = ccw st p (dest st e) (org st e)
let leftof st p e = ccw st p (org st e) (dest st e)
let valid st basel e = rightof st (dest st e) basel

(* Points and range anchors are blocked over the processors; the anchor
   dereference at the head of each subproblem migrates the builder to its
   half. *)
let rec delaunay st (points : Gptr.t array) (anchors : Gptr.t array) lo hi
    ~span : eref * eref =
  (* touch this range's anchor: moves the thread to the range's processor *)
  ignore (Ops.load_ptr st.sites.s_anchor anchors.(lo) 0);
  let n = hi - lo in
  if n = 2 then begin
    let a = make_edge st points.(lo) points.(lo + 1) in
    (a, sym a)
  end
  else if n = 3 then begin
    let s1 = points.(lo) and s2 = points.(lo + 1) and s3 = points.(lo + 2) in
    let a = make_edge st s1 s2 in
    let b = make_edge st s2 s3 in
    splice st (sym a) b;
    if ccw st s1 s2 s3 then begin
      let _c = connect st b a in
      (a, sym b)
    end
    else if ccw st s1 s3 s2 then begin
      let c = connect st b a in
      (sym c, c)
    end
    else (a, sym b)
  end
  else begin
    let mid = (lo + hi) / 2 in
    let half = max 1 (span / 2) in
    let (ldo, ldi), (rdi, rdo) =
      if span >= 2 then begin
        (* futurecall the *right* half: its anchors live on the upper
           processors, so the body's first dereference migrates and the
           spawner's continuation (the local left half) is stolen *)
        let fut =
          Ops.future (fun () ->
              let r, o = delaunay st points anchors mid hi ~span:half in
              let cell = Ops.alloc ~proc:(Ops.self ()) 4 in
              Ops.store_ptr st.sites.s_data cell 0 (record r);
              Ops.store_int st.sites.s_data cell 1 (r land 3);
              Ops.store_ptr st.sites.s_data cell 2 (record o);
              Ops.store_int st.sites.s_data cell 3 (o land 3);
              Value.Ptr cell)
        in
        let left = delaunay st points anchors lo mid ~span:half in
        let cell = Value.to_ptr (Ops.touch fut) in
        (* each half-edge reads its rotation word before its record *)
        let rdi =
          let i = Ops.load_int st.sites.s_data cell 1 in
          eref (Ops.load_ptr st.sites.s_data cell 0) i
        in
        let rdo =
          let i = Ops.load_int st.sites.s_data cell 3 in
          eref (Ops.load_ptr st.sites.s_data cell 2) i
        in
        (left, (rdi, rdo))
      end
      else
        ( delaunay st points anchors lo mid ~span:1,
          delaunay st points anchors mid hi ~span:1 )
    in
    (* the merge: pinned here; remote subresults arrive through the cache *)
    let ldi = ref ldi and rdi = ref rdi and ldo = ref ldo and rdo = ref rdo in
    let continue_ = ref true in
    while !continue_ do
      if leftof st (org st !rdi) !ldi then ldi := lnext st !ldi
      else if rightof st (org st !ldi) !rdi then rdi := rprev st !rdi
      else continue_ := false
    done;
    let basel = ref (connect st (sym !rdi) !ldi) in
    if Gptr.equal (org st !ldi) (org st !ldo) then ldo := sym !basel;
    if Gptr.equal (org st !rdi) (org st !rdo) then rdo := !basel;
    let merging = ref true in
    while !merging do
      let lcand = ref (onext st (sym !basel)) in
      if valid st !basel !lcand then begin
        while
          in_circle st (dest st !basel) (org st !basel) (dest st !lcand)
            (dest st (onext st !lcand))
        do
          let t = onext st !lcand in
          delete_edge st !lcand;
          lcand := t
        done
      end;
      let rcand = ref (oprev st !basel) in
      if valid st !basel !rcand then begin
        while
          in_circle st (dest st !basel) (org st !basel) (dest st !rcand)
            (dest st (oprev st !rcand))
        do
          let t = oprev st !rcand in
          delete_edge st !rcand;
          rcand := t
        done
      end;
      if (not (valid st !basel !lcand)) && not (valid st !basel !rcand) then
        merging := false
      else if
        (not (valid st !basel !lcand))
        || valid st !basel !rcand
           && in_circle st (dest st !lcand) (org st !lcand) (org st !rcand)
                (dest st !rcand)
      then basel := connect st !rcand (sym !basel)
      else basel := connect st (sym !basel) (sym !lcand)
    done;
    (!ldo, !rdo)
  end

(* --- The dual: the Voronoi diagram itself ------------------------------ *)

(* Each bounded face of the Delaunay triangulation contributes one Voronoi
   vertex — its circumcentre; each Delaunay edge crosses one Voronoi edge.
   The faces are enumerated by walking each alive edge's left-face (lnext)
   cycle; triangular cycles yield a vertex, the outer face (a longer
   cycle) is skipped after at most five steps.  Runs on the simulated
   machine with cached reads, like the merge.  A face is keyed by its
   least edge part so each face counts once within a group (faces
   straddling groups are deduplicated by the caller). *)
let face st seen vertices e =
  let e1 = lnext st e in
  if e1 <> e then begin
    let e2 = lnext st e1 in
    if e2 <> e then begin
      let e3 = lnext st e2 in
      if e3 = e then begin
        let face_id = min e (min e1 e2) in
        if not (Faces.mem seen face_id) then begin
          Faces.replace seen face_id ();
          let a = org st e in
          let ay = Ops.load_float st.sites.s_point a p_y in
          let ax = Ops.load_float st.sites.s_point a p_x in
          let b = org st e1 in
          let by = Ops.load_float st.sites.s_point b p_y in
          let bx = Ops.load_float st.sites.s_point b p_x in
          let c = org st e2 in
          let cy = Ops.load_float st.sites.s_point c p_y in
          let cx = Ops.load_float st.sites.s_point c p_x in
          Ops.work 120 (* circumcentre computation *);
          match face_vertex ax ay bx by cx cy with
          | Some v -> vertices := (face_id, v) :: !vertices
          | None -> ()
        end
      end
      else begin
        (* not a triangle, but the walk still takes up to five steps:
           their loads are part of the pinned sequence *)
        let e4 = lnext st e3 in
        if e4 <> e then ignore (lnext st e4)
      end
    end
  end

(* The vertices of the faces left of the alive edges among [records]
   [lo, hi), walked from [hi - 1] down. *)
let voronoi_vertices st records ~lo ~hi =
  let seen = Faces.create (hi - lo) and vertices = ref [] in
  let alive = Array.make (hi - lo) Gptr.null and nalive = ref 0 in
  for k = hi - 1 downto lo do
    let r = records.(k) in
    if Ops.load_int st.sites.s_data r off_alive = 1 then begin
      alive.(!nalive) <- r;
      incr nalive
    end
  done;
  for k = 0 to !nalive - 1 do
    let e = eref alive.(k) 0 in
    face st seen vertices e;
    face st seen vertices (sym e)
  done;
  !vertices

let points_for scale = scaled ~scale ~floor:64 65536

let run cfg ~scale =
  let n = points_for scale in
  execute cfg ~program:(fun engine ->
      let sites = make_sites () in
      let nprocs = Ops.nprocs () in
      let prng = Prng.create cfg.Olden_config.seed in
      let raw = Array.init n (fun _ -> (Prng.float prng, Prng.float prng)) in
      Array.sort compare raw;
      (* the host reference, before the simulated heap is built: run
         after the simulation, its peak sat on top of the live heap,
         caches and engine.  Its dead structures (about 1.7 M words at
         table2-p8's scale) are collected before the build: left to the
         major GC's pacing, whether they still sat in the heap when the
         simulation grew moved the run's heap peak by up to a tenth
         with any change to what ran before *)
      let expected_pairs, expected_dual = Reference.run raw in
      Gc.full_major ();
      let st =
        {
          sites;
          records = Array.make (max 4 (3 * n)) Gptr.null;
          nrecords = 0;
          point_index = Hashtbl.create (2 * n);
        }
      in
      let points =
        Array.mapi
          (fun i (x, y) ->
            let p = Ops.alloc ~proc:(block_owner ~nprocs ~n i) point_words in
            Ops.store_float sites.s_point p p_x x;
            Ops.store_float sites.s_point p p_y y;
            Hashtbl.replace st.point_index p i;
            p)
          raw
      in
      let anchors =
        Array.init n (fun i ->
            let a = Ops.alloc ~proc:(block_owner ~nprocs ~n i) anchor_words in
            Ops.store_ptr sites.s_anchor a 0 Gptr.null;
            a)
      in
      Ops.phase "kernel";
      let _hull =
        Ops.call (fun () -> delaunay st points anchors 0 n ~span:nprocs)
      in
      (* the diagram itself: circumcentres of the Delaunay faces.  One
         thread per processor walks its own edges (migrating there first);
         faces straddling groups are computed by each and deduplicated. *)
      let pin = Site.migrate "voronoi.dual.pin" in
      (* equal-size chunks of the edge records, contiguous in the address
         space: balanced work with mostly-local reads.  Each chunk's walker
         pins itself on the processor owning the chunk's records and does
         its own alive-filtering there, locally. *)
      let sorted = Array.sub st.records 0 st.nrecords in
      Array.sort Gptr.compare sorted;
      let total = Array.length sorted in
      let chunk_size = max 1 ((total + nprocs - 1) / nprocs) in
      let chunk_lo p = min total (p * chunk_size) in
      let chunk_hi p = if p = nprocs - 1 then total else chunk_lo (p + 1) in
      let results = Array.make nprocs [] in
      let dual =
        Ops.call (fun () ->
            let futs =
              Array.init nprocs (fun p ->
                  Ops.future (fun () ->
                      let lo = chunk_lo p and hi = chunk_hi p in
                      if hi > lo then begin
                        (* pin this walker on its chunk's processor *)
                        ignore (Ops.load pin sorted.(hi - 1) off_alive);
                        results.(p) <- voronoi_vertices st sorted ~lo ~hi
                      end;
                      Value.Int 0))
            in
            Array.iter (fun f -> ignore (Ops.touch f)) futs;
            (* global dedup of faces computed by several groups *)
            let seen = Faces.create (2 * total) in
            let out = ref [] in
            Array.iter
              (List.iter (fun (face_id, v) ->
                   if not (Faces.mem seen face_id) then begin
                     Faces.replace seen face_id ();
                     out := v :: !out
                   end))
              results;
            !out)
      in
      (* verification: alive-edge pair sets and the dual's vertices match
         the reference exactly *)
      let memory = Engine.memory engine in
      let pairs = Array.make st.nrecords 0 and npairs = ref 0 in
      for k = 0 to st.nrecords - 1 do
        let r = st.records.(k) in
        if Memory.load_int memory r off_alive = 1 then begin
          let o = Memory.load_ptr memory r (part_data 0) in
          let d = Memory.load_ptr memory r (part_data 2) in
          pairs.(!npairs) <-
            pair_key ~n
              (Hashtbl.find st.point_index o)
              (Hashtbl.find st.point_index d);
          incr npairs
        end
      done;
      let pairs = Array.sub pairs 0 !npairs in
      Array.sort Int.compare pairs;
      let sorted l =
        let a = Array.of_list l in
        Array.sort compare a;
        a
      in
      let got = sorted dual and want = sorted expected_dual in
      let dual_matches =
        Array.length got = Array.length want
        && Array.for_all2
             (fun (x1, y1) (x2, y2) -> Float.equal x1 x2 && Float.equal y1 y2)
             got want
      in
      let ok = pairs = expected_pairs && dual_matches in
      ( Printf.sprintf "points=%d edges=%d voronoi-vertices=%d" n
          (Array.length pairs) (List.length dual),
        ok ))

let spec =
  {
    name = "Voronoi";
    descr = "Computes the Voronoi Diagram of a set of points";
    problem = "64K points";
    choice = "M+C";
    whole_program = false;
    heap_stable = true;
    ir;
    default_scale = 8;
    run;
  }
