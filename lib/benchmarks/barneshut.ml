(* Barnes-Hut: hierarchical N-body simulation (Table 1: 8K bodies;
   whole-program times; heuristic choice M+C).

   Each iteration rebuilds the octree (sequentially, as in the paper — the
   build grows into a substantial serial fraction as processors are added),
   computes centres of mass, walks the tree once per body to accumulate
   accelerations, and advances positions.  Bodies are distributed blocked
   (after an initial spatial sort); the heuristic migrates the per-body
   work to the bodies' owners, but caches the tree — even though the tree
   has high locality, migrating on it would serialize every walker on the
   processor that owns the root (the Section 4.3 bottleneck rule).  Cells
   are placed on the processor owning their region's bodies, so roughly
   half the cached cell reads are remote (Table 3 reports 55.6%). *)

open Common

let ir =
  {|
struct hnode {
  hnode child0 @ 70;
  hnode child1 @ 70;
  hnode next @ 100;
  float mass;
  float x;
}

struct chain {
  hnode head @ 0;
  chain nextp @ 100;
}

float gravsub(hnode b, hnode n) {
  if (n == null) { return 0.0; }
  float m = n->mass;
  work(60);
  float a = gravsub(b, n->child0);
  float c = gravsub(b, n->child1);
  return m + a + c;
}

void do_bodies(hnode b, hnode root) {
  hnode cursor = b;
  while (cursor != null) {
    float a = gravsub(cursor, root);
    cursor->x = a;
    work(40);
    cursor = cursor->next;
  }
}

void do_all(chain c, hnode root) {
  if (c == null) { return; }
  int f = future do_bodies(c->head, root);
  do_all(c->nextp, root);
  touch(f);
}
|}

(* Heap records.
   Body: [kind=0; mass; x; y; z; vx; vy; vz; ax; ay; az; next]
   Cell: [kind=1; mass; cx; cy; cz; size; child0..7] *)
let off_kind = 0
let off_mass = 1
let b_x = 2
let b_y = 3
let b_z = 4
let b_vx = 5
let b_vy = 6
let b_vz = 7
let b_ax = 8
let b_ay = 9
let b_az = 10
let b_next = 11
let body_words = 12

let c_x = 2
let c_y = 3
let c_z = 4
let c_size = 5
let c_child i = 6 + i
let cell_words = 14

let off_head = 0
let off_nextp = 1
let chain_words = 2

type sites = {
  s_body : Site.t; (* body fields: migrate (local to their owner) *)
  s_bnext : Site.t; (* per-processor body list: migrate *)
  s_cell : Site.t; (* tree cells during the walk: cache (bottleneck rule) *)
  s_cchild : Site.t;
  s_head : Site.t;
  s_nextp : Site.t;
}

let make_sites () =
  let _sel, mech = sites_of_ir ir in
  {
    s_body = site_of mech ~func:"do_bodies" ~var:"cursor" ~field:"x" ~fallback:C.Migrate;
    s_bnext = site_of mech ~func:"do_bodies" ~var:"cursor" ~field:"next" ~fallback:C.Migrate;
    s_cell = site_of mech ~func:"gravsub" ~var:"n" ~field:"mass" ~fallback:C.Cache;
    s_cchild = site_of mech ~func:"gravsub" ~var:"n" ~field:"child0" ~fallback:C.Cache;
    s_head = site_of mech ~func:"do_all" ~var:"c" ~field:"head" ~fallback:C.Migrate;
    s_nextp = site_of mech ~func:"do_all" ~var:"c" ~field:"nextp" ~fallback:C.Migrate;
  }

let theta2 = 0.25 (* opening parameter squared *)
let eps2 = 1e-4
let dt = 0.001
let interact_work = 100
let open_work = 15
let update_work = 30
let iterations = 2

(* --- Shared pure math --------------------------------------------------- *)

let[@inline] octant ~x ~y ~z ~cx ~cy ~cz =
  (if x >= cx then 1 else 0)
  lor (if y >= cy then 2 else 0)
  lor (if z >= cz then 4 else 0)

(* One coordinate of the centre of octant [i] of a cell centred at [c]:
   the axis is the octant bit [bit] (1 for x, 2 for y, 4 for z). *)
let[@inline] octant_coord c ~size i bit =
  let q = size /. 4. in
  if i land bit = bit then c +. q else c -. q

(* A force walk's body position and running acceleration, as one flat
   float record: the walk adds into it in visit order and allocates
   nothing per node. *)
type walker = {
  mutable bx : float;
  mutable by : float;
  mutable bz : float;
  mutable ax : float;
  mutable ay : float;
  mutable az : float;
}

let walker () = { bx = 0.; by = 0.; bz = 0.; ax = 0.; ay = 0.; az = 0. }

let start_walk w ~bx ~by ~bz =
  w.bx <- bx;
  w.by <- by;
  w.bz <- bz;
  w.ax <- 0.;
  w.ay <- 0.;
  w.az <- 0.

(* Add the pull of mass [m] at (mx, my, mz) to the walker's body. *)
let[@inline] add_accel w ~mx ~my ~mz ~m =
  let dx = mx -. w.bx and dy = my -. w.by and dz = mz -. w.bz in
  let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. eps2 in
  let inv = 1. /. (d2 *. Float.sqrt d2) in
  w.ax <- w.ax +. (m *. dx *. inv);
  w.ay <- w.ay +. (m *. dy *. inv);
  w.az <- w.az +. (m *. dz *. inv)

(* Running sums of mass and mass-weighted position for centres of mass. *)
type sums = {
  mutable sm : float;
  mutable sx : float;
  mutable sy : float;
  mutable sz : float;
}

let[@inline] add_sums into s =
  into.sm <- into.sm +. s.sm;
  into.sx <- into.sx +. s.sx;
  into.sy <- into.sy +. s.sy;
  into.sz <- into.sz +. s.sz

let[@inline] add_body_sums into ~m ~x ~y ~z =
  into.sm <- into.sm +. m;
  into.sx <- into.sx +. (m *. x);
  into.sy <- into.sy +. (m *. y);
  into.sz <- into.sz +. (m *. z)

let sums () = { sm = 0.; sx = 0.; sy = 0.; sz = 0. }

(* --- Host-side reference ----------------------------------------------- *)

module Reference = struct
  type node =
    | Empty
    | Body of body
    | Cell of cell

  and body = {
    mutable x : float;
    mutable y : float;
    mutable z : float;
    mutable vx : float;
    mutable vy : float;
    mutable vz : float;
    mass : float;
  }

  and cell = {
    mutable cmass : float;
    mutable cx : float;
    mutable cy : float;
    mutable cz : float;
    gx : float; (* geometric centre, fixed *)
    gy : float;
    gz : float;
    size : float;
    children : node array;
  }

  let new_cell ~gx ~gy ~gz ~size =
    { cmass = 0.; cx = gx; cy = gy; cz = gz; gx; gy; gz; size; children = Array.make 8 Empty }

  let rec insert cell (b : body) =
    let i = octant ~x:b.x ~y:b.y ~z:b.z ~cx:cell.gx ~cy:cell.gy ~cz:cell.gz in
    match cell.children.(i) with
    | Empty -> cell.children.(i) <- Body b
    | Body other ->
        let sub =
          new_cell
            ~gx:(octant_coord cell.gx ~size:cell.size i 1)
            ~gy:(octant_coord cell.gy ~size:cell.size i 2)
            ~gz:(octant_coord cell.gz ~size:cell.size i 4)
            ~size:(cell.size /. 2.)
        in
        cell.children.(i) <- Cell sub;
        insert sub other;
        insert sub b
    | Cell sub -> insert sub b

  (* Adds the node's mass sums into [into]; an empty slot adds zero. *)
  let rec compute_mass node into =
    match node with
    | Empty -> ()
    | Body b -> add_body_sums into ~m:b.mass ~x:b.x ~y:b.y ~z:b.z
    | Cell c ->
        let s = sums () in
        for i = 0 to 7 do
          compute_mass c.children.(i) s
        done;
        c.cmass <- s.sm;
        if s.sm > 0. then begin
          c.cx <- s.sx /. s.sm;
          c.cy <- s.sy /. s.sm;
          c.cz <- s.sz /. s.sm
        end;
        add_sums into s

  let rec walk (b : body) node w =
    match node with
    | Empty -> ()
    | Body other ->
        if other != b then
          add_accel w ~mx:other.x ~my:other.y ~mz:other.z ~m:other.mass
    | Cell c ->
        let ddx = c.cx -. b.x and ddy = c.cy -. b.y and ddz = c.cz -. b.z in
        let d2 = (ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz) +. eps2 in
        if c.size *. c.size < theta2 *. d2 then
          add_accel w ~mx:c.cx ~my:c.cy ~mz:c.cz ~m:c.cmass
        else
          for i = 0 to 7 do
            walk b c.children.(i) w
          done

  let clamp v = Float.max 0.0001 (Float.min v 0.9999)

  let run bodies_init ~iterations =
    let bodies =
      Array.map
        (fun (x, y, z, m) -> { x; y; z; vx = 0.; vy = 0.; vz = 0.; mass = m })
        bodies_init
    in
    for _ = 1 to iterations do
      let root = new_cell ~gx:0.5 ~gy:0.5 ~gz:0.5 ~size:1.0 in
      Array.iter (fun b -> insert root b) bodies;
      compute_mass (Cell root) (sums ());
      let n = Array.length bodies in
      let axs = Array.make n 0. and ays = Array.make n 0. in
      let azs = Array.make n 0. in
      let w = walker () and top = Cell root in
      for i = 0 to n - 1 do
        let b = bodies.(i) in
        start_walk w ~bx:b.x ~by:b.y ~bz:b.z;
        walk b top w;
        axs.(i) <- w.ax;
        ays.(i) <- w.ay;
        azs.(i) <- w.az
      done;
      for i = 0 to n - 1 do
        let b = bodies.(i) in
        b.vx <- b.vx +. (axs.(i) *. dt);
        b.vy <- b.vy +. (ays.(i) *. dt);
        b.vz <- b.vz +. (azs.(i) *. dt);
        b.x <- clamp (b.x +. (b.vx *. dt));
        b.y <- clamp (b.y +. (b.vy *. dt));
        b.z <- clamp (b.z +. (b.vz *. dt))
      done
    done;
    bodies
end

(* --- The Olden program ------------------------------------------------- *)

(* Processor owning a spatial x coordinate (bodies are sorted by x and
   blocked, so this also places cells near their bodies). *)
let owner_of_x ~nprocs x =
  min (nprocs - 1) (int_of_float (x *. float_of_int nprocs))

(* Loads body [b]'s position into the walker in the load order
   test/golden/kernel_pins.txt pins: mass (unused), z, y, x. *)
let load_body sites w b =
  ignore (Ops.load_float sites.s_body b off_mass);
  let bz = Ops.load_float sites.s_body b b_z in
  let by = Ops.load_float sites.s_body b b_y in
  let bx = Ops.load_float sites.s_body b b_x in
  start_walk w ~bx ~by ~bz

(* Sequential tree build, from the main thread: cells are read and written
   through the cache, so the builder never migrates.  [w] holds the
   body's position. *)
let rec insert_body sites ~nprocs w b cell =
  let gx = Ops.load_float sites.s_cell cell c_x in
  let gy = Ops.load_float sites.s_cell cell c_y in
  let gz = Ops.load_float sites.s_cell cell c_z in
  let size = Ops.load_float sites.s_cell cell c_size in
  Ops.work open_work;
  let i = octant ~x:w.bx ~y:w.by ~z:w.bz ~cx:gx ~cy:gy ~cz:gz in
  let child = Ops.load_ptr sites.s_cchild cell (c_child i) in
  if Gptr.is_null child then Ops.store_ptr sites.s_cchild cell (c_child i) b
  else begin
    let kind = Ops.load_int sites.s_cell child off_kind in
    if kind = 1 then insert_body sites ~nprocs w b child
    else begin
      (* split: a new subcell owned by the region's processor *)
      let ncx = octant_coord gx ~size i 1 in
      let proc = owner_of_x ~nprocs ncx in
      let sub = Ops.alloc ~proc cell_words in
      Ops.store_int sites.s_cell sub off_kind 1;
      Ops.store_float sites.s_cell sub off_mass 0.;
      Ops.store_float sites.s_cell sub c_x ncx;
      Ops.store_float sites.s_cell sub c_y (octant_coord gy ~size i 2);
      Ops.store_float sites.s_cell sub c_z (octant_coord gz ~size i 4);
      Ops.store_float sites.s_cell sub c_size (size /. 2.);
      for j = 0 to 7 do
        Ops.store_ptr sites.s_cchild sub (c_child j) Gptr.null
      done;
      Ops.store_ptr sites.s_cchild cell (c_child i) sub;
      (* reinsert the displaced body, then continue with b *)
      let ox = Ops.load_float sites.s_cell child b_x in
      let oy = Ops.load_float sites.s_cell child b_y in
      let oz = Ops.load_float sites.s_cell child b_z in
      reinsert sites ~ox ~oy ~oz child sub;
      insert_body sites ~nprocs w b sub
    end
  end

and reinsert sites ~ox ~oy ~oz body cell =
  let gx = Ops.load_float sites.s_cell cell c_x in
  let gy = Ops.load_float sites.s_cell cell c_y in
  let gz = Ops.load_float sites.s_cell cell c_z in
  ignore (Ops.load_float sites.s_cell cell c_size);
  let i = octant ~x:ox ~y:oy ~z:oz ~cx:gx ~cy:gy ~cz:gz in
  let ch = Ops.load_ptr sites.s_cchild cell (c_child i) in
  if Gptr.is_null ch then Ops.store_ptr sites.s_cchild cell (c_child i) body
  else reinsert sites ~ox ~oy ~oz body ch

(* Centres of mass, sequential, through the cache: adds the node's sums
   into [into]. *)
let rec compute_mass sites node into =
  if not (Gptr.is_null node) then begin
    let kind = Ops.load_int sites.s_cell node off_kind in
    if kind = 0 then begin
      let m = Ops.load_float sites.s_cell node off_mass in
      let x = Ops.load_float sites.s_cell node b_x in
      let y = Ops.load_float sites.s_cell node b_y in
      let z = Ops.load_float sites.s_cell node b_z in
      Ops.work 10;
      add_body_sums into ~m ~x ~y ~z
    end
    else begin
      let s = sums () in
      for i = 0 to 7 do
        let child = Ops.load_ptr sites.s_cchild node (c_child i) in
        compute_mass sites child s
      done;
      Ops.work 20;
      Ops.store_float sites.s_cell node off_mass s.sm;
      if s.sm > 0. then begin
        Ops.store_float sites.s_cell node c_x (s.sx /. s.sm);
        Ops.store_float sites.s_cell node c_y (s.sy /. s.sm);
        Ops.store_float sites.s_cell node c_z (s.sz /. s.sm)
      end;
      add_sums into s
    end
  end

(* The force walk for body [b]: cells through the cache. *)
let rec walk sites ~b w node =
  if not (Gptr.is_null node) then begin
    let kind = Ops.load_int sites.s_cell node off_kind in
    if kind = 0 then begin
      if not (Gptr.equal node b) then begin
        let m = Ops.load_float sites.s_cell node off_mass in
        let mx = Ops.load_float sites.s_cell node b_x in
        let my = Ops.load_float sites.s_cell node b_y in
        let mz = Ops.load_float sites.s_cell node b_z in
        Ops.work interact_work;
        add_accel w ~mx ~my ~mz ~m
      end
    end
    else begin
      let cx = Ops.load_float sites.s_cell node c_x in
      let cy = Ops.load_float sites.s_cell node c_y in
      let cz = Ops.load_float sites.s_cell node c_z in
      let size = Ops.load_float sites.s_cell node c_size in
      Ops.work open_work;
      let ddx = cx -. w.bx and ddy = cy -. w.by and ddz = cz -. w.bz in
      let d2 = (ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz) +. eps2 in
      if size *. size < theta2 *. d2 then begin
        let m = Ops.load_float sites.s_cell node off_mass in
        Ops.work interact_work;
        add_accel w ~mx:cx ~my:cy ~mz:cz ~m
      end
      else
        for i = 0 to 7 do
          let child = Ops.load_ptr sites.s_cchild node (c_child i) in
          walk sites ~b w child
        done
    end
  end

(* Per-processor pass: forces then integration for the local body list. *)
let rec do_bodies sites w ~root b =
  if not (Gptr.is_null b) then begin
    load_body sites w b;
    walk sites ~b w root;
    Ops.store_float sites.s_body b b_ax w.ax;
    Ops.store_float sites.s_body b b_ay w.ay;
    Ops.store_float sites.s_body b b_az w.az;
    Ops.work update_work;
    do_bodies sites w ~root (Ops.load_ptr sites.s_bnext b b_next)
  end

let clamp = Reference.clamp
let read sites b f = Ops.load_float sites.s_body b f

let rec update_bodies sites b =
  if not (Gptr.is_null b) then begin
    let vx = read sites b b_vx +. (read sites b b_ax *. dt) in
    let vy = read sites b b_vy +. (read sites b b_ay *. dt) in
    let vz = read sites b b_vz +. (read sites b b_az *. dt) in
    Ops.store_float sites.s_body b b_vx vx;
    Ops.store_float sites.s_body b b_vy vy;
    Ops.store_float sites.s_body b b_vz vz;
    Ops.store_float sites.s_body b b_x (clamp (read sites b b_x +. (vx *. dt)));
    Ops.store_float sites.s_body b b_y (clamp (read sites b b_y +. (vy *. dt)));
    Ops.store_float sites.s_body b b_z (clamp (read sites b b_z +. (vz *. dt)));
    Ops.work update_work;
    update_bodies sites (Ops.load_ptr sites.s_bnext b b_next)
  end

(* Spawn a walker per processor over its body list. *)
let rec do_all sites chain ~body_pass ~root =
  if not (Gptr.is_null chain) then begin
    let head = Ops.load_ptr sites.s_head chain off_head in
    let fut =
      Ops.future (fun () ->
          (if body_pass then do_bodies sites (walker ()) ~root head
           else update_bodies sites head);
          Value.Int 0)
    in
    do_all sites (Ops.load_ptr sites.s_nextp chain off_nextp) ~body_pass ~root;
    ignore (Ops.touch fut)
  end

let bodies_for scale = scaled ~scale ~floor:128 8192

let run cfg ~scale =
  let n = bodies_for scale in
  execute cfg ~program:(fun engine ->
      let sites = make_sites () in
      let nprocs = Ops.nprocs () in
      let prng = Prng.create cfg.Olden_config.seed in
      let raw =
        Array.init n (fun _ ->
            (Prng.float prng, Prng.float prng, Prng.float prng, 1.0))
      in
      (* spatial sort by x, then block distribution *)
      Array.sort (fun (x1, _, _, _) (x2, _, _, _) -> compare x1 x2) raw;
      let bodies =
        Array.mapi
          (fun i (x, y, z, m) ->
            let proc = block_owner ~nprocs ~n i in
            let b = Ops.alloc ~proc body_words in
            Ops.store_int sites.s_body b off_kind 0;
            Ops.store_float sites.s_body b off_mass m;
            Ops.store_float sites.s_body b b_x x;
            Ops.store_float sites.s_body b b_y y;
            Ops.store_float sites.s_body b b_z z;
            List.iter
              (fun f -> Ops.store_float sites.s_body b f 0.)
              [ b_vx; b_vy; b_vz; b_ax; b_ay; b_az ];
            b)
          raw
      in
      (* per-processor body lists + the spawn chain (remote-first) *)
      let heads = Array.make nprocs Gptr.null in
      for i = n - 1 downto 0 do
        let proc = block_owner ~nprocs ~n i in
        Ops.store_ptr sites.s_bnext bodies.(i) b_next heads.(proc);
        heads.(proc) <- bodies.(i)
      done;
      let cells_chain =
        let cs =
          Array.init nprocs (fun p ->
              let c = Ops.alloc ~proc:0 chain_words in
              Ops.store_ptr sites.s_head c off_head heads.(p);
              c)
        in
        for p = 0 to nprocs - 1 do
          Ops.store_ptr sites.s_nextp cs.(p) off_nextp
            (if p = 0 then Gptr.null else cs.(p - 1))
        done;
        cs.(nprocs - 1)
      in
      Ops.phase "kernel";
      for _ = 1 to iterations do
        (* sequential tree build *)
        let root = Ops.alloc ~proc:0 cell_words in
        Ops.store_int sites.s_cell root off_kind 1;
        Ops.store_float sites.s_cell root off_mass 0.;
        Ops.store_float sites.s_cell root c_x 0.5;
        Ops.store_float sites.s_cell root c_y 0.5;
        Ops.store_float sites.s_cell root c_z 0.5;
        Ops.store_float sites.s_cell root c_size 1.0;
        for j = 0 to 7 do
          Ops.store_ptr sites.s_cchild root (c_child j) Gptr.null
        done;
        let w = walker () in
        Array.iter
          (fun b ->
            load_body sites w b;
            insert_body sites ~nprocs w b root)
          bodies;
        compute_mass sites root (sums ());
        (* parallel force pass, then parallel update pass *)
        Ops.call (fun () -> do_all sites cells_chain ~body_pass:true ~root);
        Ops.call (fun () -> do_all sites cells_chain ~body_pass:false ~root)
      done;
      (* verify against the reference *)
      let expected = Reference.run raw ~iterations in
      let memory = Engine.memory engine in
      let ok = ref true in
      Array.iteri
        (fun i b ->
          let x = Memory.load_float memory b b_x in
          let y = Memory.load_float memory b b_y in
          let z = Memory.load_float memory b b_z in
          let e = expected.(i) in
          if
            not
              (Float.equal x e.Reference.x
              && Float.equal y e.Reference.y
              && Float.equal z e.Reference.z)
          then ok := false)
        bodies;
      let checksum =
        Array.fold_left (fun acc e -> acc +. e.Reference.x +. e.Reference.y) 0. expected
      in
      (Printf.sprintf "n=%d checksum=%.6f" n checksum, !ok))

let spec =
  {
    name = "Barnes-Hut";
    descr = "Solves the N-body problem using hierarchical methods";
    problem = "8K bodies";
    choice = "M+C";
    whole_program = true;
    heap_stable = true;
    ir;
    default_scale = 4;
    run;
  }
