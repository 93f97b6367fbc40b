(* EM3D: electromagnetic wave propagation in a 3D object (Culler et al.),
   Table 1: 2K nodes; heuristic choice M+C.

   The object is a bipartite graph of E and H nodes.  Each half-step
   recomputes one side from a weighted sum of its neighbors on the other
   side.  Nodes are distributed blocked and walked by one thread per
   processor (the node lists have perfect locality, so the heuristic picks
   migration for them); neighbor values mostly live on the same processor
   but a fraction are remote with no locality, so the heuristic picks
   software caching for the neighbor dereference.  With migration alone
   every remote neighbor read ping-pongs the thread, which is the paper's
   most dramatic migrate-only collapse (speedup 0.05 at 32). *)

open Common

let ir =
  {|
struct enode {
  enode next @ 100;
  enode nbr @ 20;
  float value;
  float coeff;
}

struct chain {
  enode head @ 0;
  chain nextp @ 100;
}

void update_node(enode n) {
  enode cursor = n;
  while (cursor != null) {
    float acc = cursor->value;
    enode other = cursor->nbr;
    acc = acc - cursor->coeff * other->value;
    work(40);
    cursor = cursor->next;
  }
}

void update_all(chain c) {
  if (c == null) { return; }
  int f = future update_node(c->head);
  update_all(c->nextp);
  touch(f);
}
|}

(* Node record: [value; next; deg; (nbr_ptr, weight) x degree]. *)
let off_value = 0
let off_next = 1
let off_deg = 2
let header_words = 3
let node_words degree = header_words + (2 * degree)
let off_nbr j = header_words + (2 * j)
let off_weight j = header_words + (2 * j) + 1

(* Chain record (one per processor, for spawning the walkers). *)
let off_head = 0
let off_nextp = 1
let chain_words = 2

type sites = {
  s_value_local : Site.t; (* a node's own value, read/written locally *)
  s_next : Site.t;
  s_deg : Site.t;
  s_nbr : Site.t;
  s_weight : Site.t;
  s_value_remote : Site.t; (* a neighbor's value: the cached site *)
  s_head : Site.t;
  s_nextp : Site.t;
}

let make_sites () =
  let _sel, mech = sites_of_ir ir in
  let c = site_of mech ~func:"update_node" ~var:"cursor" ~fallback:C.Migrate in
  let o = site_of mech ~func:"update_node" ~var:"other" ~fallback:C.Cache in
  let ch = site_of mech ~func:"update_all" ~var:"c" ~fallback:C.Migrate in
  {
    s_value_local = c ~field:"value";
    s_next = c ~field:"next";
    s_deg = c ~field:"coeff";
    s_nbr = c ~field:"nbr";
    s_weight = c ~field:"coeff";
    s_value_remote = o ~field:"value";
    s_head = ch ~field:"head";
    s_nextp = ch ~field:"nextp";
  }

(* --- Graph description (host-side), shared by build and reference ----- *)

type side = { owner : int array; nbrs : int array array; weights : float array array }

type graph = { e : side; h : side; n : int; degree : int }

(* Neighbors: [local_fraction] stay on the same processor; the rest are
   drawn from a small window at the start of another processor's block,
   giving remote reads spatial reuse (the paper's remote-miss rates are a
   few percent: many reads per fetched line). *)
let describe ?(local_fraction = 0.80) ~n ~degree ~nprocs ~seed () =
  let prng = Prng.create seed in
  let side () =
    let owner = Array.init n (fun i -> block_owner ~nprocs ~n i) in
    let block_start p = ((p * n) + nprocs - 1) / nprocs in
    let block_len p =
      let next = if p = nprocs - 1 then n else block_start (p + 1) in
      max 1 (next - block_start p)
    in
    let nbrs =
      Array.init n (fun i ->
          let p = owner.(i) in
          Array.init degree (fun _ ->
              if nprocs = 1 || Prng.float prng < local_fraction then
                block_start p + Prng.int prng (block_len p)
              else begin
                (* remote neighbors sit on the adjacent partition's
                   boundary window: a 3D mesh cut shares boundary values
                   among many cells, which is what gives the paper its
                   low remote-miss rates *)
                let q = (p + 1) mod nprocs in
                let window = min 4 (block_len q) in
                block_start q + Prng.int prng window
              end))
    in
    let weights =
      Array.init n (fun _ ->
          Array.init degree (fun _ -> (Prng.float prng *. 0.02) +. 0.01))
    in
    { owner; nbrs; weights }
  in
  let e = side () in
  let h = side () in
  { e; h; n; degree }

(* --- Pure OCaml reference --------------------------------------------- *)

let reference g ~iterations =
  let ev = Array.init g.n (fun i -> 0.5 +. (float_of_int (i mod 97) /. 97.)) in
  let hv = Array.init g.n (fun i -> 0.3 +. (float_of_int (i mod 89) /. 89.)) in
  let half ~dst ~src side =
    for i = 0 to g.n - 1 do
      let acc = ref dst.(i) in
      for j = 0 to g.degree - 1 do
        acc := !acc -. (side.weights.(i).(j) *. src.(side.nbrs.(i).(j)))
      done;
      dst.(i) <- !acc
    done
  in
  for _ = 1 to iterations do
    half ~dst:ev ~src:hv g.e;
    half ~dst:hv ~src:ev g.h
  done;
  (ev, hv)

(* --- The Olden program ------------------------------------------------- *)

let edge_work = 40

type built = {
  e_nodes : Gptr.t array;
  h_nodes : Gptr.t array;
  e_chain : Gptr.t; (* per-processor chains, remote-first, on processor 0 *)
  h_chain : Gptr.t;
}

let build sites g =
  let nprocs = Ops.nprocs () in
  let init_value side i =
    match side with
    | `E -> 0.5 +. (float_of_int (i mod 97) /. 97.)
    | `H -> 0.3 +. (float_of_int (i mod 89) /. 89.)
  in
  let alloc_side tag (s : side) =
    Array.init g.n (fun i ->
        let node = Ops.alloc ~proc:s.owner.(i) (node_words g.degree) in
        Ops.store_float sites.s_value_local node off_value (init_value tag i);
        Ops.store_int sites.s_deg node off_deg g.degree;
        node)
  in
  let e_nodes = alloc_side `E g.e and h_nodes = alloc_side `H g.h in
  let wire (s : side) nodes others =
    (* per-processor lists in increasing index order *)
    let heads = Array.make nprocs Gptr.null in
    for i = g.n - 1 downto 0 do
      Ops.store_ptr sites.s_next nodes.(i) off_next heads.(s.owner.(i));
      heads.(s.owner.(i)) <- nodes.(i);
      for j = 0 to g.degree - 1 do
        Ops.store_ptr sites.s_nbr nodes.(i) (off_nbr j) others.(s.nbrs.(i).(j));
        Ops.store_float sites.s_weight nodes.(i) (off_weight j)
          s.weights.(i).(j)
      done
    done;
    (* chain of per-processor list heads, highest processor first so the
       coordinator's own chunk is spawned last (it runs inline) *)
    let cells =
      Array.init nprocs (fun p ->
          let c = Ops.alloc ~proc:0 chain_words in
          Ops.store_ptr sites.s_head c off_head heads.(p);
          c)
    in
    for p = 0 to nprocs - 1 do
      Ops.store_ptr sites.s_nextp cells.(p) off_nextp
        (if p = 0 then Gptr.null else cells.(p - 1))
    done;
    cells.(nprocs - 1)
  in
  let e_chain = wire g.e e_nodes h_nodes in
  let h_chain = wire g.h h_nodes e_nodes in
  { e_nodes; h_nodes; e_chain; h_chain }

(* Update every node of one local list: local fields through the migration
   sites, neighbor values through the cache. *)
let rec update_list sites ~degree node =
  if Gptr.is_null node then 0
  else begin
    let acc = ref (Ops.load_float sites.s_value_local node off_value) in
    for j = 0 to degree - 1 do
      let nbr = Ops.load_ptr sites.s_nbr node (off_nbr j) in
      let w = Ops.load_float sites.s_weight node (off_weight j) in
      let v = Ops.load_float sites.s_value_remote nbr off_value in
      Ops.work edge_work;
      acc := !acc -. (w *. v)
    done;
    Ops.store_float sites.s_value_local node off_value !acc;
    update_list sites ~degree (Ops.load_ptr sites.s_next node off_next)
  end

(* One half-step: one walker per processor. *)
let rec update_all sites ~degree chain =
  if Gptr.is_null chain then ()
  else begin
    let head = Ops.load_ptr sites.s_head chain off_head in
    let fut =
      Ops.future (fun () -> Value.Int (update_list sites ~degree head))
    in
    update_all sites ~degree (Ops.load_ptr sites.s_nextp chain off_nextp);
    ignore (Ops.touch fut)
  end

let kernel sites ~degree built ~iterations =
  for _ = 1 to iterations do
    Ops.call (fun () -> update_all sites ~degree built.e_chain);
    Ops.call (fun () -> update_all sites ~degree built.h_chain)
  done

let iterations = 10

let run_graph ?local_fraction cfg ~scale =
  let n = scaled ~scale ~floor:64 1024 in
  let degree = 20 in
  execute cfg ~program:(fun engine ->
      let sites = make_sites () in
      let g =
        describe ?local_fraction ~n ~degree ~nprocs:cfg.Olden_config.nprocs
          ~seed:cfg.Olden_config.seed ()
      in
      let built = build sites g in
      Ops.phase "kernel";
      kernel sites ~degree built ~iterations;
      let ev, hv = reference g ~iterations in
      let memory = Engine.memory engine in
      let ok = ref true in
      Array.iteri
        (fun i node ->
          let got = Memory.load_float memory node off_value in
          if not (Float.equal got ev.(i)) then ok := false)
        built.e_nodes;
      Array.iteri
        (fun i node ->
          let got = Memory.load_float memory node off_value in
          if not (Float.equal got hv.(i)) then ok := false)
        built.h_nodes;
      let checksum =
        Array.fold_left ( +. ) 0. ev +. Array.fold_left ( +. ) 0. hv
      in
      (Printf.sprintf "sum=%.6f" checksum, !ok))

let run cfg ~scale = run_graph cfg ~scale

(* The %-remote sweep: how the mechanism gap grows with the fraction of
   cross-processor edges (the knob of Culler et al.'s generator).  Caching
   degrades gently; migrate-only ping-pongs in proportion. *)
type sweep_point = {
  remote_fraction : float;
  heuristic_cycles : int;
  migrate_only_cycles : int;
}

let remote_sweep ?(nprocs = 16) ?(scale = 4)
    ?(fractions = [ 0.0; 0.05; 0.1; 0.2; 0.35; 0.5 ]) () =
  List.map
    (fun remote ->
      let local_fraction = 1. -. remote in
      let cycles policy =
        let cfg = Olden_config.make ~nprocs ~policy () in
        let o = run_graph ~local_fraction cfg ~scale in
        if not o.ok then failwith "EM3D sweep: verification failed";
        o.kernel_cycles
      in
      {
        remote_fraction = remote;
        heuristic_cycles = cycles Olden_config.Heuristic;
        migrate_only_cycles = cycles Olden_config.Migrate_only;
      })
    fractions

let pp_sweep ppf points =
  Format.fprintf ppf
    "EM3D: kernel cycles vs fraction of remote edges (M+C vs migrate-only)@.";
  List.iter
    (fun p ->
      Format.fprintf ppf
        "  remote %4.0f%%: heuristic %10d   migrate-only %10d   (%.1fx)@."
        (100. *. p.remote_fraction)
        p.heuristic_cycles p.migrate_only_cycles
        (float_of_int p.migrate_only_cycles /. float_of_int p.heuristic_cycles))
    points

let spec =
  {
    name = "EM3D";
    descr = "Simulates the propagation of electro-magnetic waves in a 3D object";
    problem = "2K nodes";
    choice = "M+C";
    whole_program = false;
    heap_stable = true;
    ir;
    default_scale = 1;
    run;
  }
