(* Bisort: adaptive bitonic sort on a binary tree (Bilardi & Nicolau),
   Table 1: 128K integers; heuristic choice M+C.

   The values live in-order in a complete binary tree (plus one spare
   value).  [bisort] sorts the two halves in opposite directions, creating
   a bitonic sequence, then [bimerge] merges it.  The merge walks a pair of
   search pointers down the two subtrees — a tree *search*, which the
   heuristic caches (each iteration follows one child, affinity 70% below
   the threshold) — and exchanges whole subtrees by deeply swapping their
   values, which keeps the data layout intact for the second (backward)
   sort; those swaps touch a lot of data per processor, so they migrate.

   The kernel runs a forward and then a backward sort, as in the paper. *)

open Common

let ir =
  {|
struct node {
  node left;
  node right;
  int value;
}

int bimerge(node root, int spr, int dir) {
  node pl = root->left;
  node pr = root->right;
  while (pl != null) {
    work(10);
    if (pl->value > pr->value) {
      pl = pl->left;
      pr = pr->left;
    } else {
      pl = pl->right;
      pr = pr->right;
    }
  }
  if (root->left != null) {
    root->value = bimerge(root->left, root->value, dir);
    spr = bimerge(root->right, spr, dir);
  }
  return spr;
}

int bisort(node root, int spr, int dir) {
  if (root->left == null) { work(5); return spr; }
  root->value = future bisort(root->left, root->value, dir);
  spr = bisort(root->right, spr, 1 - dir);
  spr = bimerge(root, spr, dir);
  return spr;
}

void swaptree(node a, node b) {
  if (a == null) { return; }
  int t = a->value;
  a->value = b->value;
  b->value = t;
  swaptree(a->left, b->left);
  swaptree(a->right, b->right);
}
|}

let off_left = 0
let off_right = 1
let off_value = 2
let node_words = 3

type sites = {
  (* tree traversal and subtree swaps: migrate *)
  s_left : Site.t;
  s_right : Site.t;
  s_value : Site.t;
  (* the pl/pr search-pointer walk: cache *)
  s_wleft : Site.t;
  s_wright : Site.t;
  s_wvalue : Site.t;
  (* deep subtree swap: the thread follows one side (migrate), the other is
     brought to it through the cache — "at most one variable per loop is
     selected for computation migration" (Section 4) *)
  s_sa_left : Site.t;
  s_sa_right : Site.t;
  s_sa_value : Site.t;
  s_sb_left : Site.t;
  s_sb_right : Site.t;
  s_sb_value : Site.t;
}

let make_sites () =
  let _sel, mech = sites_of_ir ir in
  let t = site_of mech ~func:"bisort" ~var:"root" ~fallback:C.Migrate in
  let w = site_of mech ~func:"bimerge" ~var:"pl" ~fallback:C.Cache in
  let sa = site_of mech ~func:"swaptree" ~var:"a" ~fallback:C.Migrate in
  let sb = site_of mech ~func:"swaptree" ~var:"b" ~fallback:C.Cache in
  {
    s_left = t ~field:"left";
    s_right = t ~field:"right";
    s_value = t ~field:"value";
    s_wleft = w ~field:"left";
    s_wright = w ~field:"right";
    s_wvalue = w ~field:"value";
    s_sa_left = sa ~field:"left";
    s_sa_right = sa ~field:"right";
    s_sa_value = sa ~field:"value";
    s_sb_left = sb ~field:"left";
    s_sb_right = sb ~field:"right";
    s_sb_value = sb ~field:"value";
  }

let step_work = 25

(* --- Host-side reference (same algorithm on a mirror tree) ------------- *)

module Reference = struct
  type node = { mutable value : int; left : node option; right : node option }

  let rec build vals lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      Some
        { value = vals.(mid); left = build vals lo mid; right = build vals (mid + 1) hi }

  let rec inorder t acc =
    match t with None -> acc | Some n -> inorder n.left (n.value :: inorder n.right acc)

  let rec deep_swap a b =
    match (a, b) with
    | None, None -> ()
    | Some x, Some y ->
        let t = x.value in
        x.value <- y.value;
        y.value <- t;
        deep_swap x.left y.left;
        deep_swap x.right y.right
    | None, Some _ | Some _, None -> assert false

  let get = function Some x -> x | None -> assert false

  let rec bimerge root spr dir =
    let rv = root.value in
    let rightexchange = rv > spr <> dir in
    let spr =
      if rightexchange then begin
        root.value <- spr;
        rv
      end
      else spr
    in
    let pl = ref root.left and pr = ref root.right in
    while !pl <> None do
      let l = get !pl and r = get !pr in
      let elementexchange = l.value > r.value <> dir in
      if rightexchange then
        if elementexchange then begin
          let t = l.value in
          l.value <- r.value;
          r.value <- t;
          deep_swap l.right r.right;
          pl := l.left;
          pr := r.left
        end
        else begin
          pl := l.right;
          pr := r.right
        end
      else if elementexchange then begin
        let t = l.value in
        l.value <- r.value;
        r.value <- t;
        deep_swap l.left r.left;
        pl := l.right;
        pr := r.right
      end
      else begin
        pl := l.left;
        pr := r.left
      end
    done;
    match root.left with
    | None -> spr
    | Some l ->
        root.value <- bimerge l root.value dir;
        bimerge (get root.right) spr dir

  let rec bisort root spr dir =
    match root.left with
    | None ->
        if root.value > spr <> dir then begin
          let t = root.value in
          root.value <- spr;
          t
        end
        else spr
    | Some l ->
        root.value <- bisort l root.value dir;
        let spr = bisort (get root.right) spr (not dir) in
        bimerge root spr dir

  (* Runs forward then backward; returns both observed sequences. *)
  let run vals =
    let n = Array.length vals in
    let root = get (build vals 0 (n - 1)) in
    let spr = bisort root vals.(n - 1) false in
    let fwd = inorder (Some root) [ spr ] in
    let spr = bisort root spr true in
    let bwd = inorder (Some root) [ spr ] in
    (fwd, bwd)
end

(* --- The Olden program ------------------------------------------------- *)

(* Build the in-order complete tree over vals[lo, hi), distributing
   subtrees over the processor range [plo, phi) TreeAdd-style: the
   futurecalled left child to the far half. *)
let build sites vals =
  let nprocs = Ops.nprocs () in
  let rec go lo hi plo phi =
    if lo >= hi then Gptr.null
    else begin
      let mid = (lo + hi) / 2 in
      let node = Ops.alloc ~proc:plo node_words in
      let pmid = (plo + phi) / 2 in
      let left, right =
        if phi - plo >= 2 then
          (go lo mid pmid phi, go (mid + 1) hi plo pmid)
        else (go lo mid plo phi, go (mid + 1) hi plo phi)
      in
      Ops.store_ptr sites.s_left node off_left left;
      Ops.store_ptr sites.s_right node off_right right;
      Ops.store_int sites.s_value node off_value vals.(mid);
      node
    end
  in
  Ops.call (fun () -> go 0 (Array.length vals - 1) 0 nprocs)

(* Deep value swap of two equal-shape subtrees (the paper's expensive
   "swap the trees, not the pointers").  Done in three sweeps — read one
   side, exchange on the other, write back — so the thread touches a large
   amount of data on each processor between migrations, as the paper
   describes, instead of bouncing per node pair. *)
let rec collect_values sites ~left_site ~right_site ~value_site node acc =
  if Gptr.is_null node then acc
  else begin
    let v = Ops.load_int value_site node off_value in
    Ops.work 20;
    let acc =
      collect_values sites ~left_site ~right_site ~value_site
        (Ops.load_ptr left_site node off_left)
        (v :: acc)
    in
    collect_values sites ~left_site ~right_site ~value_site
      (Ops.load_ptr right_site node off_right)
      acc
  end

(* Write [values] over the subtree (same traversal order as the
   collection), returning the leftovers and the subtree's old values. *)
let rec exchange_values sites ~left_site ~right_site ~value_site node values
    old_acc =
  if Gptr.is_null node then (values, old_acc)
  else begin
    match values with
    | [] -> (values, old_acc)
    | v :: rest ->
        let old = Ops.load_int value_site node off_value in
        Ops.store_int value_site node off_value v;
        Ops.work 25;
        let rest, old_acc =
          exchange_values sites ~left_site ~right_site ~value_site
            (Ops.load_ptr left_site node off_left)
            rest (old :: old_acc)
        in
        exchange_values sites ~left_site ~right_site ~value_site
          (Ops.load_ptr right_site node off_right)
          rest old_acc
  end

let rec write_values sites ~left_site ~right_site ~value_site node values =
  if Gptr.is_null node then values
  else begin
    match values with
    | [] -> values
    | v :: rest ->
        Ops.store_int value_site node off_value v;
        Ops.work 20;
        let rest =
          write_values sites ~left_site ~right_site ~value_site
            (Ops.load_ptr left_site node off_left)
            rest
        in
        write_values sites ~left_site ~right_site ~value_site
          (Ops.load_ptr right_site node off_right)
          rest
  end

let deep_swap sites a b =
  if not (Gptr.is_null a) then begin
    (* sweep 1: read b's values (its own walk stays on b's side) *)
    let b_vals =
      List.rev
        (collect_values sites ~left_site:sites.s_sb_left
           ~right_site:sites.s_sb_right ~value_site:sites.s_sb_value b [])
    in
    (* sweep 2: write them over a, collecting a's old values *)
    let _, a_old =
      exchange_values sites ~left_site:sites.s_sa_left
        ~right_site:sites.s_sa_right ~value_site:sites.s_sa_value a b_vals []
    in
    (* sweep 3: write a's old values over b *)
    ignore
      (write_values sites ~left_site:sites.s_sb_left
         ~right_site:sites.s_sb_right ~value_site:sites.s_sb_value b
         (List.rev a_old))
  end

let rec bimerge sites root spr dir ~span =
  let rv = Ops.load_int sites.s_value root off_value in
  let rightexchange = rv > spr <> dir in
  let spr =
    if rightexchange then begin
      Ops.store_int sites.s_value root off_value spr;
      rv
    end
    else spr
  in
  (* the search-pointer walk: cached dereferences *)
  let pl = ref (Ops.load_ptr sites.s_wleft root off_left) in
  let pr = ref (Ops.load_ptr sites.s_wright root off_right) in
  while not (Gptr.is_null !pl) do
    let lv = Ops.load_int sites.s_wvalue !pl off_value in
    let rv = Ops.load_int sites.s_wvalue !pr off_value in
    Ops.work step_work;
    let elementexchange = lv > rv <> dir in
    if rightexchange then
      if elementexchange then begin
        Ops.store_int sites.s_wvalue !pl off_value rv;
        Ops.store_int sites.s_wvalue !pr off_value lv;
        Ops.call (fun () ->
            deep_swap sites
              (Ops.load_ptr sites.s_wright !pl off_right)
              (Ops.load_ptr sites.s_wright !pr off_right));
        pl := Ops.load_ptr sites.s_wleft !pl off_left;
        pr := Ops.load_ptr sites.s_wleft !pr off_left
      end
      else begin
        pl := Ops.load_ptr sites.s_wright !pl off_right;
        pr := Ops.load_ptr sites.s_wright !pr off_right
      end
    else if elementexchange then begin
      Ops.store_int sites.s_wvalue !pl off_value rv;
      Ops.store_int sites.s_wvalue !pr off_value lv;
      Ops.call (fun () ->
          deep_swap sites
            (Ops.load_ptr sites.s_wleft !pl off_left)
            (Ops.load_ptr sites.s_wleft !pr off_left));
      pl := Ops.load_ptr sites.s_wright !pl off_right;
      pr := Ops.load_ptr sites.s_wright !pr off_right
    end
    else begin
      pl := Ops.load_ptr sites.s_wleft !pl off_left;
      pr := Ops.load_ptr sites.s_wleft !pr off_left
    end
  done;
  let left = Ops.load_ptr sites.s_left root off_left in
  if Gptr.is_null left then spr
  else begin
    let rv = Ops.load_int sites.s_value root off_value in
    Ops.work 12;
    let half = max 1 (span / 2) in
    if span >= 2 then begin
      (* the two sub-merges are independent: futurecall the left one *)
      let fut =
        Ops.future (fun () -> Value.Int (bimerge sites left rv dir ~span:half))
      in
      let right = Ops.load_ptr sites.s_right root off_right in
      let spr = Ops.call (fun () -> bimerge sites right spr dir ~span:half) in
      Ops.store_int sites.s_value root off_value (Value.to_int (Ops.touch fut));
      spr
    end
    else begin
      Ops.store_int sites.s_value root off_value
        (Ops.call (fun () -> bimerge sites left rv dir ~span:1));
      let right = Ops.load_ptr sites.s_right root off_right in
      Ops.call (fun () -> bimerge sites right spr dir ~span:1)
    end
  end

(* [span] is the number of processors under this subtree; futurecalls only
   pay off while subtrees span processors (below that no migration can
   occur, so no thread would ever be created). *)
let rec bisort sites root spr dir ~span =
  let left = Ops.load_ptr sites.s_left root off_left in
  if Gptr.is_null left then begin
    let rv = Ops.load_int sites.s_value root off_value in
    Ops.work 20;
    if rv > spr <> dir then begin
      Ops.store_int sites.s_value root off_value spr;
      rv
    end
    else spr
  end
  else begin
    let rv = Ops.load_int sites.s_value root off_value in
    let half = max 1 (span / 2) in
    if span >= 2 then begin
      let fut =
        Ops.future (fun () -> Value.Int (bisort sites left rv dir ~span:half))
      in
      let right = Ops.load_ptr sites.s_right root off_right in
      let spr = bisort sites right spr (not dir) ~span:half in
      Ops.store_int sites.s_value root off_value (Value.to_int (Ops.touch fut));
      Ops.call (fun () -> bimerge sites root spr dir ~span)
    end
    else begin
      Ops.store_int sites.s_value root off_value
        (Ops.call (fun () -> bisort sites left rv dir ~span:1));
      let right = Ops.load_ptr sites.s_right root off_right in
      let spr = bisort sites right spr (not dir) ~span:1 in
      Ops.call (fun () -> bimerge sites root spr dir ~span:1)
    end
  end

let size_for scale = scaled ~scale ~floor:256 131072

let run cfg ~scale =
  let n = size_for scale in
  execute cfg ~program:(fun engine ->
      let sites = make_sites () in
      let prng = Prng.create cfg.Olden_config.seed in
      let vals = Array.init n (fun _ -> Prng.int prng 1_000_000) in
      let root = build sites vals in
      let nprocs = Ops.nprocs () in
      Ops.phase "kernel";
      let spr =
        Ops.call (fun () -> bisort sites root vals.(n - 1) false ~span:nprocs)
      in
      let spr2 = Ops.call (fun () -> bisort sites root spr true ~span:nprocs) in
      let expected_fwd, expected_bwd = Reference.run (Array.copy vals) in
      ignore expected_fwd;
      (* extract the final (backward-sorted) sequence from the heap *)
      let memory = Engine.memory engine in
      let rec inorder node acc =
        if Gptr.is_null node then acc
        else
          let l = Memory.load_ptr memory node off_left in
          let r = Memory.load_ptr memory node off_right in
          let v = Memory.load_int memory node off_value in
          inorder l (v :: inorder r acc)
      in
      let got = inorder root [ spr2 ] in
      let ok = got = expected_bwd in
      (Printf.sprintf "n=%d head=%s" n
         (match got with v :: _ -> string_of_int v | [] -> "-"),
       ok))

let spec =
  {
    name = "Bisort";
    descr = "Sorts by creating two disjoint bitonic sequences and merging";
    problem = "128K integers";
    choice = "M+C";
    whole_program = false;
    heap_stable = true;
    ir;
    default_scale = 16;
    run;
  }
