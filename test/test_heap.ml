(* Heap layer: global pointers, values, per-processor memories, geometry. *)

open Olden
module G = Config.Geometry

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- Gptr --------------------------------------------------------------- *)

let test_gptr_roundtrip () =
  List.iter
    (fun (proc, addr) ->
      let p = Gptr.make ~proc ~addr in
      check int "proc" proc (Gptr.proc p);
      check int "addr" addr (Gptr.addr p);
      check bool "not null" false (Gptr.is_null p))
    [ (0, 0); (0, 1); (31, 0); (31, Gptr.max_addr); (511, 12345); (1, 511) ]

let test_gptr_null () =
  check bool "null is null" true (Gptr.is_null Gptr.null);
  Alcotest.check_raises "proc of null" (Invalid_argument "Gptr.proc: null pointer")
    (fun () -> ignore (Gptr.proc Gptr.null));
  (* proc 0 / addr 0 must be distinguishable from null *)
  check bool "zero pointer is not null" false
    (Gptr.is_null (Gptr.make ~proc:0 ~addr:0))

let test_gptr_offset () =
  let p = Gptr.make ~proc:3 ~addr:100 in
  let q = Gptr.offset p 28 in
  check int "offset proc" 3 (Gptr.proc q);
  check int "offset addr" 128 (Gptr.addr q)

let test_gptr_bounds () =
  Alcotest.check_raises "negative proc"
    (Invalid_argument "Gptr.make: processor -1 out of range") (fun () ->
      ignore (Gptr.make ~proc:(-1) ~addr:0));
  Alcotest.check_raises "huge addr"
    (Invalid_argument
       (Printf.sprintf "Gptr.make: address %d out of range" (Gptr.max_addr + 1)))
    (fun () -> ignore (Gptr.make ~proc:0 ~addr:(Gptr.max_addr + 1)))

let test_gptr_of_int () =
  List.iter
    (fun p ->
      check bool "of_int inverts the coercion" true
        (Gptr.equal p (Gptr.of_int (p :> int))))
    [ Gptr.null; Gptr.make ~proc:0 ~addr:0; Gptr.make ~proc:1023 ~addr:Gptr.max_addr ];
  List.iter
    (fun i ->
      Alcotest.check_raises (Printf.sprintf "of_int %d" i)
        (Invalid_argument "Gptr.of_int") (fun () -> ignore (Gptr.of_int i)))
    [ 1; -1; Gptr.max_addr; ((Gptr.make ~proc:5 ~addr:7 :> int) lsl 2) lor 3 ]

let prop_gptr_roundtrip =
  QCheck.Test.make ~name:"gptr encode/decode roundtrip" ~count:500
    QCheck.(pair (int_bound (Gptr.max_procs - 1)) (int_bound Gptr.max_addr))
    (fun (proc, addr) ->
      let p = Gptr.make ~proc ~addr in
      Gptr.proc p = proc && Gptr.addr p = addr && not (Gptr.is_null p))

let prop_gptr_equal_iff_same =
  QCheck.Test.make ~name:"gptr equality is structural" ~count:500
    QCheck.(
      quad (int_bound 63) (int_bound 4095) (int_bound 63) (int_bound 4095))
    (fun (p1, a1, p2, a2) ->
      let x = Gptr.make ~proc:p1 ~addr:a1 and y = Gptr.make ~proc:p2 ~addr:a2 in
      Gptr.equal x y = (p1 = p2 && a1 = a2))

(* --- Value --------------------------------------------------------------- *)

let test_value_accessors () =
  check int "to_int" 42 (Value.to_int (Value.Int 42));
  check (Alcotest.float 0.) "to_float of int" 3. (Value.to_float (Value.Int 3));
  check bool "nil to_ptr is null" true (Gptr.is_null (Value.to_ptr Value.Nil));
  check bool "bool roundtrip" true (Value.to_bool (Value.of_bool true));
  check bool "equal" true (Value.equal (Value.Float 1.5) (Value.Float 1.5));
  check bool "distinct constructors differ" false
    (Value.equal (Value.Int 0) Value.Nil)

let test_value_errors () =
  Alcotest.check_raises "int of ptr"
    (Invalid_argument "Value.to_int: <1,2>") (fun () ->
      ignore (Value.to_int (Value.Ptr (Gptr.make ~proc:1 ~addr:2))))

(* --- Memory -------------------------------------------------------------- *)

let test_memory_alloc_store_load () =
  let m = Memory.create ~nprocs:4 in
  let a = Memory.alloc m ~proc:2 3 in
  check int "owner" 2 (Gptr.proc a);
  Memory.store m a 0 (Value.Int 7);
  Memory.store m a 2 (Value.Ptr a);
  check bool "load word 0" true (Value.equal (Value.Int 7) (Memory.load m a 0));
  check bool "load word 1 default nil" true
    (Value.equal Value.Nil (Memory.load m a 1));
  check bool "load word 2" true (Value.equal (Value.Ptr a) (Memory.load m a 2))

let test_memory_bump_allocation () =
  let m = Memory.create ~nprocs:2 in
  let a = Memory.alloc m ~proc:0 4 in
  let b = Memory.alloc m ~proc:0 4 in
  let c = Memory.alloc m ~proc:1 4 in
  check int "sequential addresses" (Gptr.addr a + 4) (Gptr.addr b);
  check int "independent sections" 0 (Gptr.addr c);
  check int "words used" 8 (Memory.words_used m 0)

let test_memory_bounds () =
  let m = Memory.create ~nprocs:2 in
  let a = Memory.alloc m ~proc:0 2 in
  Alcotest.check_raises "out of range"
    (Invalid_argument
       (Printf.sprintf "Memory: %s+2: address out of allocated range"
          (Gptr.to_string a)))
    (fun () -> ignore (Memory.load m a 2))

(* [load] and [store] test null once and decode the pointer unchecked:
   a null pointer still raises [Gptr.proc]'s error, and every out-of-range
   pointer its own, on both calls. *)
let test_memory_null_and_range () =
  let m = Memory.create ~nprocs:2 in
  let a = Memory.alloc m ~proc:0 2 in
  let both name exn ptr field =
    Alcotest.check_raises ("load " ^ name) exn (fun () ->
        ignore (Memory.load m ptr field));
    Alcotest.check_raises ("store " ^ name) exn (fun () ->
        Memory.store m ptr field (Value.Int 1))
  in
  both "null" (Invalid_argument "Gptr.proc: null pointer") Gptr.null 0;
  both "null, nonzero field" (Invalid_argument "Gptr.proc: null pointer")
    Gptr.null 1;
  let range p field =
    Invalid_argument
      (Printf.sprintf "Memory: %s+%d: address out of allocated range"
         (Gptr.to_string p) field)
  in
  both "past the bump pointer" (range a 2) a 2;
  both "below the section" (range a (-1)) a (-1);
  let stray = Gptr.make ~proc:3 ~addr:0 in
  both "on a missing processor"
    (Invalid_argument
       (Printf.sprintf "Memory: %s: no processor" (Gptr.to_string stray)))
    stray 0

let test_memory_growth () =
  let m = Memory.create ~nprocs:1 in
  (* grow through several storage chunks: 3-word objects straddle chunk
     boundaries, and one allocation is larger than a chunk *)
  let objs = Array.init 10000 (fun _ -> (Memory.alloc m ~proc:0 3, 3)) in
  let objs = Array.append objs [| (Memory.alloc m ~proc:0 10_000, 10_000) |] in
  (* every word holds its own address, so any two words sharing storage
     show up *)
  Array.iter
    (fun (g, n) ->
      for f = 0 to n - 1 do
        Memory.store m g f (Value.Int (Gptr.addr g + f))
      done)
    objs;
  check bool "every word survives growth" true
    (Array.for_all
       (fun (g, n) ->
         List.for_all
           (fun f -> Value.to_int (Memory.load m g f) = Gptr.addr g + f)
           (List.init n Fun.id))
       objs);
  (* every line, chunk edges included, reads back word for word *)
  for line_index = 0 to (Memory.words_used m 0 / G.words_per_line) - 1 do
    Array.iteri
      (fun i v ->
        let addr = (line_index * G.words_per_line) + i in
        if not (Value.equal v (Memory.word_at m ~proc:0 ~addr)) then
          Alcotest.failf "line %d word %d differs" line_index i)
      (Memory.read_line m ~proc:0 ~line_index)
  done

let test_read_line () =
  let m = Memory.create ~nprocs:1 in
  let a = Memory.alloc m ~proc:0 G.words_per_line in
  for i = 0 to G.words_per_line - 1 do
    Memory.store m a i (Value.Int i)
  done;
  let line = Memory.read_line m ~proc:0 ~line_index:0 in
  check int "line width" G.words_per_line (Array.length line);
  Array.iteri (fun i v -> check int "line word" i (Value.to_int v)) line;
  (* a line past the bump pointer reads as Nil *)
  let beyond = Memory.read_line m ~proc:0 ~line_index:5 in
  Array.iter (fun v -> check bool "nil" true (Value.equal Value.Nil v)) beyond

(* [word_at] reads any address of an existing section, a negative one
   included, and names a missing processor as [load] does. *)
let test_word_at_contract () =
  let m = Memory.create ~nprocs:2 in
  let a = Memory.alloc m ~proc:1 4 in
  Memory.store_int m a 0 9;
  check bool "allocated word" true
    (Value.equal (Value.Int 9) (Memory.word_at m ~proc:1 ~addr:0));
  List.iter
    (fun addr ->
      check bool
        (Printf.sprintf "address %d reads as nil" addr)
        true
        (Value.equal Value.Nil (Memory.word_at m ~proc:1 ~addr)))
    [ -1; min_int; 4; 1_000_000 ];
  let missing proc addr =
    let stray = Gptr.make ~proc ~addr in
    Invalid_argument
      (Printf.sprintf "Memory: %s: no processor" (Gptr.to_string stray))
  in
  Alcotest.check_raises "word_at on a missing processor" (missing 2 0)
    (fun () -> ignore (Memory.word_at m ~proc:2 ~addr:0));
  Alcotest.check_raises "load on a missing processor" (missing 2 0) (fun () ->
      ignore (Memory.load m (Gptr.make ~proc:2 ~addr:0) 0));
  Alcotest.check_raises "word_at on a negative processor"
    (Invalid_argument "Memory: <-1,3>: no processor") (fun () ->
      ignore (Memory.word_at m ~proc:(-1) ~addr:3))

(* --- Typed words against a Value.t model ---------------------------------- *)

(* A section of three objects, 4000, 150 and 60 words, so its words run
   across the first chunk boundary (4096) and end partway through a
   line.  Typed and edge stores at random addresses, bunched at the
   chunk boundary and the section's end, are mirrored into a [Value.t
   array]; line fills into a page frame, as the cache makes them, are
   interleaved with the stores.  Floats compare by bit pattern. *)
let model_words = 4210
let chunk_edge = 4096

type heap_op =
  | Put of int * Value.t * bool (* address, value, through the edge store *)
  | Fill of int (* fill the line holding this address *)

let same a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> Value.equal a b

let gen_value =
  let open QCheck.Gen in
  let float_bits =
    [
      0L; Int64.bits_of_float (-0.); Int64.bits_of_float infinity;
      Int64.bits_of_float neg_infinity; 0x7ff8000000000001L;
      0xfff0000000000001L; 0x7ff4000000000000L; 1L;
    ]
  in
  frequency
    [
      (1, return Value.Nil);
      ( 3,
        map (fun i -> Value.Int i)
          (oneof [ oneofl [ min_int; max_int; 0; -1 ]; int ]) );
      ( 3,
        map (fun f -> Value.Float f)
          (oneof [ map Int64.float_of_bits (oneofl float_bits); float ]) );
      ( 3,
        map (fun p -> Value.Ptr p)
          (oneof
             [
               return Gptr.null;
               map2
                 (fun proc addr -> Gptr.make ~proc ~addr)
                 (int_bound (Gptr.max_procs - 1))
                 (int_bound Gptr.max_addr);
             ]) );
    ]

let gen_addr =
  QCheck.Gen.(
    oneof
      [
        int_bound (model_words - 1);
        map (fun d -> chunk_edge - 8 + d) (int_bound 15);
        map (fun d -> model_words - 1 - d) (int_bound 15);
      ])

let gen_heap_ops =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (frequency
         [
           (10, map3 (fun a v e -> Put (a, v, e)) gen_addr gen_value bool);
           (1, map (fun a -> Fill a) gen_addr);
         ]))

let print_heap_op = function
  | Put (a, v, e) ->
      Printf.sprintf "%s %d %s" (if e then "store" else "typed")
        a
        (match v with
        | Value.Float f -> Printf.sprintf "%Lx" (Int64.bits_of_float f)
        | v -> Value.to_string v)
  | Fill a -> Printf.sprintf "fill %d" a

(* What an accessor returns, or the message it raises. *)
let outcome f x =
  match f x with v -> Ok v | exception Invalid_argument m -> Error m

let typed_agree m base model addr =
  let v = model.(addr) in
  let bits f = Int64.bits_of_float f in
  outcome Value.to_int v = outcome (Memory.load_int m base) addr
  && Result.map bits (outcome Value.to_float v)
     = Result.map bits (outcome (Memory.load_float m base) addr)
  && outcome Value.to_ptr v = outcome (Memory.load_ptr m base) addr
  && same v (Memory.load m base addr)

let heap_model_agrees ops =
  let m = Memory.create ~nprocs:2 in
  let base = Memory.alloc m ~proc:0 4000 in
  ignore (Memory.alloc m ~proc:0 150);
  ignore (Memory.alloc m ~proc:0 60);
  ignore (Memory.alloc m ~proc:1 5);
  let model = Array.make model_words Value.Nil in
  let frame = Word.block G.words_per_page in
  let put addr v ~edge =
    model.(addr) <- v;
    if edge then Memory.store m base addr v
    else
      match v with
      | Value.Int i -> Memory.store_int m base addr i
      | Value.Float f -> Memory.store_float m base addr f
      | Value.Ptr p -> Memory.store_ptr m base addr p
      | Value.Nil -> Memory.store m base addr v
  in
  let word addr = if addr < model_words then model.(addr) else Value.Nil in
  let fill_agrees addr =
    let line_index = G.line_index_of_word addr in
    let dst_pos = G.line_of_word addr * G.words_per_line in
    Memory.blit_line m ~proc:0 ~line_index ~dst:frame ~dst_pos;
    List.for_all
      (fun i ->
        let v = word ((line_index * G.words_per_line) + i) in
        same v (Word.get Word.Value frame (dst_pos + i))
        && outcome Value.to_ptr v
           = outcome (Word.get Word.Ptr frame) (dst_pos + i))
      (List.init G.words_per_line Fun.id)
  in
  let replay () =
    (* the same heap built through the edge store only *)
    let r = Memory.create ~nprocs:2 in
    let rb = Memory.alloc r ~proc:0 model_words in
    ignore (Memory.alloc r ~proc:1 5);
    Array.iteri (fun addr v -> Memory.store r rb addr v) model;
    r
  in
  List.for_all
    (function
      | Put (addr, v, edge) ->
          put addr v ~edge;
          typed_agree m base model addr
      | Fill addr -> fill_agrees addr)
    ops
  && List.for_all (typed_agree m base model) (List.init model_words Fun.id)
  && List.for_all
       (fun addr -> same (word addr) (Memory.word_at m ~proc:0 ~addr))
       (List.init (model_words + 20) Fun.id)
  && List.for_all
       (fun line_index ->
         let line = Memory.read_line m ~proc:0 ~line_index in
         List.for_all
           (fun i -> same (word ((line_index * G.words_per_line) + i)) line.(i))
           (List.init G.words_per_line Fun.id))
       (List.init ((model_words / G.words_per_line) + 2) Fun.id)
  && Memory.digest m = Memory.digest (replay ())

let prop_heap_model =
  QCheck.Test.make
    ~name:"typed and edge stores, line fills, word_at, digest = Value.t model"
    ~count:100
    (QCheck.make ~print:(QCheck.Print.list print_heap_op) gen_heap_ops)
    heap_model_agrees

(* A kind mismatch raises exactly what [Value]'s accessor raises. *)
let test_typed_mismatch () =
  let m = Memory.create ~nprocs:1 in
  let a = Memory.alloc m ~proc:0 3 in
  Memory.store_ptr m a 0 (Gptr.make ~proc:1 ~addr:2);
  Memory.store_float m a 1 1.5;
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "int of ptr" "Value.to_int: <1,2>" (fun () -> Memory.load_int m a 0);
  raises "int of float" "Value.to_int: 1.5" (fun () -> Memory.load_int m a 1);
  raises "int of nil" "Value.to_int: nil" (fun () -> Memory.load_int m a 2);
  raises "float of ptr" "Value.to_float: <1,2>" (fun () ->
      Memory.load_float m a 0);
  raises "float of nil" "Value.to_float: nil" (fun () ->
      Memory.load_float m a 2);
  raises "ptr of float" "Value.to_ptr: 1.5" (fun () -> Memory.load_ptr m a 1);
  Memory.store_int m a 1 (-7);
  raises "ptr of int" "Value.to_ptr: -7" (fun () -> Memory.load_ptr m a 1);
  check (Alcotest.float 0.) "int promotes to float" (-7.)
    (Memory.load_float m a 1);
  check bool "nil reads as the null pointer" true
    (Gptr.is_null (Memory.load_ptr m a 2))

(* --- Geometry ------------------------------------------------------------ *)

let test_geometry () =
  check int "words per line" 16 G.words_per_line;
  check int "words per page" 512 G.words_per_page;
  check int "lines per page" 32 G.lines_per_page;
  check int "hash buckets" 1024 G.hash_buckets;
  check int "page of word" 2 (G.page_of_word 1025);
  check int "line of word within page" 0 (G.line_of_word 1025);
  check int "line of word" 31 (G.line_of_word ((512 * 7) + 511));
  check int "word offset in page" 1 (G.word_offset_in_page 1025)

let prop_geometry_consistent =
  QCheck.Test.make ~name:"page/line arithmetic consistent" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun w ->
      let page = G.page_of_word w
      and line = G.line_of_word w
      and off = G.word_offset_in_page w in
      (page * G.words_per_page) + off = w
      && line = off / G.words_per_line
      && G.line_index_of_word w = (page * G.lines_per_page) + line)

let suite =
  [
    Alcotest.test_case "gptr roundtrip" `Quick test_gptr_roundtrip;
    Alcotest.test_case "gptr null" `Quick test_gptr_null;
    Alcotest.test_case "gptr offset" `Quick test_gptr_offset;
    Alcotest.test_case "gptr bounds" `Quick test_gptr_bounds;
    QCheck_alcotest.to_alcotest prop_gptr_roundtrip;
    QCheck_alcotest.to_alcotest prop_gptr_equal_iff_same;
    Alcotest.test_case "value accessors" `Quick test_value_accessors;
    Alcotest.test_case "value errors" `Quick test_value_errors;
    Alcotest.test_case "memory alloc/store/load" `Quick
      test_memory_alloc_store_load;
    Alcotest.test_case "memory bump allocation" `Quick
      test_memory_bump_allocation;
    Alcotest.test_case "memory bounds" `Quick test_memory_bounds;
    Alcotest.test_case "memory growth" `Quick test_memory_growth;
    Alcotest.test_case "read_line" `Quick test_read_line;
    Alcotest.test_case "geometry" `Quick test_geometry;
    QCheck_alcotest.to_alcotest prop_geometry_consistent;
    Alcotest.test_case "gptr of_int" `Quick test_gptr_of_int;
    Alcotest.test_case "memory null and out of range, load and store" `Quick
      test_memory_null_and_range;
    Alcotest.test_case "word_at: negative address nil, missing processor raises"
      `Quick test_word_at_contract;
    Alcotest.test_case "typed load of the wrong kind raises Value's message"
      `Quick test_typed_mismatch;
    QCheck_alcotest.to_alcotest prop_heap_model;
  ]
