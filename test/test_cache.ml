(* The software cache: translation table (Figure 1), write logs, home
   directories, and the three coherence protocols' bookkeeping. *)

open Olden
module G = Config.Geometry

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- Translation table --------------------------------------------------- *)

let test_translation_insert_find () =
  let t = Translation.create () in
  check bool "initially absent" true (Translation.find t 42 = None);
  let e = Translation.insert t ~gpage:42 ~home:3 ~page_index:7 in
  check bool "found" true (Translation.find t 42 = Some e);
  check int "home" 3 e.Translation.home;
  check int "all lines invalid" 0 e.Translation.valid

let test_translation_line_bits () =
  let t = Translation.create () in
  let e = Translation.insert t ~gpage:1 ~home:0 ~page_index:0 in
  check bool "line 5 invalid" false (Translation.line_valid e 5);
  Translation.set_line_valid e 5;
  Translation.set_line_valid e 31;
  check bool "line 5 valid" true (Translation.line_valid e 5);
  check bool "line 31 valid" true (Translation.line_valid e 31);
  Translation.invalidate_line e 5;
  check bool "line 5 invalidated" false (Translation.line_valid e 5);
  check bool "line 31 survives" true (Translation.line_valid e 31);
  let dropped = Translation.invalidate_lines e ((1 lsl 31) lor (1 lsl 2)) in
  check int "only valid lines count" 1 dropped

let test_translation_collisions () =
  (* many pages, including ones an old modulo hash would collide, all stay
     findable; the probe statistic stays near the paper's ~1 *)
  let t = Translation.create () in
  let gpages =
    List.init 64 (fun i -> 5 + (i * G.hash_buckets))
    @ List.init 64 (fun i -> Gptr.page_id ~home:3 ~page_index:i)
  in
  let entries =
    List.map
      (fun g ->
        ( g,
          Translation.insert t ~gpage:g ~home:(Gptr.page_home g)
            ~page_index:(Gptr.page_index g) ))
      gpages
  in
  List.iter
    (fun (g, e) ->
      check bool "find" true (Translation.find t g = Some e))
    entries;
  let len = Translation.average_chain_length t in
  check bool "mean probe length small" true (len >= 1. && len < 3.)

let test_translation_flush () =
  let t = Translation.create () in
  ignore (Translation.insert t ~gpage:1 ~home:0 ~page_index:0);
  ignore (Translation.insert t ~gpage:2 ~home:1 ~page_index:0);
  Translation.flush t;
  check bool "all gone" true
    (Translation.find t 1 = None && Translation.find t 2 = None)

let test_translation_invalidate_homes () =
  let t = Translation.create () in
  let e1 = Translation.insert t ~gpage:1 ~home:3 ~page_index:0 in
  let e2 = Translation.insert t ~gpage:2 ~home:5 ~page_index:0 in
  Translation.set_line_valid e1 0;
  Translation.set_line_valid e1 1;
  Translation.set_line_valid e2 0;
  let dropped = Translation.invalidate_homes t (1 lsl 3) in
  check int "two lines dropped from home 3" 2 dropped;
  check bool "home 5 untouched" true (Translation.line_valid e2 0)

let test_mark_all_suspect () =
  let t = Translation.create () in
  let e = Translation.insert t ~gpage:9 ~home:0 ~page_index:0 in
  check bool "fresh entry not suspect" false (Translation.is_suspect t e);
  Translation.mark_all_suspect t;
  check bool "suspect after" true (Translation.is_suspect t e);
  Translation.clear_suspect t e;
  check bool "cleared" false (Translation.is_suspect t e);
  let e2 = Translation.insert t ~gpage:10 ~home:0 ~page_index:0 in
  check bool "entry inserted after epoch bump starts clean" false
    (Translation.is_suspect t e2)

(* --- Popcount ------------------------------------------------------------- *)

let test_popcount () =
  check int "zero" 0 (Config.popcount 0);
  check int "one bit" 1 (Config.popcount (1 lsl 17));
  check int "dense line mask" 32 (Config.popcount 0xFFFF_FFFF);
  check int "alternating" 16 (Config.popcount 0x5555_5555);
  check int "max_int" (Sys.int_size - 1) (Config.popcount max_int);
  (* agrees with the obvious bit-by-bit count on random masks *)
  let naive m =
    let rec go i acc =
      if i >= Sys.int_size then acc
      else go (i + 1) (acc + ((m lsr i) land 1))
    in
    go 0 0
  in
  let seed = ref 0x2545F491 in
  for _ = 1 to 1000 do
    seed := (!seed * 1103515245) + 12345;
    let m = !seed land max_int in
    check int "naive agreement" (naive m) (Config.popcount m)
  done

(* --- Differential test: open-addressed table vs list-based reference ------ *)

(* The reference model is the seed's translation table semantics in its
   plainest possible form: an association list of live entries, flushed by
   dropping the list and marked suspect by walking it.  The randomized
   driver applies identical operation sequences to the reference and the
   open-addressed table and asserts identical observable state after every
   step. *)
module Ref_table = struct
  type rentry = {
    home : int;
    page_index : int;
    mutable valid : int;
    mutable suspect : bool;
  }

  type t = { mutable entries : (int * rentry) list }

  let create () = { entries = [] }
  let find t gpage = List.assoc_opt gpage t.entries

  let insert t ~gpage ~home ~page_index =
    let e = { home; page_index; valid = 0; suspect = false } in
    t.entries <- (gpage, e) :: t.entries;
    e

  let flush t = t.entries <- []
  let mark_all_suspect t = List.iter (fun (_, e) -> e.suspect <- true) t.entries

  let invalidate_lines (e : rentry) mask =
    let dropped = Config.popcount (e.valid land mask) in
    e.valid <- e.valid land lnot mask;
    dropped

  let invalidate_homes t procs =
    List.fold_left
      (fun acc (_, e) ->
        if procs land (1 lsl e.home) <> 0 then begin
          let n = Config.popcount e.valid in
          e.valid <- 0;
          acc + n
        end
        else acc)
      0 t.entries
end

let prop_translation_differential =
  QCheck.Test.make ~name:"open-addressed table matches list-based reference"
    ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 120) (triple (int_bound 7) (int_bound 63) (int_bound 31)))
    (fun ops ->
      let t = Translation.create () in
      let r = Ref_table.create () in
      (* 4 homes x 16 pages: enough density to exercise probing *)
      let gpage_of sel =
        Gptr.page_id ~home:(sel lsr 4) ~page_index:(sel land 0xf)
      in
      let agree () =
        (* every reference entry is observable in the table, equal in
           every visible field, and the table holds nothing more *)
        List.for_all
          (fun (gpage, (re : Ref_table.rentry)) ->
            match Translation.find t gpage with
            | None -> false
            | Some e ->
                e.Translation.home = re.Ref_table.home
                && e.Translation.page_index = re.Ref_table.page_index
                && e.Translation.valid = re.Ref_table.valid
                && Translation.is_suspect t e = re.Ref_table.suspect)
          r.Ref_table.entries
        && Translation.live_entries t = List.length r.Ref_table.entries
      in
      List.for_all
        (fun (kind, sel, line) ->
          let gpage = gpage_of sel in
          (match kind with
          | 0 -> (
              (* insert-if-absent, as the cache layer drives it *)
              match Ref_table.find r gpage with
              | Some _ -> ()
              | None ->
                  let home = Gptr.page_home gpage
                  and page_index = Gptr.page_index gpage in
                  (* both models hand out fresh entries non-suspect, even
                     right after a mark_all_suspect *)
                  ignore (Ref_table.insert r ~gpage ~home ~page_index);
                  ignore (Translation.insert t ~gpage ~home ~page_index))
          | 1 ->
              (* lookups must agree even for absent pages *)
              assert (
                Option.is_some (Ref_table.find r gpage)
                = Option.is_some (Translation.find t gpage))
          | 2 -> (
              match (Ref_table.find r gpage, Translation.find t gpage) with
              | Some re, Some e ->
                  re.Ref_table.valid <- re.Ref_table.valid lor (1 lsl line);
                  Translation.set_line_valid e line
              | None, None -> ()
              | _ -> assert false)
          | 3 -> (
              let mask = (1 lsl line) lor (1 lsl (line * 7 mod 32)) in
              match (Ref_table.find r gpage, Translation.find t gpage) with
              | Some re, Some e ->
                  let a = Ref_table.invalidate_lines re mask in
                  let b = Translation.invalidate_lines e mask in
                  assert (a = b)
              | None, None -> ()
              | _ -> assert false)
          | 4 ->
              Ref_table.flush r;
              Translation.flush t
          | 5 ->
              Ref_table.mark_all_suspect r;
              Translation.mark_all_suspect t
          | 6 -> (
              match (Ref_table.find r gpage, Translation.find t gpage) with
              | Some re, Some e ->
                  re.Ref_table.suspect <- false;
                  Translation.clear_suspect t e
              | None, None -> ()
              | _ -> assert false)
          | _ ->
              let procs = 1 lsl (line land 3) in
              let a = Ref_table.invalidate_homes r procs in
              let b = Translation.invalidate_homes t procs in
              assert (a = b));
          agree ())
        ops)

(* --- Write log ------------------------------------------------------------ *)

let test_write_log () =
  let l = Write_log.create () in
  check bool "empty" true (Write_log.is_empty l);
  Write_log.record l ~gpage:10 ~line:3 ~home:1;
  Write_log.record l ~gpage:10 ~line:5 ~home:1;
  Write_log.record l ~gpage:20 ~line:0 ~home:2;
  check int "two dirty pages" 2 (List.length (Write_log.dirty_pages l));
  check int "three dirty lines" 3 (Write_log.line_count l);
  check bool "written procs" true (Write_log.written_procs l = [ 1; 2 ]);
  Write_log.clear_dirty l;
  check bool "dirty cleared" true (Write_log.is_empty l);
  check bool "written procs survive release" true
    (Write_log.written_procs l = [ 1; 2 ])

let test_write_log_absorb () =
  let a = Write_log.create () and b = Write_log.create () in
  Write_log.record a ~gpage:1 ~line:0 ~home:4;
  Write_log.record b ~gpage:2 ~line:0 ~home:7;
  Write_log.absorb_written_procs a ~from:b;
  check bool "absorbed" true (Write_log.written_procs a = [ 4; 7 ])

(* --- Home directory ------------------------------------------------------- *)

let test_directory_sharers () =
  let d = Directory.create () in
  Directory.add_sharer ~at:0 d ~page_index:3 ~proc:5;
  Directory.add_sharer ~at:0 d ~page_index:3 ~proc:6;
  Directory.add_sharer ~at:0 d ~page_index:3 ~proc:5;
  check int "distinct sharers" 2 (List.length (Directory.sharers d 3));
  check bool "shared" true (Directory.is_shared d 3);
  check bool "other page not shared" false (Directory.is_shared d 4);
  Directory.remove_sharer d ~page_index:3 ~proc:5;
  check bool "removed" true (Directory.sharers d 3 = [ 6 ])

let test_directory_timestamps () =
  let d = Directory.create () in
  Directory.record_write d ~page_index:0 ~line:4;
  (* the write is provisional until the release bumps the timestamp *)
  let mask, ts = Directory.stale_lines d ~page_index:0 ~since:0 in
  check int "provisional write already visible to since=0" (1 lsl 4) mask;
  check int "timestamp not yet bumped" 0 ts;
  Directory.bump_timestamp d ~page_index:0;
  let mask, ts = Directory.stale_lines d ~page_index:0 ~since:0 in
  check int "stale after release" (1 lsl 4) mask;
  check int "timestamp" 1 ts;
  let mask, _ = Directory.stale_lines d ~page_index:0 ~since:1 in
  check int "validated copy is current" 0 mask

(* --- Cache_system end to end ---------------------------------------------- *)

let mk_system ?(nprocs = 4) ?(coherence = Config.Local) () =
  let cfg = Config.make ~nprocs ~coherence () in
  let machine = Machine.create cfg in
  let memory = Memory.create ~nprocs in
  (Cache_system.create cfg machine memory, machine, memory)

let test_cache_read_local_remote () =
  let sys, machine, memory = mk_system () in
  let a = Memory.alloc memory ~proc:1 4 in
  Memory.store memory a 0 (Value.Int 11);
  (* local read takes no cache entry *)
  let v = Cache_system.read sys ~proc:1 a ~field:0 in
  check int "local read" 11 (Value.to_int v);
  check int "no miss" 0 (Machine.stats machine).Stats.cache_misses;
  (* first remote read misses, second hits *)
  let v = Cache_system.read sys ~proc:0 a ~field:0 in
  check int "remote read" 11 (Value.to_int v);
  check int "one miss" 1 (Machine.stats machine).Stats.cache_misses;
  let _ = Cache_system.read sys ~proc:0 a ~field:0 in
  check int "still one miss" 1 (Machine.stats machine).Stats.cache_misses;
  check int "one hit" 1 (Machine.stats machine).Stats.cache_hits;
  check int "one page entry" 1 (Machine.stats machine).Stats.pages_cached

(* The cache files a remote page under [Gptr.global_page] of any pointer
   into it: the page id the directory, the write log and a release use
   is the one a caller derives from the pointer. *)
let test_cache_page_ids () =
  let sys, _machine, memory = mk_system () in
  let a = Memory.alloc memory ~proc:3 (3 * G.words_per_page) in
  let p = Gptr.offset a ((2 * G.words_per_page) + 5) in
  Memory.store_int memory p 0 42;
  check int "remote read" 42
    (Cache_system.read_as Word.Int sys ~proc:1 p ~field:0);
  let gpage = Gptr.global_page p in
  check int "home half" 3 (Gptr.page_home gpage);
  check int "page half" 2 (Gptr.page_index gpage);
  match Translation.find (Cache_system.table sys 1) gpage with
  | None -> Alcotest.fail "no entry at Gptr.global_page"
  | Some e ->
      check int "entry home" 3 e.Translation.home;
      check int "entry page" 2 e.Translation.page_index;
      check int "filed under its tag" gpage e.Translation.gpage

let test_cache_write_through () =
  List.iter
    (fun coherence ->
      let sys, _machine, memory = mk_system ~coherence () in
      let a = Memory.alloc memory ~proc:2 4 in
      Memory.store memory a 1 (Value.Int 1);
      let log = Write_log.create () in
      (* cache the line on proc 0 *)
      ignore (Cache_system.read sys ~proc:0 a ~field:1);
      (* write through from proc 0: home memory and own copy both updated *)
      Cache_system.write sys ~proc:0 a ~field:1 (Value.Int 99) ~log;
      check int "home updated" 99 (Value.to_int (Memory.load memory a 1));
      let v = Cache_system.read sys ~proc:0 a ~field:1 in
      check int "own cached copy updated" 99 (Value.to_int v);
      (* only the schemes that release dirty lines log the line; the
         local scheme keeps just the written processor *)
      check bool "line logged iff the scheme releases lines"
        (coherence <> Config.Local)
        (not (Write_log.is_empty log));
      check bool "written proc recorded" true
        (Write_log.written_procs log = [ 2 ]))
    [ Config.Local; Config.Global; Config.Bilateral ]

let test_local_scheme_flush_on_migration () =
  let sys, machine, memory = mk_system ~coherence:Config.Local () in
  let a = Memory.alloc memory ~proc:1 4 in
  ignore (Cache_system.read sys ~proc:0 a ~field:0);
  Cache_system.on_migration_received sys ~proc:0;
  ignore (Cache_system.read sys ~proc:0 a ~field:0);
  check int "flush forces a re-miss" 2 (Machine.stats machine).Stats.cache_misses;
  check int "one flush counted" 1 (Machine.stats machine).Stats.cache_flushes

let test_local_scheme_return_refinement () =
  let sys, machine, memory = mk_system ~coherence:Config.Local () in
  let a = Memory.alloc memory ~proc:1 4 in
  let b = Memory.alloc memory ~proc:2 4 in
  ignore (Cache_system.read sys ~proc:0 a ~field:0);
  ignore (Cache_system.read sys ~proc:0 b ~field:0);
  (* a returning thread wrote only processor 1's memory *)
  let log = Write_log.create () in
  Write_log.record log ~gpage:0 ~line:0 ~home:1;
  Cache_system.on_return_received sys ~proc:0 ~log;
  ignore (Cache_system.read sys ~proc:0 a ~field:0);
  ignore (Cache_system.read sys ~proc:0 b ~field:0);
  (* a's line (homed at 1) re-missed; b's line survived *)
  check int "selective invalidation" 3 (Machine.stats machine).Stats.cache_misses

let test_global_scheme_eager_invalidation () =
  let sys, machine, memory = mk_system ~coherence:Config.Global () in
  let a = Memory.alloc memory ~proc:1 4 in
  Memory.store memory a 0 (Value.Int 1);
  (* proc 0 caches the line; proc 2 writes it and releases *)
  ignore (Cache_system.read sys ~proc:0 a ~field:0);
  let log = Write_log.create () in
  Cache_system.write sys ~proc:2 a ~field:0 (Value.Int 5) ~log;
  Cache_system.on_migration_sent sys ~proc:2 ~log;
  check bool "invalidation sent" true
    ((Machine.stats machine).Stats.invalidation_messages > 0);
  let v = Cache_system.read sys ~proc:0 a ~field:0 in
  check int "reader re-fetches the new value" 5 (Value.to_int v);
  check int "a second miss" 2 (Machine.stats machine).Stats.cache_misses

let test_bilateral_revalidation () =
  let sys, machine, memory = mk_system ~coherence:Config.Bilateral () in
  let a = Memory.alloc memory ~proc:1 (2 * G.words_per_line) in
  Memory.store memory a 0 (Value.Int 1);
  Memory.store memory a G.words_per_line (Value.Int 2);
  (* proc 0 caches both lines *)
  ignore (Cache_system.read sys ~proc:0 a ~field:0);
  ignore (Cache_system.read sys ~proc:0 a ~field:G.words_per_line);
  (* proc 2 writes line 0 and releases; proc 0 receives a migration *)
  let log = Write_log.create () in
  Cache_system.write sys ~proc:2 a ~field:0 (Value.Int 77) ~log;
  Cache_system.on_migration_sent sys ~proc:2 ~log;
  Cache_system.on_migration_received sys ~proc:0;
  let misses_before = (Machine.stats machine).Stats.cache_misses in
  (* reading line 1: revalidation says it is still good — no miss *)
  let v1 = Cache_system.read sys ~proc:0 a ~field:G.words_per_line in
  check int "unwritten line revalidates without transfer" misses_before
    (Machine.stats machine).Stats.cache_misses;
  check int "value intact" 2 (Value.to_int v1);
  (* reading line 0: stale, must re-fetch *)
  let v0 = Cache_system.read sys ~proc:0 a ~field:0 in
  check int "written line re-misses" (misses_before + 1)
    (Machine.stats machine).Stats.cache_misses;
  check int "fresh value" 77 (Value.to_int v0);
  check bool "revalidations counted" true
    ((Machine.stats machine).Stats.revalidations >= 1)

let test_write_tracking_costs () =
  (* Appendix A: 7 cycles for non-shared pages, 23 for shared. *)
  let sys, machine, memory = mk_system ~coherence:Config.Global () in
  let a = Memory.alloc memory ~proc:1 4 in
  let log = Write_log.create () in
  Cache_system.write sys ~proc:1 a ~field:0 (Value.Int 1) ~log;
  check int "non-shared cost" 7 (Machine.stats machine).Stats.write_track_cycles;
  ignore (Cache_system.read sys ~proc:0 a ~field:0) (* creates a sharer *);
  Cache_system.write sys ~proc:1 a ~field:0 (Value.Int 2) ~log;
  check int "shared cost" 30 (Machine.stats machine).Stats.write_track_cycles

let test_no_write_tracking_under_local () =
  let sys, machine, memory = mk_system ~coherence:Config.Local () in
  let a = Memory.alloc memory ~proc:1 4 in
  let log = Write_log.create () in
  Cache_system.write sys ~proc:0 a ~field:0 (Value.Int 1) ~log;
  check int "local scheme tracks no writes" 0
    (Machine.stats machine).Stats.write_track_cycles

let test_write_through_without_copy () =
  (* a write-through to a line the writer has not cached does not allocate
     a copy; the next read misses and sees the written value *)
  let sys, machine, memory = mk_system () in
  let a = Memory.alloc memory ~proc:1 4 in
  let log = Write_log.create () in
  Cache_system.write sys ~proc:0 a ~field:0 (Value.Int 5) ~log;
  check int "no fetch on write" 0 (Machine.stats machine).Stats.cache_misses;
  let v = Cache_system.read sys ~proc:0 a ~field:0 in
  check int "read misses" 1 (Machine.stats machine).Stats.cache_misses;
  check int "and sees the write" 5 (Value.to_int v)

let test_full_flush_without_refinement () =
  (* with the refinement disabled, a return flushes everything *)
  let cfg =
    Config.make ~nprocs:4 ~coherence:Config.Local
      ~return_invalidate_refinement:false ()
  in
  let machine = Machine.create cfg in
  let memory = Memory.create ~nprocs:4 in
  let sys = Cache_system.create cfg machine memory in
  let a = Memory.alloc memory ~proc:1 4 in
  let b = Memory.alloc memory ~proc:2 4 in
  ignore (Cache_system.read sys ~proc:0 a ~field:0);
  ignore (Cache_system.read sys ~proc:0 b ~field:0);
  let log = Write_log.create () in
  Write_log.record log ~gpage:0 ~line:0 ~home:1;
  Cache_system.on_return_received sys ~proc:0 ~log;
  ignore (Cache_system.read sys ~proc:0 a ~field:0);
  ignore (Cache_system.read sys ~proc:0 b ~field:0);
  (* both lines re-missed after the wholesale flush *)
  check int "full flush" 4 (Machine.stats machine).Stats.cache_misses

(* Protocol property: any release/acquire-bracketed sequence of writes is
   fully visible to the reader, under every scheme.  Random blocks of
   writes by random writers, each followed by a release (migration sent)
   and an acquire (migration received) at a random reader, whose reads
   must then see the latest values. *)
let prop_release_acquire_visibility coherence =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "release/acquire visibility (%s)"
         (Config.coherence_to_string coherence))
    ~count:60
    QCheck.(
      list_of_size Gen.(1 -- 12)
        (triple (int_bound 3) (list_of_size Gen.(1 -- 6) (int_bound 40))
           (int_bound 3)))
    (fun blocks ->
      let sys, _machine, memory = mk_system ~coherence () in
      let base = Memory.alloc memory ~proc:1 64 in
      let shadow = Array.make 64 0 in
      let version = ref 0 in
      List.for_all
        (fun (writer, fields, reader) ->
          let log = Write_log.create () in
          List.iter
            (fun f ->
              incr version;
              shadow.(f) <- !version;
              Cache_system.write sys ~proc:writer base ~field:f
                (Value.Int !version) ~log)
            fields;
          (* release at the writer, acquire at the reader *)
          Cache_system.on_migration_sent sys ~proc:writer ~log;
          Cache_system.on_migration_received sys ~proc:reader;
          List.for_all
            (fun f ->
              Value.to_int (Cache_system.read sys ~proc:reader base ~field:f)
              = shadow.(f))
            fields)
        blocks)

let suite =
  [
    Alcotest.test_case "translation insert/find" `Quick
      test_translation_insert_find;
    Alcotest.test_case "translation line bits" `Quick test_translation_line_bits;
    Alcotest.test_case "translation collisions" `Quick
      test_translation_collisions;
    Alcotest.test_case "translation flush" `Quick test_translation_flush;
    Alcotest.test_case "invalidate by home" `Quick
      test_translation_invalidate_homes;
    Alcotest.test_case "mark all suspect" `Quick test_mark_all_suspect;
    Alcotest.test_case "popcount" `Quick test_popcount;
    QCheck_alcotest.to_alcotest prop_translation_differential;
    Alcotest.test_case "write log" `Quick test_write_log;
    Alcotest.test_case "write log absorb" `Quick test_write_log_absorb;
    Alcotest.test_case "directory sharers" `Quick test_directory_sharers;
    Alcotest.test_case "directory timestamps" `Quick test_directory_timestamps;
    Alcotest.test_case "read local/remote" `Quick test_cache_read_local_remote;
    Alcotest.test_case "a cached page is filed under Gptr.global_page" `Quick
      test_cache_page_ids;
    Alcotest.test_case "write-through" `Quick test_cache_write_through;
    Alcotest.test_case "local: flush on migration" `Quick
      test_local_scheme_flush_on_migration;
    Alcotest.test_case "local: return refinement" `Quick
      test_local_scheme_return_refinement;
    Alcotest.test_case "global: eager invalidation" `Quick
      test_global_scheme_eager_invalidation;
    Alcotest.test_case "bilateral: revalidation" `Quick
      test_bilateral_revalidation;
    Alcotest.test_case "write-through without copy" `Quick
      test_write_through_without_copy;
    Alcotest.test_case "full flush without refinement" `Quick
      test_full_flush_without_refinement;
    Alcotest.test_case "write-tracking costs" `Quick test_write_tracking_costs;
    Alcotest.test_case "local scheme tracks nothing" `Quick
      test_no_write_tracking_under_local;
    QCheck_alcotest.to_alcotest (prop_release_acquire_visibility Config.Local);
    QCheck_alcotest.to_alcotest (prop_release_acquire_visibility Config.Global);
    QCheck_alcotest.to_alcotest
      (prop_release_acquire_visibility Config.Bilateral);
  ]
