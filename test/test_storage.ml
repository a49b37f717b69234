(* Slotted pages, the buffer pool, and heap-backed relations.

   The pool properties the engine depends on: a pinned frame is never
   evicted (its bytes survive arbitrary paging traffic), and the miss
   count of a cold scan equals the number of distinct pages read. The
   heap properties: locations are stable, a random append/delete history
   agrees with a list model, and contents survive close/reopen. The
   ledger: a statement charges the same simulated page I/O whether or
   not its tables live in heaps, and only the pool counts measured I/O. *)

module V = Rdbms.Value
module D = Rdbms.Datatype
module S = Rdbms.Schema
module R = Rdbms.Relation
module Page = Rdbms.Page
module Pool = Rdbms.Buffer_pool
module Heap = Rdbms.Heap
module E = Rdbms.Engine
module Stats = Rdbms.Stats

let tmpfile name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  (try Sys.remove path with Sys_error _ -> ());
  path

let tmpdir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let row i s = [| V.Int i; V.Str s |]

(* ------------------------------------------------------------------ *)
(* Pages *)

let test_page_roundtrip () =
  let p = Page.create () in
  let r0 = row 1 "alpha" and r1 = row (-7) "" in
  let s0 = Option.get (Page.insert p r0) in
  let s1 = Option.get (Page.insert p r1) in
  Alcotest.(check int) "slots allocate in order" 1 s1;
  Alcotest.(check string) "get 0" (Rdbms.Tuple.to_string r0)
    (Rdbms.Tuple.to_string (Option.get (Page.get p s0)));
  Alcotest.(check string) "get 1" (Rdbms.Tuple.to_string r1)
    (Rdbms.Tuple.to_string (Option.get (Page.get p s1)));
  Alcotest.(check bool) "delete live" true (Page.delete p s0);
  Alcotest.(check bool) "delete dead" false (Page.delete p s0);
  Alcotest.(check bool) "dead slot reads None" true (Page.get p s0 = None);
  Alcotest.(check int) "live count" 1 (Page.live p);
  Alcotest.(check (list string)) "page is consistent" [] (Page.check p)

let test_page_fills_up () =
  let p = Page.create () in
  let rec fill n = if Page.insert p (row n "padpadpad") = None then n else fill (n + 1) in
  let fitted = fill 0 in
  Alcotest.(check bool) "a full page holds many rows" true (fitted > 100);
  Alcotest.(check int) "all live" fitted (Page.live p);
  Alcotest.(check (list string)) "full page is consistent" [] (Page.check p)

(* ------------------------------------------------------------------ *)
(* Buffer pool *)

(* An in-memory "disk" backend recording reads. *)
let mem_backend () =
  let store = Hashtbl.create 16 in
  let reads = ref 0 in
  let read pno buf =
    incr reads;
    match Hashtbl.find_opt store pno with
    | Some (data : Bytes.t) -> Bytes.blit data 0 buf 0 Page.size
    | None -> Bytes.fill buf 0 Page.size '\000'
  in
  let write pno buf = Hashtbl.replace store pno (Bytes.copy buf) in
  ({ Pool.read; write }, store, reads)

let test_pool_pinned_never_evicted () =
  let pool = Pool.create ~pages:2 () in
  let backend, _, _ = mem_backend () in
  let f = Pool.register pool backend in
  let data = Pool.pin_fresh pool f 0 in
  Bytes.set data 100 'Z';
  (* page 0 stays pinned while every other frame churns *)
  for pno = 1 to 40 do
    let d = Pool.pin pool f pno in
    Bytes.set d 0 'x';
    Pool.mark_dirty pool f pno;
    Pool.unpin pool f pno
  done;
  Alcotest.(check char) "pinned frame kept its bytes" 'Z' (Bytes.get data 100);
  (* a second pin of the same page must return the same frame *)
  let again = Pool.pin pool f 0 in
  Alcotest.(check bool) "same frame" true (again == data);
  Pool.unpin pool f 0;
  Pool.unpin pool f 0;
  Alcotest.(check (list string)) "pool consistent" [] (Pool.check pool)

let test_pool_all_pinned_fails () =
  let pool = Pool.create ~pages:2 () in
  let backend, _, _ = mem_backend () in
  let f = Pool.register pool backend in
  ignore (Pool.pin_fresh pool f 0);
  ignore (Pool.pin_fresh pool f 1);
  Alcotest.(check bool) "third pin fails" true
    (try
       ignore (Pool.pin pool f 2);
       false
     with Failure _ -> true);
  Pool.unpin pool f 0;
  Pool.unpin pool f 1

let test_pool_miss_counting () =
  let pool = Pool.create ~pages:4 () in
  let backend, store, backend_reads = mem_backend () in
  let f = Pool.register pool backend in
  for pno = 0 to 9 do
    Hashtbl.replace store pno (Bytes.make Page.size 'p')
  done;
  let scan () =
    for pno = 0 to 9 do
      ignore (Pool.pin pool f pno);
      Pool.unpin pool f pno
    done
  in
  let m0 = Pool.misses pool in
  scan ();
  (* cold scan: one miss per distinct page, and every miss hit the disk *)
  Alcotest.(check int) "cold misses = unique pages" 10 (Pool.misses pool - m0);
  Alcotest.(check int) "misses = backend reads" !backend_reads (Pool.misses pool);
  (* a scan wider than the pool rereads everything; within the pool it's free *)
  let small_pool = Pool.create ~pages:16 () in
  let b2, s2, r2 = mem_backend () in
  let f2 = Pool.register small_pool b2 in
  for pno = 0 to 9 do
    Hashtbl.replace s2 pno (Bytes.make Page.size 'q')
  done;
  let scan2 () =
    for pno = 0 to 9 do
      ignore (Pool.pin small_pool f2 pno);
      Pool.unpin small_pool f2 pno
    done
  in
  scan2 ();
  let after_cold = !r2 in
  scan2 ();
  Alcotest.(check int) "warm scan in a big-enough pool is free" after_cold !r2;
  Alcotest.(check int) "10 hits recorded" 10 (Pool.hits small_pool)

let test_pool_writeback_on_eviction () =
  let pool = Pool.create ~pages:2 () in
  let backend, store, _ = mem_backend () in
  let f = Pool.register pool backend in
  let d0 = Pool.pin_fresh pool f 0 in
  Bytes.set d0 7 'A';
  Pool.mark_dirty pool f 0;
  Pool.unpin pool f 0;
  (* push page 0 out *)
  for pno = 1 to 4 do
    ignore (Pool.pin pool f pno);
    Pool.unpin pool f pno
  done;
  Alcotest.(check char) "evicted dirty page reached disk" 'A'
    (Bytes.get (Hashtbl.find store 0) 7);
  Alcotest.(check bool) "writeback counted" true (Pool.writebacks pool >= 1)

(* ------------------------------------------------------------------ *)
(* Heaps *)

let test_heap_roundtrip_and_reopen () =
  let path = tmpfile "dkb_test_heap.heap" in
  let pool = Pool.create ~pages:4 () in
  let h = Heap.create ~pool path in
  let rows = List.init 500 (fun i -> row i (Printf.sprintf "row%d" i)) in
  let locs = List.map (Heap.append h) rows in
  Alcotest.(check bool) "several pages" true (Heap.page_count h > 1);
  Alcotest.(check int) "live" 500 (Heap.live h);
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "get %d" i)
        (Rdbms.Tuple.to_string (List.nth rows i))
        (Rdbms.Tuple.to_string (Option.get (Heap.get h (List.nth locs i)))))
    [ 0; 499 ];
  Alcotest.(check bool) "delete" true (Heap.delete h (List.hd locs));
  Alcotest.(check int) "live after delete" 499 (Heap.live h);
  Alcotest.(check (list string)) "heap consistent" [] (Heap.check h);
  Heap.close h;
  (* reopen: everything that was written must still be there *)
  let pool2 = Pool.create ~pages:4 () in
  let h2 = Heap.create ~pool:pool2 path in
  Alcotest.(check int) "reopened live" 499 (Heap.live h2);
  let got = ref [] in
  Heap.iter (fun _ r -> got := Rdbms.Tuple.to_string r :: !got) h2;
  Alcotest.(check int) "iter count" 499 (List.length !got);
  Heap.close h2;
  Sys.remove path

let test_heap_iter_under_one_frame_pool () =
  (* the scan protocol holds one pin at a time, so even a 1-frame pool
     supports scans over a multi-page heap *)
  let path = tmpfile "dkb_test_heap1.heap" in
  let pool = Pool.create ~pages:1 () in
  let h = Heap.create ~pool path in
  List.iter (fun i -> ignore (Heap.append h (row i "xyzw"))) (List.init 400 Fun.id);
  let n = ref 0 in
  Heap.iter (fun _ _ -> incr n) h;
  Alcotest.(check int) "all rows scanned" 400 !n;
  Heap.close h;
  Sys.remove path

let test_heap_clear_releases_frames () =
  let path = tmpfile "dkb_test_heap2.heap" in
  let pool = Pool.create ~pages:8 () in
  let h = Heap.create ~pool path in
  List.iter (fun i -> ignore (Heap.append h (row i "abcdefgh"))) (List.init 300 Fun.id);
  Alcotest.(check bool) "resident frames" true (Heap.resident h > 0);
  Heap.clear h;
  Alcotest.(check int) "no frames after clear" 0 (Heap.resident h);
  Alcotest.(check int) "no pages after clear" 0 (Heap.page_count h);
  Alcotest.(check int) "file truncated" 0 (Unix.stat path).Unix.st_size;
  Alcotest.(check (list string)) "pool consistent" [] (Pool.check pool);
  Heap.close h;
  Sys.remove path

(* Random append/delete history against a list model. *)
let heap_model_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"heap agrees with a list model on random histories"
       QCheck2.Gen.(list_size (int_range 0 120) (pair bool small_nat))
       (fun ops ->
         let path = tmpfile "dkb_test_heap_qc.heap" in
         let pool = Pool.create ~pages:3 () in
         let h = Heap.create ~pool path in
         let model = Hashtbl.create 64 in
         let next = ref 0 in
         List.iter
           (fun (isdel, k) ->
             if isdel && Hashtbl.length model > 0 then begin
               let keys = Hashtbl.fold (fun l _ acc -> l :: acc) model [] in
               let l = List.nth keys (k mod List.length keys) in
               Hashtbl.remove model l;
               ignore (Heap.delete h l)
             end
             else begin
               let r = row !next (string_of_int (k * 7)) in
               incr next;
               let l = Heap.append h r in
               Hashtbl.replace model l r
             end)
           ops;
         let live_model =
           Hashtbl.fold (fun _ r acc -> Rdbms.Tuple.to_string r :: acc) model []
           |> List.sort compare
         in
         let live_heap = ref [] in
         Heap.iter (fun _ r -> live_heap := Rdbms.Tuple.to_string r :: !live_heap) h;
         let live_heap = List.sort compare !live_heap in
         let consistent = Heap.check h = [] && Pool.check pool = [] in
         Heap.close h;
         Sys.remove path;
         live_model = live_heap && consistent))

(* ------------------------------------------------------------------ *)
(* Heap-backed relations *)

let test_relation_attach_detach () =
  let path = tmpfile "dkb_test_rel.heap" in
  let pool = Pool.create ~pages:4 () in
  let schema = S.make [ ("a", D.TInt); ("b", D.TStr) ] in
  let r = R.create schema in
  List.iter (fun i -> ignore (R.insert r (row i "v"))) (List.init 200 Fun.id);
  let h = Heap.create ~pool path in
  R.attach r h `Overwrite;
  Alcotest.(check bool) "backed" true (R.backed r);
  Alcotest.(check int) "pages = simulated pages of the live bytes"
    (Stats.pages_of_bytes (R.byte_size r)) (R.pages r);
  Alcotest.(check int) "to_list reads through the heap" 200 (List.length (R.to_list r));
  ignore (R.insert r (row 999 "new"));
  ignore (R.delete r (row 0 "v"));
  Alcotest.(check int) "heap live tracks" 200 (Heap.live h);
  Alcotest.(check int) "pages follow the live bytes"
    (Stats.pages_of_bytes (R.byte_size r)) (R.pages r);
  Alcotest.(check (list string)) "relation audit clean" [] (R.check r);
  R.detach r;
  Alcotest.(check bool) "detached keeps rows in memory" true (R.cardinal r = 200);
  Heap.close h;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Engine-level: the two I/O ledgers, TRUNCATE/DROP frame accounting *)

let insert_t_sql =
  Printf.sprintf "INSERT INTO t VALUES %s"
    (String.concat ", " (List.init 600 (fun i -> Printf.sprintf "(%d, 'r%d')" i i)))

let storage_engine ?pool_pages dir =
  let e = E.create () in
  E.attach_storage e ~dir ?pool_pages ();
  ignore (E.exec e "CREATE TABLE t (a integer, b char)");
  ignore (E.exec e insert_t_sql);
  e

let relation e name =
  (Option.get (Rdbms.Catalog.find_table (E.catalog e) name)).Rdbms.Catalog.tbl_relation

(* Measured I/O is the pool's: a cold scan misses once per heap page, a
   warm one (the table fits in the default pool) not at all. The
   simulated charge is the relation's page count both times. The scan
   projects a column: COUNT(star) over a stored table answers from its
   cardinality without reading the heap. *)
let test_engine_measured_reads () =
  let dir = tmpdir "dkb_test_store_eng" in
  let e = storage_engine dir in
  let heap = List.assoc "t" (E.storage_heaps e) in
  let pool = Option.get (E.buffer_pool e) in
  let pages = Heap.page_count heap in
  Alcotest.(check bool) "multi-page table" true (pages > 1);
  let simulated = R.pages (relation e "t") in
  let scan () =
    let before = Stats.copy (E.stats e) and m0 = Pool.misses pool in
    (match E.exec e "SELECT a FROM t" with
    | E.Rows { rows; _ } -> Alcotest.(check int) "scan sees every row" 600 (List.length rows)
    | _ -> Alcotest.fail "SELECT returned no rows");
    ((Stats.diff (E.stats e) before).Stats.page_reads, Pool.misses pool - m0)
  in
  E.drop_page_cache e;
  let cold_reads, cold_misses = scan () in
  Alcotest.(check int) "cold scan misses every heap page" pages cold_misses;
  Alcotest.(check int) "cold scan charges the simulated pages" simulated cold_reads;
  let warm_reads, warm_misses = scan () in
  Alcotest.(check int) "warm scan misses nothing (fits in the pool)" 0 warm_misses;
  Alcotest.(check int) "warm scan charges the simulated pages" simulated warm_reads;
  let m0 = Pool.misses pool and h0 = Pool.hits pool in
  Alcotest.(check int) "COUNT(*) answers from the cardinality" 600
    (E.scalar_int e "SELECT COUNT(*) FROM t");
  Alcotest.(check (pair int int)) "COUNT(*) reads no heap page" (0, 0)
    (Pool.misses pool - m0, Pool.hits pool - h0);
  Alcotest.(check (list string)) "invariants clean"
    [] (List.map Rdbms.Invariants.violation_to_string (E.check_invariants e));
  E.close_storage e

(* One statement list, run on an in-memory engine and on one whose
   tables live in heaps behind a 2-frame pool: every statement charges
   the same simulated page_reads, page_writes and index_probes on both,
   because the cost model does not ask where a table lives. *)
let ledger_statements =
  [
    ("scan", "SELECT a, b FROM t");
    ("count", "SELECT COUNT(*) FROM t");
    ("hash join", "SELECT t.a, u.c FROM t, u WHERE t.a = u.a");
    ("index probe", "SELECT a FROM t WHERE b = 'r7'");
    ("create table", "CREATE TABLE w (a integer, b char)");
    ("insert select", "INSERT INTO w SELECT a, b FROM t WHERE a < 300");
    ("insert except", "INSERT INTO w SELECT a, b FROM t EXCEPT SELECT a, b FROM w");
    ("delete where", "DELETE FROM w WHERE a < 100");
    ("update", "UPDATE w SET b = 'z' WHERE a < 150");
    ("analyze", "ANALYZE");
    ("delete in", "DELETE FROM w WHERE (a, b) IN (SELECT a, b FROM t WHERE a < 200)");
    ("truncate", "TRUNCATE TABLE w");
  ]

let ledger_setup e =
  List.iter
    (fun sql -> ignore (E.exec e sql))
    [
      "CREATE TABLE t (a integer, b char)";
      insert_t_sql;
      "CREATE INDEX t_b ON t (b)";
      "CREATE TABLE u (a integer, c char)";
      Printf.sprintf "INSERT INTO u VALUES %s"
        (String.concat ", " (List.init 200 (fun i -> Printf.sprintf "(%d, 'u%d')" (3 * i) i)));
    ]

let test_engine_ledger_ignores_storage () =
  let dir = tmpdir "dkb_test_store_ledger" in
  let mem = E.create () and disk = E.create () in
  E.attach_storage disk ~dir ~pool_pages:2 ();
  ledger_setup mem;
  ledger_setup disk;
  Alcotest.(check bool) "t spans more pages than the pool holds" true
    (Heap.page_count (List.assoc "t" (E.storage_heaps disk)) > 2);
  Alcotest.(check bool) "the join is a hash join" true
    (Astring.String.is_infix ~affix:"HashJoin" (E.explain mem "SELECT t.a, u.c FROM t, u WHERE t.a = u.a"));
  let charge e sql =
    let before = Stats.copy (E.stats e) in
    let result =
      match E.exec e sql with
      | E.Rows { rows; _ } -> Printf.sprintf "%d rows" (List.length rows)
      | E.Affected n -> Printf.sprintf "%d affected" n
      | E.Done -> "done"
    in
    let d = Stats.diff (E.stats e) before in
    (result, d.Stats.page_reads, d.Stats.page_writes, d.Stats.index_probes)
  in
  let pool = Option.get (E.buffer_pool disk) in
  List.iter
    (fun (what, sql) ->
      let r_mem, reads_mem, writes_mem, probes_mem = charge mem sql in
      let r_disk, reads_disk, writes_disk, probes_disk = charge disk sql in
      Alcotest.(check string) (what ^ ": same result") r_mem r_disk;
      Alcotest.(check int) (what ^ ": page_reads") reads_mem reads_disk;
      Alcotest.(check int) (what ^ ": page_writes") writes_mem writes_disk;
      Alcotest.(check int) (what ^ ": index_probes") probes_mem probes_disk)
    ledger_statements;
  Alcotest.(check bool) "the heap engine did page through its pool" true (Pool.misses pool > 0);
  E.close_storage disk

(* The sanitizer's audit reads every heap page through the pool; the
   pool's measured counters must not show it. *)
let test_engine_audit_leaves_pool_counters () =
  let dir = tmpdir "dkb_test_store_audit" in
  let e = storage_engine ~pool_pages:2 dir in
  ignore (E.exec e "SELECT a FROM t");
  let pool = Option.get (E.buffer_pool e) in
  let counters () = (Pool.hits pool, Pool.misses pool, Pool.writebacks pool) in
  let before = counters () in
  Alcotest.(check (list string)) "invariants clean"
    [] (List.map Rdbms.Invariants.violation_to_string (E.check_invariants e));
  Alcotest.(check (triple int int int)) "hits, misses, writebacks unchanged" before (counters ());
  E.close_storage e

let test_engine_truncate_drop_no_leak () =
  let dir = tmpdir "dkb_test_store_trunc" in
  let e = storage_engine dir in
  ignore (E.exec e "TRUNCATE TABLE t");
  let heap = List.assoc "t" (E.storage_heaps e) in
  Alcotest.(check int) "truncate freed the heap" 0 (Heap.page_count heap);
  Alcotest.(check int) "truncate freed the frames" 0 (Heap.resident heap);
  Alcotest.(check int) "truncated relation charges zero pages" 0 (R.pages (relation e "t"));
  ignore (E.exec e "INSERT INTO t VALUES (1, 'x')");
  ignore (E.exec e "DROP TABLE t");
  Alcotest.(check bool) "drop removed the heap file" false
    (Sys.file_exists (Filename.concat dir "t.heap"));
  Alcotest.(check (list string)) "invariants clean after truncate+drop"
    [] (List.map Rdbms.Invariants.violation_to_string (E.check_invariants e));
  E.close_storage e

let test_engine_reopen_directory () =
  let dir = tmpdir "dkb_test_store_reopen" in
  let e = storage_engine dir in
  let dump = Rdbms.Persist.dump e in
  E.close_storage e;
  (* a fresh engine with the same schema, attaching the same directory:
     the empty relation loads from the heap file *)
  let e2 = E.create () in
  ignore (E.exec e2 "CREATE TABLE t (a integer, b char)");
  (* CREATE TABLE with storage attached would truncate; attach after *)
  E.attach_storage e2 ~dir ();
  Alcotest.(check int) "rows loaded from the heap" 600
    (E.scalar_int e2 "SELECT COUNT(*) FROM t");
  Alcotest.(check string) "dump equal after reload" dump (Rdbms.Persist.dump e2);
  E.close_storage e2

let () =
  Alcotest.run "storage"
    [
      ( "page",
        [
          Alcotest.test_case "roundtrip" `Quick test_page_roundtrip;
          Alcotest.test_case "fills up" `Quick test_page_fills_up;
        ] );
      ( "buffer pool",
        [
          Alcotest.test_case "pinned never evicted" `Quick test_pool_pinned_never_evicted;
          Alcotest.test_case "all pinned fails" `Quick test_pool_all_pinned_fails;
          Alcotest.test_case "miss counting" `Quick test_pool_miss_counting;
          Alcotest.test_case "writeback on eviction" `Quick test_pool_writeback_on_eviction;
        ] );
      ( "heap",
        [
          Alcotest.test_case "roundtrip and reopen" `Quick test_heap_roundtrip_and_reopen;
          Alcotest.test_case "iter under 1-frame pool" `Quick test_heap_iter_under_one_frame_pool;
          Alcotest.test_case "clear releases frames" `Quick test_heap_clear_releases_frames;
          heap_model_agreement;
        ] );
      ( "backed relation",
        [ Alcotest.test_case "attach/detach" `Quick test_relation_attach_detach ] );
      ( "engine",
        [
          Alcotest.test_case "measured reads" `Quick test_engine_measured_reads;
          Alcotest.test_case "simulated charges ignore storage" `Quick
            test_engine_ledger_ignores_storage;
          Alcotest.test_case "audit leaves pool counters" `Quick
            test_engine_audit_leaves_pool_counters;
          Alcotest.test_case "truncate/drop frame accounting" `Quick
            test_engine_truncate_drop_no_leak;
          Alcotest.test_case "reopen directory" `Quick test_engine_reopen_directory;
        ] );
    ]
