(* Transactions, the write-ahead log, and crash recovery.

   The fault-injection matrix uses Wal.set_crash_after to kill the log at
   every record boundary and mid-record, then checks that recovery
   reproduces exactly the committed prefix (Persist.dump equality against
   an engine that ran only those statements). *)

module E = Rdbms.Engine
module W = Rdbms.Wal
module P = Rdbms.Persist
module Session = Core.Session
module V = Rdbms.Value
module D = Rdbms.Datatype

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let tmpfile name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  (try Sys.remove path with Sys_error _ -> ());
  path

let count e table = E.scalar_int e (Printf.sprintf "SELECT COUNT(*) FROM %s" table)

(* ------------------------------------------------------------------ *)
(* Transactions *)

let seeded () =
  let e = E.create () in
  ignore (E.exec e "CREATE TABLE t (a integer, b char)");
  ignore (E.exec e "CREATE INDEX idx_t_a ON t (a)");
  ignore (E.exec e "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')");
  e

let test_rollback_dml () =
  let e = seeded () in
  (* rollback is a logical undo: the row set comes back (physical
     insertion order may differ, so compare sorted) *)
  let snapshot e = E.query e "SELECT a, b FROM t ORDER BY 1" in
  let before = snapshot e in
  ignore (E.exec e "BEGIN");
  ignore (E.exec e "INSERT INTO t VALUES (4, 'w')");
  ignore (E.exec e "DELETE FROM t WHERE a = 1");
  ignore (E.exec e "UPDATE t SET b = 'q' WHERE a = 2");
  ignore (E.exec e "TRUNCATE TABLE t");
  Alcotest.(check int) "txn sees its own writes" 0 (count e "t");
  ignore (E.exec e "ROLLBACK");
  Alcotest.(check bool) "rows identical after rollback" true (before = snapshot e);
  Alcotest.(check bool) "index still answers" true
    (Astring.String.is_infix ~affix:"IndexScan" (E.explain e "SELECT b FROM t WHERE a = 2"));
  Alcotest.(check int) "rollback counted" 1 (E.stats e).Rdbms.Stats.txns_rolled_back

let test_rollback_ddl () =
  let e = seeded () in
  let before = P.dump e in
  ignore (E.exec e "BEGIN");
  ignore (E.exec e "CREATE TABLE fresh (z integer)");
  ignore (E.exec e "INSERT INTO fresh VALUES (9)");
  ignore (E.exec e "DROP TABLE t");
  ignore (E.exec e "ROLLBACK");
  Alcotest.(check string) "created table gone, dropped table back" before (P.dump e);
  (* the recreated table's index is live again, not just cataloged *)
  Alcotest.(check bool) "restored index used" true
    (Astring.String.is_infix ~affix:"IndexScan" (E.explain e "SELECT b FROM t WHERE a = 2"))

let test_rollback_drop_index () =
  let e = seeded () in
  let before = P.dump e in
  ignore (E.exec e "BEGIN");
  ignore (E.exec e "DROP INDEX idx_t_a");
  ignore (E.exec e "CREATE INDEX idx_t_b ON t (b)");
  ignore (E.exec e "ROLLBACK");
  Alcotest.(check string) "index set restored" before (P.dump e)

let test_commit () =
  let e = seeded () in
  ignore (E.exec e "BEGIN");
  ignore (E.exec e "INSERT INTO t VALUES (4, 'w')");
  ignore (E.exec e "COMMIT");
  Alcotest.(check int) "committed rows stay" 4 (count e "t");
  Alcotest.(check int) "commit counted" 1 (E.stats e).Rdbms.Stats.txns_committed

let test_txn_errors () =
  let e = seeded () in
  let fails sql = Alcotest.(check bool) sql true
    (match E.exec e sql with _ -> false | exception E.Sql_error _ -> true)
  in
  fails "COMMIT";
  fails "ROLLBACK";
  ignore (E.exec e "BEGIN");
  fails "BEGIN";
  ignore (E.exec e "ROLLBACK")

let test_statement_atomicity () =
  (* a multi-row INSERT that dies halfway must undo its partial effects,
     inside and outside an explicit transaction *)
  let check_mode in_txn =
    let e = seeded () in
    if in_txn then ignore (E.exec e "BEGIN");
    let before = count e "t" in
    (match E.exec e "INSERT INTO t VALUES (7, 'ok'), ('bad', 8)" with
    | _ -> Alcotest.fail "expected type error"
    | exception E.Sql_error _ -> ());
    Alcotest.(check int)
      (if in_txn then "no partial rows (txn)" else "no partial rows (autocommit)")
      before (count e "t");
    if in_txn then ignore (E.exec e "ROLLBACK")
  in
  check_mode false;
  check_mode true

(* ------------------------------------------------------------------ *)
(* WAL basics *)

(* every statement here changes something, so each becomes one record *)
let script =
  [
    "CREATE TABLE t (a integer, b char)";
    "INSERT INTO t VALUES (1, 'x'), (2, 'y')";
    "CREATE INDEX idx_t_a ON t (a)";
    "INSERT INTO t VALUES (3, 'z')";
    "DELETE FROM t WHERE a = 1";
    "UPDATE t SET b = 'w' WHERE a = 2";
  ]

let prefix_dump k =
  let e = E.create () in
  List.iteri (fun i sql -> if i < k then ignore (E.exec e sql)) script;
  P.dump e

let missing_db = "/nonexistent/dkb_wal_test.db"

let test_wal_roundtrip () =
  let wal = tmpfile "dkb_wal_rt.wal" in
  let e = E.create () in
  let w = W.open_log wal in
  W.attach w e;
  List.iter (fun sql -> ignore (E.exec e sql)) script;
  (* SELECTs and no-effect statements produce no records *)
  ignore (E.exec e "SELECT a FROM t");
  ignore (E.exec e "DELETE FROM t WHERE a = 99");
  ignore (E.exec e "INSERT INTO t VALUES (3, 'z')" (* duplicate: Affected 0 *));
  Alcotest.(check int) "one record per effective statement" (List.length script)
    (List.length (W.read_records wal));
  Alcotest.(check int) "stats count records" (List.length script)
    (E.stats e).Rdbms.Stats.wal_records;
  let e2, replayed = ok (W.recover ~db:missing_db ~wal ()) in
  Alcotest.(check int) "all records replayed" (List.length script) replayed;
  Alcotest.(check string) "recovered dump matches" (P.dump e) (P.dump e2);
  Alcotest.(check int) "recovery counted" 1 (E.stats e2).Rdbms.Stats.recoveries;
  W.close w;
  Sys.remove wal

let test_wal_txn_record () =
  (* one transaction = one record; a rolled-back transaction = none *)
  let wal = tmpfile "dkb_wal_txn.wal" in
  let e = E.create () in
  let w = W.open_log wal in
  W.attach w e;
  ignore (E.exec e "CREATE TABLE t (a integer)");
  ignore (E.exec e "BEGIN");
  ignore (E.exec e "INSERT INTO t VALUES (1)");
  ignore (E.exec e "INSERT INTO t VALUES (2)");
  ignore (E.exec e "COMMIT");
  ignore (E.exec e "BEGIN");
  ignore (E.exec e "INSERT INTO t VALUES (3)");
  ignore (E.exec e "ROLLBACK");
  Alcotest.(check int) "DDL + one committed txn" 2 (List.length (W.read_records wal));
  let e2, _ = ok (W.recover ~db:missing_db ~wal ()) in
  Alcotest.(check string) "rolled-back txn invisible after recovery" (P.dump e) (P.dump e2);
  W.close w;
  Sys.remove wal

(* Writes run as prepared templates with bound arguments reach the log
   as the literal text they stand for, in autocommit and inside
   BEGIN ... COMMIT, and replay to the same state. *)
let test_wal_bound_writes () =
  let wal = tmpfile "dkb_wal_bound.wal" in
  let e = E.create () in
  let w = W.open_log wal in
  W.attach w e;
  ignore (E.exec e "CREATE TABLE t (a integer, b char)");
  ignore (E.exec e "CREATE INDEX idx_t_a ON t (a)");
  let ins = E.prepare e "INSERT INTO t VALUES (?1, ?2)" in
  let upd = E.prepare e "UPDATE t SET b = ?2 WHERE a = ?1" in
  let del = E.prepare e "DELETE FROM t WHERE a = ?1" in
  let copy = E.prepare e "INSERT INTO t SELECT a, ?2 FROM t WHERE a = ?1 AND b = ?3" in
  let run p args = ignore (E.exec_prepared e ~args p) in
  run ins [| V.Int 1; V.Str "it's" |];
  run ins [| V.Int 2; V.Str "y" |];
  ignore (E.exec e "BEGIN");
  run upd [| V.Int 2; V.Str "?1" |];
  run ins [| V.Int 3; V.Str "z" |];
  run copy [| V.Int 3; V.Str "zz"; V.Str "z" |];
  run del [| V.Int 1 |];
  ignore (E.exec e "COMMIT");
  Alcotest.(check (list string))
    "records are literal text"
    [
      "CREATE TABLE t (a integer, b char)";
      "CREATE INDEX idx_t_a ON t (a)";
      "INSERT INTO t VALUES (1, 'it''s')";
      "INSERT INTO t VALUES (2, 'y')";
      "UPDATE t SET b = '?1' WHERE a = 2;\n\
       INSERT INTO t VALUES (3, 'z');\n\
       INSERT INTO t SELECT a, 'zz' FROM t WHERE a = 3 AND b = 'z';\n\
       DELETE FROM t WHERE a = 1";
    ]
    (W.read_records wal);
  let e2, _ = ok (W.recover ~db:missing_db ~wal ()) in
  Alcotest.(check string) "recovered dump matches" (P.dump e) (P.dump e2);
  W.close w;
  Sys.remove wal

(* ------------------------------------------------------------------ *)
(* Fault-injection matrix *)

let wal_file_length path =
  In_channel.with_open_bin path (fun ic -> Int64.to_int (In_channel.length ic))

(* Framed sizes of the records a crash-free run produces. *)
let record_sizes () =
  let wal = tmpfile "dkb_wal_sizes.wal" in
  let e = E.create () in
  let w = W.open_log wal in
  W.attach w e;
  List.iter (fun sql -> ignore (E.exec e sql)) script;
  W.close w;
  let sizes = List.map (fun payload -> 12 + String.length payload) (W.read_records wal) in
  Sys.remove wal;
  sizes

let run_until_crash ~budget =
  let wal = tmpfile "dkb_wal_crash.wal" in
  let e = E.create () in
  let w = W.open_log wal in
  W.attach w e;
  W.set_crash_after w (Some budget);
  List.iter
    (fun sql -> match E.exec e sql with _ -> () | exception W.Crashed -> ())
    script;
  wal

let test_crash_matrix () =
  let sizes = record_sizes () in
  Alcotest.(check int) "size probe" (List.length script) (List.length sizes);
  (* prefix byte offsets: crash exactly between record k and k+1, and
     mid-record (header split and payload split) inside record k+1 *)
  let rec prefixes acc total = function
    | [] -> List.rev ((total, List.length sizes) :: acc)
    | s :: rest -> prefixes ((total, List.length acc) :: acc) (total + s) rest
  in
  let boundaries = prefixes [] 0 sizes in
  List.iter
    (fun (offset, k) ->
      let budgets =
        (Printf.sprintf "between records (k=%d)" k, offset, k)
        ::
        (if k < List.length sizes then
           [
             (Printf.sprintf "mid-header (k=%d)" k, offset + 5, k);
             (Printf.sprintf "mid-payload (k=%d)" k, offset + 15, k);
           ]
         else [])
      in
      List.iter
        (fun (label, budget, expect) ->
          let wal = run_until_crash ~budget in
          let e2, replayed = ok (W.recover ~db:missing_db ~wal ()) in
          (* whatever prefix survived, the recovered engine must satisfy
             every structural invariant (indexes, tuple tables, stats) *)
          (match E.check_invariants e2 with
          | [] -> ()
          | vs ->
              Alcotest.fail
                (label ^ ": invariants violated after recovery: "
                ^ String.concat "; " (List.map Rdbms.Invariants.violation_to_string vs)));
          Alcotest.(check int) (label ^ ": replay count") expect replayed;
          Alcotest.(check string)
            (label ^ ": exactly the committed prefix")
            (prefix_dump expect) (P.dump e2);
          (* the torn tail is physically gone: the file is back to the
             last record boundary *)
          Alcotest.(check int)
            (label ^ ": tail truncated")
            (List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < expect) sizes))
            (wal_file_length wal);
          (* recovery is idempotent *)
          let e3, replayed' = ok (W.recover ~db:missing_db ~wal ()) in
          Alcotest.(check int) (label ^ ": double recovery count") expect replayed';
          Alcotest.(check string)
            (label ^ ": double recovery dump")
            (P.dump e2) (P.dump e3);
          Sys.remove wal)
        budgets)
    boundaries

let test_garbage_tail () =
  (* a tail that is garbage rather than a torn record is also dropped *)
  let wal = tmpfile "dkb_wal_garbage.wal" in
  let e = E.create () in
  let w = W.open_log wal in
  W.attach w e;
  List.iter (fun sql -> ignore (E.exec e sql)) script;
  W.close w;
  let len = wal_file_length wal in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 wal in
  output_string oc "XXnot a record";
  close_out oc;
  let e2, replayed = ok (W.recover ~db:missing_db ~wal ()) in
  Alcotest.(check int) "garbage ignored" (List.length script) replayed;
  Alcotest.(check string) "state intact" (P.dump e) (P.dump e2);
  Alcotest.(check int) "garbage truncated" len (wal_file_length wal);
  Sys.remove wal

let test_checkpoint () =
  let wal = tmpfile "dkb_wal_ckpt.wal" in
  let db = tmpfile "dkb_wal_ckpt.db" in
  let e = E.create () in
  let w = W.open_log wal in
  W.attach w e;
  ignore (E.exec e "CREATE TABLE t (a integer)");
  ignore (E.exec e "INSERT INTO t VALUES (1), (2)");
  ignore (E.exec e "BEGIN");
  (match W.checkpoint w e ~db with
  | Ok () -> Alcotest.fail "checkpoint inside a transaction must fail"
  | Error _ -> ());
  ignore (E.exec e "ROLLBACK");
  ok (W.checkpoint w e ~db);
  Alcotest.(check int) "log truncated by checkpoint" 0 (List.length (W.read_records wal));
  ignore (E.exec e "INSERT INTO t VALUES (3)");
  Alcotest.(check int) "post-checkpoint work logged" 1 (List.length (W.read_records wal));
  let e2, replayed = ok (W.recover ~db ~wal ()) in
  Alcotest.(check int) "only the delta replays" 1 replayed;
  Alcotest.(check string) "checkpoint + delta = live state" (P.dump e) (P.dump e2);
  W.close w;
  Sys.remove wal;
  Sys.remove db

(* ------------------------------------------------------------------ *)
(* Session-level: atomic Stored D/KB updates, query logging suppression *)

let family_session () =
  let s = Session.create () in
  ok (Session.define_base s "parent" [ ("p", D.TStr); ("c", D.TStr) ] ~indexes:[ "p" ] ());
  ignore
    (ok
       (Session.add_facts s "parent"
          [ [ V.Str "john"; V.Str "mary" ]; [ V.Str "mary"; V.Str "sue" ] ]));
  s

let test_aborted_update_atomic () =
  let s = family_session () in
  ok (Session.load_rules s Workload.Queries.ancestor_rules);
  ignore (ok (Session.update_stored s ~clear:true ()));
  let engine = Session.engine s in
  let before = P.dump engine in
  (* ill-typed rule: comparing the char column against an integer *)
  ok (Session.add_rule s "bad(X) :- parent(X, Y), ancestor(Y, 7).");
  (match Session.update_stored s () with
  | Ok _ -> Alcotest.fail "ill-typed update must be rejected"
  | Error _ -> ());
  Alcotest.(check string) "rulesource/reachablepreds untouched" before (P.dump engine)

let test_update_rollback_via_txn () =
  (* an update that joins a caller transaction is undone by its rollback *)
  let s = family_session () in
  let engine = Session.engine s in
  let before = P.dump engine in
  E.begin_txn engine;
  ok (Session.load_rules s Workload.Queries.ancestor_rules);
  ignore (ok (Session.update_stored s ()));
  Alcotest.(check bool) "rules were stored" true
    (Core.Stored_dkb.rule_count (Session.stored s) > 0);
  E.rollback_txn engine;
  Alcotest.(check string) "caller rollback undoes the whole update" before (P.dump engine)

let test_session_recovery () =
  let wal = tmpfile "dkb_wal_sess.wal" in
  let db = tmpfile "dkb_wal_sess.db" in
  (try Sys.remove db with Sys_error _ -> ());
  let s = Session.create () in
  ok (Session.attach_wal s wal);
  ok (Session.define_base s "parent" [ ("p", D.TStr); ("c", D.TStr) ] ~indexes:[ "p" ] ());
  ignore
    (ok
       (Session.add_facts s "parent"
          [ [ V.Str "john"; V.Str "mary" ]; [ V.Str "mary"; V.Str "sue" ] ]));
  ok (Session.load_rules s Workload.Queries.ancestor_rules);
  ignore (ok (Session.update_stored s ()));
  let logged = (Session.db_stats s).Rdbms.Stats.wal_records in
  (* query evaluation (temp-table churn) must not add records *)
  let answer = ok (Session.query s "ancestor(john, W)") in
  let _, rows = Session.answer_rows answer in
  Alcotest.(check int) "query answers" 2 (List.length rows);
  Alcotest.(check int) "queries add no WAL records" logged
    (Session.db_stats s).Rdbms.Stats.wal_records;
  (* crash now (no checkpoint was ever taken): recover from the log alone *)
  let s2, _ = ok (Session.recover ~db ~wal ()) in
  let a2 = ok (Session.query s2 "ancestor(john, W)") in
  let _, rows2 = Session.answer_rows a2 in
  Alcotest.(check int) "recovered session answers the query" 2 (List.length rows2);
  (* checkpoint, keep writing, recover again: checkpoint + delta *)
  ok (Session.checkpoint s2 ~db);
  ignore (ok (Session.add_fact s2 "parent" [ V.Str "sue"; V.Str "ann" ]));
  let s3, _ = ok (Session.recover ~db ~wal ()) in
  Alcotest.(check string) "checkpoint + delta = live state"
    (P.dump (Session.engine s2)) (P.dump (Session.engine s3));
  Sys.remove wal;
  Sys.remove db

(* ------------------------------------------------------------------ *)
(* Paged storage x durability *)

let tmpdir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

exception Crash_point

(* Crash in the checkpoint window between the dirty-page writeback and
   the WAL truncate: the dump and the heap files are written, the log
   still holds every record. Recovery must produce the identical engine
   whether or not the truncate happened. *)
let test_checkpoint_crash_window () =
  let wal = tmpfile "dkb_wal_storage.wal" in
  let db = tmpfile "dkb_wal_storage.db" in
  let dir = tmpdir "dkb_wal_storage_heaps" in
  let e = E.create () in
  E.attach_storage e ~dir ();
  let w = W.open_log wal in
  W.attach w e;
  ignore (E.exec e "CREATE TABLE t (a integer, b char)");
  ignore (E.exec e "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')");
  ignore (E.exec e "DELETE FROM t WHERE a = 2");
  let live = P.dump e in
  (match W.checkpoint ~on_flush:(fun () -> raise Crash_point) w e ~db with
  | exception Crash_point -> ()
  | Ok () -> Alcotest.fail "fault injection did not fire"
  | Error msg -> Alcotest.fail msg);
  (* dirty pages reached the heap files before the "crash" *)
  List.iter
    (fun (_, h) -> Alcotest.(check (list string)) "heap consistent" [] (Rdbms.Heap.check h))
    (E.storage_heaps e);
  Alcotest.(check bool) "log survived the crash" true (List.length (W.read_records wal) > 0);
  (* the crashed process is gone; recover over the same directory *)
  E.close_storage e;
  W.close w;
  let prepare e2 = E.attach_storage e2 ~dir ~mode:`Overwrite () in
  let e2, _ = ok (W.recover ~prepare ~db ~wal ()) in
  Alcotest.(check string) "recovered state identical" live (P.dump e2);
  Alcotest.(check (list string)) "recovered catalog clean" []
    (List.map Rdbms.Invariants.violation_to_string
       (Rdbms.Invariants.check_catalog (E.catalog e2)));
  Alcotest.(check int) "recovered heap holds the live rows" 2
    (E.scalar_int e2 "SELECT COUNT(*) FROM t");
  (* recovering again from the already-truncated-tail state is a no-op *)
  let e3, _ = ok (W.recover ~prepare:(fun _ -> ()) ~db ~wal ()) in
  Alcotest.(check string) "recovery is idempotent" live (P.dump e3);
  E.close_storage e2;
  Sys.remove wal;
  Sys.remove db

(* A completed checkpoint followed by more work, then recovery with the
   heap files left as the crash left them (possibly ahead of the dump):
   replay must still land on the live state. *)
let test_storage_recovery_checkpoint_delta () =
  let wal = tmpfile "dkb_wal_storage2.wal" in
  let db = tmpfile "dkb_wal_storage2.db" in
  let dir = tmpdir "dkb_wal_storage2_heaps" in
  (try Sys.remove db with Sys_error _ -> ());
  let s = Session.create () in
  ok (Session.attach_storage s ~dir ());
  ok (Session.attach_wal s wal);
  ok (Session.define_base s "parent" [ ("p", D.TStr); ("c", D.TStr) ] ~indexes:[ "p" ] ());
  ignore
    (ok
       (Session.add_facts s "parent"
          [ [ V.Str "john"; V.Str "mary" ]; [ V.Str "mary"; V.Str "sue" ] ]));
  ok (Session.checkpoint s ~db);
  (* post-checkpoint work: logged, and partially paged out to the heaps *)
  ignore (ok (Session.add_fact s "parent" [ V.Str "sue"; V.Str "ann" ]));
  E.flush_storage (Session.engine s);
  let live = P.dump (Session.engine s) in
  (* "crash": drop the session without another checkpoint *)
  E.close_storage (Session.engine s);
  let s2, replayed = ok (Session.recover ~storage:dir ~db ~wal ()) in
  Alcotest.(check bool) "the delta replayed" true (replayed > 0);
  Alcotest.(check string) "checkpoint + delta = live state" live (P.dump (Session.engine s2));
  let a = ok (Session.query s2 "parent(sue, W)") in
  let _, rows = Session.answer_rows a in
  Alcotest.(check int) "replayed fact visible through the heap" 1 (List.length rows);
  Alcotest.(check (list string)) "recovered engine audits clean" []
    (List.map Rdbms.Invariants.violation_to_string
       (E.check_invariants (Session.engine s2)));
  E.close_storage (Session.engine s2);
  Sys.remove wal;
  Sys.remove db

let () =
  Alcotest.run "wal"
    [
      ( "transactions",
        [
          Alcotest.test_case "rollback DML" `Quick test_rollback_dml;
          Alcotest.test_case "rollback DDL" `Quick test_rollback_ddl;
          Alcotest.test_case "rollback index DDL" `Quick test_rollback_drop_index;
          Alcotest.test_case "commit" `Quick test_commit;
          Alcotest.test_case "control errors" `Quick test_txn_errors;
          Alcotest.test_case "statement atomicity" `Quick test_statement_atomicity;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "txn granularity" `Quick test_wal_txn_record;
          Alcotest.test_case "bound writes log literal text" `Quick test_wal_bound_writes;
          Alcotest.test_case "crash matrix" `Quick test_crash_matrix;
          Alcotest.test_case "garbage tail" `Quick test_garbage_tail;
          Alcotest.test_case "checkpoint" `Quick test_checkpoint;
        ] );
      ( "session",
        [
          Alcotest.test_case "aborted update atomic" `Quick test_aborted_update_atomic;
          Alcotest.test_case "update in caller txn" `Quick test_update_rollback_via_txn;
          Alcotest.test_case "recovery" `Quick test_session_recovery;
        ] );
      ( "paged storage",
        [
          Alcotest.test_case "crash between flush and truncate" `Quick
            test_checkpoint_crash_window;
          Alcotest.test_case "checkpoint + delta over heaps" `Quick
            test_storage_recovery_checkpoint_delta;
        ] );
    ]
