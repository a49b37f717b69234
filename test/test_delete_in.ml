(* DELETE FROM t WHERE (c1, ..., cn) IN (SELECT ...): the set-based
   delete that DRed's over-deletion runs once per clique member. It must
   agree with one per-row DELETE per subquery row, fail only with a typed
   Sql_error, undo on ROLLBACK, replay from the WAL, and keep the
   sanitizer's audits clean. *)

module E = Rdbms.Engine
module W = Rdbms.Wal

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let rows e sql = List.sort compare (List.map Array.to_list (E.query e sql))

let affected = function
  | E.Affected n -> n
  | E.Rows _ | E.Done -> Alcotest.fail "expected an affected count"

let seeded () =
  let e = E.create () in
  E.set_sanitize e true;
  List.iter
    (fun sql -> ignore (E.exec e sql))
    [
      "CREATE TABLE t (a integer, b char)";
      "CREATE INDEX idx_t_a ON t (a)";
      "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z'), (4, 'w')";
      "CREATE TABLE s (a integer, b char)";
      (* (9, 'q') is absent from t and must be ignored *)
      "INSERT INTO s VALUES (1, 'x'), (3, 'z'), (9, 'q')";
    ];
  e

let delete_in = "DELETE FROM t WHERE (a, b) IN (SELECT * FROM s)"

let test_removes_members () =
  let e = seeded () in
  Alcotest.(check int) "two rows removed" 2 (affected (E.exec e delete_in));
  Alcotest.(check int) "nothing left to remove" 0 (affected (E.exec e delete_in));
  let st = E.stats e in
  let hits = st.Rdbms.Stats.plan_cache_hits in
  ignore (E.exec e delete_in);
  Alcotest.(check int) "the subquery's plan is cached" (hits + 1) st.Rdbms.Stats.plan_cache_hits;
  Alcotest.(check (list (list string))) "survivors"
    [ [ "2"; "y" ]; [ "4"; "w" ] ]
    (List.map (List.map Rdbms.Value.to_string) (rows e "SELECT * FROM t"));
  (* a subquery over the target itself is evaluated before the first
     removal *)
  Alcotest.(check int) "self-delete" 2
    (affected (E.exec e "DELETE FROM t WHERE (a, b) IN (SELECT * FROM t)"));
  Alcotest.(check (list string)) "audits clean" []
    (List.map Rdbms.Invariants.violation_to_string (E.check_invariants e))

(* Every malformed statement fails with Sql_error, on the cached path,
   with the statement cache off, and through a script, and leaves t as
   it was. *)
let test_typed_errors () =
  let bad =
    [
      ("column list out of order", "DELETE FROM t WHERE (b, a) IN (SELECT b, a FROM s)");
      ("column list not t's", "DELETE FROM t WHERE (a, x) IN (SELECT * FROM s)");
      ("column list too short", "DELETE FROM t WHERE (a) IN (SELECT a FROM s)");
      ("subquery arity", "DELETE FROM t WHERE (a, b) IN (SELECT a FROM s)");
      ("subquery types", "DELETE FROM t WHERE (a, b) IN (SELECT b, a FROM s)");
      ("unknown target", "DELETE FROM nosuch WHERE (a, b) IN (SELECT * FROM s)");
      ("unknown subquery table", "DELETE FROM t WHERE (a, b) IN (SELECT * FROM nosuch)");
    ]
  in
  List.iter
    (fun (route, run) ->
      List.iter
        (fun (what, sql) ->
          let e = seeded () in
          let before = rows e "SELECT * FROM t" in
          (match run e sql with
          | () -> Alcotest.failf "%s (%s): accepted %s" what route sql
          | exception E.Sql_error _ -> ()
          | exception ex ->
              Alcotest.failf "%s (%s): %s raised %s" what route sql (Printexc.to_string ex));
          Alcotest.(check bool) (what ^ " leaves t unchanged") true (before = rows e "SELECT * FROM t"))
        bad)
    [
      ("cached", fun e sql -> ignore (E.exec e sql));
      ( "uncached",
        fun e sql ->
          E.set_statement_cache e false;
          ignore (E.exec e sql) );
      ("script", fun e sql -> ignore (E.exec_script e sql));
    ]

(* A cached plan depends on the target: re-creating t with another
   schema makes the next execution re-check, not run the stale plan. *)
let test_target_is_a_dependency () =
  let e = seeded () in
  ignore (E.exec e delete_in);
  ignore (E.exec e "DROP TABLE t");
  ignore (E.exec e "CREATE TABLE t (a integer)");
  match E.exec e delete_in with
  | _ -> Alcotest.fail "stale plan ran against the re-created target"
  | exception E.Sql_error _ -> ()

let test_rollback_restores () =
  let e = seeded () in
  let before = rows e "SELECT * FROM t" in
  ignore (E.exec e "BEGIN");
  Alcotest.(check int) "removed inside the txn" 2 (affected (E.exec e delete_in));
  ignore (E.exec e "ROLLBACK");
  Alcotest.(check bool) "rows restored" true (before = rows e "SELECT * FROM t");
  Alcotest.(check string) "index answers the restored rows" "x"
    (match E.query e "SELECT b FROM t WHERE a = 1" with
    | [ [| v |] ] -> Rdbms.Value.to_string v
    | _ -> "?")

let test_wal_recovery () =
  let wal = Filename.concat (Filename.get_temp_dir_name ()) "dkb_delete_in.wal" in
  (try Sys.remove wal with Sys_error _ -> ());
  let missing_db = Filename.concat (Filename.get_temp_dir_name ()) "dkb_delete_in_missing.db" in
  (try Sys.remove missing_db with Sys_error _ -> ());
  let e = E.create () in
  let w = W.open_log wal in
  W.attach w e;
  List.iter
    (fun sql -> ignore (E.exec e sql))
    [
      "CREATE TABLE t (a integer, b char)";
      "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z'), (4, 'w')";
      "CREATE TABLE s (a integer, b char)";
      "INSERT INTO s VALUES (1, 'x'), (9, 'q')";
      delete_in;
      "BEGIN";
      "INSERT INTO s VALUES (4, 'w')";
      delete_in;
      "COMMIT";
      "BEGIN";
      "INSERT INTO s VALUES (2, 'y')";
      delete_in;
      "ROLLBACK";
    ];
  Alcotest.(check bool) "the log carries the set-based text" true
    (List.exists
       (fun r -> Astring.String.is_infix ~affix:"WHERE (a, b) IN (SELECT * FROM s)" r)
       (W.read_records wal));
  let e2, _ = ok (W.recover ~db:missing_db ~wal ()) in
  (* compared as sorted rows: the rollback re-inserted (2, 'y') in
     another physical slot *)
  List.iter
    (fun table ->
      let sql = "SELECT * FROM " ^ table in
      Alcotest.(check bool) (table ^ ": recovered = committed") true (rows e sql = rows e2 sql))
    [ "t"; "s" ];
  Alcotest.(check (list (list string))) "committed deletes replayed"
    [ [ "2"; "y" ]; [ "3"; "z" ] ]
    (List.map (List.map Rdbms.Value.to_string) (rows e2 "SELECT * FROM t"));
  W.close w;
  Sys.remove wal

(* Against one per-row DELETE per subquery row, on random tables: the
   same final rows, and an affected count equal to the rows removed. *)
let prop_matches_per_row =
  let gen =
    QCheck2.Gen.(
      let row = pair (int_bound 5) (int_bound 3) in
      triple (list_size (int_bound 20) row) (list_size (int_bound 12) row) bool)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"set delete = per-row deletes" gen
       (fun (t_rows, s_rows, indexed) ->
         let setup () =
           let e = E.create () in
           E.set_sanitize e true;
           ignore (E.exec e "CREATE TABLE t (a integer, b integer)");
           if indexed then ignore (E.exec e "CREATE INDEX idx_t_a ON t (a)");
           ignore (E.exec e "CREATE TABLE s (a integer, b integer)");
           let values l =
             String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "(%d, %d)" a b) l)
           in
           if t_rows <> [] then ignore (E.exec e ("INSERT INTO t VALUES " ^ values t_rows));
           if s_rows <> [] then ignore (E.exec e ("INSERT INTO s VALUES " ^ values s_rows));
           e
         in
         let set_e = setup () in
         let before = List.length (E.query set_e "SELECT * FROM t") in
         (* UNION ALL repeats each subquery row: a second copy of a row
            removes nothing *)
         let n =
           affected
             (E.exec set_e "DELETE FROM t WHERE (a, b) IN (SELECT * FROM s UNION ALL SELECT * FROM s)")
         in
         let removed = before - List.length (E.query set_e "SELECT * FROM t") in
         let row_e = setup () in
         let m =
           List.fold_left
             (fun acc (a, b) ->
               acc
               + affected (E.exec row_e (Printf.sprintf "DELETE FROM t WHERE a = %d AND b = %d" a b)))
             0 (List.sort_uniq compare s_rows)
         in
         if n <> removed then QCheck2.Test.fail_reportf "affected %d, removed %d" n removed;
         if n <> m then QCheck2.Test.fail_reportf "set delete %d, per-row deletes %d" n m;
         rows set_e "SELECT * FROM t" = rows row_e "SELECT * FROM t"
         && E.check_invariants set_e = []))

let () =
  Alcotest.run "delete_in"
    [
      ( "delete in",
        [
          Alcotest.test_case "removes members" `Quick test_removes_members;
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
          Alcotest.test_case "target is a dependency" `Quick test_target_is_a_dependency;
          Alcotest.test_case "rollback restores" `Quick test_rollback_restores;
          Alcotest.test_case "wal recovery" `Quick test_wal_recovery;
          prop_matches_per_row;
        ] );
    ]
