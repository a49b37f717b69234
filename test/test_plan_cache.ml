(* Tests for the prepared-statement API, the transparent statement cache
   (its per-table plan invalidation, eager release of dropped tables'
   plans, and LRU eviction), TRUNCATE, the O(1) table swap, and
   scratch-table reuse in the LFP runtime. *)

module E = Rdbms.Engine
module Stats = Rdbms.Stats

let contains ~affix s = Astring.String.is_infix ~affix s

let fresh_engine () =
  let e = E.create () in
  ignore (E.exec e "CREATE TABLE t (a integer, b integer)");
  ignore (E.exec e "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  e

(* ---------------- transparent statement cache ---------------- *)

let test_transparent_cache_hits () =
  let e = fresh_engine () in
  let st = E.stats e in
  let sql = "SELECT a FROM t WHERE b = 20" in
  let h0 = st.Stats.plan_cache_hits and m0 = st.Stats.plan_cache_misses in
  ignore (E.exec e sql);
  Alcotest.(check int) "first execution builds the plan" (m0 + 1) st.Stats.plan_cache_misses;
  ignore (E.exec e sql);
  ignore (E.exec e sql);
  Alcotest.(check int) "reruns reuse it" (h0 + 2) st.Stats.plan_cache_hits;
  Alcotest.(check int) "no further misses" (m0 + 1) st.Stats.plan_cache_misses;
  Alcotest.(check bool) "entries cached" true (E.statement_cache_size e > 0)

let test_cache_toggle () =
  let e = fresh_engine () in
  ignore (E.exec e "SELECT a FROM t");
  Alcotest.(check bool) "entries before" true (E.statement_cache_size e > 0);
  E.set_statement_cache e false;
  Alcotest.(check bool) "disabled" false (E.statement_cache_enabled e);
  Alcotest.(check int) "entries dropped" 0 (E.statement_cache_size e);
  let st = E.stats e in
  let h = st.Stats.plan_cache_hits in
  ignore (E.exec e "SELECT a FROM t");
  ignore (E.exec e "SELECT a FROM t");
  Alcotest.(check int) "no hits while disabled" h st.Stats.plan_cache_hits;
  E.set_statement_cache e true;
  ignore (E.exec e "SELECT a FROM t");
  ignore (E.exec e "SELECT a FROM t");
  Alcotest.(check int) "hits again once re-enabled" (h + 1) st.Stats.plan_cache_hits

(* ---------------- prepared statements ---------------- *)

let test_prepare_exec () =
  let e = fresh_engine () in
  let st = E.stats e in
  let prepared0 = st.Stats.statements_prepared in
  let p = E.prepare e "SELECT COUNT(*) FROM t" in
  Alcotest.(check int) "prepare counted" (prepared0 + 1) st.Stats.statements_prepared;
  (match E.exec_prepared e p with
  | E.Rows { rows = [ [| Rdbms.Value.Int 3 |] ]; _ } -> ()
  | _ -> Alcotest.fail "wrong count");
  let h = st.Stats.plan_cache_hits in
  (match E.exec_prepared e p with
  | E.Rows { rows = [ [| Rdbms.Value.Int 3 |] ]; _ } -> ()
  | _ -> Alcotest.fail "wrong count on rerun");
  Alcotest.(check int) "second execution reuses the plan" (h + 1) st.Stats.plan_cache_hits

(* ---------------- invalidation ---------------- *)

let test_replan_after_drop_create () =
  let e = fresh_engine () in
  let sql = "SELECT COUNT(*) FROM t" in
  Alcotest.(check int) "before" 3 (E.scalar_int e sql);
  ignore (E.exec e sql);
  (* warm *)
  ignore (E.exec e "DROP TABLE t");
  ignore (E.exec e "CREATE TABLE t (a integer, b integer)");
  ignore (E.exec e "INSERT INTO t VALUES (7, 70)");
  let st = E.stats e in
  let m = st.Stats.plan_cache_misses in
  Alcotest.(check int) "replanned against the recreated table" 1 (E.scalar_int e sql);
  Alcotest.(check int) "invalidation surfaced as a miss" (m + 1) st.Stats.plan_cache_misses

let test_replan_after_index_ddl () =
  let e = fresh_engine () in
  let sql = "SELECT a FROM t WHERE b = 20" in
  Alcotest.(check bool) "seq scan without index" true (contains ~affix:"SeqScan t" (E.explain e sql));
  ignore (E.exec e "CREATE INDEX ib ON t (b)");
  Alcotest.(check bool) "cached plan replaced by index scan" true
    (contains ~affix:"IndexScan t" (E.explain e sql));
  Alcotest.(check int) "same answer via index" 1 (List.length (E.query e sql));
  ignore (E.exec e "DROP INDEX ib");
  Alcotest.(check bool) "back to seq scan after DROP INDEX" true
    (contains ~affix:"SeqScan t" (E.explain e sql))

(* ---------------- per-table plan dependencies ---------------- *)

(* A weak pointer to table [name]'s relation; the strong references die
   with this frame. *)
let[@inline never] weak_relation e name =
  let w = Weak.create 1 in
  Weak.set w 0 (Some (Rdbms.Catalog.find_table_exn (E.catalog e) name).Rdbms.Catalog.tbl_relation);
  w

let reachable w =
  Gc.full_major ();
  Weak.check w 0

let test_drop_releases_plans () =
  let e = fresh_engine () in
  let w = weak_relation e "t" in
  let sql = "SELECT a FROM t WHERE b = 20" in
  ignore (E.exec e sql);
  ignore (E.exec e sql);
  ignore (E.exec e "DROP TABLE t");
  Alcotest.(check bool) "no cached plan keeps the dropped relation" false (reachable w);
  (* [e] stays live past the collection *)
  Alcotest.(check bool) "the text stays cached without its plan" true (E.statement_cache_size e > 0)

let test_rollback_releases_plans () =
  let e = fresh_engine () in
  ignore (E.exec e "BEGIN");
  ignore (E.exec e "CREATE TABLE u (c integer)");
  let w = weak_relation e "u" in
  ignore (E.exec e "INSERT INTO u VALUES (1), (2)");
  Alcotest.(check int) "visible inside the transaction" 2 (E.scalar_int e "SELECT COUNT(*) FROM u");
  ignore (E.exec e "ROLLBACK");
  Alcotest.(check bool) "no cached plan keeps the rolled-back relation" false (reachable w);
  (* [e] stays live past the collection *)
  Alcotest.(check bool) "table rolled back" false (Rdbms.Catalog.table_exists (E.catalog e) "u")

(* The audit flags a cached plan over a table dropped behind the
   engine's back, which no engine path can leave. *)
let test_audit_flags_dropped_reader () =
  let e = fresh_engine () in
  ignore (E.exec e "SELECT a FROM t WHERE b = 20");
  Alcotest.(check int) "clean" 0 (List.length (E.check_invariants e));
  (match Rdbms.Catalog.drop_table (E.catalog e) "t" with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check (list string)) "flagged"
    [ "t: cached plan of \"SELECT a FROM t WHERE b = 20\" reads a dropped table" ]
    (List.map Rdbms.Invariants.violation_to_string (E.check_invariants e))

(* Hits and misses of [f ()], as a pair of deltas. *)
let hits_misses st f =
  let h = st.Stats.plan_cache_hits and m = st.Stats.plan_cache_misses in
  f ();
  (st.Stats.plan_cache_hits - h, st.Stats.plan_cache_misses - m)

let test_ddl_replans_only_its_table () =
  let e = fresh_engine () in
  ignore (E.exec e "CREATE TABLE u (a integer, b integer)");
  ignore (E.exec e "INSERT INTO u VALUES (1, 10), (2, 20)");
  let over_t = "SELECT a FROM t WHERE b = 20" and over_u = "SELECT a FROM u WHERE b = 20" in
  let run_both () =
    ignore (E.exec e over_t);
    ignore (E.exec e over_u)
  in
  run_both ();
  let st = E.stats e in
  List.iter
    (fun ddl ->
      ignore (E.exec e ddl);
      Alcotest.(check (pair int int))
        (ddl ^ ": plan over t hits, plan over u replans")
        (1, 1) (hits_misses st run_both))
    [ "ANALYZE u"; "CREATE INDEX iu ON u (b)"; "DROP INDEX iu" ];
  ignore (E.exec e "CREATE TABLE v (c integer)");
  ignore (E.exec e "DROP TABLE v");
  Alcotest.(check (pair int int)) "another table's CREATE and DROP: both hit" (2, 0)
    (hits_misses st run_both)

let test_other_session_query_keeps_plans () =
  let module S = Core.Session in
  let ok = Experiments.Common.ok in
  let e = E.create () in
  let a = S.of_engine e and b = S.of_engine e in
  ok (S.define_base a "parent" [ ("p", Rdbms.Datatype.TStr); ("c", Rdbms.Datatype.TStr) ] ());
  ignore (ok (S.sql a "INSERT INTO parent VALUES ('a', 'b'), ('b', 'c')"));
  ok (S.load_rules b "anc(X, Y) :- parent(X, Y).\nanc(X, Y) :- parent(X, Z), anc(Z, Y).");
  let sql = "SELECT c FROM parent WHERE p = 'a'" in
  ignore (ok (S.sql a sql));
  let answer = ok (S.query b "anc(a, W)") in
  Alcotest.(check int) "B's derivation" 2 (List.length (snd (S.answer_rows answer)));
  Alcotest.(check bool) "B's LFP created and dropped tables" true
    ((S.db_stats b).Stats.tables_dropped > 0);
  Alcotest.(check (pair int int)) "A's cached SELECT is still a hit" (1, 0)
    (hits_misses (S.db_stats a) (fun () -> ignore (ok (S.sql a sql))))

(* ---------------- LRU eviction ---------------- *)

let capacity = 512
let text i = Printf.sprintf "SELECT a FROM t WHERE b = %d" i

let test_lru_capacity () =
  let e = fresh_engine () in
  for i = 1 to capacity + 100 do
    ignore (E.exec e (text i));
    if E.statement_cache_size e > capacity then
      Alcotest.failf "%d entries after %d admissions" (E.statement_cache_size e) i
  done;
  Alcotest.(check int) "full" capacity (E.statement_cache_size e)

let test_lru_order () =
  let e = E.create () in
  ignore (E.exec e "CREATE TABLE t (a integer, b integer)");
  (* eviction order: the CREATE text, then texts 1, 2, ... *)
  for i = 1 to capacity - 1 do
    ignore (E.exec e (text i))
  done;
  Alcotest.(check int) "full" capacity (E.statement_cache_size e);
  let st = E.stats e in
  let hit sql = hits_misses st (fun () -> ignore (E.exec e sql)) = (1, 0) in
  Alcotest.(check bool) "text 1 cached" true (hit (text 1));
  (* two admissions: the CREATE text goes, then text 2, not the touched text 1 *)
  ignore (E.exec e (text capacity));
  ignore (E.exec e (text (capacity + 1)));
  Alcotest.(check bool) "the touched text survives" true (hit (text 1));
  Alcotest.(check bool) "the least recently used text was evicted" false (hit (text 2));
  Alcotest.(check int) "still full" capacity (E.statement_cache_size e)

let test_lru_touched_text_survives () =
  let e = fresh_engine () in
  let keep = "SELECT b FROM t WHERE a = 1" and lose = "SELECT b FROM t WHERE a = 2" in
  ignore (E.exec e keep);
  ignore (E.exec e lose);
  let st = E.stats e in
  for i = 1 to capacity do
    ignore (E.exec e (text i));
    Alcotest.(check (pair int int)) "touched text hits" (1, 0)
      (hits_misses st (fun () -> ignore (E.exec e keep)))
  done;
  Alcotest.(check (pair int int)) "the untouched text of the same age was evicted" (0, 1)
    (hits_misses st (fun () -> ignore (E.exec e lose)))

(* ---------------- TRUNCATE ---------------- *)

let test_truncate () =
  let e = fresh_engine () in
  ignore (E.exec e "CREATE INDEX ib ON t (b)");
  let sql = "SELECT a FROM t WHERE b = 20" in
  Alcotest.(check int) "one row before" 1 (List.length (E.query e sql));
  let st = E.stats e in
  let version () = (Rdbms.Catalog.find_table_exn (E.catalog e) "t").Rdbms.Catalog.tbl_version in
  let v0 = version () in
  ignore (E.exec e "TRUNCATE TABLE t");
  Alcotest.(check int) "counted" 1 st.Stats.tables_truncated;
  Alcotest.(check int) "empty" 0 (E.table_cardinality e "t");
  Alcotest.(check int) "table version unchanged" v0 (version ());
  ignore (E.exec e "INSERT INTO t VALUES (5, 20)");
  let m = st.Stats.plan_cache_misses in
  Alcotest.(check int) "index stayed consistent" 1 (List.length (E.query e sql));
  Alcotest.(check int) "cached plan survived the truncate" m st.Stats.plan_cache_misses;
  Alcotest.(check bool) "missing table rejected" true
    (try
       ignore (E.exec e "TRUNCATE TABLE nope");
       false
     with E.Sql_error _ -> true);
  (* the no-SQL fast path does the same thing *)
  E.clear_table e "t";
  Alcotest.(check int) "fast path empties" 0 (E.table_cardinality e "t");
  Alcotest.(check int) "fast path counted" 2 st.Stats.tables_truncated

(* ---------------- swap_tables ---------------- *)

(* Two unindexed tables of the same column types, as the LFP loop's delta
   and candidate tables are, and a third to copy into. *)
let swap_engine () =
  let e = E.create () in
  E.set_sanitize e true;
  List.iter
    (fun sql -> ignore (E.exec e sql))
    [
      "CREATE TABLE a (x integer, y integer)";
      "CREATE TABLE b (x integer, y integer)";
      "CREATE TABLE c (x integer, y integer)";
      "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)";
      "INSERT INTO b VALUES (9, 90)";
    ];
  e

let rows_of e table =
  List.map
    (fun row -> Array.to_list (Array.map Rdbms.Value.to_string row))
    (E.query e ("SELECT * FROM " ^ table))

let swap e a b = E.suspend_logging e (fun () -> E.swap_tables e a b)
let a_rows = [ [ "1"; "10" ]; [ "2"; "20" ]; [ "3"; "30" ] ]
let b_rows = [ [ "9"; "90" ] ]

let test_swap_exchanges_rows () =
  let e = swap_engine () in
  let st = E.stats e in
  let stmts = st.Stats.statements and writes = st.Stats.page_writes in
  swap e "a" "b";
  Alcotest.(check int) "no statement ran" stmts st.Stats.statements;
  Alcotest.(check int) "one catalog page write" (writes + 1) st.Stats.page_writes;
  Alcotest.(check (list (list string))) "a holds b's rows" b_rows (rows_of e "a");
  Alcotest.(check (list (list string))) "b holds a's rows, in order" a_rows (rows_of e "b");
  Alcotest.(check int) "a's cardinality follows its rows" 1 (E.table_cardinality e "a");
  (* the swapped relations take inserts and deletes as usual *)
  ignore (E.exec e "INSERT INTO a VALUES (1, 10)");
  ignore (E.exec e "DELETE FROM b WHERE x = 2");
  Alcotest.(check (list (list string))) "a after an insert" [ [ "9"; "90" ]; [ "1"; "10" ] ]
    (rows_of e "a");
  Alcotest.(check (list (list string))) "b after a delete" [ [ "1"; "10" ]; [ "3"; "30" ] ]
    (rows_of e "b");
  Alcotest.(check int) "the sanitizer's audit is clean" 0 (List.length (E.check_invariants e))

let test_swap_rolls_back () =
  let e = swap_engine () in
  ignore (E.exec e "BEGIN");
  swap e "a" "b";
  ignore (E.exec e "INSERT INTO a VALUES (5, 50)");
  swap e "a" "c";
  ignore (E.exec e "INSERT INTO b VALUES (6, 60)");
  ignore (E.exec e "ROLLBACK");
  Alcotest.(check (list (list string))) "a holds exactly its old rows" a_rows (rows_of e "a");
  Alcotest.(check (list (list string))) "b holds exactly its old rows" b_rows (rows_of e "b");
  Alcotest.(check (list (list string))) "c is empty again" [] (rows_of e "c");
  Alcotest.(check int) "the sanitizer's audit is clean" 0 (List.length (E.check_invariants e))

(* A snapshot taken before the swap keeps reading the rows it saw: the
   swap captures each relation's version first, like every mutator. *)
let test_swap_keeps_snapshots () =
  let e = swap_engine () in
  let ts = E.begin_snapshot e in
  swap e "a" "b";
  let snap table =
    List.map
      (fun row -> Array.to_list (Array.map Rdbms.Value.to_string row))
      (E.query_snapshot e ~ts ("SELECT * FROM " ^ table))
  in
  Alcotest.(check (list (list string))) "snapshot of a" a_rows (snap "a");
  Alcotest.(check (list (list string))) "snapshot of b" b_rows (snap "b");
  Alcotest.(check (list (list string))) "live a" b_rows (rows_of e "a");
  E.release_snapshot e ts

let test_swap_keeps_plans () =
  let e = swap_engine () in
  let st = E.stats e in
  let from_a = E.prepare e "INSERT INTO c SELECT * FROM a" in
  let from_b = E.prepare e "INSERT INTO c SELECT * FROM b" in
  let into_a = E.prepare e "INSERT INTO a SELECT * FROM c" in
  let rebuilt = ref 0 in
  let run p =
    let misses = st.Stats.plan_cache_misses in
    ignore (E.exec_prepared e p);
    rebuilt := !rebuilt + (st.Stats.plan_cache_misses - misses)
  in
  run from_a;
  run from_b;
  E.clear_table e "c";
  run into_a;
  Alcotest.(check int) "each plan built once" 3 !rebuilt;
  rebuilt := 0;
  swap e "a" "b";
  run from_a;
  Alcotest.(check (list (list string))) "reads a's swapped rows" b_rows (rows_of e "c");
  E.clear_table e "c";
  run from_b;
  Alcotest.(check (list (list string))) "reads b's swapped rows" a_rows (rows_of e "c");
  run into_a;
  Alcotest.(check int) "writes into a's swapped rows" 4 (E.table_cardinality e "a");
  swap e "a" "b";
  E.clear_table e "c";
  run from_a;
  Alcotest.(check (list (list string))) "and back" a_rows (rows_of e "c");
  Alcotest.(check int) "no plan rebuilt across the swaps" 0 !rebuilt

let test_swap_refusals () =
  let e = swap_engine () in
  List.iter
    (fun sql -> ignore (E.exec e sql))
    [
      "CREATE TABLE narrow (x integer)";
      "CREATE TABLE text (x integer, y char)";
      "CREATE TABLE indexed (x integer, y integer)";
      "CREATE INDEX idx_indexed_x ON indexed (x)";
    ];
  let refused what f =
    match f () with
    | () -> Alcotest.fail (what ^ ": swapped")
    | exception E.Sql_error _ -> ()
    | exception e -> Alcotest.fail (what ^ ": " ^ Printexc.to_string e)
  in
  refused "outside suspend_logging" (fun () -> E.swap_tables e "a" "b");
  refused "unknown table" (fun () -> swap e "a" "nope");
  refused "unknown first table" (fun () -> swap e "nope" "a");
  refused "fewer columns" (fun () -> swap e "a" "narrow");
  refused "another column type" (fun () -> swap e "a" "text");
  refused "indexed" (fun () -> swap e "indexed" "a");
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dkb_swap_heap" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  E.attach_storage e ~dir ~persist:(fun name -> name = "c") ();
  Fun.protect
    ~finally:(fun () ->
      E.close_storage e;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> refused "heap-backed" (fun () -> swap e "c" "a"));
  Alcotest.(check (list (list string))) "a untouched" a_rows (rows_of e "a");
  Alcotest.(check (list (list string))) "b untouched" b_rows (rows_of e "b")

(* ---------------- LFP runtime: scratch reuse + prepared loop ---------------- *)

let run_ancestor ?(depth = 6) strategy =
  let s, tree = Experiments.Common.tree_session ~depth in
  let goal = Workload.Queries.ancestor_goal tree.Workload.Graphgen.t_root in
  let options = { Core.Session.default_options with strategy } in
  let answer = Experiments.Common.ok (Core.Session.query_goal s ~options goal) in
  (s, answer)

let iters_of answer =
  List.fold_left (fun acc (_, n) -> acc + n) 0 answer.Core.Session.run.Core.Runtime.iterations

let check_no_leftovers s =
  let names =
    List.map
      (fun tbl -> tbl.Rdbms.Catalog.tbl_name)
      (Rdbms.Catalog.tables (Rdbms.Engine.catalog (Core.Session.engine s)))
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "%s cleaned up" n) false (List.mem n names))
    ("ancestor" :: Datalog.Names.scratch_tables "ancestor")

(* The loop prepares its statements once, before the first iteration:
   if it re-planned per iteration, a deeper tree (more iterations) would
   build more plans. Each iteration truncates each member's candidate
   table once, and nothing else. *)
let test_seminaive_scratch_reuse () =
  let s, answer = run_ancestor Core.Runtime.Seminaive in
  let io = answer.Core.Session.run.Core.Runtime.io in
  Alcotest.(check bool) "enough iterations to matter" true (iters_of answer >= 3);
  let _, deeper = run_ancestor ~depth:8 Core.Runtime.Seminaive in
  Alcotest.(check bool) "the deeper tree iterates more" true (iters_of deeper > iters_of answer);
  Alcotest.(check int) "plans built do not grow with the iterations" io.Stats.plan_cache_misses
    deeper.Core.Session.run.Core.Runtime.io.Stats.plan_cache_misses;
  Alcotest.(check int) "one truncate per iteration and member" (iters_of answer)
    io.Stats.tables_truncated;
  (* ancestor + delta + candidate, each created exactly once,
     regardless of the iteration count *)
  Alcotest.(check int) "tables created once" 3 io.Stats.tables_created;
  Alcotest.(check int) "creates and drops balance" io.Stats.tables_created io.Stats.tables_dropped;
  check_no_leftovers s

let test_naive_matches_seminaive () =
  let _, naive = run_ancestor Core.Runtime.Naive in
  let s, semi = run_ancestor Core.Runtime.Seminaive in
  let sort rows = List.sort compare (List.map Array.to_list rows) in
  Alcotest.(check bool) "same answers" true
    (sort naive.Core.Session.run.Core.Runtime.rows = sort semi.Core.Session.run.Core.Runtime.rows);
  let io = naive.Core.Session.run.Core.Runtime.io in
  (* ancestor + next + diff, created once *)
  Alcotest.(check int) "naive creates tables once" 3 io.Stats.tables_created;
  Alcotest.(check bool) "naive reuses plans too" true
    (io.Stats.plan_cache_hits > io.Stats.plan_cache_misses);
  check_no_leftovers s

let () =
  Alcotest.run "plan_cache"
    [
      ( "statement cache",
        [
          Alcotest.test_case "transparent hits" `Quick test_transparent_cache_hits;
          Alcotest.test_case "toggle" `Quick test_cache_toggle;
          Alcotest.test_case "prepare/exec_prepared" `Quick test_prepare_exec;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "drop+create table" `Quick test_replan_after_drop_create;
          Alcotest.test_case "index ddl" `Quick test_replan_after_index_ddl;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "drop releases plans" `Quick test_drop_releases_plans;
          Alcotest.test_case "rollback releases plans" `Quick test_rollback_releases_plans;
          Alcotest.test_case "audit flags a dropped reader" `Quick test_audit_flags_dropped_reader;
          Alcotest.test_case "ddl replans only its table" `Quick test_ddl_replans_only_its_table;
          Alcotest.test_case "other session's query keeps plans" `Quick
            test_other_session_query_keeps_plans;
        ] );
      ( "lru",
        [
          Alcotest.test_case "capacity" `Quick test_lru_capacity;
          Alcotest.test_case "least recently used first" `Quick test_lru_order;
          Alcotest.test_case "touched text survives" `Quick test_lru_touched_text_survives;
        ] );
      ( "swap tables",
        [
          Alcotest.test_case "exchanges rows" `Quick test_swap_exchanges_rows;
          Alcotest.test_case "rolls back" `Quick test_swap_rolls_back;
          Alcotest.test_case "keeps snapshots" `Quick test_swap_keeps_snapshots;
          Alcotest.test_case "keeps cached plans" `Quick test_swap_keeps_plans;
          Alcotest.test_case "typed refusals" `Quick test_swap_refusals;
        ] );
      ( "lfp runtime",
        [
          Alcotest.test_case "semi-naive scratch reuse" `Quick test_seminaive_scratch_reuse;
          Alcotest.test_case "naive = semi-naive" `Quick test_naive_matches_seminaive;
        ] );
    ]
