(* Tests that the planner picks the intended physical operators and
   resolves names correctly. *)

module E = Rdbms.Engine

let fresh ?(index = true) () =
  let e = E.create () in
  ignore (E.exec e "CREATE TABLE big (k integer, v char)");
  ignore (E.exec e "CREATE TABLE small (k integer, w char)");
  if index then begin
    ignore (E.exec e "CREATE INDEX idx_big_k ON big (k)");
    ignore (E.exec e "CREATE INDEX idx_small_k ON small (k)")
  end;
  e

let has e sql affix =
  let plan = E.explain e sql in
  Alcotest.(check bool)
    (Printf.sprintf "plan of %S contains %s:\n%s" sql affix plan)
    true
    (Astring.String.is_infix ~affix plan)

let lacks e sql affix =
  let plan = E.explain e sql in
  Alcotest.(check bool)
    (Printf.sprintf "plan of %S avoids %s:\n%s" sql affix plan)
    false
    (Astring.String.is_infix ~affix plan)

let test_index_scan_on_eq_const () =
  let e = fresh () in
  has e "SELECT v FROM big WHERE k = 5" "IndexScan";
  (* reversed operands too *)
  has e "SELECT v FROM big WHERE 5 = k" "IndexScan";
  lacks e "SELECT v FROM big WHERE k > 5" "IndexScan"

let test_seq_scan_without_index () =
  let e = fresh ~index:false () in
  has e "SELECT v FROM big WHERE k = 5" "SeqScan"

let test_index_join_when_indexed () =
  let e = fresh () in
  has e "SELECT b.v FROM small s, big b WHERE s.k = b.k" "IndexJoin"

let test_hash_join_without_index () =
  let e = fresh ~index:false () in
  has e "SELECT b.v FROM small s, big b WHERE s.k = b.k" "HashJoin"

let test_index_join_declined_with_local_filter () =
  (* a single-table predicate on the inner table forces the scan-based
     join so the filter can be applied at the scan *)
  let e = fresh () in
  has e "SELECT b.v FROM small s, big b WHERE s.k = b.k AND b.v = 'x'" "HashJoin"

let test_cross_join_is_nested_loop () =
  let e = fresh () in
  has e "SELECT b.v FROM small s, big b" "NestedLoopJoin"

let test_non_equi_join_residual () =
  let e = fresh () in
  has e "SELECT b.v FROM small s, big b WHERE s.k < b.k" "NestedLoopJoin"

let test_anti_join () =
  let e = fresh () in
  has e "SELECT v FROM big WHERE NOT EXISTS (SELECT * FROM small s WHERE s.k = big.k)" "AntiJoin"

let test_distinct_and_sort_nodes () =
  let e = fresh () in
  has e "SELECT DISTINCT v FROM big" "Distinct";
  has e "SELECT v FROM big ORDER BY v" "Sort"

let test_three_way_join () =
  let e = fresh () in
  ignore (E.exec e "CREATE TABLE third (k integer, z char)");
  let plan =
    E.explain e
      "SELECT t.z FROM small s, big b, third t WHERE s.k = b.k AND b.k = t.k"
  in
  (* both joins present, no cross product *)
  Alcotest.(check bool) ("two joins:\n" ^ plan) true
    (Astring.String.is_infix ~affix:"Join" plan
    && not (Astring.String.is_infix ~affix:"NestedLoopJoin" plan))

let test_greedy_join_order () =
  let e = fresh () in
  (* big has 100 rows, small has 2: greedy should scan small first even
     though the query names big first *)
  for i = 1 to 100 do
    ignore (E.exec e (Printf.sprintf "INSERT INTO big VALUES (%d, 'v')" i))
  done;
  ignore (E.exec e "INSERT INTO small VALUES (1, 'w'), (2, 'w')");
  let sql = "SELECT s.w FROM big b, small s WHERE b.k = s.k" in
  let syntactic = E.explain e sql in
  E.set_join_order e Rdbms.Planner.Greedy;
  let greedy = E.explain e sql in
  E.set_join_order e Rdbms.Planner.Syntactic;
  (* syntactic starts from big; greedy starts from small *)
  let first_scan plan =
    let lines = String.split_on_char '\n' plan in
    List.find_opt (fun l -> Astring.String.is_infix ~affix:"Scan" l) (List.rev lines)
  in
  (match first_scan syntactic with
  | Some l -> Alcotest.(check bool) ("syntactic deepest scan is big: " ^ l) true
      (Astring.String.is_infix ~affix:"big" l || Astring.String.is_infix ~affix:"IndexJoin" syntactic)
  | None -> Alcotest.fail "no scan");
  Alcotest.(check bool) ("greedy picks small first:\n" ^ greedy) true
    (match String.index_opt greedy 's' with _ -> Astring.String.is_infix ~affix:"small" greedy);
  (* and the answers agree *)
  let rows mode =
    E.set_join_order e mode;
    let r = match E.exec e (sql ^ " ORDER BY 1") with
      | E.Rows { rows; _ } -> rows
      | _ -> Alcotest.fail "rows" in
    E.set_join_order e Rdbms.Planner.Syntactic;
    r
  in
  Alcotest.(check int) "same answers" (List.length (rows Rdbms.Planner.Syntactic))
    (List.length (rows Rdbms.Planner.Greedy))

let test_greedy_prefers_filtered_table () =
  let e = fresh () in
  for i = 1 to 50 do
    ignore (E.exec e (Printf.sprintf "INSERT INTO big VALUES (%d, 'v%d')" i i))
  done;
  ignore (E.exec e "INSERT INTO small VALUES (7, 'w')");
  E.set_join_order e Rdbms.Planner.Greedy;
  (* an indexed equality filter makes big cheap, but small is still smaller *)
  let before = Rdbms.Stats.copy (E.stats e) in
  (match E.exec e "SELECT b.v FROM big b, small s WHERE b.k = s.k" with
  | E.Rows { rows; _ } -> Alcotest.(check int) "one match" 1 (List.length rows)
  | _ -> Alcotest.fail "rows");
  let d = Rdbms.Stats.diff (E.stats e) before in
  E.set_join_order e Rdbms.Planner.Syntactic;
  (* greedy drives from small: 1 outer row + 1 index probe, far fewer than
     scanning big's 50 rows *)
  Alcotest.(check bool)
    (Printf.sprintf "few rows read (%d)" d.Rdbms.Stats.rows_read)
    true (d.Rdbms.Stats.rows_read < 25)

let test_explain_rejects_non_select () =
  let e = fresh () in
  Alcotest.(check bool) "explain insert fails" true
    (try
       ignore (E.explain e "INSERT INTO big VALUES (1, 'x')");
       false
     with E.Sql_error _ -> true)

(* A 3-way join with skewed sizes, written largest-first, every join
   column indexed — the shape where the three planners genuinely diverge. *)
let skewed () =
  let e = E.create () in
  let x sql = ignore (E.exec e sql) in
  x "CREATE TABLE big (bk integer, bv integer)";
  x "CREATE TABLE mid (mk integer, bk integer, sk integer)";
  x "CREATE TABLE small (sk integer, sv integer)";
  for i = 0 to 299 do
    x (Printf.sprintf "INSERT INTO big VALUES (%d, %d)" i (i mod 50))
  done;
  for i = 0 to 99 do
    x (Printf.sprintf "INSERT INTO mid VALUES (%d, %d, %d)" i (i * 3) (i mod 12))
  done;
  for i = 0 to 11 do
    x (Printf.sprintf "INSERT INTO small VALUES (%d, %d)" i (i mod 10))
  done;
  x "CREATE INDEX idx_big_bk ON big (bk)";
  x "CREATE INDEX idx_mid_bk ON mid (bk)";
  x "CREATE INDEX idx_mid_sk ON mid (sk)";
  x "CREATE INDEX idx_small_sk ON small (sk)";
  x "ANALYZE";
  e

let skewed_sql =
  "SELECT b.bv FROM big b, mid m, small s WHERE b.bk = m.bk AND m.sk = s.sk AND s.sv = 0"

let test_costed_golden_plans () =
  let e = skewed () in
  let plan mode =
    E.set_join_order e mode;
    let p = E.explain e skewed_sql in
    E.set_join_order e Rdbms.Planner.Syntactic;
    p
  in
  Alcotest.(check string) "syntactic golden plan"
    "Project [b.bv]\n\
    \  HashJoin keys=[4]=[0]\n\
    \    IndexJoin mid via idx_mid_bk probe=col0\n\
    \      SeqScan big\n\
    \    SeqScan small filter=[s.sv = 0]\n"
    (plan Rdbms.Planner.Syntactic);
  Alcotest.(check string) "greedy golden plan"
    "Project [b.bv]\n\
    \  IndexJoin big via idx_big_bk probe=col3\n\
    \    IndexJoin mid via idx_mid_sk probe=col0\n\
    \      SeqScan small filter=[s.sv = 0]\n"
    (plan Rdbms.Planner.Greedy);
  (* the costed planner drops every per-row index probe in favour of
     scans of the small tables, and builds the final hash table on the
     smaller (left, post-join) side *)
  Alcotest.(check string) "costed golden plan"
    "Project [b.bv]\n\
    \  HashJoin keys=[1]=[0] build=left\n\
    \    HashJoin keys=[2]=[0]\n\
    \      SeqScan mid\n\
    \      SeqScan small filter=[s.sv = 0]\n\
    \    SeqScan big\n"
    (plan Rdbms.Planner.Costed)

let test_costed_deterministic_and_correct () =
  let e = skewed () in
  E.set_join_order e Rdbms.Planner.Costed;
  Alcotest.(check string) "same plan on replan" (E.explain e skewed_sql)
    (E.explain e skewed_sql);
  let count mode =
    E.set_join_order e mode;
    match E.exec e skewed_sql with
    | E.Rows { rows; _ } -> List.length rows
    | _ -> Alcotest.fail "rows"
  in
  let costed = count Rdbms.Planner.Costed in
  let syntactic = count Rdbms.Planner.Syntactic in
  Alcotest.(check int) "same answers as syntactic" syntactic costed;
  Alcotest.(check bool) "non-empty" true (costed > 0)

let test_greedy_tie_breaks_on_from_order () =
  (* identical twin tables: every cardinality estimate ties, so greedy
     must fall back to FROM order (and stay deterministic) *)
  let e = E.create () in
  let x sql = ignore (E.exec e sql) in
  x "CREATE TABLE t1 (k integer, v char)";
  x "CREATE TABLE t2 (k integer, v char)";
  x "INSERT INTO t1 VALUES (1, 'a'), (2, 'b')";
  x "INSERT INTO t2 VALUES (1, 'c'), (2, 'd')";
  E.set_join_order e Rdbms.Planner.Greedy;
  let plan = E.explain e "SELECT t2.v FROM t2, t1 WHERE t2.k = t1.k" in
  (* the driving table is the join's left input — the first Scan line *)
  let driver =
    List.find_opt
      (fun l -> Astring.String.is_infix ~affix:"Scan" l)
      (String.split_on_char '\n' plan)
  in
  match driver with
  | Some l ->
      Alcotest.(check bool) ("drives from t2:\n" ^ plan) true
        (Astring.String.is_infix ~affix:"t2" l)
  | None -> Alcotest.fail "no scan in plan"

let test_greedy_empty_table_estimates () =
  (* an empty, filtered, indexed table exercises the >= 1 clamp in
     estimated_rows: planning must neither divide to zero nor error *)
  let e = fresh () in
  ignore (E.exec e "INSERT INTO big VALUES (1, 'x')");
  E.set_join_order e Rdbms.Planner.Greedy;
  match E.exec e "SELECT b.v FROM big b, small s WHERE b.k = s.k AND s.k = 3 AND s.w = 'y'" with
  | E.Rows { rows; _ } -> Alcotest.(check int) "empty join result" 0 (List.length rows)
  | _ -> Alcotest.fail "rows"

(* A member join replaces an index join whose edges bind every inner
   column. [pair] is indexed on [a] and large enough (four rows per key)
   that even the costed planner probes it from the 3-row [probe]; [other]
   holds the same rows with no index. *)
let member_tables () =
  let e = E.create () in
  let x sql = ignore (E.exec e sql) in
  x "CREATE TABLE pair (a integer, b integer)";
  x "CREATE TABLE other (a integer, b integer)";
  x "CREATE TABLE probe (x integer, y integer)";
  x "CREATE INDEX idx_pair_a ON pair (a)";
  let rows =
    String.concat ", " (List.init 10000 (fun i -> Printf.sprintf "(%d, %d)" (i mod 2500) i))
  in
  x ("INSERT INTO pair VALUES " ^ rows);
  x ("INSERT INTO other VALUES " ^ rows);
  x "INSERT INTO probe VALUES (1, 1), (1, 2501), (2, 7)";
  e

let test_member_join_golden_plans () =
  let e = member_tables () in
  List.iter
    (fun (mode, name, unindexed_join) ->
      E.set_join_order e mode;
      let golden what sql expected =
        Alcotest.(check string) (name ^ ": " ^ what) expected (E.explain e sql)
      in
      golden "fully bound"
        "SELECT p.b FROM probe q, pair p WHERE q.x = p.a AND q.y = p.b"
        "Project [p.b]\n\
        \  MemberJoin pair probe=[col0,col1]\n\
        \    SeqScan probe\n";
      golden "partly bound" "SELECT p.b FROM probe q, pair p WHERE q.x = p.a"
        "Project [p.b]\n\
        \  IndexJoin pair via idx_pair_a probe=col0\n\
        \    SeqScan probe\n";
      golden "unindexed"
        "SELECT o.b FROM probe q, other o WHERE q.x = o.a AND q.y = o.b"
        ("Project [o.b]\n  " ^ unindexed_join ^ "\n    SeqScan probe\n    SeqScan other\n"))
    [
      (Rdbms.Planner.Syntactic, "syntactic", "HashJoin keys=[0,1]=[0,1]");
      (Rdbms.Planner.Greedy, "greedy", "HashJoin keys=[0,1]=[0,1]");
      (Rdbms.Planner.Costed, "costed", "HashJoin keys=[0,1]=[0,1] build=left");
    ];
  E.set_join_order e Rdbms.Planner.Syntactic

let () =
  Alcotest.run "planner"
    [
      ( "operator choice",
        [
          Alcotest.test_case "index scan on eq const" `Quick test_index_scan_on_eq_const;
          Alcotest.test_case "seq scan without index" `Quick test_seq_scan_without_index;
          Alcotest.test_case "index join" `Quick test_index_join_when_indexed;
          Alcotest.test_case "hash join fallback" `Quick test_hash_join_without_index;
          Alcotest.test_case "local filter declines index join" `Quick
            test_index_join_declined_with_local_filter;
          Alcotest.test_case "cross join" `Quick test_cross_join_is_nested_loop;
          Alcotest.test_case "non-equi join" `Quick test_non_equi_join_residual;
          Alcotest.test_case "anti join" `Quick test_anti_join;
          Alcotest.test_case "distinct and sort" `Quick test_distinct_and_sort_nodes;
          Alcotest.test_case "three-way join" `Quick test_three_way_join;
          Alcotest.test_case "explain non-select" `Quick test_explain_rejects_non_select;
          Alcotest.test_case "greedy join order" `Quick test_greedy_join_order;
          Alcotest.test_case "greedy drives from filtered" `Quick test_greedy_prefers_filtered_table;
        ] );
      ( "costed",
        [
          Alcotest.test_case "golden plans" `Quick test_costed_golden_plans;
          Alcotest.test_case "deterministic and correct" `Quick
            test_costed_deterministic_and_correct;
          Alcotest.test_case "greedy tie-break on FROM order" `Quick
            test_greedy_tie_breaks_on_from_order;
          Alcotest.test_case "empty-table estimates" `Quick test_greedy_empty_table_estimates;
        ] );
      ( "member join",
        [ Alcotest.test_case "golden plans, all join orders" `Quick test_member_join_golden_plans ]
      );
    ]
