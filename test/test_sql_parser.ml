(* Unit and property tests for the SQL parser: targeted syntax cases plus
   a print/re-parse roundtrip over randomly generated ASTs. *)

open Rdbms.Sql_ast
module P = Rdbms.Sql_parser
module Pr = Rdbms.Sql_printer

let parse_ok s =
  try P.parse s with
  | P.Parse_error (msg, pos) -> Alcotest.fail (Printf.sprintf "parse error at %d: %s" pos msg)
  | Rdbms.Sql_lexer.Lex_error (msg, pos) ->
      Alcotest.fail (Printf.sprintf "lex error at %d: %s" pos msg)

let parse_fails s =
  Alcotest.(check bool)
    (Printf.sprintf "rejects %S" s)
    true
    (try
       ignore (P.parse s);
       false
     with P.Parse_error _ | Rdbms.Sql_lexer.Lex_error _ -> true)

(* ---------------- targeted cases ---------------- *)

let test_create_table () =
  match parse_ok "CREATE TABLE t (a integer, b char, c char(20))" with
  | Create_table { name = "t"; columns } ->
      Alcotest.(check int) "3 cols" 3 (List.length columns);
      Alcotest.(check bool) "types" true
        (List.map snd columns = [ Rdbms.Datatype.TInt; Rdbms.Datatype.TStr; Rdbms.Datatype.TStr ])
  | _ -> Alcotest.fail "wrong statement"

let test_drop_table () =
  (match parse_ok "DROP TABLE IF EXISTS t" with
  | Drop_table { name = "t"; if_exists = true } -> ()
  | _ -> Alcotest.fail "wrong");
  match parse_ok "drop table t" with
  | Drop_table { name = "t"; if_exists = false } -> ()
  | _ -> Alcotest.fail "wrong"

let test_truncate () =
  (match parse_ok "TRUNCATE TABLE t" with
  | Truncate { name = "t" } -> ()
  | _ -> Alcotest.fail "wrong");
  (* the TABLE keyword is optional, as in most dialects *)
  match parse_ok "truncate t" with
  | Truncate { name = "t" } -> ()
  | _ -> Alcotest.fail "wrong"

let test_insert_values () =
  match parse_ok "INSERT INTO t VALUES (1, 'a'), (2, 'b')" with
  | Insert_values { table = "t"; rows = [ [ L_int 1; L_str "a" ]; [ L_int 2; L_str "b" ] ] } -> ()
  | _ -> Alcotest.fail "wrong"

let test_insert_select () =
  match parse_ok "INSERT INTO t SELECT DISTINCT a FROM u WHERE a = 1" with
  | Insert_select { table = "t"; query = Q_select { distinct = true; _ } } -> ()
  | _ -> Alcotest.fail "wrong"

let test_select_joins () =
  match parse_ok "SELECT t1.a, t2.b FROM t t1, u t2 WHERE t1.a = t2.a AND t2.b <> 'x'" with
  | Select { query = Q_select { from = [ f1; f2 ]; where = Some (And _); _ }; _ } ->
      Alcotest.(check (option string)) "alias 1" (Some "t1") f1.alias;
      Alcotest.(check string) "table 2" "u" f2.table
  | _ -> Alcotest.fail "wrong"

let test_set_operations () =
  (match parse_ok "SELECT a FROM t UNION SELECT a FROM u" with
  | Select { query = Q_union _; _ } -> ()
  | _ -> Alcotest.fail "union");
  (match parse_ok "SELECT a FROM t UNION ALL SELECT a FROM u" with
  | Select { query = Q_union_all _; _ } -> ()
  | _ -> Alcotest.fail "union all");
  (match parse_ok "(SELECT a FROM t) EXCEPT (SELECT a FROM u)" with
  | Select { query = Q_except _; _ } -> ()
  | _ -> Alcotest.fail "except");
  match parse_ok "SELECT a FROM t MINUS SELECT a FROM u" with
  | Select { query = Q_except _; _ } -> ()
  | _ -> Alcotest.fail "minus"

let test_set_op_left_assoc () =
  match parse_ok "SELECT a FROM t UNION SELECT a FROM u EXCEPT SELECT a FROM v" with
  | Select { query = Q_except (Q_union _, Q_select _); _ } -> ()
  | _ -> Alcotest.fail "wrong associativity"

let test_aggregates_parse () =
  match parse_ok "SELECT dept, SUM(salary) AS total, MIN(x), COUNT(id) FROM t GROUP BY dept, t.x" with
  | Select
      {
        query =
          Q_select
            {
              items =
                [ Sel_expr _; Sel_agg (Agg_sum, _, Some "total"); Sel_agg (Agg_min, _, None);
                  Sel_agg (Agg_count, _, None) ];
              group_by = [ _; _ ];
              _;
            };
        _;
      } -> ()
  | _ -> Alcotest.fail "wrong aggregate parse"

let test_count_star () =
  match parse_ok "SELECT COUNT(*) FROM t" with
  | Select { query = Q_select { items = [ Sel_count_star None ]; _ }; _ } -> ()
  | _ -> Alcotest.fail "wrong"

let test_order_by () =
  match parse_ok "SELECT a, b FROM t ORDER BY b DESC, 1" with
  | Select { order_by = [ k1; k2 ]; _ } ->
      Alcotest.(check bool) "desc name" true (k1.target = `Name "b" && k1.descending);
      Alcotest.(check bool) "position" true (k2.target = `Position 1 && not k2.descending)
  | _ -> Alcotest.fail "wrong"

let test_not_exists () =
  match
    parse_ok "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.x = t.a) AND a > 1"
  with
  | Select { query = Q_select { where = Some (And (Not_exists _, Cmp _)); _ }; _ } -> ()
  | _ -> Alcotest.fail "wrong"

let test_delete () =
  match parse_ok "DELETE FROM t WHERE a = 1 OR b = 'x'" with
  | Delete { table = "t"; where = Some (Or _) } -> ()
  | _ -> Alcotest.fail "wrong"

(* The row-membership form is told apart from a parenthesized condition
   by the IN after the column list, and prints back to the same text. *)
let test_delete_in () =
  let text = "DELETE FROM mat__tc WHERE (c1, c2) IN (SELECT * FROM odel__tc)" in
  (match parse_ok text with
  | Delete_in { table = "mat__tc"; columns = [ "c1"; "c2" ]; query = Q_select _ } as st ->
      Alcotest.(check string) "prints back" text (Pr.stmt st)
  | _ -> Alcotest.fail "row-membership delete");
  (match parse_ok "DELETE FROM t WHERE (a) IN ((SELECT x FROM u) EXCEPT (SELECT y FROM v))" with
  | Delete_in { columns = [ "a" ]; query = Q_except _; _ } -> ()
  | _ -> Alcotest.fail "one column, set-operation subquery");
  (match parse_ok "DELETE FROM t WHERE (a = 1 OR b = 2) AND c = 3" with
  | Delete { where = Some (And (Or _, Cmp _)); _ } -> ()
  | _ -> Alcotest.fail "parenthesized condition stays a condition");
  parse_fails "DELETE FROM t WHERE (a, b) IN SELECT * FROM u";
  parse_fails "DELETE FROM t WHERE (a, b) IN (SELECT * FROM u) AND c = 1";
  parse_fails "DELETE FROM t WHERE (a, 1) IN (SELECT * FROM u)"

let test_update_stmt () =
  match parse_ok "UPDATE t SET a = 1, b = c WHERE a > 0" with
  | Update { table = "t"; sets = [ ("a", Lit (L_int 1)); ("b", Col _) ]; where = Some _ } -> ()
  | _ -> Alcotest.fail "wrong"

let test_index_ddl () =
  (match parse_ok "CREATE INDEX i ON t (a)" with
  | Create_index { index = "i"; table = "t"; column = "a"; ordered = false } -> ()
  | _ -> Alcotest.fail "create");
  (match parse_ok "CREATE ORDERED INDEX i ON t (a)" with
  | Create_index { ordered = true; _ } -> ()
  | _ -> Alcotest.fail "ordered create");
  match parse_ok "DROP INDEX i" with
  | Drop_index { index = "i" } -> ()
  | _ -> Alcotest.fail "drop"

let test_parse_many () =
  let stmts = P.parse_many "CREATE TABLE t (a integer); INSERT INTO t VALUES (1); SELECT a FROM t" in
  Alcotest.(check int) "three statements" 3 (List.length stmts)

let test_errors () =
  parse_fails "";
  parse_fails "SELECT";
  parse_fails "SELECT FROM t";
  parse_fails "SELECT a FROM";
  parse_fails "SELECT a FROM t WHERE";
  parse_fails "SELECT a FROM t WHERE a";
  parse_fails "CREATE TABLE t ()";
  parse_fails "CREATE TABLE t (a blob)";
  parse_fails "INSERT INTO t";
  parse_fails "SELECT a FROM t extra garbage";
  parse_fails "SELECT COUNT(a, b) FROM t";
  parse_fails "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u UNION SELECT * FROM v)"

(* ---------------- roundtrip property ---------------- *)

let ident_pool = [| "t"; "u"; "v"; "alpha"; "beta"; "c1"; "c2"; "x9" |]

let gen_ident = QCheck2.Gen.(map (fun i -> ident_pool.(i)) (int_bound (Array.length ident_pool - 1)))

let gen_literal =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> L_int n) small_signed_int;
        map (fun s -> L_str s) (string_size ~gen:(char_range 'a' 'z') (int_bound 6));
      ])

let gen_scalar =
  QCheck2.Gen.(
    oneof
      [
        map (fun l -> Lit l) gen_literal;
        map2
          (fun q c -> Col { qualifier = q; column = c })
          (option gen_ident) gen_ident;
      ])

let gen_cmp_op = QCheck2.Gen.oneofl [ Eq; Neq; Lt; Le; Gt; Ge ]

let rec gen_cond depth =
  let open QCheck2.Gen in
  let cmp = map3 (fun a op b -> Cmp (a, op, b)) gen_scalar gen_cmp_op gen_scalar in
  if depth = 0 then cmp
  else
    oneof
      [
        cmp;
        map2 (fun a b -> And (a, b)) (gen_cond (depth - 1)) (gen_cond (depth - 1));
        map2 (fun a b -> Or (a, b)) (gen_cond (depth - 1)) (gen_cond (depth - 1));
        map (fun a -> Not a) (gen_cond (depth - 1));
      ]

let gen_select_core =
  let open QCheck2.Gen in
  let gen_agg_fn = oneofl [ Agg_count; Agg_sum; Agg_min; Agg_max ] in
  let item =
    oneof
      [
        map2 (fun e a -> Sel_expr (e, a)) gen_scalar (option gen_ident);
        return (Sel_count_star None);
        map3 (fun fn e a -> Sel_agg (fn, e, a)) gen_agg_fn gen_scalar (option gen_ident);
      ]
  in
  let items = oneof [ return [ Sel_star ]; list_size (int_range 1 3) item ] in
  let from_item = map2 (fun t a -> { table = t; alias = a }) gen_ident (option gen_ident) in
  let from = list_size (int_range 1 3) from_item in
  let group_col = map2 (fun q c -> { qualifier = q; column = c }) (option gen_ident) gen_ident in
  map3
    (fun (distinct, items) (from, where) group_by -> { distinct; items; from; where; group_by })
    (pair bool items)
    (pair from (option (gen_cond 2)))
    (list_size (int_bound 2) group_col)

let rec gen_query depth =
  let open QCheck2.Gen in
  let base = map (fun c -> Q_select c) gen_select_core in
  if depth = 0 then base
  else
    oneof
      [
        base;
        map2 (fun a b -> Q_union (a, b)) (gen_query (depth - 1)) (gen_query (depth - 1));
        map2 (fun a b -> Q_union_all (a, b)) (gen_query (depth - 1)) (gen_query (depth - 1));
        map2 (fun a b -> Q_except (a, b)) (gen_query (depth - 1)) (gen_query (depth - 1));
      ]

let roundtrip_query =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"print/parse roundtrip (queries)" (gen_query 2)
       (fun q ->
         let text = Pr.query q in
         match P.parse_query text with
         | q' -> q = q'
         | exception P.Parse_error (msg, pos) ->
             QCheck2.Test.fail_reportf "reparse failed at %d (%s) for: %s" pos msg text))

let gen_stmt =
  let open QCheck2.Gen in
  oneof
    [
      map2
        (fun name cols ->
          (* ensure distinct column names *)
          let cols = List.mapi (fun i ty -> (Printf.sprintf "col%d" i, ty)) cols in
          Create_table { name; columns = cols })
        gen_ident
        (list_size (int_range 1 4) (oneofl [ Rdbms.Datatype.TInt; Rdbms.Datatype.TStr ]));
      map2 (fun name if_exists -> Drop_table { name; if_exists }) gen_ident bool;
      map (fun name -> Truncate { name }) gen_ident;
      map3
        (fun index table (column, ordered) -> Create_index { index; table; column; ordered })
        gen_ident gen_ident (pair gen_ident bool);
      map2
        (fun table rows -> Insert_values { table; rows })
        gen_ident
        (list_size (int_range 1 3) (list_size (int_range 1 3) gen_literal));
      map2 (fun table q -> Insert_select { table; query = q }) gen_ident (gen_query 1);
      map2 (fun table where -> Delete { table; where }) gen_ident (option (gen_cond 1));
      map3
        (fun table columns q -> Delete_in { table; columns; query = q })
        gen_ident
        (list_size (int_range 1 3) gen_ident)
        (gen_query 1);
      map3
        (fun table sets where -> Update { table; sets; where })
        gen_ident
        (list_size (int_range 1 3) (pair gen_ident gen_scalar))
        (option (gen_cond 1));
      map2
        (fun q order_by -> Select { query = q; order_by })
        (gen_query 1)
        (list_size (int_bound 2)
           (map2
              (fun t d -> { target = t; descending = d })
              (oneof [ map (fun n -> `Name n) gen_ident; map (fun i -> `Position (i + 1)) (int_bound 3) ])
              bool));
    ]

let roundtrip_stmt =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"print/parse roundtrip (statements)" gen_stmt (fun st ->
         let text = Pr.stmt st in
         match P.parse text with
         | st' -> st = st'
         | exception P.Parse_error (msg, pos) ->
             QCheck2.Test.fail_reportf "reparse failed at %d (%s) for: %s" pos msg text))

let () =
  Alcotest.run "sql_parser"
    [
      ( "cases",
        [
          Alcotest.test_case "create table" `Quick test_create_table;
          Alcotest.test_case "drop table" `Quick test_drop_table;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "insert values" `Quick test_insert_values;
          Alcotest.test_case "insert select" `Quick test_insert_select;
          Alcotest.test_case "select with joins" `Quick test_select_joins;
          Alcotest.test_case "set operations" `Quick test_set_operations;
          Alcotest.test_case "set op associativity" `Quick test_set_op_left_assoc;
          Alcotest.test_case "count(*)" `Quick test_count_star;
          Alcotest.test_case "aggregates" `Quick test_aggregates_parse;
          Alcotest.test_case "order by" `Quick test_order_by;
          Alcotest.test_case "not exists" `Quick test_not_exists;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "delete in" `Quick test_delete_in;
          Alcotest.test_case "index ddl" `Quick test_index_ddl;
          Alcotest.test_case "update" `Quick test_update_stmt;
          Alcotest.test_case "parse_many" `Quick test_parse_many;
          Alcotest.test_case "error cases" `Quick test_errors;
        ] );
      ("roundtrip", [ roundtrip_query; roundtrip_stmt ]);
    ]
