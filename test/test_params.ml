(* Bind parameters: a statement with ?1..?N is parsed and planned once,
   and each execution binds its own arguments. The property runs random
   templates both ways, bound on one engine and as the literal text the
   arguments stand for on another, and requires the same rows, affected
   counts, error class and final state. *)

module E = Rdbms.Engine
module V = Rdbms.Value
module P = Rdbms.Persist
module Sql_ast = Rdbms.Sql_ast

let contains affix s = Astring.String.is_infix ~affix s

let raises_with what affix f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": no error")
  | exception E.Sql_error msg ->
      Alcotest.(check bool) (Printf.sprintf "%s: %S names %S" what msg affix) true (contains affix msg)

let schema =
  [
    "CREATE TABLE t (k integer, v char)";
    "CREATE INDEX idx_t_k ON t (k)";
    "CREATE ORDERED INDEX oidx_t_k ON t (k)";
    "CREATE TABLE u (k integer, v char)";
    "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a'), (5, 'c')";
    "INSERT INTO u VALUES (1, 'a'), (4, 'b'), (5, 'c')";
  ]

let engine () =
  let e = E.create () in
  E.set_sanitize e true;
  List.iter (fun sql -> ignore (E.exec e sql)) schema;
  e

(* ------------------------------------------------------------------ *)
(* The property *)

type arg = I | S (* an integer or a char argument *)

(* Each template with the kinds of its arguments: SELECT (indexed and
   unindexed equality, ranges, a join), INSERT VALUES, INSERT ... SELECT,
   DELETE ... WHERE (the index fast path and a scan), DELETE ... IN and
   UPDATE; and plain statements that drop and re-create [u] under the
   held templates. *)
let templates =
  [|
    ("SELECT v FROM t WHERE k = ?1", [ I ]);
    ("SELECT k FROM u WHERE v = ?1", [ S ]);
    ("SELECT k, v FROM t WHERE k >= ?1 AND k <= ?2", [ I; I ]);
    ("SELECT k FROM t WHERE k < ?1 AND k < ?2 AND v <> ?3", [ I; I; S ]);
    ("SELECT u.v FROM t, u WHERE t.k = u.k AND t.v = ?1", [ S ]);
    ("INSERT INTO t VALUES (?1, ?2)", [ I; S ]);
    ("INSERT INTO u VALUES (?1, 'c'), (?2, ?3)", [ I; I; S ]);
    ("INSERT INTO u SELECT k, ?2 FROM t WHERE k < ?1", [ I; S ]);
    ("DELETE FROM t WHERE k = ?1", [ I ]);
    ("DELETE FROM u WHERE v = ?1 AND k > ?2", [ S; I ]);
    ("DELETE FROM u WHERE (k, v) IN (SELECT k, v FROM t WHERE k = ?1)", [ I ]);
    ("UPDATE t SET v = ?1 WHERE k = ?2", [ S; I ]);
    ("DROP TABLE u", []);
    ("CREATE TABLE u (k integer, v char)", []);
  |]

let outcome = function
  | E.Rows { columns; rows } ->
      Printf.sprintf "rows %s: %s" (String.concat "," columns)
        (String.concat "; "
           (List.sort compare
              (List.map (fun r -> String.concat "," (Array.to_list (Array.map V.to_string r))) rows)))
  | E.Affected n -> Printf.sprintf "affected %d" n
  | E.Done -> "done"

let run f = match f () with r -> outcome r | exception E.Sql_error _ -> "error"

let prop_bound_is_literal =
  let gen =
    QCheck2.Gen.(
      let value = function
        | I -> map (fun n -> V.Int n) (int_range (-1) 7)
        | S -> map (fun c -> V.Str (String.make 1 c)) (oneofl [ 'a'; 'b'; 'c'; '\'' ])
      in
      let op =
        int_bound (Array.length templates - 1) >>= fun i ->
        map (fun args -> (i, Array.of_list args)) (flatten_l (List.map value (snd templates.(i))))
      in
      list_size (int_range 1 25) op)
  in
  let print ops =
    String.concat "\n"
      (List.map
         (fun (i, args) ->
           fst templates.(i) ^ " <- "
           ^ String.concat ", " (Array.to_list (Array.map V.to_sql args)))
         ops)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"bound execution = literal text" ~print gen (fun ops ->
         let bound = engine () and literal = engine () in
         (* the templates are prepared once and held across the ops *)
         let prepared = Array.map (fun (sql, _) -> E.prepare bound sql) templates in
         List.iter
           (fun (i, args) ->
             let b = run (fun () -> E.exec_prepared bound ~args prepared.(i)) in
             let text = Rdbms.Sql_printer.stmt (Sql_ast.bind args (E.prepared_stmt prepared.(i))) in
             let l = run (fun () -> E.exec literal text) in
             if b <> l then QCheck2.Test.fail_reportf "%s\nbound:   %s\nliteral: %s" text b l)
           ops;
         if P.dump bound <> P.dump literal then QCheck2.Test.fail_reportf "final states differ";
         true))

(* ------------------------------------------------------------------ *)
(* Unit tests *)

let test_count_and_type_errors () =
  let e = engine () in
  let p = E.prepare e "SELECT v FROM t WHERE k = ?1" in
  raises_with "no arguments" "expected 1, got 0" (fun () -> E.exec_prepared e p);
  raises_with "two arguments" "expected 1, got 2" (fun () ->
      E.exec_prepared e ~args:[| V.Int 1; V.Int 2 |] p);
  raises_with "char for integer" "?1 expects integer" (fun () ->
      E.exec_prepared e ~args:[| V.Str "1" |] p);
  raises_with "text not an integer" "expected integer, got 0x1" (fun () ->
      E.args_of_text e p [ "0x1" ]);
  Alcotest.(check bool) "text 007 is 7" true (E.args_of_text e p [ "007" ] = [| V.Int 7 |]);
  let q = E.prepare e "SELECT k FROM t WHERE v = ?1" in
  Alcotest.(check bool) "text 007 is '007'" true (E.args_of_text e q [ "007" ] = [| V.Str "007" |]);
  raises_with "gap in numbering" "?2 is missing" (fun () ->
      E.prepare e "SELECT v FROM t WHERE k = ?1 AND v = ?3");
  raises_with "untyped parameter" "cannot infer the type of ?1" (fun () ->
      E.exec_prepared e ~args:[| V.Int 1 |] (E.prepare e "SELECT ?1 FROM t"));
  raises_with "two types" "?1 is used as both" (fun () ->
      E.exec_prepared e ~args:[| V.Int 1 |] (E.prepare e "SELECT v FROM t WHERE k = ?1 AND v = ?1"));
  (* text with a parameter and no way to bind it *)
  raises_with "unbound in SELECT text" "expected 1, got 0" (fun () ->
      E.exec e "SELECT v FROM t WHERE k = ?1");
  raises_with "unbound in INSERT text" "parameter ?1 has no value" (fun () ->
      E.exec e "INSERT INTO t VALUES (?1, 'x')");
  raises_with "unbound in snapshot text" "parameter ?1 has no value" (fun () ->
      let ts = E.begin_snapshot e in
      Fun.protect ~finally:(fun () -> E.release_snapshot e ts) (fun () ->
          E.exec_snapshot e ~ts "SELECT v FROM t WHERE k = ?1"))

(* One plan serves every argument: the index probe and the range read
   each execution's values, and the plan is built once. *)
let test_one_plan_many_arguments () =
  let e = engine () in
  let p = E.prepare e "SELECT v FROM t WHERE k = ?1" in
  let r = E.prepare e "SELECT k FROM t WHERE k > ?1 AND k <= ?2" in
  let rows p args =
    match E.exec_prepared e ~args p with
    | E.Rows { rows; _ } -> List.sort compare (List.map (fun r -> V.to_string r.(0)) rows)
    | _ -> Alcotest.fail "expected rows"
  in
  let misses0 = (E.stats e).Rdbms.Stats.plan_cache_misses in
  Alcotest.(check (list string)) "k = 1" [ "a" ] (rows p [| V.Int 1 |]);
  Alcotest.(check (list string)) "k = 5" [ "c" ] (rows p [| V.Int 5 |]);
  Alcotest.(check (list string)) "k = 9" [] (rows p [| V.Int 9 |]);
  Alcotest.(check (list string)) "1 < k <= 3" [ "2"; "3" ] (rows r [| V.Int 1; V.Int 3 |]);
  Alcotest.(check (list string)) "2 < k <= 9" [ "3"; "5" ] (rows r [| V.Int 2; V.Int 9 |]);
  Alcotest.(check int) "two plans built" 2 ((E.stats e).Rdbms.Stats.plan_cache_misses - misses0);
  (* the plan shows the parameter where a literal plan shows a value *)
  let plan = E.explain e "SELECT v FROM t WHERE k = ?1" in
  Alcotest.(check bool) (plan ^ " probes with ?1") true (contains "IndexScan" plan && contains "= ?1" plan);
  let plan = E.explain e "SELECT k FROM t WHERE k > ?1 AND k <= ?2" in
  Alcotest.(check bool) (plan ^ " ranges over ?1..?2") true
    (contains "RangeScan" plan && contains "> ?1" plan && contains "<= ?2" plan)

(* A held template re-types after its table is dropped and re-created
   with other column types. *)
let test_retyped_after_ddl () =
  let e = engine () in
  let p = E.prepare e "SELECT v FROM u WHERE k = ?1" in
  ignore (E.exec_prepared e ~args:[| V.Int 1 |] p);
  ignore (E.exec e "DROP TABLE u");
  ignore (E.exec e "CREATE TABLE u (k char, v char)");
  ignore (E.exec e "INSERT INTO u VALUES ('1', 'x')");
  raises_with "old type refused" "?1 expects char" (fun () -> E.exec_prepared e ~args:[| V.Int 1 |] p);
  match E.exec_prepared e ~args:(E.args_of_text e p [ "1" ]) p with
  | E.Rows { rows = [ [| V.Str "x" |] ]; _ } -> ()
  | _ -> Alcotest.fail "re-typed template found no row"

let () =
  Alcotest.run "params"
    [
      ( "bind parameters",
        [
          Alcotest.test_case "count and type errors" `Quick test_count_and_type_errors;
          Alcotest.test_case "one plan, many arguments" `Quick test_one_plan_many_arguments;
          Alcotest.test_case "re-typed after DDL" `Quick test_retyped_after_ddl;
          prop_bound_is_literal;
        ] );
    ]
