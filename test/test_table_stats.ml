(* ANALYZE statistics collection, the cardinality-bucketed plan-cache key
   (LFP delta feedback), and the costed planner's never-worse property on
   the workload graph shapes. *)

module E = Rdbms.Engine
module Stats = Rdbms.Stats
module TS = Rdbms.Table_stats
module Graphgen = Workload.Graphgen

let exec e sql = ignore (E.exec e sql : E.result)

let fresh_pets () =
  let e = E.create () in
  exec e "CREATE TABLE pets (id integer, species char, age integer)";
  exec e
    "INSERT INTO pets VALUES (1, 'cat', 3), (2, 'cat', 5), (3, 'dog', 3), (4, 'owl', 90), (5, \
     'cat', 1)";
  e

let stats_of e name =
  let tbl = Rdbms.Catalog.find_table_exn (E.catalog e) name in
  match tbl.Rdbms.Catalog.tbl_stats with
  | Some st -> st
  | None -> Alcotest.fail (name ^ " has no statistics")

let test_analyze_collects () =
  let e = fresh_pets () in
  exec e "ANALYZE pets";
  let st = stats_of e "pets" in
  Alcotest.(check int) "rows" 5 st.TS.s_rows;
  let col name =
    match TS.find_col st name with
    | Some c -> c
    | None -> Alcotest.fail ("no column " ^ name)
  in
  Alcotest.(check int) "id ndv" 5 (col "id").TS.c_ndv;
  Alcotest.(check int) "species ndv" 3 (col "species").TS.c_ndv;
  Alcotest.(check int) "age ndv" 4 (col "age").TS.c_ndv;
  Alcotest.(check bool) "age min" true ((col "age").TS.c_min = Some (Rdbms.Value.Int 1));
  Alcotest.(check bool) "age max" true ((col "age").TS.c_max = Some (Rdbms.Value.Int 90));
  Alcotest.(check bool) "species min" true
    ((col "species").TS.c_min = Some (Rdbms.Value.Str "cat"));
  (* case-insensitive lookup *)
  Alcotest.(check bool) "find_col case-insensitive" true (TS.find_col st "AGE" <> None)

let test_analyze_counters_and_version () =
  let e = fresh_pets () in
  exec e "CREATE TABLE toys (id integer)";
  let version name = (Rdbms.Catalog.find_table_exn (E.catalog e) name).Rdbms.Catalog.tbl_version in
  let pets0 = version "pets" and toys0 = version "toys" in
  exec e "ANALYZE pets";
  Alcotest.(check bool) "ANALYZE t bumps t's version" true (version "pets" > pets0);
  Alcotest.(check int) "and no other table's" toys0 (version "toys");
  let pets1 = version "pets" in
  let before = Stats.copy (E.stats e) in
  exec e "ANALYZE";
  let d = Stats.diff (E.stats e) before in
  Alcotest.(check int) "both tables analyzed" 2 d.Stats.tables_analyzed;
  Alcotest.(check bool) "reads the analyzed pages" true (d.Stats.page_reads > 0);
  Alcotest.(check bool) "ANALYZE bumps every analyzed table's version" true
    (version "pets" > pets1 && version "toys" > toys0);
  (* unknown table is a typed error *)
  Alcotest.(check bool) "unknown table" true
    (try
       exec e "ANALYZE nosuch";
       false
     with E.Sql_error _ -> true)

let test_analyze_roundtrips_through_printer () =
  let open Rdbms in
  let check sql =
    Alcotest.(check string) sql sql (Sql_printer.stmt (Sql_parser.parse sql))
  in
  check "ANALYZE";
  check "ANALYZE pets"

(* Under costed planning the cached plan is keyed on log2 cardinality
   buckets: growing a referenced table across a bucket boundary replans
   (counted in card_replans); same-bucket churn keeps the cached plan. *)
let test_card_bucket_replans () =
  let e = fresh_pets () in
  exec e "CREATE TABLE visits (pet integer, cost integer)";
  exec e "INSERT INTO visits VALUES (1, 10), (2, 20), (3, 30), (4, 40)";
  E.set_join_order e Rdbms.Planner.Costed;
  let p = E.prepare e "SELECT p.species FROM pets p, visits v WHERE p.id = v.pet" in
  let run () = ignore (E.exec_prepared e p : E.result) in
  run ();
  (* same bucket: 4 -> 5 rows stays in bucket 2 *)
  let before = Stats.copy (E.stats e) in
  exec e "INSERT INTO visits VALUES (5, 50)";
  run ();
  let d = Stats.diff (E.stats e) before in
  Alcotest.(check int) "same-bucket rerun hits the plan cache" 1 d.Stats.plan_cache_hits;
  Alcotest.(check int) "no replan within a bucket" 0 d.Stats.card_replans;
  (* crossing buckets: 5 -> 40 rows jumps from bucket 2 to bucket 5 *)
  let before = Stats.copy (E.stats e) in
  for i = 6 to 40 do
    exec e (Printf.sprintf "INSERT INTO visits VALUES (%d, %d)" i (10 * i))
  done;
  run ();
  let d = Stats.diff (E.stats e) before in
  Alcotest.(check int) "bucket crossing replans" 1 d.Stats.card_replans;
  (* syntactic planning ignores cardinalities: no bucket key, no replans *)
  E.set_join_order e Rdbms.Planner.Syntactic;
  run ();
  let before = Stats.copy (E.stats e) in
  for i = 41 to 200 do
    exec e (Printf.sprintf "INSERT INTO visits VALUES (%d, %d)" i (10 * i))
  done;
  run ();
  let d = Stats.diff (E.stats e) before in
  Alcotest.(check int) "syntactic never card-replans" 0 d.Stats.card_replans;
  Alcotest.(check int) "syntactic rerun hits the plan cache" 1 d.Stats.plan_cache_hits

(* The headline property: on every workload graph shape, the costed
   planner's measured simulated I/O for a join never exceeds the
   syntactic planner's, and the answers agree. *)
let test_costed_never_worse_on_graphs () =
  let shapes =
    let rng = Dkb_util.Rng.create 5 in
    [
      ("lists", (Graphgen.lists ~rng ~count:12 ~avg_length:8).Graphgen.l_edges);
      ("tree", (Graphgen.full_binary_tree ~depth:6 ()).Graphgen.t_edges);
      ("dag", (Graphgen.dag ~rng ~path_length:6 ~width:8 ~fan_out:2 ()).Graphgen.d_edges);
    ]
  in
  let sql =
    "SELECT p1.par, p3.child FROM parent p1, parent p2, parent p3 WHERE p1.child = p2.par AND \
     p2.child = p3.par"
  in
  List.iter
    (fun (shape, edges) ->
      let run mode =
        let s = Core.Session.create () in
        (match Workload.Queries.setup_parent s edges with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg);
        let e = Core.Session.engine s in
        E.set_join_order e mode;
        if mode = Rdbms.Planner.Costed then exec e "ANALYZE";
        let before = Stats.copy (E.stats e) in
        let rows =
          match E.exec e sql with
          | E.Rows { rows; _ } -> List.length rows
          | _ -> Alcotest.fail "rows"
        in
        (rows, Stats.total_io (Stats.diff (E.stats e) before))
      in
      let rows_syn, io_syn = run Rdbms.Planner.Syntactic in
      let rows_cost, io_cost = run Rdbms.Planner.Costed in
      Alcotest.(check int) (shape ^ ": same answers") rows_syn rows_cost;
      Alcotest.(check bool)
        (Printf.sprintf "%s: costed io %d <= syntactic io %d" shape io_cost io_syn)
        true (io_cost <= io_syn))
    shapes

let () =
  Alcotest.run "table_stats"
    [
      ( "analyze",
        [
          Alcotest.test_case "collects per-column stats" `Quick test_analyze_collects;
          Alcotest.test_case "counters and version bump" `Quick test_analyze_counters_and_version;
          Alcotest.test_case "parser/printer roundtrip" `Quick
            test_analyze_roundtrips_through_printer;
        ] );
      ( "delta feedback",
        [
          Alcotest.test_case "card-bucket replans" `Quick test_card_bucket_replans;
        ] );
      ( "cost property",
        [
          Alcotest.test_case "costed never worse on graphs" `Quick
            test_costed_never_worse_on_graphs;
        ] );
    ]
