(* Differential tests for the compiled executor against the reference
   interpreter ({!Executor}, in this directory), which the engine does
   not run: it exists as this battery's oracle.

   The contract is stronger than "same answers": for every plan shape the
   planner can produce, the closure-compiled executor must return the same
   rows in the same order as the tuple-at-a-time interpreter, charge the
   exact same Stats, and build the same EXPLAIN ANALYZE profile tree. One
   engine owns the data: each statement's read side is planned once
   against its catalog, both executors run that plan, and then the engine
   executes the statement as usual. Whole LFP evaluations over randomized
   list/tree/dag data are compared statement by statement from the
   engine's trace hook. *)

module E = Rdbms.Engine
module Stats = Rdbms.Stats
module Profile = Rdbms.Profile
module Value = Rdbms.Value
module Sql_ast = Rdbms.Sql_ast
module Planner = Rdbms.Planner
module Exec_compiled = Rdbms.Exec_compiled
module Rng = Dkb_util.Rng
module Session = Core.Session
module Compiler = Core.Compiler
module Graphgen = Workload.Graphgen
module Queries = Workload.Queries
module Common = Experiments.Common

(* ------------------------------------------------------------------ *)
(* Stats charges compare through their rendering, which lists every
   counter.                                                            *)

let check_stats what expected actual =
  Alcotest.(check string) what (Stats.to_string expected) (Stats.to_string actual)

let row_strings rows =
  List.map (fun row -> Array.to_list (Array.map Value.to_string row)) rows

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE profile trees: the per-operator counters must sum
   exactly to the run's Stats charges, and the two trees must agree node
   for node (op label, rows, reads, writes, probes — everything except
   wall time).                                                         *)

let rec shape (n : Profile.t) =
  Printf.sprintf "%s rows=%d reads=%d writes=%d probes=%d" n.Profile.op
    n.Profile.rows n.Profile.reads n.Profile.writes n.Profile.probes
  :: List.concat_map shape (Profile.children n)

let check_sums what (profile : Profile.t) (delta : Stats.t) =
  Alcotest.(check int) (what ^ ": reads sum") delta.Stats.page_reads
    (Profile.total_reads profile);
  Alcotest.(check int) (what ^ ": writes sum") delta.Stats.page_writes
    (Profile.total_writes profile);
  Alcotest.(check int) (what ^ ": probes sum") delta.Stats.index_probes
    (Profile.total_probes profile)

(* ------------------------------------------------------------------ *)
(* One plan, both executors.                                           *)

(* The plan of a statement's read side, built against the engine's
   current catalog and join-order mode: the query of SELECT and
   INSERT ... SELECT, and the victim scan of DELETE / UPDATE ... WHERE. *)
let plan_of e sql =
  let join_order = E.join_order e and catalog = E.catalog e in
  let victims table cond =
    Sql_ast.Q_select
      {
        distinct = false;
        items = [ Sql_ast.Sel_star ];
        from = [ { Sql_ast.table; alias = None } ];
        where = Some cond;
        group_by = [];
      }
  in
  match Rdbms.Sql_parser.parse sql with
  | Sql_ast.Select { query; order_by } ->
      Some (Planner.plan_select_stmt ~join_order catalog query order_by)
  | Sql_ast.Insert_select { query; _ } -> Some (Planner.plan_query ~join_order catalog query)
  | Sql_ast.Delete { table; where = Some cond } | Sql_ast.Update { table; where = Some cond; _ }
    ->
      Some (Planner.plan_query ~join_order catalog (victims table cond))
  | _ -> None

(* Run [plan] under both executors, each charging its own fresh Stats.
   The compiled closure runs twice, as a cached prepared statement would:
   each run must match the interpreter's rows (in order) and charges. *)
let compare_executors ?args label plan =
  let st_i = Stats.create () in
  let rows_i = row_strings (Executor.run ?args st_i plan) in
  let st_c = Stats.create () in
  let compiled = Exec_compiled.compile st_c plan in
  List.iter
    (fun run ->
      let before = Stats.copy st_c in
      let rows_c = row_strings (Exec_compiled.run ?args compiled) in
      let what = Printf.sprintf "%s (compiled run %d)" label run in
      Alcotest.(check (list (list string))) (what ^ ": rows (in order)") rows_i rows_c;
      check_stats (what ^ ": stats") st_i (Stats.diff st_c before))
    [ 1; 2 ];
  let profiled run =
    let st = Stats.create () in
    let _, profile = run st in
    check_sums label profile st;
    shape profile
  in
  Alcotest.(check (list string))
    (label ^ ": profile trees")
    (profiled (fun st -> Executor.run_profiled ?args st plan))
    (profiled (fun st -> Exec_compiled.run_profiled ?args (Exec_compiled.compile st plan)))

(* Compare the executors on the statement's plan, then let the engine run
   it (mutating the shared data for the statements that follow). *)
let step e sql =
  Option.iter (compare_executors sql) (plan_of e sql);
  E.exec e sql

let steps e sqls = List.iter (fun sql -> ignore (step e sql)) sqls

let engine () =
  let e = E.create () in
  (* the whole differential battery runs with the invariant sanitizer
     on: any index/relation bookkeeping the engine corrupts turns into an
     immediate Sql_error at the offending statement *)
  E.set_sanitize e true;
  e

(* Randomized base data: [big] has duplicate keys in a small domain so
   joins fan out, [small] keeps a few keys, [third] starts empty. *)
let seeded_engine ?(index = true) seed =
  let e = engine () in
  steps e
    [
      "CREATE TABLE big (k integer, v char)";
      "CREATE TABLE small (k integer, w char)";
      "CREATE TABLE third (k integer, z char)";
    ];
  if index then
    steps e
      [
        "CREATE INDEX idx_big_k ON big (k)";
        "CREATE INDEX idx_small_k ON small (k)";
      ];
  let rng = Rng.create seed in
  let letter () = Printf.sprintf "s%d" (Rng.int rng 4) in
  steps e
    (List.init 60 (fun _ ->
         Printf.sprintf "INSERT INTO big VALUES (%d, '%s')" (Rng.int rng 20)
           (letter ()))
    @ List.init 12 (fun _ ->
          Printf.sprintf "INSERT INTO small VALUES (%d, '%s')" (Rng.int rng 20)
            (letter ())));
  e

(* Fully bound joins, a MemberJoin wherever big is indexed: probes that
   hit and miss, outer rows repeating the probed pair, a residual, and an
   edge onto an already-bound column. *)
let member_joins =
  [
    "SELECT s.w FROM small s, big b WHERE s.k = b.k AND s.w = b.v";
    "SELECT b.k FROM big a, small s, big b WHERE a.k = s.k AND s.k = b.k AND s.w = b.v";
    "SELECT b.v FROM big a, small s, big b WHERE a.k = s.k AND s.k = b.k AND s.w = b.v \
     AND a.v <> b.v";
    "SELECT b.v FROM small s, big a, big b WHERE s.k = a.k AND a.k = b.k AND a.v = b.v \
     AND s.k = b.k";
  ]

(* Every operator the planner can emit (see test_planner.ml), plus the
   set operations, aggregation and sorting. *)
let battery =
  [
    "SELECT v FROM big WHERE k = 5";      (* IndexScan (or SeqScan w/o index) *)
    "SELECT v FROM big WHERE 5 = k";
    "SELECT v FROM big WHERE k > 5";      (* SeqScan + filter *)
    "SELECT v FROM big WHERE k > 3 AND k < 9 AND NOT v = 's0'";
    "SELECT b.v FROM small s, big b WHERE s.k = b.k";  (* Index/HashJoin *)
    "SELECT b.v FROM small s, big b WHERE s.k = b.k AND b.v = 's1'";
    "SELECT b.v, s.w FROM small s, big b";             (* NestedLoopJoin *)
    "SELECT b.v FROM small s, big b WHERE s.k < b.k";  (* non-equi residual *)
    "SELECT v FROM big WHERE NOT EXISTS (SELECT * FROM small s WHERE s.k = big.k)";
    "SELECT DISTINCT v FROM big";
    "SELECT v FROM big ORDER BY v";
    "SELECT k, v FROM big ORDER BY v, k";
    "SELECT t.z FROM small s, big b, third t WHERE s.k = b.k AND b.k = t.k";
    "SELECT COUNT(*) FROM big";
    "SELECT COUNT(*) FROM big WHERE k = 5";
    "SELECT v, COUNT(*) FROM big GROUP BY v";
    "SELECT v, COUNT(*), SUM(k) FROM big GROUP BY v ORDER BY 1";
    "SELECT v FROM big UNION SELECT w FROM small";
    "SELECT v FROM big UNION ALL SELECT w FROM small";
    "SELECT v FROM big EXCEPT SELECT w FROM small";
    (* the LFP's set difference: stored relation on the right (probed in
       place), and a filtered right side (materialized) *)
    "SELECT * FROM big EXCEPT SELECT * FROM small";
    "SELECT * FROM big EXCEPT SELECT * FROM small WHERE k > 5";
    (* the semi-naive loop's fused rule variant: a DISTINCT left side
       (no dedupe set) minus a stored relation *)
    "(SELECT DISTINCT b.k, b.v FROM small s, big b WHERE s.k = b.k) EXCEPT (SELECT * FROM small)";
  ]
  @ member_joins


let run_battery e =
  (* each statement twice: the engine's first run plans (cache miss,
     compiles the closure tree), its second reuses the cached form *)
  List.iter (fun sql -> steps e [ sql; sql ]) battery

let test_battery_indexed () = run_battery (seeded_engine 11)
let test_battery_no_index () = run_battery (seeded_engine ~index:false 12)

(* Templates with parameters, each planned once with its parameter types
   and run by both executors under several argument vectors, as a cached
   prepared statement is: index-probe keys, range bounds, residuals,
   joins and a NOT EXISTS read the arguments. Each run must also give the
   rows (as a multiset) of the literal text the arguments stand for. *)
let param_battery =
  let int rng = Value.Int (Rng.int rng 22)
  and str rng = Value.Str (Printf.sprintf "s%d" (Rng.int rng 5)) in
  [
    ("SELECT v FROM big WHERE k = ?1", [ int ]);
    ("SELECT v FROM big WHERE ?1 = k AND v <> ?2", [ int; str ]);
    ("SELECT k FROM big WHERE v = ?1", [ str ]);
    ("SELECT k, v FROM big WHERE k >= ?1 AND k < ?2 ORDER BY k, v", [ int; int ]);
    ("SELECT v FROM big WHERE k > ?1 AND k > 4 AND k <= ?2", [ int; int ]);
    ("SELECT b.v FROM small s, big b WHERE s.k = b.k AND s.w = ?1", [ str ]);
    ("SELECT b.v, s.w FROM small s, big b WHERE s.k = b.k AND b.k < ?1", [ int ]);
    ( "SELECT v FROM big WHERE NOT EXISTS (SELECT * FROM small s WHERE s.k = big.k AND s.w = ?1)",
      [ str ] );
    ("SELECT ?1, k FROM big WHERE v = ?1", [ str ]);
    ("SELECT v, COUNT(*) FROM big WHERE k < ?1 GROUP BY v", [ int ]);
    ("SELECT v FROM big WHERE k = ?1 UNION SELECT w FROM small WHERE k = ?1", [ int ]);
  ]

let test_param_battery () =
  let e = seeded_engine 19 in
  steps e [ "CREATE ORDERED INDEX oidx_big_k ON big (k)" ];
  let rng = Rng.create 23 in
  let sorted = List.sort compare in
  List.iter
    (fun (template, gens) ->
      let stmt = Rdbms.Sql_parser.parse template in
      let params = Planner.param_types (E.catalog e) stmt (List.length gens) in
      let plan =
        match stmt with
        | Sql_ast.Select { query; order_by } ->
            Planner.plan_select_stmt ~params (E.catalog e) query order_by
        | _ -> assert false
      in
      for _ = 1 to 6 do
        let args = Array.of_list (List.map (fun g -> g rng) gens) in
        compare_executors ~args template plan;
        let rows = row_strings (Executor.run ~args (Stats.create ()) plan) in
        let literal = Rdbms.Sql_printer.stmt (Sql_ast.bind args stmt) in
        let expected =
          match plan_of e literal with
          | Some lp -> row_strings (Executor.run (Stats.create ()) lp)
          | None -> assert false
        in
        Alcotest.(check (list (list string))) (literal ^ ": literal rows") (sorted expected)
          (sorted rows)
      done)
    param_battery

let test_battery_join_orders () =
  let e = seeded_engine 13 in
  steps e [ "ANALYZE" ];
  List.iter
    (fun mode ->
      E.set_join_order e mode;
      run_battery e)
    [ Rdbms.Planner.Greedy; Rdbms.Planner.Costed; Rdbms.Planner.Syntactic ]

(* The battery's fully bound joins really plan MemberJoins, and probing
   the tuple table charges no more pages than the IndexJoin it replaces:
   the same join built by hand as an index probe plus a residual. *)
let test_member_join_charges () =
  let e = seeded_engine 17 in
  (* small rows that big holds, so the probes hit as well as miss *)
  steps e [ "INSERT INTO small SELECT k, v FROM big WHERE k < 6" ];
  List.iter
    (fun sql ->
      match plan_of e sql with
      | Some plan ->
          Alcotest.(check bool) (sql ^ ": plans a MemberJoin") true
            (Astring.String.is_infix ~affix:"MemberJoin" (Rdbms.Plan.describe plan))
      | None -> Alcotest.fail sql)
    member_joins;
  let sql = List.hd member_joins in
  match plan_of e sql with
  | Some (Rdbms.Plan.Project { input = Rdbms.Plan.Member_join m as member; _ }) ->
      let index = Option.get (Rdbms.Catalog.find_index (E.catalog e) ~table:"big" ~column:"k") in
      let width = Array.length (Rdbms.Plan.header_of m.left) in
      let by_index =
        Rdbms.Plan.Index_join
          {
            left = m.left;
            table = m.table;
            index;
            outer_pos = m.outer_pos.(0);
            header = m.header;
            residual =
              Some (Rdbms.Plan.R_cmp (R_col m.outer_pos.(1), Sql_ast.Eq, R_col (width + 1)));
          }
      in
      let run plan =
        let st = Stats.create () in
        let rows = row_strings (Exec_compiled.run (Exec_compiled.compile st plan)) in
        (rows, st)
      in
      let rows_m, st_m = run member and rows_i, st_i = run by_index in
      Alcotest.(check (list (list string))) "same rows as the index join" rows_i rows_m;
      Alcotest.(check bool) "some probes hit" true (rows_m <> []);
      Alcotest.(check bool) "some probes miss" true
        (List.length rows_m < st_m.Stats.index_probes);
      Alcotest.(check int) "one probe per outer row, as the index join"
        st_i.Stats.index_probes st_m.Stats.index_probes;
      Alcotest.(check bool)
        (Printf.sprintf "page_reads %d <= index join's %d" st_m.Stats.page_reads
           st_i.Stats.page_reads)
        true
        (st_m.Stats.page_reads <= st_i.Stats.page_reads)
  | _ -> Alcotest.fail (sql ^ ": expected Project over a MemberJoin")

let test_mutations_in_lockstep () =
  let e = seeded_engine 14 in
  steps e
    [
      "INSERT INTO third SELECT k, v FROM big WHERE k < 10";  (* Insert_select *)
      "SELECT k, z FROM third";
      "INSERT INTO third SELECT b.k, s.w FROM big b, small s WHERE b.k = s.k";
      "SELECT COUNT(*) FROM third";
      "DELETE FROM third WHERE k > 12";
      "UPDATE third SET z = 'u' WHERE k = 1";
      "SELECT k, z FROM third ORDER BY 1, 2";
      "TRUNCATE TABLE third";
      "SELECT COUNT(*) FROM third";
    ]

(* An INSERT ... EXCEPT of a stored relation into an emptied table, whose
   affected count is the new-tuple count: naive evaluation's termination
   check, and the true deletions of DRed maintenance. *)
let test_fill_delta_shape () =
  let e = seeded_engine 16 in
  List.iter
    (fun right ->
      ignore (step e "TRUNCATE TABLE third");
      let sql = Printf.sprintf "INSERT INTO third (SELECT * FROM big) EXCEPT (%s)" right in
      let affected =
        match step e sql with
        | E.Affected n -> n
        | _ -> Alcotest.fail (sql ^ ": no affected count")
      in
      Alcotest.(check int) (sql ^ ": affected = rows filled") affected
        (E.scalar_int e "SELECT COUNT(*) FROM third"))
    [ "SELECT * FROM small"; "SELECT * FROM small WHERE k > 5" ]

(* The semi-naive loop's fused rule variant, [INSERT INTO cand (SELECT
   DISTINCT ... join ...) EXCEPT (SELECT * FROM member)], over a join
   whose output repeats rows and partly overlaps the member table: only
   the distinct rows new to the member reach the candidate table. *)
let test_fused_variant_shape () =
  let e = seeded_engine 18 in
  steps e
    [
      (* small repeats big's keys, so the join repeats big's rows *)
      "INSERT INTO small SELECT k, v FROM big WHERE k < 6";
      (* the member holds part of the join's output *)
      "INSERT INTO third SELECT k, v FROM big WHERE k < 10";
      "CREATE TABLE cand (k integer, z char)";
    ];
  let join = "FROM small s, big b WHERE s.k = b.k" in
  let variant = Printf.sprintf "SELECT DISTINCT b.k, b.v %s" join in
  let rows sql = List.length (E.query e sql) in
  let distinct = rows variant in
  let joined = rows (Printf.sprintf "SELECT b.k, b.v %s" join) in
  let fresh = Printf.sprintf "(%s) EXCEPT (SELECT * FROM third)" variant in
  let n_fresh = rows fresh in
  Alcotest.(check bool) "the join repeats rows" true (joined > distinct);
  Alcotest.(check bool) "the join overlaps the member" true (n_fresh < distinct);
  Alcotest.(check bool) "the join adds to the member" true (n_fresh > 0);
  let sql = Printf.sprintf "INSERT INTO cand %s" fresh in
  (match step e sql with
  | E.Affected n -> Alcotest.(check int) (sql ^ ": affected = new rows") n_fresh n
  | _ -> Alcotest.fail (sql ^ ": no affected count"));
  ignore (step e fresh);
  (* a second run adds nothing the candidate table lacks *)
  match step e sql with
  | E.Affected n -> Alcotest.(check int) (sql ^ ": rerun adds nothing") 0 n
  | _ -> Alcotest.fail (sql ^ ": no affected count")

(* EXPLAIN ANALYZE through the engine: the profile tree it returns sums to
   the statement's Stats delta, including INSERT ... SELECT's synthetic
   Insert root; the executors agree on the same plan. *)
let test_analyze_parity () =
  let e = seeded_engine 15 in
  List.iter
    (fun sql ->
      Option.iter (compare_executors sql) (plan_of e sql);
      let _, profile, delta = E.exec_analyze e sql in
      check_sums ("analyze " ^ sql) profile delta)
    [
      "SELECT b.v FROM small s, big b WHERE s.k = b.k";
      "SELECT v FROM big WHERE NOT EXISTS (SELECT * FROM small s WHERE s.k = big.k)";
      "SELECT v, COUNT(*) FROM big GROUP BY v ORDER BY 1";
      "INSERT INTO third SELECT k, v FROM big WHERE k < 10";
    ]

(* ------------------------------------------------------------------ *)
(* Whole-LFP differential through the Session facade: every statement
   the evaluation issues is compared from the engine's trace hook.
   [Tr_stmt_begin] fires before the statement runs, so the plan sees
   exactly the tables the engine's own execution is about to read.     *)

let query_compared ?(optimize = Compiler.Opt_off) ?(strategy = Core.Runtime.Seminaive)
    setup goal label =
  let s = Session.create () in
  setup s;
  let e = Session.engine s in
  (* sanitize on: every generated statement of the LFP loop is followed
     by a structural audit, and a full invariant check closes the run *)
  E.set_sanitize e true;
  let compared = ref 0 in
  E.set_trace_hook e
    (Some
       (function
       | E.Tr_stmt_begin { sql } ->
           Option.iter
             (fun plan ->
               incr compared;
               compare_executors (label ^ ": " ^ sql) plan)
             (plan_of e sql)
       | _ -> ()));
  let options = { Session.default_options with optimize; strategy } in
  let result = Session.query_goal s ~options goal in
  E.set_trace_hook e None;
  match result with
  | Ok a ->
      (match E.check_invariants e with
      | [] -> ()
      | vs ->
          Alcotest.fail
            (label ^ ": "
            ^ String.concat "; " (List.map Rdbms.Invariants.violation_to_string vs)));
      Alcotest.(check bool) (label ^ ": statements compared") true (!compared > 0);
      Alcotest.(check bool) (label ^ ": answers") true (a.Session.run.Core.Runtime.rows <> [])
  | Error msg -> Alcotest.fail (label ^ ": " ^ msg)

let test_lfp_tree () =
  let tree = Graphgen.full_binary_tree ~depth:6 () in
  let setup s =
    Common.ok (Queries.setup_parent s tree.Graphgen.t_edges);
    Common.ok (Session.load_rules s Queries.ancestor_rules)
  in
  let goal = Queries.ancestor_goal tree.Graphgen.t_root in
  query_compared setup goal "ancestor/tree seminaive";
  query_compared ~strategy:Core.Runtime.Naive setup goal "ancestor/tree naive";
  query_compared ~optimize:Compiler.Opt_on setup goal "ancestor/tree magic";
  query_compared ~optimize:Compiler.Opt_supplementary setup goal
    "ancestor/tree supplementary"

let test_lfp_lists () =
  let l =
    let rng = Rng.create 21 in
    Graphgen.lists ~rng ~count:5 ~avg_length:8
  in
  let setup s =
    Common.ok (Queries.setup_parent s l.Graphgen.l_edges);
    Common.ok (Session.load_rules s Queries.ancestor_rules)
  in
  let goal = Queries.ancestor_goal (List.hd l.Graphgen.l_heads) in
  query_compared setup goal "ancestor/lists seminaive";
  query_compared ~optimize:Compiler.Opt_on setup goal "ancestor/lists magic"

let test_lfp_dag () =
  let d =
    let rng = Rng.create 22 in
    Graphgen.dag ~rng ~path_length:6 ~width:4 ~fan_out:2 ()
  in
  let setup s =
    Common.ok (Queries.setup_edge s d.Graphgen.d_edges);
    Common.ok (Session.load_rules s Queries.tc_rules)
  in
  query_compared setup (Queries.tc_goal_from (List.hd d.Graphgen.d_sources))
    "tc/dag from source";
  query_compared setup Queries.tc_goal_all "tc/dag all";
  query_compared ~optimize:Compiler.Opt_on setup
    (Queries.tc_goal_from (List.hd d.Graphgen.d_sources))
    "tc/dag magic"

let test_lfp_same_generation () =
  let tree = Graphgen.full_binary_tree ~depth:5 () in
  let setup s =
    Common.ok (Queries.setup_parent s tree.Graphgen.t_edges);
    Common.ok (Session.load_rules s Queries.same_generation_rules)
  in
  let leaf = tree.Graphgen.t_root + ((1 lsl (tree.Graphgen.t_depth - 1)) - 1) in
  query_compared setup (Queries.same_generation_goal leaf) "sg/tree seminaive";
  query_compared ~optimize:Compiler.Opt_on setup
    (Queries.same_generation_goal leaf)
    "sg/tree magic"

let () =
  Alcotest.run "exec_compiled"
    [
      ( "sql differential",
        [
          Alcotest.test_case "operator battery, indexed" `Quick test_battery_indexed;
          Alcotest.test_case "operator battery, no index" `Quick test_battery_no_index;
          Alcotest.test_case "battery with parameters" `Quick test_param_battery;
          Alcotest.test_case "battery under greedy/costed/syntactic" `Quick
            test_battery_join_orders;
          Alcotest.test_case "member join plans and charges" `Quick test_member_join_charges;
          Alcotest.test_case "mutations in lockstep" `Quick test_mutations_in_lockstep;
          Alcotest.test_case "fill-delta EXCEPT shape" `Quick test_fill_delta_shape;
          Alcotest.test_case "fused variant EXCEPT shape" `Quick test_fused_variant_shape;
        ] );
      ( "explain analyze",
        [ Alcotest.test_case "counter sums and profile parity" `Quick test_analyze_parity ] );
      ( "lfp differential",
        [
          Alcotest.test_case "ancestor over a tree" `Quick test_lfp_tree;
          Alcotest.test_case "ancestor over lists" `Quick test_lfp_lists;
          Alcotest.test_case "transitive closure over a dag" `Quick test_lfp_dag;
          Alcotest.test_case "same generation" `Quick test_lfp_same_generation;
        ] );
    ]
