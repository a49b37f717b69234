(* Ablation benches for the design choices DESIGN.md calls out, each tied
   to a conclusion of the paper:

   1. SQL-loop LFP vs a built-in transitive-closure operator in the DBMS
      (paper conclusion #8): how much of t_e is the relational-algebra
      interface overhead (temp tables, full EXCEPT termination checks,
      table copies)?
   2. Indexes on derived (temporary) tables during LFP evaluation (the
      "dynamically adaptable indexing" idea, conclusion #6c).
   3. Base-relation indexes on vs off (why join-column indexes matter for
      both rule extraction and LFP evaluation). *)

module Session = Core.Session
module Graphgen = Workload.Graphgen

let tc_operator_vs_sql_loop ~depth =
  Common.section "Ablation 1 (conclusion #8)"
    "Ancestor closure via the SQL-loop LFP runtime vs a built-in DBMS\n\
     transitive-closure operator (no temp tables, early-exit termination).";
  let s, tree = Common.tree_session ~depth in
  let goal = Workload.Queries.ancestor_goal tree.Graphgen.t_root in
  let answer = Common.ok (Session.query_goal s ~options:Session.default_options goal) in
  let sql_ms = answer.Session.run.Core.Runtime.exec_ms in
  let sql_rows = List.length answer.Session.run.Core.Runtime.rows in
  let engine = Session.engine s in
  let rel =
    (Rdbms.Catalog.find_table_exn (Rdbms.Engine.catalog engine) "parent").Rdbms.Catalog
    .tbl_relation
  in
  let root = Rdbms.Value.Int tree.Graphgen.t_root in
  let op_rows = ref 0 in
  let op_ms =
    Common.measure ~repeat:5 (fun () ->
        let rows, ms =
          Dkb_util.Timer.time (fun () ->
              Rdbms.Transitive.closure_from (Rdbms.Engine.stats engine) rel root)
        in
        op_rows := List.length rows;
        ms)
  in
  Common.print_table
    ~header:[ "implementation"; "t_e (ms)"; "answers" ]
    [
      [ "SQL-loop LFP (semi-naive)"; Common.fmt_ms sql_ms; string_of_int sql_rows ];
      [ "built-in TC operator"; Common.fmt_ms op_ms; string_of_int !op_rows ];
    ];
  ignore
    (Common.shape "built-in LFP operator is much faster than the SQL loop (>= 5x)"
       (sql_ms >= 5.0 *. op_ms && sql_rows = !op_rows))

let derived_indexing ~depth =
  Common.section "Ablation 2 (conclusion #6c)"
    "LFP evaluation with vs without hash indexes on the derived (temporary)\n\
     tables - the paper's dynamically-adaptable-indexing idea.";
  let run index_derived =
    let s, tree = Common.tree_session ~depth in
    let goal = Workload.Queries.ancestor_goal tree.Graphgen.t_root in
    let options = { Session.default_options with index_derived } in
    let answer = Common.ok (Session.query_goal s ~options goal) in
    ( answer.Session.run.Core.Runtime.exec_ms,
      Rdbms.Stats.total_io answer.Session.run.Core.Runtime.io )
  in
  let off_ms, off_io = run false in
  let on_ms, on_io = run true in
  Common.print_table
    ~header:[ "derived-table indexes"; "t_e (ms)"; "sim I/O" ]
    [
      [ "off"; Common.fmt_ms off_ms; string_of_int off_io ];
      [ "on"; Common.fmt_ms on_ms; string_of_int on_io ];
    ]

let base_indexing ~depth =
  Common.section "Ablation 3"
    "Ancestor evaluation with vs without indexes on the base relation's\n\
     join columns.";
  let run indexes =
    let s = Common.bench_session () in
    let tree = Graphgen.full_binary_tree ~depth () in
    Common.ok
      (Session.define_base s "parent"
         [ ("par", Rdbms.Datatype.TInt); ("child", Rdbms.Datatype.TInt) ]
         ~indexes ());
    ignore (Common.ok (Session.add_facts s "parent" (Graphgen.to_rows tree.Graphgen.t_edges)));
    Common.ok (Session.load_rules s Workload.Queries.ancestor_rules);
    let goal = Workload.Queries.ancestor_goal tree.Graphgen.t_root in
    let answer = Common.ok (Session.query_goal s ~options:Session.default_options goal) in
    ( answer.Session.run.Core.Runtime.exec_ms,
      Rdbms.Stats.total_io answer.Session.run.Core.Runtime.io )
  in
  let with_ms, with_io = run [ "par"; "child" ] in
  let without_ms, without_io = run [] in
  Common.print_table
    ~header:[ "base indexes"; "t_e (ms)"; "sim I/O" ]
    [
      [ "par+child"; Common.fmt_ms with_ms; string_of_int with_io ];
      [ "none"; Common.fmt_ms without_ms; string_of_int without_io ];
    ]

let topdown_vs_bottom_up ~depth =
  Common.section "Ablation 4 (paper §2.4)"
    "Top-down (memoizing Query/Subquery, tuple-at-a-time, in memory) vs the\n\
     compiled bottom-up strategies for a bound ancestor query.";
  let s, tree = Common.tree_session ~depth in
  let node = List.hd (Graphgen.tree_nodes_at_level tree 2) in
  let goal = Workload.Queries.ancestor_goal node in
  let run_bu label options =
    let answer = Common.ok (Session.query_goal s ~options goal) in
    (label, answer.Session.run.Core.Runtime.exec_ms,
     List.length answer.Session.run.Core.Runtime.rows)
  in
  let bottom_up = run_bu "bottom-up semi-naive" Session.default_options in
  let magic =
    run_bu "bottom-up + magic" { Session.default_options with optimize = Core.Compiler.Opt_on }
  in
  let sup =
    run_bu "bottom-up + supplementary"
      { Session.default_options with optimize = Core.Compiler.Opt_supplementary }
  in
  let rules =
    List.filter Datalog.Ast.is_rule
      (Core.Workspace.rules (Session.workspace s))
  in
  let facts _ = List.map (fun (a, b) -> [ Rdbms.Value.Int a; Rdbms.Value.Int b ]) tree.Graphgen.t_edges in
  let td_rows = ref 0 in
  let td_subgoals = ref 0 in
  let td_ms =
    Common.measure ~repeat:3 (fun () ->
        let (rows, subgoals), ms =
          Dkb_util.Timer.time (fun () ->
              match
                Datalog.Topdown.solve_counted ~facts ~is_base:(fun p -> p = "parent") ~rules
                  ~goal
              with
              | Ok result -> result
              | Error e -> failwith (Datalog.Topdown.error_to_string e))
        in
        td_rows := List.length rows;
        td_subgoals := subgoals;
        ms)
  in
  let rows =
    [ bottom_up; magic; sup; ("top-down (QSQ)", td_ms, !td_rows) ]
  in
  Common.print_table
    ~header:[ "strategy"; "t_e (ms)"; "answers" ]
    (List.map (fun (l, ms, n) -> [ l; Common.fmt_ms ms; string_of_int n ]) rows);
  let answers = List.map (fun (_, _, n) -> n) rows in
  ignore
    (Common.shape "all four strategies agree on the answer count"
       (List.for_all (fun n -> n = List.hd answers) answers));
  Printf.printf "  top-down tabled %d subgoals; magic sets restrict the same way declaratively\n"
    !td_subgoals

let join_ordering ~depth =
  Common.section "Ablation 5 (conclusion #6d)"
    "Planner join ordering during LFP evaluation: syntactic (the KM's\n\
     left-to-right SIP order) vs greedy smallest-table-first, for a\n\
     magic-rewritten ancestor query.";
  let run mode =
    let s, tree = Common.tree_session ~depth in
    Rdbms.Engine.set_join_order (Session.engine s) mode;
    let node = List.hd (Graphgen.tree_nodes_at_level tree 3) in
    let options = { Session.default_options with optimize = Core.Compiler.Opt_on } in
    let answer = Common.ok (Session.query_goal s ~options (Workload.Queries.ancestor_goal node)) in
    ( answer.Session.run.Core.Runtime.exec_ms,
      answer.Session.run.Core.Runtime.io.Rdbms.Stats.rows_read,
      List.length answer.Session.run.Core.Runtime.rows )
  in
  let syn_ms, syn_rows, syn_n = run Rdbms.Planner.Syntactic in
  let greedy_ms, greedy_rows, greedy_n = run Rdbms.Planner.Greedy in
  Common.print_table
    ~header:[ "join ordering"; "t_e (ms)"; "rows read"; "answers" ]
    [
      [ "syntactic (SIP)"; Common.fmt_ms syn_ms; string_of_int syn_rows; string_of_int syn_n ];
      [ "greedy"; Common.fmt_ms greedy_ms; string_of_int greedy_rows; string_of_int greedy_n ];
    ];
  ignore (Common.shape "orderings agree on the answers" (syn_n = greedy_n))

let statement_cache ?(json_path = "BENCH_cache.json") ~depth () =
  Common.section "Ablation 6 (statement cache)"
    "Semi-naive ancestor LFP (the Table 5 tree workload) with the engine's\n\
     statement cache and prepared-statement plan reuse on vs off.";
  let run cached =
    let s, tree = Common.tree_session ~depth in
    Rdbms.Engine.set_statement_cache (Session.engine s) cached;
    let goal = Workload.Queries.ancestor_goal tree.Graphgen.t_root in
    let last = ref None in
    let ms =
      Common.measure ~repeat:3 (fun () ->
          let answer = Common.ok (Session.query_goal s ~options:Session.default_options goal) in
          last := Some answer;
          answer.Session.run.Core.Runtime.exec_ms)
    in
    (ms, Option.get !last, tree)
  in
  let cached_ms, cached_answer, tree = run true in
  let uncached_ms, uncached_answer, _ = run false in
  let iters a =
    List.fold_left (fun acc (_, n) -> acc + n) 0 a.Session.run.Core.Runtime.iterations
  in
  let answers a = List.length a.Session.run.Core.Runtime.rows in
  let row label ms a =
    let io = a.Session.run.Core.Runtime.io in
    [
      label;
      Common.fmt_ms ms;
      string_of_int (answers a);
      string_of_int io.Rdbms.Stats.plan_cache_hits;
      string_of_int io.Rdbms.Stats.plan_cache_misses;
      string_of_int io.Rdbms.Stats.tables_created;
      string_of_int io.Rdbms.Stats.tables_truncated;
    ]
  in
  Common.print_table
    ~header:[ "statement cache"; "t_e (ms)"; "answers"; "hits"; "misses"; "created"; "truncated" ]
    [ row "on" cached_ms cached_answer; row "off" uncached_ms uncached_answer ];
  ignore
    (Common.shape "cached run reuses plans more often than it builds them"
       (let io = cached_answer.Session.run.Core.Runtime.io in
        io.Rdbms.Stats.plan_cache_hits > io.Rdbms.Stats.plan_cache_misses));
  ignore
    (Common.shape "both configurations compute the same answers"
       (answers cached_answer = answers uncached_answer
       && iters cached_answer = iters uncached_answer));
  let json_run label ms a =
    let io = a.Session.run.Core.Runtime.io in
    Printf.sprintf
      {|    { "config": %S, "exec_ms": %.3f, "answers": %d, "iterations": %d,
      "plan_cache_hits": %d, "plan_cache_misses": %d, "statements_prepared": %d,
      "statements": %d, "tables_created": %d, "tables_dropped": %d,
      "tables_truncated": %d, "sim_io": %d }|}
      label ms (answers a) (iters a) io.Rdbms.Stats.plan_cache_hits
      io.Rdbms.Stats.plan_cache_misses io.Rdbms.Stats.statements_prepared
      io.Rdbms.Stats.statements io.Rdbms.Stats.tables_created io.Rdbms.Stats.tables_dropped
      io.Rdbms.Stats.tables_truncated (Rdbms.Stats.total_io io)
  in
  let json =
    Printf.sprintf
      {|{
  "experiment": "statement-cache-ablation",
  "workload": { "shape": "full-binary-tree", "depth": %d, "edges": %d },
  "runs": [
%s,
%s
  ],
  "speedup_cached_vs_uncached": %.3f
}
|}
      depth
      (List.length tree.Graphgen.t_edges)
      (json_run "cached" cached_ms cached_answer)
      (json_run "uncached" uncached_ms uncached_answer)
      (if cached_ms > 0.0 then uncached_ms /. cached_ms else 0.0)
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n" json_path

let wal_overhead ?(json_path = "BENCH_wal.json") ~depth () =
  Common.section "Ablation 7 (write-ahead logging)"
    "The write path of the Table 5 tree workload - base DDL, bulk fact\n\
     loads, and a transactional rule store - with vs without a WAL\n\
     attached, plus crash recovery replaying the log into an equivalent\n\
     session.";
  let wal_path = Filename.temp_file "dkb_bench" ".wal" in
  let edges = ref 0 in
  let load_workload s =
    let tree = Graphgen.full_binary_tree ~depth () in
    edges := List.length tree.Graphgen.t_edges;
    Common.ok
      (Session.define_base s "parent"
         [ ("par", Rdbms.Datatype.TInt); ("child", Rdbms.Datatype.TInt) ]
         ~indexes:[ "par"; "child" ] ());
    ignore (Common.ok (Session.add_facts s "parent" (Graphgen.to_rows tree.Graphgen.t_edges)));
    Common.ok (Session.load_rules s Workload.Queries.ancestor_rules);
    ignore (Common.ok (Session.update_stored s ()))
  in
  let run_config with_wal =
    let last = ref None in
    let ms =
      Common.measure ~repeat:3 (fun () ->
          let s = Common.bench_session () in
          if with_wal then begin
            (* fresh log per sample: appending to the previous sample's
               log would misattribute its size *)
            (try Sys.remove wal_path with Sys_error _ -> ());
            Common.ok (Session.attach_wal s wal_path)
          end;
          let (), ms = Dkb_util.Timer.time (fun () -> load_workload s) in
          last := Some s;
          ms)
    in
    (ms, Option.get !last)
  in
  let off_ms, _ = run_config false in
  let on_ms, s_wal = run_config true in
  let stats = Session.db_stats s_wal in
  let records = stats.Rdbms.Stats.wal_records in
  let bytes = stats.Rdbms.Stats.wal_bytes in
  (* crash recovery with no checkpoint taken: the whole D/KB must come
     back from the log alone *)
  let db_path = Filename.temp_file "dkb_bench" ".db" in
  Sys.remove db_path;
  let recovery, rec_ms =
    Dkb_util.Timer.time (fun () -> Common.ok (Session.recover ~db:db_path ~wal:wal_path ()))
  in
  let recovered, replayed = recovery in
  let matches =
    Rdbms.Persist.dump (Session.engine recovered) = Rdbms.Persist.dump (Session.engine s_wal)
  in
  Common.print_table
    ~header:[ "config"; "load (ms)"; "wal records"; "wal bytes" ]
    [
      [ "no wal"; Common.fmt_ms off_ms; "-"; "-" ];
      [ "wal attached"; Common.fmt_ms on_ms; string_of_int records; string_of_int bytes ];
    ];
  Printf.printf "  recovery replayed %d records in %s\n" replayed (Common.fmt_ms rec_ms);
  ignore (Common.shape "recovered D/KB dumps identical to the original" matches);
  let json =
    Printf.sprintf
      {|{
  "experiment": "wal-ablation",
  "workload": { "shape": "full-binary-tree", "depth": %d, "edges": %d },
  "runs": [
    { "config": "no-wal", "load_ms": %.3f },
    { "config": "wal", "load_ms": %.3f, "wal_records": %d, "wal_bytes": %d }
  ],
  "recovery": { "records_replayed": %d, "ms": %.3f, "dump_matches": %b },
  "wal_overhead_pct": %.1f
}
|}
      depth !edges off_ms on_ms records bytes replayed rec_ms matches
      (if off_ms > 0.0 then (on_ms -. off_ms) /. off_ms *. 100.0 else 0.0)
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n" json_path;
  (try Sys.remove wal_path with Sys_error _ -> ())

let run ~scale () =
  let depth =
    match scale with
    | Common.Full -> 10
    | Common.Quick -> 6
  in
  tc_operator_vs_sql_loop ~depth;
  derived_indexing ~depth;
  base_indexing ~depth;
  topdown_vs_bottom_up ~depth;
  join_ordering ~depth;
  statement_cache ~depth ();
  wal_overhead ~depth ()

let run_cache ~scale () =
  let depth =
    match scale with
    | Common.Full -> 10
    | Common.Quick -> 6
  in
  statement_cache ~depth ()

let run_wal ~scale () =
  let depth =
    match scale with
    | Common.Full -> 10
    | Common.Quick -> 6
  in
  wal_overhead ~depth ()
