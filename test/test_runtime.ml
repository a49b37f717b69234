(* End-to-end evaluation tests: naive and semi-naive LFP against an
   in-memory reference, negation, mutual recursion, boolean goals and
   derived predicates with facts. *)

module A = Datalog.Ast
module P = Datalog.Parser
module V = Rdbms.Value
module Session = Core.Session

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let session_with edges rules =
  let s = Session.create () in
  ok (Workload.Queries.setup_edge s edges);
  ok (Session.load_rules s rules);
  s

let sorted_pairs rows =
  rows
  |> List.map (fun r ->
         match r with
         | [| V.Int a; V.Int b |] -> (a, b)
         | [| V.Int a |] -> (a, -1)
         | _ -> Alcotest.fail "unexpected row shape")
  |> List.sort compare

let run_rows s ?(options = Session.default_options) goal =
  let a = ok (Session.query_goal s ~options goal) in
  sorted_pairs a.Session.run.Core.Runtime.rows

(* in-memory reference transitive closure *)
let ref_tc edges =
  let nodes = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
  let reach = Hashtbl.create 16 in
  List.iter (fun (a, b) -> Hashtbl.replace reach (a, b) ()) edges;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if not (Hashtbl.mem reach (a, b)) then
              if
                List.exists
                  (fun z -> Hashtbl.mem reach (a, z) && Hashtbl.mem reach (z, b))
                  nodes
              then begin
                Hashtbl.replace reach (a, b) ();
                changed := true
              end)
          nodes)
      nodes
  done;
  Hashtbl.fold (fun k () acc -> k :: acc) reach [] |> List.sort compare

let tc_all_goal = A.atom "tc" [ A.Var "X"; A.Var "Y" ]

let test_tc_small () =
  let edges = [ (1, 2); (2, 3); (3, 4) ] in
  let s = session_with edges Workload.Queries.tc_rules in
  Alcotest.(check (list (pair int int))) "closure" (ref_tc edges) (run_rows s tc_all_goal)

let test_tc_cycle () =
  let edges = [ (1, 2); (2, 3); (3, 1) ] in
  let s = session_with edges Workload.Queries.tc_rules in
  Alcotest.(check (list (pair int int))) "cyclic closure terminates" (ref_tc edges)
    (run_rows s tc_all_goal)

let test_tc_self_loop () =
  let edges = [ (1, 1); (1, 2) ] in
  let s = session_with edges Workload.Queries.tc_rules in
  Alcotest.(check (list (pair int int))) "self loop" (ref_tc edges) (run_rows s tc_all_goal)

let test_empty_base () =
  let s = session_with [] Workload.Queries.tc_rules in
  Alcotest.(check (list (pair int int))) "empty" [] (run_rows s tc_all_goal)

let test_nonlinear_rules () =
  (* tc defined with the nonlinear doubling rule *)
  let rules = "t(X, Y) :- edge(X, Y). t(X, Y) :- t(X, Z), t(Z, Y)." in
  let edges = [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let s = session_with edges rules in
  Alcotest.(check (list (pair int int))) "nonlinear = linear closure" (ref_tc edges)
    (run_rows s (A.atom "t" [ A.Var "X"; A.Var "Y" ]))

let test_mutual_recursion () =
  (* even/odd path lengths from node 1 *)
  let rules =
    {| evenp(X, Y) :- edge(X, Z), oddp(Z, Y).
       evenp(X, X) :- node(X).
       oddp(X, Y) :- edge(X, Y).
       oddp(X, Y) :- edge(X, Z), evenp(Z, Y), node(X). |}
  in
  let s = Session.create () in
  ok (Workload.Queries.setup_edge s [ (1, 2); (2, 3); (3, 4) ]);
  ok (Session.define_base s "node" [ ("n", Rdbms.Datatype.TInt) ] ());
  ignore (ok (Session.add_facts s "node" (List.map (fun i -> [ V.Int i ]) [ 1; 2; 3; 4 ])));
  ok (Session.load_rules s rules);
  let odd = run_rows s (A.atom "oddp" [ A.Const (V.Int 1); A.Var "Y" ]) in
  Alcotest.(check (list (pair int int))) "odd paths from 1" [ (2, -1); (4, -1) ]
    (List.map (fun (y, _) -> (y, -1)) odd);
  let even = run_rows s (A.atom "evenp" [ A.Const (V.Int 1); A.Var "Y" ]) in
  Alcotest.(check (list int)) "even paths from 1" [ 1; 3 ] (List.map fst even)

let test_strategies_agree_exact () =
  let edges = [ (1, 2); (2, 3); (2, 4); (4, 1); (5, 5) ] in
  let s = session_with edges Workload.Queries.tc_rules in
  let semi = run_rows s tc_all_goal in
  let naive =
    run_rows s ~options:{ Session.default_options with strategy = Core.Runtime.Naive } tc_all_goal
  in
  Alcotest.(check (list (pair int int))) "naive = semi-naive" semi naive;
  Alcotest.(check (list (pair int int))) "= reference" (ref_tc edges) semi

let test_boolean_goal () =
  let s = session_with [ (1, 2); (2, 3) ] Workload.Queries.tc_rules in
  let yes = ok (Session.query_goal s (A.atom "tc" [ A.Const (V.Int 1); A.Const (V.Int 3) ])) in
  Alcotest.(check (option bool)) "1 reaches 3" (Some true) yes.Session.run.Core.Runtime.boolean;
  let no = ok (Session.query_goal s (A.atom "tc" [ A.Const (V.Int 3); A.Const (V.Int 1) ])) in
  Alcotest.(check (option bool)) "3 not 1" (Some false) no.Session.run.Core.Runtime.boolean

let test_negation_difference () =
  (* unreachable(X) : nodes 1 cannot reach *)
  let rules =
    {| tc(X, Y) :- edge(X, Y).
       tc(X, Y) :- edge(X, Z), tc(Z, Y).
       unreachable(Y) :- node(Y), not tc(one, Y). |}
  in
  let s = Session.create () in
  ok
    (Session.define_base s "edge"
       [ ("src", Rdbms.Datatype.TStr); ("dst", Rdbms.Datatype.TStr) ]
       ~indexes:[ "src" ] ());
  ok (Session.define_base s "node" [ ("n", Rdbms.Datatype.TStr) ] ());
  let e a b = [ V.Str a; V.Str b ] in
  ignore (ok (Session.add_facts s "edge" [ e "one" "two"; e "two" "three"; e "four" "five" ]));
  ignore
    (ok
       (Session.add_facts s "node"
          (List.map (fun n -> [ V.Str n ]) [ "one"; "two"; "three"; "four"; "five" ])));
  ok (Session.load_rules s rules);
  let a = ok (Session.query_goal s (A.atom "unreachable" [ A.Var "X" ])) in
  let got =
    List.map (fun r -> V.to_string r.(0)) a.Session.run.Core.Runtime.rows |> List.sort compare
  in
  Alcotest.(check (list string)) "negation via NOT EXISTS" [ "five"; "four"; "one" ] got

let test_derived_pred_with_facts () =
  (* a derived predicate defined by both facts and rules *)
  let rules = {| vip(boss).
                 vip(X) :- reports(X, Y), vip(Y). |}
  in
  let s = Session.create () in
  ok
    (Session.define_base s "reports"
       [ ("who", Rdbms.Datatype.TStr); ("to_", Rdbms.Datatype.TStr) ]
       ());
  ignore
    (ok
       (Session.add_facts s "reports"
          [ [ V.Str "alice"; V.Str "boss" ]; [ V.Str "bob"; V.Str "alice" ] ]));
  ok (Session.load_rules s rules);
  let a = ok (Session.query_goal s (A.atom "vip" [ A.Var "X" ])) in
  let got =
    List.map (fun r -> V.to_string r.(0)) a.Session.run.Core.Runtime.rows |> List.sort compare
  in
  Alcotest.(check (list string)) "facts + rules" [ "alice"; "bob"; "boss" ] got

let test_report_metadata () =
  let s = session_with [ (1, 2); (2, 3); (3, 4) ] Workload.Queries.tc_rules in
  let a = ok (Session.query_goal s tc_all_goal) in
  let run = a.Session.run in
  (match run.Core.Runtime.iterations with
  | [ (_, iters) ] -> Alcotest.(check bool) "iterations >= path length" true (iters >= 3)
  | _ -> Alcotest.fail "expected one clique");
  Alcotest.(check bool) "exec time recorded" true (run.Core.Runtime.exec_ms > 0.0);
  Alcotest.(check bool) "temp tables created" true
    (run.Core.Runtime.io.Rdbms.Stats.tables_created > 0);
  Alcotest.(check bool) "temp tables dropped" true
    (run.Core.Runtime.io.Rdbms.Stats.tables_dropped
    = run.Core.Runtime.io.Rdbms.Stats.tables_created);
  Alcotest.(check (list string)) "columns are goal variables" [ "x"; "y" ]
    run.Core.Runtime.columns

let test_index_derived_same_answers () =
  let edges = [ (1, 2); (2, 3); (3, 4); (4, 2) ] in
  let s = session_with edges Workload.Queries.tc_rules in
  let plain = run_rows s tc_all_goal in
  let indexed =
    run_rows s ~options:{ Session.default_options with index_derived = true } tc_all_goal
  in
  Alcotest.(check (list (pair int int))) "indexing changes nothing" plain indexed

let test_iteration_profile () =
  (* Two-level binary tree: 1 -> {2,3}, 2 -> {4,5}, 3 -> {6,7}.
     same_generation's exit rule seeds 12 same-parent pairs (including
     the reflexive ones) before the loop; semi-naive iteration 1 then
     derives the 8 cousin pairs {4,5}x{6,7} in both orders, and
     iteration 2 finds nothing new and terminates. *)
  let s = Session.create () in
  ok (Workload.Queries.setup_parent s [ (1, 2); (1, 3); (2, 4); (2, 5); (3, 6); (3, 7) ]);
  ok (Session.load_rules s Workload.Queries.same_generation_rules);
  let a = ok (Session.query_goal s (A.atom "sg" [ A.Var "X"; A.Var "Y" ])) in
  let run = a.Session.run in
  Alcotest.(check int) "12 seeded + 8 derived answers" 20
    (List.length run.Core.Runtime.rows);
  let profile = run.Core.Runtime.profile in
  Alcotest.(check (list (list (pair string int))))
    "hand-computed per-iteration deltas"
    [ [ ("sg", 8) ]; [ ("sg", 0) ] ]
    (List.map (fun ip -> ip.Core.Runtime.ip_deltas) profile);
  Alcotest.(check (list (pair string int))) "iteration numbering"
    [ ("clique(sg)", 1); ("clique(sg)", 2) ]
    (List.map (fun ip -> (ip.Core.Runtime.ip_label, ip.Core.Runtime.ip_index)) profile);
  List.iter
    (fun ip ->
      Alcotest.(check (list string)) "all four phase buckets, in order"
        [ "create_drop"; "eval"; "termination"; "copy" ]
        (List.map fst ip.Core.Runtime.ip_phase_io);
      let bucket_io = List.fold_left (fun acc (_, n) -> acc + n) 0 ip.Core.Runtime.ip_phase_io in
      Alcotest.(check int) "phase buckets account for the iteration's I/O"
        (Rdbms.Stats.total_io ip.Core.Runtime.ip_io)
        bucket_io;
      Alcotest.(check bool) "iteration wall time recorded" true (ip.Core.Runtime.ip_ms >= 0.0))
    profile;
  (* a terminating iteration still pays for its (empty) delta evaluation *)
  (match profile with
  | [ first; last ] ->
      Alcotest.(check bool) "productive iteration costs more I/O" true
        (Rdbms.Stats.total_io first.Core.Runtime.ip_io
        > Rdbms.Stats.total_io last.Core.Runtime.ip_io)
  | _ -> Alcotest.fail "expected exactly two iterations")

let test_profile_matches_iteration_counts () =
  let edges = [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let s = session_with edges Workload.Queries.tc_rules in
  let a = ok (Session.query_goal s tc_all_goal) in
  let run = a.Session.run in
  let counted =
    List.map
      (fun (label, n) ->
        ( label,
          List.length
            (List.filter (fun ip -> ip.Core.Runtime.ip_label = label) run.Core.Runtime.profile),
          n ))
      run.Core.Runtime.iterations
  in
  List.iter
    (fun (label, profiled, reported) ->
      Alcotest.(check int) (label ^ " profile entries = iteration count") reported profiled)
    counted

(* Each rule variant writes only tuples new to its head into the
   candidate table, and the member step copies them into the member and
   swaps the candidate table in as the next delta without a write. So
   inside the loop a derived tuple is written twice: as a candidate and
   into its member table. The seed (exit rules, first delta copy) is not
   an iteration and stays outside the ratio. *)
let test_rows_written_per_tuple () =
  let s = Session.create () in
  let tree = Workload.Graphgen.full_binary_tree ~depth:10 () in
  ok (Workload.Queries.setup_parent s tree.Workload.Graphgen.t_edges);
  ok (Session.load_rules s Workload.Queries.ancestor_rules);
  let goal = Workload.Queries.ancestor_goal tree.Workload.Graphgen.t_root in
  let run strategy =
    (ok (Session.query_goal s ~options:{ Session.default_options with strategy } goal))
      .Session.run
  in
  let semi = run Core.Runtime.Seminaive and naive = run Core.Runtime.Naive in
  let sum f = List.fold_left (fun acc ip -> acc + f ip) 0 semi.Core.Runtime.profile in
  let new_tuples =
    sum (fun ip -> List.fold_left (fun acc (_, n) -> acc + n) 0 ip.Core.Runtime.ip_deltas)
  in
  let loop_inserts = sum (fun ip -> ip.Core.Runtime.ip_io.Rdbms.Stats.rows_inserted) in
  Alcotest.(check bool)
    (Printf.sprintf "loop writes <= 2 rows per new tuple (%d rows, %d tuples)" loop_inserts
       new_tuples)
    true
    (new_tuples > 0 && loop_inserts <= 2 * new_tuples);
  Alcotest.(check (list (pair string int))) "semi-naive iterations"
    [ ("clique(ancestor)", 9) ] semi.Core.Runtime.iterations;
  Alcotest.(check (list (pair string int))) "naive iterations"
    [ ("clique(ancestor)", 10) ] naive.Core.Runtime.iterations;
  Alcotest.(check (list (pair int int))) "naive = semi-naive"
    (sorted_pairs semi.Core.Runtime.rows) (sorted_pairs naive.Core.Runtime.rows)

(* ---------------- properties ---------------- *)

let gen_edges = QCheck2.Gen.(list_size (int_range 0 25) (pair (int_bound 8) (int_bound 8)))

let prop_strategies_and_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"naive = semi-naive = reference closure" gen_edges
       (fun edges ->
         let s = session_with edges Workload.Queries.tc_rules in
         let semi = run_rows s tc_all_goal in
         let naive =
           run_rows s
             ~options:{ Session.default_options with strategy = Core.Runtime.Naive }
             tc_all_goal
         in
         semi = naive && semi = ref_tc edges))

let prop_bound_query_is_slice =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"tc(c, W) = slice of full closure"
       QCheck2.Gen.(pair gen_edges (int_bound 8))
       (fun (edges, c) ->
         let s = session_with edges Workload.Queries.tc_rules in
         let full = ref_tc edges in
         let expected = List.filter (fun (a, _) -> a = c) full |> List.map snd |> List.sort compare in
         let got = run_rows s (Workload.Queries.tc_goal_from c) |> List.map fst in
         got = expected))

let () =
  Alcotest.run "runtime"
    [
      ( "evaluation",
        [
          Alcotest.test_case "small closure" `Quick test_tc_small;
          Alcotest.test_case "cycles terminate" `Quick test_tc_cycle;
          Alcotest.test_case "self loop" `Quick test_tc_self_loop;
          Alcotest.test_case "empty base" `Quick test_empty_base;
          Alcotest.test_case "nonlinear rules" `Quick test_nonlinear_rules;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
          Alcotest.test_case "strategies agree" `Quick test_strategies_agree_exact;
          Alcotest.test_case "boolean goals" `Quick test_boolean_goal;
          Alcotest.test_case "stratified negation" `Quick test_negation_difference;
          Alcotest.test_case "derived pred with facts" `Quick test_derived_pred_with_facts;
          Alcotest.test_case "report metadata" `Quick test_report_metadata;
          Alcotest.test_case "derived indexing" `Quick test_index_derived_same_answers;
        ] );
      ( "iteration profile",
        [
          Alcotest.test_case "same_generation deltas" `Quick test_iteration_profile;
          Alcotest.test_case "profile entries = iteration counts" `Quick
            test_profile_matches_iteration_counts;
          Alcotest.test_case "rows written per new tuple" `Quick test_rows_written_per_tuple;
        ] );
      ("properties", [ prop_strategies_and_reference; prop_bound_query_is_slice ]);
    ]
