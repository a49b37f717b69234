(* End-to-end session tests: the paper's "typical session" (§3.1) plus
   error handling and the compile/execute metadata the experiments rely
   on. *)

module Session = Core.Session
module A = Datalog.Ast
module V = Rdbms.Value
module D = Rdbms.Datatype

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let family () =
  let s = Session.create () in
  ok (Session.define_base s "parent" [ ("p", D.TStr); ("c", D.TStr) ] ~indexes:[ "p" ] ());
  ignore
    (ok
       (Session.add_facts s "parent"
          (List.map
             (fun (a, b) -> [ V.Str a; V.Str b ])
             [ ("john", "mary"); ("mary", "sue"); ("sue", "ann"); ("bob", "ted") ])));
  ok
    (Session.load_rules s
       {| ancestor(X, Y) :- parent(X, Y).
          ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y). |});
  s

let answers s ?options text =
  let a = ok (Session.query s ?options text) in
  List.map (fun r -> V.to_string r.(0)) a.Session.run.Core.Runtime.rows |> List.sort compare

let test_typical_session () =
  let s = family () in
  Alcotest.(check (list string)) "descendants of john" [ "ann"; "mary"; "sue" ]
    (answers s "?- ancestor(john, W).");
  (* store, clear, query again from the stored rules *)
  ignore (ok (Session.update_stored s ~clear:true ()));
  Alcotest.(check int) "workspace empty" 0 (Core.Workspace.rule_count (Session.workspace s));
  Alcotest.(check (list string)) "still answers from Stored D/KB" [ "ann"; "mary"; "sue" ]
    (answers s "ancestor(john, W)")

let test_workspace_overrides_combine_with_stored () =
  let s = family () in
  ignore (ok (Session.update_stored s ~clear:true ()));
  (* new workspace rule on top of the stored ancestor *)
  ok (Session.add_rule s "famous(X) :- ancestor(X, ann).");
  Alcotest.(check (list string)) "workspace + stored" [ "john"; "mary"; "sue" ]
    (answers s "famous(W)")

let test_query_base_relation_directly () =
  let s = family () in
  Alcotest.(check (list string)) "base pred goal" [ "mary" ] (answers s "parent(john, W)")

let test_all_option_combinations_agree () =
  let s = family () in
  let expected = [ "ann"; "mary"; "sue" ] in
  List.iter
    (fun optimize ->
      List.iter
        (fun strategy ->
          List.iter
            (fun index_derived ->
              let options = { Session.default_options with Session.optimize; strategy; index_derived } in
              Alcotest.(check (list string)) "same answers" expected
                (answers s ~options "ancestor(john, W)"))
            [ false; true ])
        [ Core.Runtime.Naive; Core.Runtime.Seminaive ])
    [ Core.Compiler.Opt_off; Core.Compiler.Opt_on; Core.Compiler.Opt_auto ]

let test_opt_auto () =
  let s = family () in
  let a =
    ok
      (Session.query s
         ~options:{ Session.default_options with optimize = Core.Compiler.Opt_auto }
         "ancestor(john, W)")
  in
  Alcotest.(check bool) "bound goal optimized" true a.Session.compiled.Core.Compiler.optimized;
  let b =
    ok
      (Session.query s
         ~options:{ Session.default_options with optimize = Core.Compiler.Opt_auto }
         "ancestor(V, W)")
  in
  Alcotest.(check bool) "free goal not optimized" false b.Session.compiled.Core.Compiler.optimized

let test_compiled_metadata () =
  let s = family () in
  ignore (ok (Session.update_stored s ~clear:true ()));
  let a = ok (Session.query s "ancestor(john, W)") in
  let c = a.Session.compiled in
  Alcotest.(check int) "two stored rules extracted" 2 c.Core.Compiler.relevant_stored_rules;
  Alcotest.(check int) "one relevant derived pred" 1 c.Core.Compiler.relevant_derived_preds;
  Alcotest.(check bool) "phases recorded" true
    (Dkb_util.Timer.Phases.get c.Core.Compiler.phases "extract" >= 0.0);
  Alcotest.(check bool) "t_c positive" true (c.Core.Compiler.compile_ms > 0.0);
  match c.Core.Compiler.eval_order with
  | [ Datalog.Evalgraph.N_clique _ ] -> ()
  | _ -> Alcotest.fail "expected a single clique entry"

let test_errors () =
  let s = family () in
  let fails text =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %s" text)
      true
      (Result.is_error (Session.query s text))
  in
  fails "nosuchpred(X)";
  fails "ancestor(X)";
  fails "ancestor(X, Y, Z)";
  fails "ancestor(1, W)";
  (* 1 is an integer, parent columns are char *)
  Alcotest.(check bool) "bad rule text" true (Result.is_error (Session.add_rule s "p(X :- q(X)."));
  Alcotest.(check bool) "unsafe rule" true
    (Result.is_error (Session.add_rule s "p(X, Y) :- parent(X, Z)."));
  Alcotest.(check bool) "reserved name" true
    (Result.is_error (Session.add_rule s "weird__name(X) :- parent(X, Y)."));
  Alcotest.(check bool) "dup base" true
    (Result.is_error (Session.define_base s "parent" [ ("p", D.TStr) ] ()));
  Alcotest.(check bool) "bad fact arity" true
    (Result.is_error (Session.add_fact s "parent" [ V.Str "solo" ]))

(* An integer literal too large for an int is a lex error in both front
   ends, returned as [Error], never an escaping [Failure]. *)
let test_integer_overflow () =
  let s = family () in
  let huge = "99999999999999999999" in
  let out_of_range what = function
    | Error msg ->
        Alcotest.(check bool) (what ^ ": " ^ msg) true
          (Astring.String.is_infix ~affix:"integer literal out of range" msg)
    | Ok _ -> Alcotest.fail (what ^ " accepted the literal")
  in
  out_of_range "Session.sql" (Session.sql s ("SELECT c FROM parent WHERE p = " ^ huge));
  out_of_range "Session.query" (Session.query s ("ancestor(" ^ huge ^ ", W)"));
  out_of_range "Session.add_rule" (Session.add_rule s ("p(X) :- parent(X, " ^ huge ^ ")."))

let test_max_iterations_is_an_error () =
  (* an exceeded iteration cap is an evaluation Error, not an escaping
     Failure crashing the boundary *)
  let s = family () in
  let options = { Session.default_options with Session.max_iterations = 0 } in
  (match Session.query s ~options "ancestor(john, W)" with
  | Error msg ->
      Alcotest.(check bool) "mentions the cap" true
        (Astring.String.is_infix ~affix:"max iterations" msg)
  | Ok _ -> Alcotest.fail "a zero cap cannot converge");
  (* both strategies hit their own cap check *)
  let naive =
    { Session.default_options with
      Session.max_iterations = 0;
      strategy = Core.Runtime.Naive
    }
  in
  Alcotest.(check bool) "naive too" true
    (Result.is_error (Session.query s ~options:naive "ancestor(john, W)"));
  (* the session survives: the same query succeeds with the default cap *)
  Alcotest.(check (list string)) "session still usable" [ "ann"; "mary"; "sue" ]
    (answers s "ancestor(john, W)")

let test_rule_head_clashing_with_base () =
  let s = family () in
  ok (Session.add_rule s "parent(X, Y) :- parent(Y, X).");
  (* a rule over a base predicate makes it non-base; compilation reports
     the problem rather than silently shadowing the EDB *)
  Alcotest.(check bool) "query is rejected or answers consistently" true
    (match Session.query s "parent(john, W)" with
    | Error _ -> true
    | Ok _ -> true)

let test_explain () =
  let s = family () in
  let text = ok (Session.explain s "ancestor(john, W)") in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("explain mentions " ^ affix) true
        (Astring.String.is_infix ~affix text))
    [ "evaluation order"; "ancestor"; "SELECT DISTINCT" ];
  let optimized =
    ok
      (Session.explain s
         ~options:{ Session.default_options with optimize = Core.Compiler.Opt_on }
         "ancestor(john, W)")
  in
  Alcotest.(check bool) "optimized explain shows magic predicates" true
    (Astring.String.is_infix ~affix:"m__ancestor__bf" optimized)

let test_epochs_and_changes () =
  let s = family () in
  let e0 = Session.rule_epoch s in
  ok (Session.add_rule s "extra(X) :- parent(X, Y).");
  Alcotest.(check bool) "epoch bumped" true (Session.rule_epoch s > e0);
  Alcotest.(check (list string)) "change recorded" [ "extra" ] (Session.changed_since s e0)

let test_add_facts_counts_new_only () =
  let s = family () in
  let n =
    ok (Session.add_facts s "parent" [ [ V.Str "john"; V.Str "mary" ]; [ V.Str "new"; V.Str "kid" ] ])
  in
  Alcotest.(check int) "one duplicate skipped" 1 n

let () =
  Alcotest.run "session"
    [
      ( "scenarios",
        [
          Alcotest.test_case "typical session" `Quick test_typical_session;
          Alcotest.test_case "workspace + stored" `Quick test_workspace_overrides_combine_with_stored;
          Alcotest.test_case "base relation goal" `Quick test_query_base_relation_directly;
          Alcotest.test_case "all option combinations" `Quick test_all_option_combinations_agree;
          Alcotest.test_case "auto optimization" `Quick test_opt_auto;
          Alcotest.test_case "compiled metadata" `Quick test_compiled_metadata;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "integer overflow" `Quick test_integer_overflow;
          Alcotest.test_case "iteration cap" `Quick test_max_iterations_is_an_error;
          Alcotest.test_case "rule head clashes with base" `Quick test_rule_head_clashing_with_base;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "epochs" `Quick test_epochs_and_changes;
          Alcotest.test_case "add_facts dedup" `Quick test_add_facts_counts_new_only;
        ] );
    ]
