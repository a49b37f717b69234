(* Tests for the Datalog AST, lexer/parser and pretty-printer, including
   a print/re-parse roundtrip property. *)

module A = Datalog.Ast
module P = Datalog.Parser
module V = Rdbms.Value

let clause_eq = Alcotest.testable (fun fmt c -> Format.pp_print_string fmt (A.clause_to_string c)) A.equal_clause

let test_parse_fact () =
  let c = P.parse_clause "parent(john, mary)." in
  Alcotest.(check bool) "is fact" true (A.is_fact c);
  Alcotest.check clause_eq "structure" (A.fact "parent" [ V.Str "john"; V.Str "mary" ]) c

let test_parse_rule () =
  let c = P.parse_clause "anc(X, Y) :- par(X, Z), anc(Z, Y)." in
  Alcotest.(check bool) "is rule" true (A.is_rule c);
  Alcotest.(check string) "head" "anc" (A.head_pred c);
  Alcotest.(check (list (pair string bool))) "body preds"
    [ ("par", true); ("anc", true) ]
    (A.body_preds c)

let test_parse_negation () =
  let c = P.parse_clause "only(X) :- node(X), not bad(X)." in
  Alcotest.(check (list (pair string bool))) "polarity"
    [ ("node", true); ("bad", false) ]
    (A.body_preds c);
  (* prolog-style spelling *)
  let c2 = P.parse_clause {|only(X) :- node(X), \+ bad(X).|} in
  Alcotest.check clause_eq "\\+ is not" c c2

let test_parse_terms () =
  let c = P.parse_clause "p(X, 42, john, \"Mixed Case\")." in
  match c.A.head.A.args with
  | [ A.Var "X"; A.Const (V.Int 42); A.Const (V.Str "john"); A.Const (V.Str "Mixed Case") ] -> ()
  | _ -> Alcotest.fail "wrong terms"

let test_parse_arrow_variant () =
  let a = P.parse_clause "p(X) :- q(X)." in
  let b = P.parse_clause "p(X) <- q(X)." in
  Alcotest.check clause_eq "<- equals :-" a b

let test_parse_program () =
  let items =
    P.parse_program
      {| % a comment
         parent(a, b).
         anc(X, Y) :- parent(X, Y).
         ?- anc(a, W). |}
  in
  match items with
  | [ P.Clause _; P.Clause _; P.Query goal ] ->
      Alcotest.(check string) "goal pred" "anc" goal.A.pred
  | _ -> Alcotest.fail "wrong item shapes"

let test_parse_query () =
  let g = P.parse_query "?- anc(john, W)." in
  Alcotest.(check string) "pred" "anc" g.A.pred;
  let g2 = P.parse_query "anc(john, W)" in
  Alcotest.(check bool) "prefix optional" true (A.equal_atom g g2)

let test_parse_errors () =
  let fails s =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %S" s)
      true
      (try
         ignore (P.parse_clause s);
         false
       with P.Parse_error _ | Datalog.Lexer.Lex_error _ -> true)
  in
  fails "p(X";
  fails "p(X) :- .";
  fails "P(x).";
  fails "p(X) q(X).";
  fails "p(X) :- q(X) r(X).";
  fails "p(X). q(X)."

let test_integer_overflow () =
  Alcotest.(check bool) "lex error at the literal" true
    (try
       ignore (Datalog.Lexer.tokenize "p(a) :- q(a, 99999999999999999999).");
       false
     with Datalog.Lexer.Lex_error ("integer literal out of range", { line = 1; col = 14 }) -> true)

let test_vars_of () =
  let c = P.parse_clause "p(X, Y, X) :- q(Y, Z)." in
  Alcotest.(check (list string)) "head vars dedup ordered" [ "X"; "Y" ] (A.vars_of_atom c.A.head);
  Alcotest.(check (list string)) "clause vars" [ "X"; "Y"; "Z" ] (A.vars_of_clause c)

let test_ground_and_safety_shapes () =
  Alcotest.(check bool) "ground" true (A.is_ground (A.atom "p" [ A.Const (V.Int 1) ]));
  Alcotest.(check bool) "not ground" false (A.is_ground (A.atom "p" [ A.Var "X" ]));
  (* a non-ground bodiless clause is a rule (and will fail safety) *)
  let c = P.parse_clause "p(X)." in
  Alcotest.(check bool) "non-ground headless body is rule" true (A.is_rule c)

let test_pretty () =
  Alcotest.(check string) "fact" "parent(john, mary)."
    (A.clause_to_string (A.fact "parent" [ V.Str "john"; V.Str "mary" ]));
  let c = P.parse_clause "p(X, 1) :- q(X), not r(X)." in
  Alcotest.(check string) "rule" "p(X, 1) :- q(X), not r(X)." (A.clause_to_string c);
  (* odd strings print quoted *)
  Alcotest.(check string) "quoted const" "p(\"Hello World\")."
    (A.clause_to_string (A.fact "p" [ V.Str "Hello World" ]))

(* ---------------- roundtrip property ---------------- *)

let gen_pred = QCheck2.Gen.oneofl [ "p"; "q"; "r"; "edge"; "anc" ]
let gen_var = QCheck2.Gen.oneofl [ "X"; "Y"; "Z"; "W" ]

let gen_term =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> A.Var v) gen_var;
        map (fun n -> A.Const (V.Int n)) small_signed_int;
        map (fun s -> A.Const (V.Str s)) (oneofl [ "a"; "b"; "john"; "n1" ]);
      ])

let gen_atom =
  QCheck2.Gen.(map2 (fun p args -> A.atom p args) gen_pred (list_size (int_range 1 3) gen_term))

let gen_clause =
  QCheck2.Gen.(
    oneof
      [
        (* ground fact *)
        map2
          (fun p args -> A.fact p args)
          gen_pred
          (list_size (int_range 1 3)
             (oneof [ map (fun n -> V.Int n) small_signed_int; return (V.Str "a") ]));
        (* rule with positive and negated literals *)
        map2
          (fun head body -> A.rule head body)
          gen_atom
          (list_size (int_range 1 4)
             (oneof [ map (fun a -> A.Pos a) gen_atom; map (fun a -> A.Neg a) gen_atom ]));
      ])

let roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"pretty/parse roundtrip" gen_clause (fun c ->
         let text = A.clause_to_string c in
         match P.parse_clause text with
         | c' -> A.equal_clause c c'
         | exception P.Parse_error (msg, pos) ->
             QCheck2.Test.fail_reportf "reparse failed at %s (%s) for %s" (Datalog.Lexer.pos_to_string pos) msg text))

let () =
  Alcotest.run "datalog_ast"
    [
      ( "parser",
        [
          Alcotest.test_case "fact" `Quick test_parse_fact;
          Alcotest.test_case "rule" `Quick test_parse_rule;
          Alcotest.test_case "negation" `Quick test_parse_negation;
          Alcotest.test_case "terms" `Quick test_parse_terms;
          Alcotest.test_case "arrow variant" `Quick test_parse_arrow_variant;
          Alcotest.test_case "program" `Quick test_parse_program;
          Alcotest.test_case "query" `Quick test_parse_query;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "integer overflow" `Quick test_integer_overflow;
        ] );
      ( "ast",
        [
          Alcotest.test_case "vars_of" `Quick test_vars_of;
          Alcotest.test_case "groundness" `Quick test_ground_and_safety_shapes;
          Alcotest.test_case "pretty printing" `Quick test_pretty;
        ] );
      ("roundtrip", [ roundtrip ]);
    ]
