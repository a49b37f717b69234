(* Unit tests for the SQL lexer. *)

module L = Rdbms.Sql_lexer

let toks input = List.map fst (L.tokenize input)

let tok = Alcotest.testable (fun fmt t -> Format.pp_print_string fmt (L.token_to_string t)) ( = )

let test_basic () =
  Alcotest.(check (list tok)) "select"
    [ L.IDENT "SELECT"; L.STAR; L.IDENT "FROM"; L.IDENT "t"; L.EOF ]
    (toks "SELECT * FROM t")

let test_operators () =
  Alcotest.(check (list tok)) "cmp ops"
    [ L.EQ; L.NEQ; L.LT; L.LE; L.GT; L.GE; L.NEQ; L.EOF ]
    (toks "= <> < <= > >= !=")

let test_numbers () =
  Alcotest.(check (list tok)) "ints" [ L.INT 42; L.INT (-7); L.INT 0; L.EOF ] (toks "42 -7 0")

let test_strings () =
  Alcotest.(check (list tok)) "plain" [ L.STRING "abc"; L.EOF ] (toks "'abc'");
  Alcotest.(check (list tok)) "escaped quote" [ L.STRING "o'brien"; L.EOF ] (toks "'o''brien'");
  Alcotest.(check (list tok)) "empty" [ L.STRING ""; L.EOF ] (toks "''")

let test_unterminated_string () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (L.tokenize "'oops");
       false
     with L.Lex_error _ -> true)

let test_comments () =
  Alcotest.(check (list tok)) "line comment"
    [ L.IDENT "a"; L.IDENT "b"; L.EOF ]
    (toks "a -- comment here\nb")

let test_qualified () =
  Alcotest.(check (list tok)) "dots"
    [ L.IDENT "t1"; L.DOT; L.IDENT "c2"; L.EOF ]
    (toks "t1.c2")

let test_punctuation () =
  Alcotest.(check (list tok)) "parens commas"
    [ L.LPAREN; L.IDENT "a"; L.COMMA; L.IDENT "b"; L.RPAREN; L.SEMI; L.EOF ]
    (toks "(a, b);")

let test_bad_char () =
  Alcotest.(check bool) "raises with offset" true
    (try
       ignore (L.tokenize "a @ b");
       false
     with L.Lex_error (_, 2) -> true)

let test_integer_overflow () =
  Alcotest.(check (list tok)) "max_int fits" [ L.INT max_int; L.EOF ] (toks (string_of_int max_int));
  Alcotest.(check bool) "one past it is a lex error at the literal" true
    (try
       ignore (L.tokenize "a = 99999999999999999999");
       false
     with L.Lex_error ("integer literal out of range", 4) -> true)

(* ?N is a parameter token outside quotes and text inside them; ?0 and
   an index past [int] are lex errors at the parameter. *)
let test_parameters () =
  Alcotest.(check (list tok)) "parameters" [ L.IDENT "k"; L.EQ; L.PARAM 12; L.STRING "?1"; L.EOF ]
    (toks "k = ?12 '?1'");
  let fails input =
    try
      ignore (L.tokenize input);
      None
    with L.Lex_error (msg, pos) -> Some (msg, pos)
  in
  Alcotest.(check (option (pair string int))) "?0" (Some ("parameters are numbered from ?1, found ?0", 4))
    (fails "a = ?0");
  Alcotest.(check (option (pair string int)))
    "too large" (Some ("parameter ?99999999999999999999 out of range", 4))
    (fails "a = ?99999999999999999999")

let test_offsets () =
  let offsets = List.map snd (L.tokenize "ab cd") in
  Alcotest.(check (list int)) "token offsets" [ 0; 3; 5 ] offsets

let () =
  Alcotest.run "sql_lexer"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "operators" `Quick test_operators;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "unterminated string" `Quick test_unterminated_string;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "qualified names" `Quick test_qualified;
          Alcotest.test_case "punctuation" `Quick test_punctuation;
          Alcotest.test_case "bad char" `Quick test_bad_char;
          Alcotest.test_case "offsets" `Quick test_offsets;
          Alcotest.test_case "integer overflow" `Quick test_integer_overflow;
          Alcotest.test_case "parameters" `Quick test_parameters;
        ] );
    ]
