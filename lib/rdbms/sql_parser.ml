open Sql_ast

exception Parse_error of string * int

type state = {
  mutable toks : (Sql_lexer.token * int) list;
}

let peek st =
  match st.toks with
  | (tok, pos) :: _ -> (tok, pos)
  | [] -> (Sql_lexer.EOF, 0)

let advance st =
  match st.toks with
  | _ :: rest -> st.toks <- rest
  | [] -> ()

let error st msg =
  let tok, pos = peek st in
  raise (Parse_error (Printf.sprintf "%s (found %s)" msg (Sql_lexer.token_to_string tok), pos))

let expect st tok msg =
  let found, _ = peek st in
  if found = tok then advance st else error st msg

(* Case-insensitive keyword matching on IDENT tokens. *)
let is_kw st kw =
  match peek st with
  | Sql_lexer.IDENT s, _ -> String.uppercase_ascii s = kw
  | _ -> false

let eat_kw st kw = if is_kw st kw then (advance st; true) else false

let expect_kw st kw =
  if not (eat_kw st kw) then error st (Printf.sprintf "expected %s" kw)

let ident st =
  match peek st with
  | Sql_lexer.IDENT s, _ -> advance st; s
  | _ -> error st "expected identifier"

let parse_literal st =
  match peek st with
  | Sql_lexer.INT n, _ -> advance st; L_int n
  | Sql_lexer.STRING s, _ -> advance st; L_str s
  | Sql_lexer.PARAM n, _ -> advance st; L_param n
  | _ -> error st "expected literal"

let parse_scalar st =
  match peek st with
  | Sql_lexer.INT _, _ | Sql_lexer.STRING _, _ | Sql_lexer.PARAM _, _ -> Lit (parse_literal st)
  | Sql_lexer.IDENT _, _ ->
      let first = ident st in
      if fst (peek st) = Sql_lexer.DOT then begin
        advance st;
        let column = ident st in
        Col { qualifier = Some first; column }
      end
      else Col { qualifier = None; column = first }
  | _ -> error st "expected column or literal"

let parse_cmp_op st =
  match peek st with
  | Sql_lexer.EQ, _ -> advance st; Eq
  | Sql_lexer.NEQ, _ -> advance st; Neq
  | Sql_lexer.LT, _ -> advance st; Lt
  | Sql_lexer.LE, _ -> advance st; Le
  | Sql_lexer.GT, _ -> advance st; Gt
  | Sql_lexer.GE, _ -> advance st; Ge
  | _ -> error st "expected comparison operator"

let parse_alias st =
  if eat_kw st "AS" then Some (ident st)
  else
    (* bare alias: an identifier that is not a clause keyword *)
    match peek st with
    | Sql_lexer.IDENT s, _
      when not
             (List.mem (String.uppercase_ascii s)
                [ "FROM"; "WHERE"; "ORDER"; "GROUP"; "UNION"; "EXCEPT"; "MINUS"; "ALL"; "AND"; "OR"; "ON" ]) ->
        advance st;
        Some s
    | _ -> None

let parse_select_item st =
  let agg fn =
    advance st;
    expect st Sql_lexer.LPAREN "expected ( after aggregate";
    let item =
      if fn = Agg_count && fst (peek st) = Sql_lexer.STAR then begin
        advance st;
        fun alias -> Sel_count_star alias
      end
      else
        let e = parse_scalar st in
        fun alias -> Sel_agg (fn, e, alias)
    in
    expect st Sql_lexer.RPAREN "expected ) after aggregate";
    item (parse_alias st)
  in
  if is_kw st "COUNT" then agg Agg_count
  else if is_kw st "SUM" then agg Agg_sum
  else if is_kw st "MIN" then agg Agg_min
  else if is_kw st "MAX" then agg Agg_max
  else
    let e = parse_scalar st in
    Sel_expr (e, parse_alias st)

let rec parse_select_items st =
  let item = parse_select_item st in
  if fst (peek st) = Sql_lexer.COMMA then begin
    advance st;
    item :: parse_select_items st
  end
  else [ item ]

let rec parse_from_items st =
  let table = ident st in
  let alias = parse_alias st in
  let item = { table; alias } in
  if fst (peek st) = Sql_lexer.COMMA then begin
    advance st;
    item :: parse_from_items st
  end
  else [ item ]

let rec parse_cond st = parse_or st

and parse_or st =
  let left = parse_and st in
  if eat_kw st "OR" then Or (left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if eat_kw st "AND" then And (left, parse_and st) else left

and parse_not st =
  if eat_kw st "NOT" then
    if eat_kw st "EXISTS" then begin
      expect st Sql_lexer.LPAREN "expected ( after NOT EXISTS";
      let q = parse_query_expr st in
      expect st Sql_lexer.RPAREN "expected ) after NOT EXISTS subquery";
      match q with
      | Q_select core -> Not_exists core
      | Q_union _ | Q_union_all _ | Q_except _ ->
          error st "NOT EXISTS subquery must be a plain SELECT"
    end
    else Not (parse_not st)
  else parse_cond_primary st

and parse_cond_primary st =
  if fst (peek st) = Sql_lexer.LPAREN then begin
    advance st;
    let c = parse_cond st in
    expect st Sql_lexer.RPAREN "expected )";
    c
  end
  else begin
    let lhs = parse_scalar st in
    let op = parse_cmp_op st in
    let rhs = parse_scalar st in
    Cmp (lhs, op, rhs)
  end

and parse_query_expr st =
  let left = parse_query_primary st in
  parse_query_rest st left

and parse_query_rest st left =
  if eat_kw st "UNION" then
    let ctor = if eat_kw st "ALL" then fun a b -> Q_union_all (a, b) else fun a b -> Q_union (a, b) in
    let right = parse_query_primary st in
    parse_query_rest st (ctor left right)
  else if eat_kw st "EXCEPT" || eat_kw st "MINUS" then
    let right = parse_query_primary st in
    parse_query_rest st (Q_except (left, right))
  else left

and parse_query_primary st =
  if fst (peek st) = Sql_lexer.LPAREN then begin
    advance st;
    let q = parse_query_expr st in
    expect st Sql_lexer.RPAREN "expected )";
    q
  end
  else begin
    expect_kw st "SELECT";
    let distinct = eat_kw st "DISTINCT" in
    let items =
      if fst (peek st) = Sql_lexer.STAR then begin
        advance st;
        [ Sel_star ]
      end
      else parse_select_items st
    in
    expect_kw st "FROM";
    let from = parse_from_items st in
    let where = if eat_kw st "WHERE" then Some (parse_cond st) else None in
    let group_by =
      if is_kw st "GROUP" then begin
        advance st;
        expect_kw st "BY";
        let rec cols () =
          let c =
            match parse_scalar st with
            | Col c -> c
            | Lit _ -> error st "GROUP BY expects column references"
          in
          if fst (peek st) = Sql_lexer.COMMA then begin
            advance st;
            c :: cols ()
          end
          else [ c ]
        in
        cols ()
      end
      else []
    in
    Q_select { distinct; items; from; where; group_by }
  end

let parse_order_by st =
  if eat_kw st "ORDER" then begin
    expect_kw st "BY";
    let rec keys () =
      let target =
        match peek st with
        | Sql_lexer.INT n, _ -> advance st; `Position n
        | _ -> `Name (ident st)
      in
      let descending = if eat_kw st "DESC" then true else (ignore (eat_kw st "ASC"); false) in
      let k = { target; descending } in
      if fst (peek st) = Sql_lexer.COMMA then begin
        advance st;
        k :: keys ()
      end
      else [ k ]
    in
    keys ()
  end
  else []

let parse_column_defs st =
  expect st Sql_lexer.LPAREN "expected ( in CREATE TABLE";
  let rec defs () =
    let name = ident st in
    let ty_name = ident st in
    let ty =
      match Datatype.of_string ty_name with
      | Some ty -> ty
      | None -> error st (Printf.sprintf "unknown type %s" ty_name)
    in
    (* tolerate a length spec like char(20) *)
    if fst (peek st) = Sql_lexer.LPAREN then begin
      advance st;
      (match peek st with
      | Sql_lexer.INT _, _ -> advance st
      | _ -> error st "expected length in type spec");
      expect st Sql_lexer.RPAREN "expected ) after type length"
    end;
    let def = (name, ty) in
    if fst (peek st) = Sql_lexer.COMMA then begin
      advance st;
      def :: defs ()
    end
    else [ def ]
  in
  let cols = defs () in
  expect st Sql_lexer.RPAREN "expected ) after column definitions";
  cols

let parse_values_rows st =
  let rec rows () =
    expect st Sql_lexer.LPAREN "expected ( before VALUES row";
    let rec lits () =
      let l = parse_literal st in
      if fst (peek st) = Sql_lexer.COMMA then begin
        advance st;
        l :: lits ()
      end
      else [ l ]
    in
    let row = lits () in
    expect st Sql_lexer.RPAREN "expected ) after VALUES row";
    if fst (peek st) = Sql_lexer.COMMA then begin
      advance st;
      row :: rows ()
    end
    else [ row ]
  in
  rows ()

(* The [(c1, ..., cn) IN] head of a row-membership DELETE, told apart
   from a parenthesized condition by looking ahead to the IN; consumed
   only when it matches. *)
let row_columns st =
  let rec cols acc = function
    | (Sql_lexer.IDENT c, _) :: (Sql_lexer.COMMA, _) :: rest -> cols (c :: acc) rest
    | (Sql_lexer.IDENT c, _) :: (Sql_lexer.RPAREN, _) :: (Sql_lexer.IDENT kw, _) :: rest
      when String.uppercase_ascii kw = "IN" ->
        Some (List.rev (c :: acc), rest)
    | _ -> None
  in
  match st.toks with
  | (Sql_lexer.LPAREN, _) :: rest -> (
      match cols [] rest with
      | Some (columns, rest) ->
          st.toks <- rest;
          Some columns
      | None -> None)
  | _ -> None

(* BEGIN/COMMIT/ROLLBACK accept an optional TRANSACTION or WORK noise word. *)
let eat_txn_noise st = ignore (eat_kw st "TRANSACTION" || eat_kw st "WORK")

let parse_stmt st =
  if eat_kw st "BEGIN" then begin
    eat_txn_noise st;
    Begin
  end
  else if eat_kw st "COMMIT" then begin
    eat_txn_noise st;
    Commit
  end
  else if eat_kw st "ROLLBACK" then begin
    eat_txn_noise st;
    Rollback
  end
  else if eat_kw st "CREATE" then
    if eat_kw st "TABLE" then begin
      let name = ident st in
      let columns = parse_column_defs st in
      Create_table { name; columns }
    end
    else begin
      let ordered = eat_kw st "ORDERED" in
      if eat_kw st "INDEX" then begin
        let index = ident st in
        expect_kw st "ON";
        let table = ident st in
        expect st Sql_lexer.LPAREN "expected ( in CREATE INDEX";
        let column = ident st in
        expect st Sql_lexer.RPAREN "expected ) in CREATE INDEX";
        Create_index { index; table; column; ordered }
      end
      else error st "expected TABLE, INDEX or ORDERED INDEX after CREATE"
    end
  else if eat_kw st "DROP" then
    if eat_kw st "TABLE" then begin
      let if_exists =
        if is_kw st "IF" then begin
          advance st;
          expect_kw st "EXISTS";
          true
        end
        else false
      in
      let name = ident st in
      Drop_table { name; if_exists }
    end
    else if eat_kw st "INDEX" then Drop_index { index = ident st }
    else error st "expected TABLE or INDEX after DROP"
  else if eat_kw st "ANALYZE" then begin
    let table =
      match peek st with
      | Sql_lexer.IDENT _, _ -> Some (ident st)
      | _ -> None
    in
    Analyze { table }
  end
  else if eat_kw st "TRUNCATE" then begin
    ignore (eat_kw st "TABLE");
    Truncate { name = ident st }
  end
  else if eat_kw st "INSERT" then begin
    expect_kw st "INTO";
    let table = ident st in
    if eat_kw st "VALUES" then Insert_values { table; rows = parse_values_rows st }
    else Insert_select { table; query = parse_query_expr st }
  end
  else if eat_kw st "UPDATE" then begin
    let table = ident st in
    expect_kw st "SET";
    let rec sets () =
      let col = ident st in
      expect st Sql_lexer.EQ "expected = in SET";
      let e = parse_scalar st in
      if fst (peek st) = Sql_lexer.COMMA then begin
        advance st;
        (col, e) :: sets ()
      end
      else [ (col, e) ]
    in
    let sets = sets () in
    let where = if eat_kw st "WHERE" then Some (parse_cond st) else None in
    Update { table; sets; where }
  end
  else if eat_kw st "DELETE" then begin
    expect_kw st "FROM";
    let table = ident st in
    if eat_kw st "WHERE" then
      match row_columns st with
      | Some columns ->
          expect st Sql_lexer.LPAREN "expected ( before the IN subquery";
          let query = parse_query_expr st in
          expect st Sql_lexer.RPAREN "expected ) after the IN subquery";
          Delete_in { table; columns; query }
      | None -> Delete { table; where = Some (parse_cond st) }
    else Delete { table; where = None }
  end
  else if is_kw st "SELECT" || fst (peek st) = Sql_lexer.LPAREN then begin
    let query = parse_query_expr st in
    let order_by = parse_order_by st in
    Select { query; order_by }
  end
  else error st "expected a SQL statement"

let finish st =
  ignore (if fst (peek st) = Sql_lexer.SEMI then advance st);
  match peek st with
  | Sql_lexer.EOF, _ -> ()
  | _ -> error st "trailing input after statement"

let parse input =
  let st = { toks = Sql_lexer.tokenize input } in
  let stmt = parse_stmt st in
  finish st;
  stmt

let parse_many input =
  let st = { toks = Sql_lexer.tokenize input } in
  let rec loop acc =
    match peek st with
    | Sql_lexer.EOF, _ -> List.rev acc
    | Sql_lexer.SEMI, _ -> advance st; loop acc
    | _ ->
        let stmt = parse_stmt st in
        (match peek st with
        | Sql_lexer.SEMI, _ -> advance st
        | Sql_lexer.EOF, _ -> ()
        | _ -> error st "expected ; between statements");
        loop (stmt :: acc)
  in
  loop []

let parse_query input =
  let st = { toks = Sql_lexer.tokenize input } in
  let q = parse_query_expr st in
  finish st;
  q
