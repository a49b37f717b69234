type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | STAR
  | SEMI
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | EOF

exception Lex_error of string * int

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let token_to_string = function
  | IDENT s -> s
  | INT n -> string_of_int n
  | STRING s -> "'" ^ s ^ "'"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | STAR -> "*"
  | SEMI -> ";"
  | EQ -> "="
  | NEQ -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EOF -> "<eof>"

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit tok pos = tokens := (tok, pos) :: !tokens in
  let rec skip_line_comment i = if i < n && input.[i] <> '\n' then skip_line_comment (i + 1) else i in
  let rec loop i =
    if i >= n then emit EOF i
    else
      let c = input.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then loop (i + 1)
      else if c = '-' && i + 1 < n && input.[i + 1] = '-' then loop (skip_line_comment (i + 2))
      else if is_ident_start c then begin
        let j = ref (i + 1) in
        while !j < n && is_ident_char input.[!j] do incr j done;
        emit (IDENT (String.sub input i (!j - i))) i;
        loop !j
      end
      else if is_digit c || (c = '-' && i + 1 < n && is_digit input.[i + 1]) then begin
        let j = ref (i + 1) in
        while !j < n && is_digit input.[!j] do incr j done;
        (match int_of_string_opt (String.sub input i (!j - i)) with
        | Some v -> emit (INT v) i
        | None -> raise (Lex_error ("integer literal out of range", i)));
        loop !j
      end
      else if c = '\'' then begin
        let buf = Buffer.create 16 in
        let rec scan j =
          if j >= n then raise (Lex_error ("unterminated string literal", i))
          else if input.[j] = '\'' then
            if j + 1 < n && input.[j + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              scan (j + 2)
            end
            else j + 1
          else begin
            Buffer.add_char buf input.[j];
            scan (j + 1)
          end
        in
        let next = scan (i + 1) in
        emit (STRING (Buffer.contents buf)) i;
        loop next
      end
      else
        let two = if i + 1 < n then String.sub input i 2 else "" in
        match two with
        | "<>" -> emit NEQ i; loop (i + 2)
        | "<=" -> emit LE i; loop (i + 2)
        | ">=" -> emit GE i; loop (i + 2)
        | "!=" -> emit NEQ i; loop (i + 2)
        | _ -> (
            match c with
            | '(' -> emit LPAREN i; loop (i + 1)
            | ')' -> emit RPAREN i; loop (i + 1)
            | ',' -> emit COMMA i; loop (i + 1)
            | '.' -> emit DOT i; loop (i + 1)
            | '*' -> emit STAR i; loop (i + 1)
            | ';' -> emit SEMI i; loop (i + 1)
            | '=' -> emit EQ i; loop (i + 1)
            | '<' -> emit LT i; loop (i + 1)
            | '>' -> emit GT i; loop (i + 1)
            | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, i)))
  in
  loop 0;
  List.rev !tokens
