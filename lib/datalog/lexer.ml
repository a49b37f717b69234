type pos = { line : int; col : int }

let pos_to_string p = Printf.sprintf "%d:%d" p.line p.col

type token =
  | LIDENT of string
  | UIDENT of string
  | INT of int
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | IMPLIES
  | QUERY
  | CMP of Ast.cmp
  | EOF

exception Lex_error of string * pos

let token_to_string = function
  | LIDENT s | UIDENT s -> s
  | INT n -> string_of_int n
  | STRING s -> "\"" ^ s ^ "\""
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | IMPLIES -> ":-"
  | QUERY -> "?-"
  | CMP op -> Ast.cmp_to_string op
  | EOF -> "<eof>"

let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_lower c || is_upper c || is_digit c

(* Byte offsets of the first character of each line, so any byte offset can
   be turned into a 1-based line:col pair with a binary search. *)
let line_starts input =
  let n = String.length input in
  let starts = ref [ 0 ] in
  for i = 0 to n - 1 do
    if input.[i] = '\n' then starts := (i + 1) :: !starts
  done;
  Array.of_list (List.rev !starts)

let pos_of_offset starts off =
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= off then lo := mid else hi := mid - 1
  done;
  { line = !lo + 1; col = off - starts.(!lo) + 1 }

let tokenize input =
  let n = String.length input in
  let starts = line_starts input in
  let pos i = pos_of_offset starts i in
  let tokens = ref [] in
  let emit tok i = tokens := (tok, pos i) :: !tokens in
  let rec skip_comment i = if i < n && input.[i] <> '\n' then skip_comment (i + 1) else i in
  let rec loop i =
    if i >= n then emit EOF i
    else
      let c = input.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then loop (i + 1)
      else if c = '%' then loop (skip_comment (i + 1))
      else if is_lower c || is_upper c then begin
        let j = ref (i + 1) in
        while !j < n && is_ident_char input.[!j] do incr j done;
        let word = String.sub input i (!j - i) in
        emit (if is_lower c then LIDENT word else UIDENT word) i;
        loop !j
      end
      else if is_digit c || (c = '-' && i + 1 < n && is_digit input.[i + 1]) then begin
        let j = ref (i + 1) in
        while !j < n && is_digit input.[!j] do incr j done;
        (match int_of_string_opt (String.sub input i (!j - i)) with
        | Some v -> emit (INT v) i
        | None -> raise (Lex_error ("integer literal out of range", pos i)));
        loop !j
      end
      else if c = '"' then begin
        let buf = Buffer.create 16 in
        let rec scan j =
          if j >= n then raise (Lex_error ("unterminated string", pos i))
          else if input.[j] = '"' then j + 1
          else begin
            Buffer.add_char buf input.[j];
            scan (j + 1)
          end
        in
        let next = scan (i + 1) in
        emit (STRING (Buffer.contents buf)) i;
        loop next
      end
      else if c = ':' && i + 1 < n && input.[i + 1] = '-' then begin
        emit IMPLIES i;
        loop (i + 2)
      end
      else if c = '<' && i + 1 < n && input.[i + 1] = '-' then begin
        emit IMPLIES i;
        loop (i + 2)
      end
      else if c = '<' && i + 1 < n && input.[i + 1] = '>' then begin
        emit (CMP Ast.C_neq) i;
        loop (i + 2)
      end
      else if c = '<' && i + 1 < n && input.[i + 1] = '=' then begin
        emit (CMP Ast.C_le) i;
        loop (i + 2)
      end
      else if c = '>' && i + 1 < n && input.[i + 1] = '=' then begin
        emit (CMP Ast.C_ge) i;
        loop (i + 2)
      end
      else if c = '<' then begin
        emit (CMP Ast.C_lt) i;
        loop (i + 1)
      end
      else if c = '>' then begin
        emit (CMP Ast.C_gt) i;
        loop (i + 1)
      end
      else if c = '=' then begin
        emit (CMP Ast.C_eq) i;
        loop (i + 1)
      end
      else if c = '?' && i + 1 < n && input.[i + 1] = '-' then begin
        emit QUERY i;
        loop (i + 2)
      end
      else if c = '\\' && i + 1 < n && input.[i + 1] = '+' then begin
        (* Prolog-style negation, normalized to the LIDENT "not" *)
        emit (LIDENT "not") i;
        loop (i + 2)
      end
      else
        match c with
        | '(' -> emit LPAREN i; loop (i + 1)
        | ')' -> emit RPAREN i; loop (i + 1)
        | ',' -> emit COMMA i; loop (i + 1)
        | '.' -> emit DOT i; loop (i + 1)
        | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, pos i))
  in
  loop 0;
  List.rev !tokens
