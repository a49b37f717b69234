(** Hand-written lexer for the SQL subset. Keywords are case-insensitive;
    string literals use single quotes with [''] as the escaped quote. *)

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
(** Message and byte offset. *)

val tokenize : string -> (token * int) list
(** All tokens with their starting byte offsets, ending with [EOF].
    Raises {!Lex_error} on an invalid character, an unterminated string
    or an integer literal that does not fit in an [int]. *)

val token_to_string : token -> string
