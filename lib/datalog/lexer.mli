(** Lexer for the Horn-clause rule language. [%] starts a line comment.
    Identifiers beginning with an uppercase letter or [_] are variables;
    lowercase identifiers are predicate names or string constants;
    double-quoted strings and integers are constants. *)

type pos = { line : int; col : int }
(** 1-based source position of the first character of a token. *)

val pos_to_string : pos -> string
(** ["line:col"]. *)

type token =
  | LIDENT of string  (** lowercase identifier *)
  | UIDENT of string  (** variable *)
  | INT of int
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | IMPLIES  (** [:-] or [<-] *)
  | QUERY    (** [?-] *)
  | CMP of Ast.cmp  (** [=], [<>], [<], [<=], [>], [>=] *)
  | EOF

exception Lex_error of string * pos

val tokenize : string -> (token * pos) list
(** Raises {!Lex_error} on an invalid character, an unterminated string
    or an integer literal that does not fit in an [int]. *)

val token_to_string : token -> string
