(** Compilation of Horn-clause rule bodies into SQL (paper §3.2.6). The
    generated text is what the Knowledge Manager embeds in the program
    fragment; the Run Time Library executes it against the DBMS.

    Positive body literals become FROM entries with aliases [t1, t2, ...];
    shared variables and constants become WHERE equalities; negated
    literals become NOT EXISTS subqueries with aliases [n1, n2, ...]; the
    head's arguments become the SELECT DISTINCT items. *)

exception Codegen_error of string

val select_for_rule :
  columns:(string -> string list) ->
  ?table_of:(int -> string) ->
  ?head_columns:string list ->
  Ast.clause ->
  Rdbms.Sql_ast.query
(** [select_for_rule ~columns rule] compiles a rule body.

    [columns p] must give the column names of the DBMS table holding
    predicate [p] (used for both base and derived predicates).

    [table_of i] gives the table actually read for the [i]-th body
    literal (0-based), defaulting to the literal's predicate name; the
    semi-naive runtime uses it to substitute delta tables. Column names
    are still taken from the predicate, so a delta table must share its
    predicate's schema.

    [head_columns] names the output columns (default [c1, c2, ...]).

    Raises {!Codegen_error} on unsafe rules (unbound head or negated
    variables) or facts. *)

val insert_for_rule :
  columns:(string -> string list) ->
  ?table_of:(int -> string) ->
  target:string ->
  Ast.clause ->
  string
(** [INSERT INTO target <select>] as SQL text. *)

val insert_fact : target:string -> Ast.clause -> string
(** [INSERT INTO target VALUES (...)] for a ground fact. *)

val fact_values : Ast.clause -> string
(** The target-independent [VALUES (...)] body of a ground fact's INSERT,
    for callers that pick the destination table at run time. *)

val create_table :
  name:string -> types:Rdbms.Datatype.t list -> ?columns:string list -> unit -> string
(** [CREATE TABLE name (c1 t1, ...)] text. *)

val default_columns : int -> string list
(** [c1; c2; ...]. *)
