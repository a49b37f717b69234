(** Abstract syntax of the SQL subset understood by the testbed DBMS.

    The subset is what the paper's Knowledge Manager needs to emit:
    CREATE/DROP TABLE, CREATE/DROP INDEX, INSERT (VALUES and SELECT),
    DELETE (by condition, or by row membership in a subquery:
    [DELETE FROM t WHERE (c1, ..., cn) IN (SELECT ...)]), and SELECT with multi-table FROM, conjunctive/disjunctive
    comparison predicates, DISTINCT, COUNT( * ), UNION [ALL], EXCEPT/MINUS,
    and top-level ORDER BY. *)

type column_ref = {
  qualifier : string option;  (** table name or alias, e.g. [t1] in [t1.c2] *)
  column : string;
}

type literal =
  | L_int of int
  | L_str of string
  | L_param of int
      (** [?N] (N >= 1): a parameter whose value each execution supplies.
          It takes the type of the column it is compared with (or
          inserted into, or assigned to); see {!Engine.exec_prepared} *)

type scalar =
  | Col of column_ref
  | Lit of literal

type cmp_op =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type agg_fn =
  | Agg_count  (** COUNT(col) *)
  | Agg_sum
  | Agg_min
  | Agg_max

type select_item =
  | Sel_star                          (** [*] *)
  | Sel_expr of scalar * string option  (** expression [AS alias] *)
  | Sel_count_star of string option   (** [COUNT( * ) AS alias] *)
  | Sel_agg of agg_fn * scalar * string option
      (** [SUM(col) AS alias] etc.; SUM requires an integer column *)

type from_item = {
  table : string;
  alias : string option;
}

type cond =
  | Cmp of scalar * cmp_op * scalar
  | And of cond * cond
  | Or of cond * cond
  | Not of cond
  | Not_exists of select_core
      (** correlated anti-join subquery; only legal as a top-level
          conjunct of a WHERE clause *)

and select_core = {
  distinct : bool;
  items : select_item list;
  from : from_item list;
  where : cond option;
  group_by : column_ref list;
}


(** Set-level query expressions. [UNION]/[EXCEPT] have set (distinct)
    semantics; [UNION ALL] keeps duplicates. *)
type query =
  | Q_select of select_core
  | Q_union of query * query
  | Q_union_all of query * query
  | Q_except of query * query

type order_key = {
  target : [ `Name of string | `Position of int ];  (** output column *)
  descending : bool;
}

type stmt =
  | Create_table of { name : string; columns : (string * Datatype.t) list }
  | Drop_table of { name : string; if_exists : bool }
  | Truncate of { name : string }
      (** [TRUNCATE TABLE t]: remove all rows but keep the table, its
          schema and its indexes — unlike DROP+CREATE it keeps the table
          record and its version, so cached plans over it stay valid *)
  | Create_index of {
      index : string;
      table : string;
      column : string;
      ordered : bool;  (** [CREATE ORDERED INDEX]: range-capable index *)
    }
  | Drop_index of { index : string }
  | Insert_values of { table : string; rows : literal list list }
  | Insert_select of { table : string; query : query }
  | Delete of { table : string; where : cond option }
  | Delete_in of { table : string; columns : string list; query : query }
      (** [DELETE FROM t WHERE (c1, ..., cn) IN (SELECT ...)]: remove every
          row of [t] the subquery yields. [columns] must be [t]'s columns in
          schema order and the subquery's columns must match them in arity
          and type, so each result row is a whole candidate row of [t];
          rows absent from [t] are ignored *)
  | Update of {
      table : string;
      sets : (string * scalar) list;
          (** column := literal or another column of the same table *)
      where : cond option;
    }
  | Select of { query : query; order_by : order_key list }
  | Begin
      (** [BEGIN [TRANSACTION|WORK]]: open an explicit transaction; until
          COMMIT/ROLLBACK every data-modifying statement appends logical
          undo records that ROLLBACK applies in reverse *)
  | Commit
  | Rollback
  | Analyze of { table : string option }
      (** [ANALYZE [t]]: collect optimizer statistics ({!Table_stats.t})
          for one table, or for every catalog table when none is named *)

val tables_of_stmt : stmt -> string list
(** Lowercased, sorted, duplicate-free table names a SELECT,
    INSERT ... SELECT or DELETE ... IN (SELECT ...) subquery reads from (FROM clauses, including NOT EXISTS
    subqueries); [[]] for every other statement. Used for the plan
    cache's cardinality-bucketed keys. *)

val value_of_literal : literal -> Value.t
(** Raises {!Sql_error.Sql_error} on an [L_param], a parameter given no
    value. *)

val literal_of_value : Value.t -> literal

val param_indexes : stmt -> int list
(** The parameter numbers a statement uses, sorted and duplicate-free. *)

val bind : Value.t array -> stmt -> stmt
(** Replace every [?N] by the literal of [args.(N - 1)]: the statement
    as if written with its values (the form the WAL logs). *)

val cmp_op_to_string : cmp_op -> string
(** SQL spelling, e.g. ["<>"]. *)

val eval_cmp : cmp_op -> Value.t -> Value.t -> bool
(** Comparison on the {!Value.compare} order. *)

val agg_fn_to_string : agg_fn -> string
