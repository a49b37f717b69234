(** Physical query plans. Column references are resolved to positions in
    each operator's output header at plan time, so execution does no name
    lookups. *)

type header_col = {
  h_qual : string;  (** lowercased table alias this column came from ("" after projection) *)
  h_name : string;  (** lowercased column name *)
  h_type : Datatype.t;
}

type header = header_col array

(** Scalar expressions resolved against a header. *)
type rexpr =
  | R_col of int
  | R_lit of Value.t
  | R_param of int
      (** [?N]: argument [N - 1] of the execution. A plan with parameters
          is planned once and run with each execution's arguments *)

(** Conditions resolved against a header. *)
type rcond =
  | R_cmp of rexpr * Sql_ast.cmp_op * rexpr
  | R_and of rcond * rcond
  | R_or of rcond * rcond
  | R_not of rcond

(** One output column of an aggregation, over input-header positions. *)
type agg_output =
  | O_group of int  (** a grouping column, passed through *)
  | O_count_star
  | O_count of int
  | O_sum of int  (** integer column *)
  | O_min of int
  | O_max of int

type t =
  | Seq_scan of { table : Catalog.table; header : header; filter : rcond option }
  | Index_scan of {
      table : Catalog.table;
      index : Index.t;
      key : rexpr;  (** an [R_lit] or an [R_param] *)
      header : header;
      filter : rcond option;  (** residual beyond the index equality *)
    }
  | Range_scan of {
      table : Catalog.table;
      oindex : Ordered_index.t;
      lo : (rexpr * bool) option;
          (** bound ([R_lit] or [R_param]), inclusive? *)
      hi : (rexpr * bool) option;
      header : header;
      filter : rcond option;  (** residual beyond the range *)
    }
  | Nl_join of { left : t; right : t; header : header; cond : rcond option }
      (** nested-loop join; [cond] is over the concatenated header *)
  | Hash_join of {
      left : t;
      right : t;
      header : header;
      left_keys : int list;   (** positions in left header *)
      right_keys : int list;  (** positions in right header *)
      residual : rcond option;  (** over the concatenated header *)
      build_left : bool;
          (** build the hash table on the left input and probe with the
              right (the costed planner's choice when the left side is
              estimated smaller); output columns stay left-then-right *)
    }
  | Index_join of {
      left : t;
      table : Catalog.table;
      index : Index.t;
      outer_pos : int;  (** position in left header probed into the index *)
      header : header;
      residual : rcond option;  (** over the concatenated header *)
    }
  | Member_join of {
      left : t;
      table : Catalog.table;
      outer_pos : int array;
          (** per inner column, in table order, the left-header position
              bound to it: the probe key is a whole candidate row *)
      header : header;
      residual : rcond option;  (** over the concatenated header *)
    }
      (** a join whose equality edges bind every column of the inner
          table: each outer row probes the relation's own tuple table for
          the one row it names, with no index bucket to filter *)
  | Anti_join of {
      left : t;
      table : Catalog.table;  (** inner table of a NOT EXISTS subquery *)
      header : header;  (** equals the left header *)
      key_outer : int list;  (** equality key positions in the left header *)
      key_inner : int list;  (** corresponding positions in the inner table *)
      residual : rcond option;
          (** over the concatenation (left row, inner row); a left row
              survives iff no inner row matches keys and residual *)
    }
  | Project of { input : t; header : header; exprs : rexpr array }
  | Count_star of { input : t; header : header }
  | Aggregate of {
      input : t;
      header : header;
      group_keys : int list;  (** positions in the input header *)
      outputs : agg_output array;
    }  (** hash aggregation (GROUP BY); empty [group_keys] = one group *)
  | Distinct of t
  | Union_all of t * t
  | Union_distinct of t * t
  | Except_distinct of t * t
  | Sort of { input : t; keys : (int * bool) list  (** (position, descending) *) }

val header_of : t -> header

val eval_rexpr : Value.t array -> rexpr -> Tuple.t -> Value.t
val eval_rcond : Value.t array -> rcond -> Tuple.t -> bool
(** Evaluate against a row, reading [R_param n] from [args.(n - 1)]. *)

val compile_rexpr : Value.t array ref -> rexpr -> Tuple.t -> Value.t
val compile_rcond : Value.t array ref -> rcond -> Tuple.t -> bool
(** Like {!eval_rexpr}/{!eval_rcond} but dispatching on the AST once at
    compile time; the closures read the arguments from the cell at each
    call, so one compiled form serves every execution. *)

val op_label : t -> string
(** One-line description of the operator itself (no children); the lines
    of {!describe} and the node labels of EXPLAIN ANALYZE profiles. *)

val children : t -> t list
(** The sub-plans an operator's execution recurses into, in plan order.
    [Index_join], [Member_join] and [Anti_join] reach their inner table
    through the operator itself, so only the outer input is a child. *)

val describe : t -> string
(** Multi-line operator-tree rendering (EXPLAIN output). *)
