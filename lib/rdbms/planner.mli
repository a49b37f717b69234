(** Translates parsed SQL into physical plans.

    Strategy (deterministic, in the spirit of a late-80s relational
    optimizer):
    - selections are pushed to the scans; an equality with a literal on an
      indexed column becomes an index scan;
    - FROM items are joined left to right; when an equi-join predicate
      links the next table to the tables already joined, the planner picks
      an index join if the next table has an index on the join column and
      a hash join otherwise; an index join whose equi-join predicates bind
      every column of the next table becomes a member join (one probe of
      the relation's tuple table per outer row); with no predicate it
      falls back to a nested loop (cross) join;
    - remaining predicates become residual filters on the topmost join. *)

exception Plan_error of string

(** How FROM items are ordered into a join sequence. *)
type join_order =
  | Syntactic
      (** left to right as written — what the Knowledge Manager's
          left-to-right SIP expects, and the default *)
  | Greedy
      (** smallest (estimated post-filter) table first, then repeatedly
          the cheapest table connected by an equi-join edge *)
  | Costed
      (** dynamic-programming enumeration of left-deep orders minimizing
          the {!Cost} estimate (simulated page reads), with cost-based
          access-path selection (seq vs index vs range scan, index probe
          vs hash join) and hash-join build-side selection; uses ANALYZE
          statistics when available and falls back to a greedy order
          beyond 12 FROM items *)

val plan_query : ?join_order:join_order -> Catalog.t -> Sql_ast.query -> Plan.t

val plan_select_stmt :
  ?join_order:join_order -> Catalog.t -> Sql_ast.query -> Sql_ast.order_key list -> Plan.t
(** Plan a top-level SELECT including ORDER BY. *)
