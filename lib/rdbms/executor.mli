(** Reference plan executor: a tuple-at-a-time interpreter that walks the
    plan AST on every call. The engine runs plans through
    {!Exec_compiled}; this module is the oracle its differential test
    battery compares against (rows, row order, {!Stats} charges and
    profile trees), plus the aggregation helper both share. Every operator
    charges the simulated page-I/O cost model (see {!Stats}) as it runs. *)

val aggregate_rows : Tuple.t list -> int list -> Plan.agg_output array -> Tuple.t list
(** Hash aggregation over materialized rows (GROUP BY semantics, group
    order = first appearance; empty [group_keys] = one group, which on
    empty input yields a single zero row iff every output is a count).
    Shared with {!Exec_compiled} so both executors agree exactly. *)

val run : Stats.t -> Plan.t -> Tuple.t list
(** Evaluates a plan to its result rows (in deterministic order: scans
    produce insertion order; joins are left-driven). *)

val run_profiled : Stats.t -> Plan.t -> Tuple.t list * Profile.t
(** Like {!run}, but also builds a per-operator {!Profile.t} tree: each
    node carries the operator's own simulated-I/O charges (so tree sums
    equal the statement's {!Stats} delta), its output cardinality, and its
    inclusive wall time. *)
