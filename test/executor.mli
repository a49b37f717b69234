(** Reference plan executor: a tuple-at-a-time interpreter that walks the
    plan AST on every call. The engine runs plans through
    {!Rdbms.Exec_compiled}; this module is the oracle its differential
    test battery compares against (rows, row order, {!Rdbms.Stats}
    charges and profile trees). Every operator charges the simulated
    page-I/O cost model as it runs; aggregation shares
    {!Rdbms.Exec_compiled.aggregate_rows}. *)

open Rdbms

val run : Stats.t -> Plan.t -> Tuple.t list
(** Evaluates a plan to its result rows (in deterministic order: scans
    produce insertion order; joins are left-driven). *)

val run_profiled : Stats.t -> Plan.t -> Tuple.t list * Profile.t
(** Like {!run}, but also builds a per-operator {!Profile.t} tree: each
    node carries the operator's own simulated-I/O charges (so tree sums
    equal the statement's {!Stats} delta), its output cardinality, and its
    inclusive wall time. *)
