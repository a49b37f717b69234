(** The engine's executor: translates a physical plan once into a tree of
    OCaml closures exchanging {!Batch.t} buffers, then re-runs the closure
    with no plan-AST dispatch — built for the LFP inner loop, where the
    same handful of prepared plans execute hundreds of times.

    Contract, checked by a differential battery against a tuple-at-a-time
    reference interpreter that lives with the tests: same result rows in
    the same order, same {!Stats} charges at the same points, and the same
    EXPLAIN ANALYZE profile trees. Every operator charges the simulated
    page-I/O cost model (see {!Stats}); a scan is charged the relation's
    {!Relation.pages} whether or not a heap backs it.

    Set operators skip work their inputs make redundant: a stored relation
    on the right of EXCEPT is probed through its own tuple table instead
    of being hashed, and a left input that is a stored relation or a
    DISTINCT needs no dedupe set. That is the shape of the semi-naive
    loop's fused rule variant, [(SELECT DISTINCT ...) EXCEPT (SELECT *
    FROM member)], which then costs one membership probe per row. *)

type t
(** A compiled plan. The engine {!Stats} to charge are captured at compile
    time, so a compiled plan is invalidated together with the plan it came
    from (the prepared-statement cache does this). *)

val compile : Stats.t -> Plan.t -> t
(** One-time translation of the plan into closures. Does not touch data or
    charge any I/O; all charging happens per {!run}. *)

val run : t -> Tuple.t list
val run_batch : t -> Batch.t
(** Execute, charging the captured {!Stats}. *)

val run_profiled : t -> Tuple.t list * Profile.t
val run_profiled_batch : t -> Batch.t * Profile.t
(** Like {!run}, but also builds the per-operator {!Profile.t} tree, whose
    counter sums equal the statement's Stats delta. *)

val aggregate_rows : Tuple.t list -> int list -> Plan.agg_output array -> Tuple.t list
(** Hash aggregation over materialized rows (GROUP BY semantics, group
    order = first appearance; empty [group_keys] = one group, which on
    empty input yields a single zero row iff every output is a count).
    The reference interpreter aggregates with it too. *)
