(** Cost model for physical plans, in page-read units ({!Stats.pages_of_bytes}
    and the per-operator charges of {!Exec_compiled}): a sequential scan costs
    the relation's page count — the *real* heap page count for a
    disk-backed table, so estimates track measured buffer-pool I/O — an
    index probe costs one page plus the pages of the matched rows (a
    member join's tuple-table probe, at most one row), and
    hash/nested-loop joins cost only their inputs. A tiny per-row CPU
    epsilon ({!cpu_per_row}) breaks page-count ties toward smaller
    intermediate results.

    Cardinalities come from live relation row counts (free in memory)
    combined with per-column facts: number of distinct values from a hash
    index when one exists, else from the table's last [ANALYZE] snapshot
    ({!Table_stats}), else textbook default selectivities (equality 1/10,
    inequality 9/10, range 1/3). *)

type est = {
  rows : float;  (** estimated output cardinality *)
  cost : float;  (** estimated total simulated page reads (plus CPU epsilon) *)
}

val cpu_per_row : float
(** 0.001 — the tie-breaking CPU charge per estimated row. *)

val pages_f : float -> float
(** Fractional-input version of {!Stats.pages_of_bytes}: rounds the byte
    estimate up to whole bytes, then applies the same integer page ceil
    the executors charge with, so estimate and charge agree exactly on
    boundary sizes. *)

val table_rows : Catalog.table -> float
(** Live row count. *)

val avg_row_bytes : Catalog.table -> float
(** Live mean simulated row footprint, falling back to the ANALYZE
    snapshot and then to 16 bytes for empty tables. *)

val col_ndv : Catalog.table -> string -> float option
(** Number of distinct values in a column: exact from a hash index when
    one exists, else from the ANALYZE snapshot (clamped to the live row
    count), else [None]. *)

val estimate : Plan.t -> est
(** Bottom-up estimate of a full plan. Agrees operator by operator with
    what {!Exec_compiled} charges, up to cardinality estimation error. *)
