(** The engine-state sanitizer: audits catalog-owned structures against
    first principles and reports violations instead of trusting the
    incremental bookkeeping.

    - {!check_catalog} is the structural audit — relation row/tuple-table
      agreement, {!Tuple_tbl} occupancy and cached hashes, hash-index
      buckets versus live rows (counts, bytes, distinct keys), ordered
      indexes, statistics-snapshot sanity. It is cheap enough that the
      engine's [sanitize] flag runs it after every statement.
    - {!check_storage} audits the buffer pool against the heaps.

    A materialized view is audited one level up, against a from-scratch
    evaluation of its predicate ([Core.Session.check]). *)

type violation = {
  v_table : string;   (** the table (or index owner) the violation is in *)
  v_message : string;
}

val violation_to_string : violation -> string

val check_catalog : Catalog.t -> violation list
(** Structural audit of every table: safe after any single statement. *)

val check_storage : pool:Buffer_pool.t -> heaps:(string * Heap.t) list -> violation list
(** Paged-storage audit: the pool's frame accounting is internally
    consistent (map/frame agreement, no leaked pins) and matches the
    heaps' page counts (no file holds more resident frames than pages —
    the frame leak a TRUNCATE/DROP without invalidation would cause). *)
