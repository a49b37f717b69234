(** Execution counters and the simulated page-I/O cost model.

    The paper measured a disk-based commercial DBMS; this engine keeps its
    rows in memory, so in addition to wall-clock time every operator
    charges simulated page reads/writes as a hardware-independent cost
    metric. Pages are {!page_size} bytes; a relation of [n] bytes occupies
    [ceil (n / page_size)] pages (at least one when non-empty).

    [page_reads], [page_writes] and [index_probes] are only these
    simulated charges, by the same formula whether or not a table lives
    in a heap file. Measured I/O is a separate family that is never added
    in: the {!Buffer_pool}'s own hits, misses and writebacks. *)

val page_size : int
(** 4096 bytes. *)

val pages_of_bytes : int -> int
(** Simulated page count of a byte footprint (0 bytes -> 0 pages). *)

type t = {
  mutable page_reads : int;
  mutable page_writes : int;
  mutable index_probes : int;
  mutable rows_read : int;      (** tuples produced by scans/probes *)
  mutable rows_inserted : int;
  mutable rows_deleted : int;
  mutable tables_created : int;
  mutable tables_dropped : int;
  mutable tables_truncated : int;  (** TRUNCATE TABLE executions *)
  mutable statements : int;     (** SQL statements executed *)
  mutable statements_prepared : int;
      (** SQL texts parsed into prepared statements (via {!Engine.prepare}
          or a statement-cache fill) *)
  mutable plan_cache_hits : int;
      (** executions that reused a cached statement without re-lexing,
          re-parsing or re-planning *)
  mutable plan_cache_misses : int;
      (** executions that had to (re)build a plan: first use of a SQL
          text, or a cached plan invalidated by DDL or ANALYZE on a table
          it depends on *)
  mutable txns_committed : int;
      (** explicit transactions ended by COMMIT (autocommitted single
          statements are not counted) *)
  mutable txns_rolled_back : int;  (** explicit transactions ended by ROLLBACK *)
  mutable wal_records : int;  (** records appended to an attached {!Wal} *)
  mutable wal_bytes : int;  (** bytes appended to an attached {!Wal}, headers included *)
  mutable recoveries : int;  (** successful {!Wal.recover} runs that built this engine *)
  mutable tables_analyzed : int;  (** tables whose statistics ANALYZE collected *)
  mutable card_replans : int;
      (** cached plans rebuilt because a referenced table's cardinality
          moved to a different log2 bucket (LFP delta feedback, costed
          and greedy planning only) *)
  mutable maint_insertions : int;
      (** derived tuples added to materialized views by incremental
          maintenance (DRed insertion propagation) *)
  mutable maint_deletions : int;
      (** derived tuples removed from materialized views by incremental
          maintenance (DRed over-deletions that failed to rederive) *)
  mutable maint_rederived : int;
      (** over-deleted tuples DRed put back because an alternative
          derivation survived *)
  mutable maint_fallbacks : int;
      (** maintenance passes that fell back to a full recompute (large
          delta, unsupported program shape, or an affected
          recompute-strategy predicate) *)
  mutable snapshots_begun : int;  (** snapshot transactions opened *)
  mutable snapshot_queries : int;
      (** SELECTs executed against a pinned snapshot ({!Engine.exec_snapshot}) *)
  mutable versions_captured : int;
      (** copy-on-write relation versions frozen for snapshot readers *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val diff : t -> t -> t
(** [diff later earlier] — counter deltas between two snapshots. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val total_io : t -> int
(** [page_reads + page_writes]. *)

val to_string : t -> string
