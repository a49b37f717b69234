(** The system catalog: named tables, their relations and indexes. Table
    and index names are case-insensitive. *)

type table = {
  tbl_name : string;
  tbl_relation : Relation.t;
  mutable tbl_indexes : Index.t list;
  mutable tbl_ordered : Ordered_index.t list;
  mutable tbl_stats : Table_stats.t option;
      (** Optimizer statistics from the last [ANALYZE]; [None] until the
          table has been analyzed. *)
  mutable tbl_version : int;
      (** This record's plan version, bumped by CREATE/DROP INDEX on the
          table, {!set_stats} (ANALYZE) and {!drop_table}. A cached plan
          records the (record, version) pair of every table it depends on
          and stays valid while each pair still matches: DDL on one table
          never invalidates plans over others, and a re-created table is
          a new record, so no plan over the dropped one can match it.
          Row changes, TRUNCATE included, do not bump it. *)
}

type t

val create : unit -> t

val create_table : t -> string -> Schema.t -> (table, string) result
(** Fails if a table of that name already exists. *)

val drop_table : t -> string -> (unit, string) result
(** Drops the table and all its indexes, and bumps the dropped record's
    version. Fails if absent. *)

val table_exists : t -> string -> bool
val find_table : t -> string -> table option
val find_table_exn : t -> string -> table
(** Raises {!Sql_error.Sql_error} (= [Engine.Sql_error]) with a
    user-facing message if absent. *)

val create_index : t -> name:string -> table:string -> column:string -> (Index.t, string) result
(** Fails if the index name is taken, the table is missing, or the column
    does not exist. *)

val create_ordered_index :
  t -> name:string -> table:string -> column:string -> (Ordered_index.t, string) result

val find_ordered_index : t -> table:string -> column:string -> Ordered_index.t option

val drop_index : t -> string -> (unit, string) result

val find_index : t -> table:string -> column:string -> Index.t option
(** Any index on the given table column. *)

val set_stats : table -> Table_stats.t -> unit
(** Installs fresh ANALYZE statistics and bumps the table's version, so
    cached plans over it are re-planned under the new estimates. *)

val tables : t -> table list
(** All tables sorted by name. *)

(** {1 Snapshot support (MVCC-lite)} *)

val set_version_wiring : t -> (string -> Relation.version_ctl option) option -> unit
(** Install the per-table versioning decision (the engine wires its
    snapshot registry through this). Existing tables are re-wired under
    the new decision; future tables are wired as they are created. *)

val overlay : t -> as_of:(Relation.t -> Relation.t option) -> t
(** A read-only catalog view for one snapshot: tables for which [as_of]
    returns a frozen version are presented as bare relations (no indexes
    — index structures track live rows — but with the live ANALYZE
    statistics for cost estimates); unmutated tables share the live
    record. Plans built against an overlay must not be cached, and no
    DDL/DML may run against it. *)
