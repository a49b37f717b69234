(** The Stored D/KB manager (paper §3.2.3, §4.1).

    The intensional database is persisted in the DBMS itself as four
    relations (plus the extensional data dictionary):

    - [rulesource (ruleid, headpredname, ruletext)] — source form of every
      stored rule, indexed on [headpredname];
    - [reachablepreds (frompredname, topredname)] — the transitive closure
      of the PCG of the stored rules (the {e compiled form}), indexed on
      [frompredname];
    - [idb_tables (tablename, arity)] / [idb_columns (tablename, colnumber,
      coltype)] — the intensional data dictionary (column types of derived
      predicates);
    - [edb_tables (tablename, arity)] / [edb_columns (tablename, colnumber,
      colname, coltype)] — the extensional data dictionary (schemas of base
      relations).

    All access goes through SQL so that dictionary reads and rule
    extraction are charged like any other DBMS work — this is what Tests
    1–3 and 8–9 measure. *)

exception Corrupt of string
(** Raised when a stored-D/KB relation holds a row this module cannot
    decode (wrong shape, unknown type name, unparsable rule text) — i.e.
    the dictionaries were edited through raw SQL. {!Session} maps it to
    [Error] at its result boundaries. *)

type t

val init : Rdbms.Engine.t -> t
(** Creates the six tables and their indexes if not present. *)

val engine : t -> Rdbms.Engine.t

(** {1 Extensional dictionary} *)

val register_base : t -> string -> (string * Rdbms.Datatype.t) list -> unit
(** Records a base relation's schema in the EDB dictionary. *)

val base_schema : t -> string -> (string * Rdbms.Datatype.t) list option
(** Reads the EDB dictionary (via SQL). *)

val base_predicates : t -> string list

(** {1 Intensional dictionary} *)

val put_derived_types : t -> string -> Rdbms.Datatype.t list -> unit
(** Upserts a derived predicate's inferred column types. *)

val derived_types : t -> string -> Rdbms.Datatype.t list option

val read_dictionaries :
  t -> base:string list -> derived:string list ->
  (string * Rdbms.Datatype.t list) list * (string * Rdbms.Datatype.t list) list
(** [t_readdict]'s work: reads EDB entries for [base] and IDB entries for
    [derived] with one SQL query per predicate (indexed). Returns (base
    types, derived types); missing predicates are omitted. *)

(** {1 Rule storage} *)

val store_rule : t -> Datalog.Ast.clause -> int
(** Appends a rule in source form, returning its ruleid. Identical rule
    text under the same head is not duplicated (its existing id is
    returned). *)

val rule_count : t -> int
val stored_rules : t -> Datalog.Ast.clause list
(** All stored rules, parsed (mainly for tests and inspection). *)

val replace_reachable : t -> string -> string list -> unit
(** Replaces the [reachablepreds] rows with the given source predicate. *)

val reachable_of : t -> string -> string list
val reachable_pair_count : t -> int

val extract_rules_for : t -> string list -> Datalog.Ast.clause list
(** The §4.1 extraction: all stored rules whose head is one of the given
    predicates or reachable from one of them, via indexed joins of
    [rulesource] with [reachablepreds]. *)

val has_rules_for : t -> string -> bool

val dependents_of : t -> string -> string list
(** Predicates from which the given one is reachable (reads
    [reachablepreds] by its [topredname] index); used by the incremental
    update to find upstream predicates whose closure must be refreshed. *)

val rules_with_head : t -> string list -> Datalog.Ast.clause list
(** Stored rules whose head is one of the given predicates (one indexed
    probe per predicate) — the heads-only extraction the incremental
    update needs. *)

(** {1 Materialized-view registry}

    [matviews (predname, strategy)] records which derived predicates are
    kept materialized ([mat__p] tables) and the maintenance strategy
    assigned to each ("dred" or "recompute"). Persisted in
    the DBMS like every other dictionary so snapshots restore it. *)

val register_matview : t -> string -> string -> unit
(** Upserts the (predicate, strategy) registration. *)

val unregister_matview : t -> string -> unit

val matview_strategy : t -> string -> string option

val matviews : t -> (string * string) list
(** All registrations, ordered by predicate name. *)

val clear_matviews : t -> unit
