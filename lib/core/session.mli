(** The testbed facade: one object tying together the DBMS engine, the
    Stored D/KB, and the Workspace D/KB — the "typical session" of paper
    §3.1. Create a session, define base relations, load facts and rules,
    query, and persist the workspace into the Stored D/KB. *)

type t

val create : unit -> t

val of_engine : Rdbms.Engine.t -> t
(** A fresh session over an existing engine (empty workspace, its own
    counters and session id). Several sessions may share one engine —
    the server multiplexes connections this way; each session's
    statements are charged to its own {!db_stats} and tagged with its
    {!session_id} in trace events. *)

val engine : t -> Rdbms.Engine.t
val session_id : t -> int
(** Unique among sessions of the same engine. *)

val stored : t -> Stored_dkb.t
val workspace : t -> Workspace.t

val db_stats : t -> Rdbms.Stats.t
(** This session's cumulative execution counters — only the statements
    issued through this session, not other sessions sharing the engine;
    snapshot with {!Rdbms.Stats.copy} and compare with
    {!Rdbms.Stats.diff}. *)

val engine_stats : t -> Rdbms.Stats.t
(** The shared engine's counters: every session's work interleaved. *)

val rule_epoch : t -> int
(** Bumped whenever the rule base (workspace or stored) changes; used by
    {!Precompiled} for cache invalidation. *)

val changed_since : t -> int -> string list
(** Head predicates of rules changed after the given epoch. *)

(** {1 Extensional database} *)

val define_base :
  t -> string -> (string * Rdbms.Datatype.t) list -> ?indexes:string list -> unit ->
  (unit, string) result
(** Creates the base relation, registers it in the extensional data
    dictionary, and builds hash indexes on the named columns. *)

val add_fact : t -> string -> Rdbms.Value.t list -> (unit, string) result
(** Inserts one tuple into a base relation (via SQL). With materialized
    views registered, routes through the maintenance layer instead. *)

val add_facts : t -> string -> Rdbms.Value.t list list -> (int, string) result
(** Bulk insert, batched; returns the number of new tuples. With
    materialized views registered, routes through the maintenance
    layer (large batches fall back to a full view refresh). *)

val base_count : t -> string -> int

(** {1 Incremental view maintenance}

    See {!Incremental}. The session-level maintenance mode (default
    [Auto]) picks the per-predicate strategy at {!materialize} time and
    gates whether {!apply_facts} maintains or recomputes. *)

val maintenance_mode : t -> Incremental.mode
val set_maintenance : t -> Incremental.mode -> unit

val materialize : t -> string -> ((string * Incremental.strategy) list, string) result
(** Materialize a derived predicate (and its dependencies) under the
    session's maintenance mode. *)

val views : t -> (string * string) list
(** Registered (predicate, strategy) pairs. *)

val view_rows : t -> string -> (Rdbms.Tuple.t list, string) result

val refresh_views : t -> (unit, string) result
(** Truncate and fully re-evaluate every registered view. *)

val apply_facts :
  t ->
  inserts:(string * Rdbms.Value.t list) list ->
  deletes:(string * Rdbms.Value.t list) list ->
  unit ->
  (Incremental.apply_report, string) result
(** Apply a batch of base-fact changes, maintaining registered views
    incrementally (see {!Incremental.apply}); emits a ["maint"] trace
    event when a sink is attached. *)

val insert_facts :
  t -> string -> Rdbms.Value.t list list -> (Incremental.apply_report, string) result

val delete_facts :
  t -> string -> Rdbms.Value.t list list -> (Incremental.apply_report, string) result

(** {1 Workspace rules} *)

val add_rule : t -> string -> (unit, string) result
(** Parses one clause into the workspace. *)

val load_rules : t -> string -> (unit, string) result
(** Parses a whole program text into the workspace. *)

val clear_workspace : t -> unit

(** {1 Querying} *)

type options = {
  optimize : Compiler.optimize_mode;
  strategy : Runtime.strategy;
  index_derived : bool;
  max_iterations : int;  (** LFP iteration cap per clique *)
  join_order : Rdbms.Planner.join_order;
      (** how the DBMS orders joins in the generated SQL; applied to the
          engine for the duration of the query and restored afterwards *)
}

val default_options : options
(** Semi-naive, no optimization, no derived-table indexes, a 100_000
    iteration cap, syntactic join order — the paper's baseline
    configuration. *)

type answer = {
  compiled : Compiler.compiled;
  run : Runtime.report;
  total_ms : float;  (** t_c + t_e *)
}

val query : t ->
  ?options:options ->
  ?on_iteration:(Runtime.iteration_profile -> unit) ->
  string ->
  (answer, string) result
(** Compiles and executes a goal given as text (e.g.
    ["ancestor(john, W)"] or ["?- ancestor(john, W)."]). Never raises for
    a failed query: evaluation errors — including an exceeded iteration
    cap, a corrupt Stored D/KB ({!Stored_dkb.Corrupt}), and internal
    [Failure]s — come back as [Error msg]. [on_iteration] is called after
    every LFP iteration (in addition to any attached trace sink) — the
    server pumps pending snapshot reads through it so long derivations
    never block readers. *)

val query_goal : t ->
  ?options:options ->
  ?on_iteration:(Runtime.iteration_profile -> unit) ->
  Datalog.Ast.atom ->
  (answer, string) result

val answer_rows : answer -> (string list * Rdbms.Tuple.t list)
(** Column names and rows of an answer. *)

(** {1 Raw SQL and snapshot transactions}

    The wire server's entry points. All of them charge this session's
    counters and tag trace events with its id. *)

val sql : t -> string -> (Rdbms.Engine.result, string) result
(** Execute one SQL statement (through the engine's statement cache). *)

val begin_snapshot : t -> (int, string) result
(** Open a snapshot transaction pinning the current committed state;
    returns its timestamp. See {!Rdbms.Engine.begin_snapshot}. *)

val end_snapshot : t -> int -> (unit, string) result
(** Release the snapshot and prune the relation versions only it could
    still reach. *)

val snapshot_query :
  t -> ts:int -> string -> (string list * Rdbms.Tuple.t list, string) result
(** Run a SELECT against the state as of the snapshot — never blocked
    by, and never blocking, concurrent writers on the same engine.
    Non-SELECT statements are refused (snapshots are read-only). *)

(** {1 Stored D/KB updates} *)

val update_stored :
  t -> ?compiled_storage:bool -> ?clear:bool -> unit -> (Update.report, string) result
(** Persists the workspace rules (paper §4.3). [clear] (default false)
    empties the workspace afterwards. If materialized views are
    registered they are rebuilt against the new rule base. *)

(** {1 Inspection} *)

val check : t -> Datalog.Lint.diagnostic list
(** The [.check] audit: lints the combined rule base (workspace clauses
    with their source positions, plus stored rules not already in the
    workspace) against the EDB dictionary's base schemas, runs the full
    engine sanitizer ({!Rdbms.Engine.check_invariants}), and compares
    each materialized view with a from-scratch LFP of its predicate over
    the stored rules. Each invariant violation, and each view with a
    missing or spurious tuple, surfaces as an [E301] error diagnostic
    named after the offending table. Sorted errors-first. *)

val explain : t -> ?options:options -> string -> (string, string) result
(** Compiles a goal and renders the evaluation order list and the
    generated SQL program without executing it. *)

(** {1 Persistence} *)

val save : t -> string -> (unit, string) result
(** Persists the whole D/KB — base relations, indexes, and the Stored
    D/KB's rule and dictionary tables — to a file as a SQL script. The
    (memory-resident) workspace is not saved; call {!update_stored}
    first if its rules should survive. *)

val restore : string -> (t, string) result
(** Reopens a saved D/KB in a fresh session with an empty workspace. *)

(** {1 Durability: write-ahead logging}

    With a WAL attached, every committed data-modifying statement is
    appended to the log before the commit returns; {!recover} rebuilds
    the session from the last checkpoint plus the log, truncating a
    torn tail left by a crash. See {!Rdbms.Wal}. *)

val attach_wal : t -> string -> (unit, string) result
(** Open (or create) the log file at the given path and install it as
    the engine's commit hook. Replaces (and closes) any previous WAL. *)

val wal : t -> Rdbms.Wal.t option

val checkpoint : t -> db:string -> (unit, string) result
(** {!save} the whole D/KB to [db], write back every dirty buffer-pool
    page, then truncate the WAL: the checkpoint subsumes the logged
    history. Errors if no WAL is attached or a transaction is open. *)

val recover :
  ?storage:string ->
  ?pool_pages:int ->
  db:string ->
  wal:string ->
  unit ->
  (t * int, string) result
(** Rebuild a session from checkpoint [db] (a fresh D/KB if the file is
    missing) plus the WAL's valid record prefix, then re-attach the WAL
    so the recovered session keeps logging. [storage] re-attaches paged
    storage at that directory before replay (heaps are rewritten from
    the checkpoint state — they may be ahead of it if pages were evicted
    after the last checkpoint, and replay must start from the dump).
    Returns the session and the number of records replayed. *)

(** {1 Paged storage}

    See {!Rdbms.Engine.attach_storage}. The session persists user base
    relations and the Stored D/KB dictionary to slotted-page heap files;
    name-mangled engine-internal tables (the LFP scratch tables, the
    [mat__] maintenance tables) stay purely in memory. *)

val attach_storage :
  t -> dir:string -> ?pool_pages:int -> ?mode:[ `Auto | `Overwrite ] -> unit ->
  (unit, string) result
(** Put the session's persistent tables on disk under [dir] (created if
    missing) behind a shared buffer pool (default 64 frames). Errors if
    storage is already attached. *)

(** {1 Observability: structured tracing}

    A {!Trace} sink attaches like the WAL does. While attached it
    receives JSONL events for every SQL statement (begin/end, with the
    statement's {!Rdbms.Stats} delta), every plan build, every LFP
    iteration (per-member delta cardinalities, per-phase simulated I/O),
    and every D/KB goal (begin/end). *)

val attach_trace : t -> string -> (unit, string) result
(** Open (or create, append) the JSONL trace file at the given path and
    install it as the engine's trace hook and the runtime's iteration
    observer. Replaces (and closes) any previous trace sink. *)

val detach_trace : t -> unit
(** Close the trace sink and stop emitting events. No-op when none is
    attached. *)

val trace : t -> Trace.t option
