(** The testbed DBMS facade: parse, plan and execute SQL against a catalog,
    with execution counters. This is the interface the Knowledge Manager's
    generated "embedded SQL" programs run against. *)

exception Sql_error of string
(** Raised for any SQL failure: lex/parse errors, unknown tables or
    columns, type mismatches, schema violations. A re-export of
    {!Sql_error.Sql_error} (so {!Catalog} can raise it from below the
    engine): catching either catches both. *)

type t

type prepared
(** A statement parsed once and executable many times. SELECT and
    INSERT ... SELECT statements additionally cache their planned operator
    tree, with the {!Catalog.table.tbl_version} of every table it depends
    on: the tables it reads, plus an INSERT ... SELECT's target. The plan
    is revalidated against those versions (and the engine's join-order
    mode) on each execution, and rebuilt after CREATE/DROP INDEX or
    ANALYZE on one of those tables, or after one of them was dropped (a
    re-created table is a new record); DDL on any other table leaves it
    valid. TRUNCATE bumps no version; under {!Planner.Syntactic} planning
    it therefore never invalidates plans, while the cost-aware modes
    ({!Planner.Greedy}/{!Planner.Costed}) additionally key the cached plan
    on a log2 bucket of each referenced table's cardinality, so a plan is
    rebuilt — counted in {!Stats.card_replans} — when a table it reads
    grows or shrinks by an order of magnitude (the LFP delta-feedback
    path). *)

type result =
  | Rows of { columns : string list; rows : Tuple.t list }
  | Affected of int  (** rows inserted or deleted *)
  | Done  (** DDL *)

val create : unit -> t
val catalog : t -> Catalog.t

val set_join_order : t -> Planner.join_order -> unit
(** Selects how the planner orders FROM items (default
    {!Planner.Syntactic}, matching the Knowledge Manager's left-to-right
    sideways information passing). *)

val join_order : t -> Planner.join_order

val stats : t -> Stats.t
(** Cumulative counters; callers may snapshot with {!Stats.copy} and take
    {!Stats.diff}. *)

(** {1 Sessions}

    Several sessions can share one engine (the server multiplexes
    connections this way). The engine itself keeps no per-session state
    beyond the identifiers handed out here; a session brackets each of
    its calls with {!with_session}, which routes the statement's counter
    deltas into the session's own {!Stats.t} sink and tags trace events
    with the session id. *)

val fresh_session_id : t -> int
(** Allocate a session id unique within this engine. *)

val with_session : t -> sid:int -> charge:Stats.t -> (unit -> 'a) -> 'a
(** Run [f] with statement deltas accumulated into [charge] (in addition
    to the engine-global counters) and [sid] attached to trace events.
    Saves and restores any enclosing session, so nested engines-within-
    engines compositions stay correct. *)

(** {1 Paged storage}

    With storage attached, each persisted base table is mirrored into a
    slotted-page heap file ([<dir>/<table>.heap]) behind a shared buffer
    pool, and whole-table scans read through it. Two families of I/O
    counters, never added together: {!Stats} keeps the simulated
    charges of the paper's cost model, the same for a heap-backed table
    as for an in-memory one, and the pool ({!buffer_pool}) measures its
    own hits, misses and dirty-page writebacks. Index structures stay in
    memory, and so do tables the [persist] predicate rejects (the LFP
    scratch tables). *)

val attach_storage :
  t ->
  dir:string ->
  ?pool_pages:int ->
  ?persist:(string -> bool) ->
  ?mode:[ `Auto | `Overwrite ] ->
  unit ->
  unit
(** Attach storage rooted at [dir] (created if missing; default pool of
    64 frames; [persist] defaults to every table). Existing persisted
    tables are attached immediately: under [`Auto] (the default) an
    empty relation over a non-empty heap file loads from it (reopening a
    directory) and anything else overwrites the heap from the relation;
    [`Overwrite] rewrites every heap unconditionally — recovery uses it,
    because evictions after the last checkpoint can leave heap files
    ahead of the state dump, and replay must start from exactly the
    dump. CREATE TABLE always starts its heap truncated either way.
    Raises [Sql_error] if storage is already attached. *)

val flush_storage : t -> unit
(** Write back every dirty pool frame (the checkpoint path calls this
    between the state dump and the WAL truncate). *)

val drop_page_cache : t -> unit
(** Flush, then drop every resident pool frame, so the next scans run
    against a cold cache (benchmark support; no-op without storage). *)

val close_storage : t -> unit
(** Flush and close every heap, detach the relations (their in-memory
    mirrors keep the rows), and drop the pool. *)

val buffer_pool : t -> Buffer_pool.t option
val storage_dir : t -> string option

val storage_heaps : t -> (string * Heap.t) list
(** The attached heaps, as (lowercased table name, heap). *)

(** {1 Transactions}

    [BEGIN] / [COMMIT] / [ROLLBACK] (as SQL text or via the functions
    below) bracket an explicit transaction. While one is open, every
    data-modifying statement appends logical undo records (per inserted /
    deleted row, per DDL action, the old contents of a truncated table);
    ROLLBACK applies them in reverse execution order. Outside a
    transaction the engine autocommits each statement. Every statement is
    atomic in both modes: a failure (e.g. a schema violation halfway
    through a multi-row INSERT) undoes that statement's partial effects
    before the [Sql_error] propagates.

    Undo application is deliberately not charged to the simulated page-I/O
    counters — the paper's cost model prices forward work only. *)

val begin_txn : t -> unit
(** Open an explicit transaction. Raises [Sql_error] if one is already
    open (no nesting). *)

val commit_txn : t -> unit
(** Close the transaction, publish its data-modifying statements to the
    commit hook (one script), bump {!Stats.t.txns_committed}. Raises
    [Sql_error] if none is open. *)

val rollback_txn : t -> unit
(** Undo the transaction's effects in reverse order and bump
    {!Stats.t.txns_rolled_back}. Raises [Sql_error] if none is open. *)

val in_transaction : t -> bool

val set_commit_hook : t -> (string -> unit) option -> unit
(** The durability hook ({!Wal.attach} installs the WAL's appender). It
    receives one [;]-separated SQL script per committed transaction — or
    per statement in autocommit — containing exactly the data-modifying
    statements that had an effect, re-printed via {!Sql_printer} so the
    script reparses to the executed statements. *)

val suspend_logging : t -> (unit -> 'a) -> 'a
(** Run a thunk with commit-hook publication disabled (undo logging stays
    active, so rollback remains correct). The LFP runtime wraps query
    evaluation in this: its temp tables are created and dropped within a
    single query, so logging their churn would bloat the WAL with work
    that replays to nothing. *)

val set_sanitize : t -> bool -> unit
(** Toggle the invariant sanitizer: with it on, every statement executed
    through {!exec}, {!exec_stmt} or {!exec_prepared} is followed by
    {!Invariants.check_catalog} plus a statement-cache audit (every cached
    plan depends only on table records the catalog still holds), and any
    violation raises {!Sql_error} (attributing the corruption to the
    statement that caused it). Defaults to the [DKB_SANITIZE] environment
    variable ([1]/[true]/[on]). *)

val sanitize_enabled : t -> bool

val check_invariants : t -> Invariants.violation list
(** On-demand run of the sanitizer's audit, regardless of the sanitize
    flag. *)

val exec : t -> string -> result
(** Execute one SQL statement given as text. When the statement cache is
    enabled (the default), the text is looked up in a transparent LRU
    cache of 512 entries keyed on the exact SQL string: repeat executions
    skip lexing, parsing and (for SELECT / INSERT ... SELECT) planning.
    DROP TABLE (or the undo of a CREATE TABLE) drops the cached plans that
    depend on the table at once, so no entry keeps its relation alive. Plain
    [INSERT ... VALUES] texts bypass the cache — bulk fact loads rarely
    repeat verbatim and would only evict useful entries.
    {!Stats.plan_cache_hits} / {!Stats.plan_cache_misses} count reuse. *)

val exec_stmt : t -> Sql_ast.stmt -> result
(** Execute an already-parsed statement (never cached). *)

val prepare : t -> string -> prepared
(** Parse [sql] once into a caller-held prepared statement. Counted in
    {!Stats.statements_prepared}. *)

val prepare_cached : t -> string -> prepared
(** The statement cache's entry for [sql], admitted if absent, so a
    caller that re-runs the same fixed texts across calls keeps their
    parses and plans (the incremental-maintenance loops). Texts the cache
    never admits (INSERT ... VALUES, transaction control, ANALYZE), and
    every text while the cache is disabled, get a fresh {!prepare}. *)

val exec_prepared : t -> prepared -> result
(** Execute a prepared statement, reusing its cached plan when still
    valid (see {!prepared}). *)

val set_statement_cache : t -> bool -> unit
(** Enable/disable all plan caching (enabled by default): the transparent
    statement cache used by {!exec} and {!explain}, and plan reuse inside
    caller-held {!prepared} values ({!exec_prepared} replans on every
    execution while disabled). Disabling also drops all transparently
    cached entries. Intended for ablation measurements. *)

val statement_cache_enabled : t -> bool
val statement_cache_size : t -> int
(** Number of SQL texts currently held in the transparent cache. *)

val clear_table : t -> string -> unit
(** TRUNCATE fast path: remove every row of a table while keeping its
    schema and indexes registered. Equivalent to executing
    [TRUNCATE TABLE name] but without going through SQL text. *)

val swap_tables : t -> string -> string -> unit
(** [swap_tables t a b] exchanges the rows of tables [a] and [b] in O(1)
    ({!Relation.swap}); the tables keep their names, schemas and cached
    plans, which read the swapped rows at their next execution. It runs
    no statement: it is charged one catalog page write, as CREATE TABLE
    is, and the sanitizer audits after it. Undo is exact: inside a
    transaction (or statement) one record swaps back on rollback. The WAL
    never sees a swap, so only unlogged tables may trade rows. Raises
    {!Sql_error} outside {!suspend_logging}, for an unknown table, for
    column types that differ, and for a table with an index or a heap
    backing (both follow row ids, which a swap does not carry over). *)

val exec_script : t -> string -> result list
(** Execute a [;]-separated script. *)

val query : t -> string -> Tuple.t list
(** Run a SELECT and return its rows; raises {!Sql_error} if the statement
    is not a SELECT. *)

val scalar_int : t -> string -> int
(** Run a SELECT expected to produce a single integer (e.g. COUNT( * )). *)

val explain : t -> string -> string
(** Plan a SELECT and render the physical operator tree. Goes through the
    statement cache, so the rendered plan is exactly what a subsequent
    {!exec} of the same text would run. *)

val exec_analyze : t -> string -> result * Profile.t * Stats.t
(** Execute a SELECT or INSERT ... SELECT with per-operator profiling.
    Returns the result, the operator-counter tree, and the statement's
    engine-global {!Stats} delta; the tree's reads/writes/probes sums
    equal the corresponding delta components. For INSERT ... SELECT the
    root is a synthetic [Insert <table>] node carrying the write side.
    Raises {!Sql_error} for any other statement kind. *)

val explain_analyze : t -> string -> string
(** [exec_analyze] rendered as text: the annotated operator tree followed
    by a [Total: ...] summary line (the EXPLAIN ANALYZE output). *)

(** {1 Structured tracing}

    An attached trace hook receives one {!trace_event} per statement
    boundary, plus the plan tree whenever a statement is (re)planned.
    Emission is skipped entirely while no hook is attached. *)

type trace_event =
  | Tr_stmt_begin of { sql : string }
  | Tr_plan of { sql : string; tree : string }
      (** emitted when a plan is built (a plan-cache miss), not on reuse *)
  | Tr_stmt_end of {
      sql : string;
      ms : float;
      rows : int option;  (** result rows, or affected count; [None] for DDL *)
      ok : bool;  (** [false] when the statement raised *)
      delta : Stats.t;  (** engine-global counter movement of the statement *)
      est : Cost.est option;
          (** the planner's cost estimate for the statement's plan, when
              one was planned (SELECT / INSERT ... SELECT); lets a trace
              consumer compare estimated against charged page I/O *)
      sid : int option;
          (** issuing session id when the statement ran under
              {!with_session} *)
    }

val set_trace_hook : t -> (trace_event -> unit) option -> unit
(** Install (or remove) the structured trace sink. {!Core.Trace} attaches
    its JSONL writer through this, the same shape as {!set_commit_hook}. *)

val table_cardinality : t -> string -> int
(** Live row count of a table, read off the relation: no statement runs
    and nothing is charged. Raises {!Sql_error} for an unknown table. *)

(** {1 Snapshot transactions (MVCC-lite)}

    A snapshot pins the committed state visible at its begin timestamp.
    Relations freeze a copy-on-write version on their first mutation
    after the snapshot begins (charged to {!Stats.versions_captured}),
    so long analytical readers and the LFP writer proceed without
    blocking each other; writers keep serializing through the ordinary
    WAL commit path. Snapshot SELECTs plan against a catalog overlay of
    the frozen versions ({!Catalog.overlay}); those plans are never
    cached. Releasing a snapshot prunes every version no other active
    snapshot can still reach. *)

val set_version_filter : t -> (string -> bool) -> unit
(** Choose which tables participate in versioning (default: all).
    Excluded tables — e.g. the LFP scratch tables, which are transient
    by construction — read as their live state under a snapshot. *)

val begin_snapshot : t -> int
(** Open a snapshot and return its timestamp. Raises [Sql_error] while
    an explicit transaction is open (its uncommitted state must not be
    pinned). Counted in {!Stats.snapshots_begun}. *)

val release_snapshot : t -> int -> unit
(** End the snapshot and prune versions only it could reach. Raises
    [Sql_error] if the timestamp is not an active snapshot. *)

val exec_snapshot : t -> ts:int -> string -> result
(** Execute one SELECT against the state as of snapshot [ts]. Any other
    statement kind raises [Sql_error] (snapshot transactions are
    read-only). Counted in {!Stats.snapshot_queries}. *)

val query_snapshot : t -> ts:int -> string -> Tuple.t list
(** {!exec_snapshot} returning the rows. *)

val snapshots_active : t -> int
(** Number of currently active snapshots. *)

val snapshot_versions : t -> int
(** Total frozen relation versions currently retained (0 when no
    snapshot is active — the sanitizer audits this). *)
