module Timer = Dkb_util.Timer

(* Re-export: the exception itself lives in {!Sql_error} so that lower
   layers (Catalog) can raise it without depending on the engine. *)
exception Sql_error = Sql_error.Sql_error

(* A plan cached inside a prepared statement, tagged with the join-order
   mode it was planned under and the (table record, version) pair of every
   table it depends on: the tables it reads, plus an INSERT ... SELECT's
   target, whose schema the type check used. Validation compares those
   versions; CREATE/DROP INDEX and ANALYZE bump only their own table's,
   DROP TABLE bumps the dropped record's, and a re-created table is a new
   record. Under cost-aware planning ([Greedy]/[Costed]) the key also
   carries a log2 bucket of each referenced table's live cardinality:
   TRUNCATE and INSERT bump no version, so this is what lets the LFP inner
   loop replan when its delta tables grow or shrink by orders of magnitude
   (counted in {!Stats.card_replans}). *)
type cached_plan = {
  cp_plan : Plan.t;
  cp_deps : (Catalog.table * int) list;
  cp_join_order : Planner.join_order;
  cp_card_key : (string * int) list; (* table -> log2 cardinality bucket *)
  cp_est : Cost.est Lazy.t; (* planner's estimate — forced only when traced *)
  cp_exec : Exec_compiled.t Lazy.t;
      (* compiled form, forced on first execution; it shares the plan's
         cache entry, so every invalidation (table version, join-order
         mode, cardinality-bucket drift) drops both *)
}

(* A statement-cache entry sits on the cache's recency list, a circular
   doubly linked list closed by a sentinel; a prepared statement outside
   the cache (caller-held, or evicted) links to itself. *)
type prepared = {
  p_sql : string; (* original text, for trace events *)
  p_stmt : Sql_ast.stmt;
  p_tables : string list; (* tables a SELECT/INSERT..SELECT reads from *)
  mutable p_plan : cached_plan option; (* SELECT / INSERT ... SELECT only *)
  mutable p_runs : int; (* executions so far, for hit/miss accounting *)
  mutable p_newer : prepared; (* recency links *)
  mutable p_older : prepared;
}

(* The statement cache's reverse index: a table record -> the entries whose
   cached plan depends on it, by SQL text. Keys compare by identity, so a
   re-created table never shares a bucket with the record it replaced. *)
module Readers = Hashtbl.Make (struct
  type t = Catalog.table

  let equal = ( == )
  let hash (tbl : t) = Hashtbl.hash tbl.Catalog.tbl_name
end)

(* Logical undo records, one per primitive mutation, accumulated newest-first
   while a statement (and transaction) executes. Tables are referenced by
   name, not by [Relation.t]: a transaction may drop and (on rollback)
   recreate a table, after which earlier undo records must resolve to the
   recreated relation, not the dead one. *)
type undo =
  | U_insert of string * Tuple.t  (* a row went in; undo deletes it *)
  | U_delete of string * Tuple.t  (* a row went out; undo re-inserts it *)
  | U_truncate of string * Tuple.t list  (* undo re-inserts the old rows *)
  | U_create_table of string  (* undo drops it *)
  | U_drop_table of {
      dt_name : string;
      dt_schema : Schema.t;
      dt_rows : Tuple.t list;
      dt_indexes : (string * string * bool) list;  (* name, column, ordered *)
    }
  | U_create_index of string  (* undo drops it *)
  | U_drop_index of { di_index : string; di_table : string; di_column : string; di_ordered : bool }
  | U_swap of string * string  (* two tables traded rows; undo swaps back *)

type txn = {
  mutable t_undo : undo list;  (* newest first; rollback applies in list order *)
  mutable t_redo : string list;  (* committed-statement SQL texts, newest first *)
}

(* Structured trace events, emitted through the trace hook (when one is
   attached) as statements execute. [delta] is the engine-global Stats
   movement attributable to the statement. *)
type trace_event =
  | Tr_stmt_begin of { sql : string }
  | Tr_plan of { sql : string; tree : string }
  | Tr_stmt_end of {
      sql : string;
      ms : float;
      rows : int option; (* result rows, or affected count *)
      ok : bool;
      delta : Stats.t;
      est : Cost.est option; (* planner estimate, when the stmt was planned *)
      sid : int option; (* issuing session id, when one is registered *)
    }

(* Paged storage: one slotted-page heap file per persisted base table,
   sharing a buffer pool. Scratch/temp tables (the LFP loop's churn) stay
   in-memory — [st_persist] decides by name. *)
type storage = {
  st_dir : string;
  st_pool : Buffer_pool.t;
  st_heaps : (string, Heap.t) Hashtbl.t; (* lowercase table name -> heap *)
  st_persist : string -> bool;
}

type t = {
  catalog : Catalog.t;
  stats : Stats.t;
  snaps : Snapshots.t; (* snapshot clock, active set, chained relations *)
  mutable version_filter : string -> bool; (* which tables version for snapshots *)
  mutable charge : Stats.t option; (* per-session sink: entry points add their delta *)
  mutable cur_sid : int option; (* issuing session id, for trace events *)
  mutable next_sid : int; (* session-id allocator (engine-scoped, not global) *)
  mutable storage : storage option;
  mutable join_order : Planner.join_order;
  stmt_cache : (string, prepared) Hashtbl.t; (* SQL text -> prepared *)
  lru : prepared; (* recency sentinel: [p_newer] is the least recently used *)
  readers : (string, prepared) Hashtbl.t Readers.t; (* plan dependencies *)
  mutable cache_enabled : bool;
  mutable txn : txn option; (* None = autocommit *)
  mutable sink : undo list ref option; (* the executing statement's undo frame *)
  mutable commit_hook : (string -> unit) option; (* WAL append, via Wal.attach *)
  mutable log_suspended : bool; (* LFP scratch churn is not worth logging *)
  mutable trace_hook : (trace_event -> unit) option; (* structured trace sink *)
  mutable cur_sql : string option; (* text of the statement being traced *)
  mutable cur_est : Cost.est option; (* estimate of the statement's plan *)
  mutable sanitize : bool; (* audit engine invariants after every statement *)
}

type result =
  | Rows of { columns : string list; rows : Tuple.t list }
  | Affected of int
  | Done

let stmt_cache_capacity = 512

(* A prepared statement outside the statement cache. *)
let make_prepared sql stmt =
  let tables = Sql_ast.tables_of_stmt stmt in
  let rec p =
    {
      p_sql = sql;
      p_stmt = stmt;
      p_tables = tables;
      p_plan = None;
      p_runs = 0;
      p_newer = p;
      p_older = p;
    }
  in
  p

let create () =
  let t =
  {
    catalog = Catalog.create ();
    stats = Stats.create ();
    snaps = Snapshots.create ();
    version_filter = (fun _ -> true);
    charge = None;
    cur_sid = None;
    next_sid = 0;
    storage = None;
    join_order = Planner.Syntactic;
    stmt_cache = Hashtbl.create 64;
    lru = make_prepared "" Sql_ast.Begin;
    readers = Readers.create 64;
    cache_enabled = true;
    txn = None;
    sink = None;
    commit_hook = None;
    log_suspended = false;
    trace_hook = None;
    cur_sql = None;
    cur_est = None;
    sanitize =
      (match Sys.getenv_opt "DKB_SANITIZE" with
      | Some ("1" | "true" | "on") -> true
      | _ -> false);
  }
  in
  Snapshots.set_capture_hook t.snaps (fun n ->
      t.stats.Stats.versions_captured <- t.stats.Stats.versions_captured + n);
  let ctl = Snapshots.ctl t.snaps in
  Catalog.set_version_wiring t.catalog
    (Some (fun name -> if t.version_filter name then Some ctl else None));
  t

(* Which tables participate in snapshot versioning. Everything does by
   default; a session excludes its LFP scratch families (freezing a
   per-iteration delta table for every snapshot would put a copy on the
   hot loop). Existing tables are re-wired under the new decision. *)
let set_version_filter t f =
  t.version_filter <- f;
  let ctl = Snapshots.ctl t.snaps in
  Catalog.set_version_wiring t.catalog
    (Some (fun name -> if t.version_filter name then Some ctl else None))

let set_trace_hook t hook = t.trace_hook <- hook

let emit_plan t plan =
  match (t.trace_hook, t.cur_sql) with
  | Some hook, Some sql -> hook (Tr_plan { sql; tree = Plan.describe plan })
  | _ -> ()

(* Record the selected plan's cost estimate for the Tr_stmt_end event.
   Skipped when no hook is attached, so untraced runs never pay for an
   estimate walk. *)
let note_est t est = if t.trace_hook <> None then t.cur_est <- Some (Lazy.force est)
let note_est_of_plan t plan =
  if t.trace_hook <> None then t.cur_est <- Some (Cost.estimate plan)

(* Wrap a statement execution in begin/end trace events. Free when no hook
   is attached. [rows_of] classifies the result after the fact so the
   wrapper stays monomorphic in [result]. *)
let traced t sql run =
  match t.trace_hook with
  | None -> run ()
  | Some hook ->
      hook (Tr_stmt_begin { sql });
      let before = Stats.copy t.stats in
      let t0 = Timer.now_ms () in
      let saved = t.cur_sql in
      let saved_est = t.cur_est in
      t.cur_sql <- Some sql;
      t.cur_est <- None;
      let finish ok rows =
        let est = t.cur_est in
        t.cur_sql <- saved;
        t.cur_est <- saved_est;
        hook
          (Tr_stmt_end
             {
               sql;
               ms = Timer.now_ms () -. t0;
               rows;
               ok;
               delta = Stats.diff t.stats before;
               est;
               sid = t.cur_sid;
             })
      in
      (match run () with
      | result ->
          let rows =
            match result with
            | Rows { rows; _ } -> Some (List.length rows)
            | Affected n -> Some n
            | Done -> None
          in
          finish true rows;
          result
      | exception e ->
          finish false None;
          raise e)

(* ------------------------------------------------------------------ *)
(* Per-session accounting *)

(* While a charge sink is registered, the engine-global Stats movement of
   each top-level entry point is also added to the sink. The sink is
   cleared for the duration (one Stats diff per outermost entry, none for
   nested ones), so an [exec] that lands in [exec_prepared] charges
   once. *)
let charged t f =
  match t.charge with
  | None -> f ()
  | Some sink ->
      t.charge <- None;
      let before = Stats.copy t.stats in
      Fun.protect
        ~finally:(fun () ->
          Stats.add sink (Stats.diff t.stats before);
          t.charge <- Some sink)
        f

let fresh_session_id t =
  t.next_sid <- t.next_sid + 1;
  t.next_sid

(* Run [f] attributed to one session: its statements charge [charge] and
   trace events carry [sid]. Save/restore makes nesting and interleaving
   (K sessions taking turns on one engine) safe. *)
let with_session t ~sid ~charge f =
  let saved_charge = t.charge and saved_sid = t.cur_sid in
  t.charge <- Some charge;
  t.cur_sid <- Some sid;
  Fun.protect
    ~finally:(fun () ->
      t.charge <- saved_charge;
      t.cur_sid <- saved_sid)
    f

let set_join_order t mode = t.join_order <- mode
let join_order t = t.join_order
let catalog t = t.catalog
let stats t = t.stats

(* ------------------------------------------------------------------ *)
(* The statement cache: O(1) recency list and plan reverse index *)

let in_cache p = p.p_newer != p

let unlink p =
  p.p_older.p_newer <- p.p_newer;
  p.p_newer.p_older <- p.p_older;
  p.p_newer <- p;
  p.p_older <- p

(* Move [p] to the newest end of the recency list, admitting it if it is
   not on the list. *)
let touch t p =
  unlink p;
  let s = t.lru in
  p.p_newer <- s;
  p.p_older <- s.p_older;
  s.p_older.p_newer <- p;
  s.p_older <- p

(* List a cache entry under every table its new plan depends on. *)
let index_plan t p cp =
  List.iter
    (fun (tbl, _) ->
      match Readers.find_opt t.readers tbl with
      | Some entries -> Hashtbl.replace entries p.p_sql p
      | None ->
          let entries = Hashtbl.create 8 in
          Hashtbl.add entries p.p_sql p;
          Readers.add t.readers tbl entries)
    cp.cp_deps

let unindex_plan t p =
  match p.p_plan with
  | None -> ()
  | Some cp ->
      List.iter
        (fun (tbl, _) ->
          match Readers.find_opt t.readers tbl with
          | Some entries ->
              Hashtbl.remove entries p.p_sql;
              if Hashtbl.length entries = 0 then Readers.remove t.readers tbl
          | None -> ())
        cp.cp_deps

(* Drop every cached plan that depends on [tbl] (it is being dropped), so
   no cache entry keeps its relation reachable. *)
let release_readers t tbl =
  match Readers.find_opt t.readers tbl with
  | None -> ()
  | Some entries ->
      Readers.remove t.readers tbl;
      Hashtbl.iter
        (fun _ p ->
          unindex_plan t p;
          p.p_plan <- None)
        entries

let evict_lru t =
  if Hashtbl.length t.stmt_cache > stmt_cache_capacity then begin
    let victim = t.lru.p_newer in
    unlink victim;
    unindex_plan t victim;
    Hashtbl.remove t.stmt_cache victim.p_sql
  end

let set_statement_cache t enabled =
  t.cache_enabled <- enabled;
  if not enabled then begin
    Hashtbl.iter (fun _ p -> unlink p) t.stmt_cache;
    Hashtbl.reset t.stmt_cache;
    Readers.reset t.readers
  end

let statement_cache_enabled t = t.cache_enabled
let statement_cache_size t = Hashtbl.length t.stmt_cache

let fail fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt

let or_fail = function
  | Ok v -> v
  | Error msg -> raise (Sql_error msg)

(* ------------------------------------------------------------------ *)
(* Paged storage: heap attachment and lifecycle *)

let storage_key name = String.lowercase_ascii name
let heap_path st name = Filename.concat st.st_dir (storage_key name ^ ".heap")

(* Attach a heap to one table. [`Load] populates an empty relation from
   an existing heap file (reopening a directory); [`Overwrite] truncates
   the heap and writes the relation out (CREATE TABLE and recovery: the
   catalog is authoritative, so a stale file left by a crash can never
   resurrect rows). *)
let attach_heap st (tbl : Catalog.table) mode =
  let key = storage_key tbl.Catalog.tbl_name in
  let h = Heap.create ~pool:st.st_pool (heap_path st tbl.Catalog.tbl_name) in
  let mode =
    match mode with
    | `Auto ->
        if Relation.cardinal tbl.Catalog.tbl_relation = 0 && Heap.page_count h > 0 then `Load
        else `Overwrite
    | (`Load | `Overwrite) as m -> m
  in
  Relation.attach tbl.Catalog.tbl_relation h mode;
  Hashtbl.replace st.st_heaps key h

let attach_storage t ~dir ?(pool_pages = 64) ?(persist = fun _ -> true) ?(mode = `Auto) () =
  if t.storage <> None then fail "storage already attached";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  if not (Sys.is_directory dir) then fail "not a directory: %s" dir;
  let pool = Buffer_pool.create ~pages:pool_pages () in
  let st = { st_dir = dir; st_pool = pool; st_heaps = Hashtbl.create 16; st_persist = persist } in
  t.storage <- Some st;
  List.iter
    (fun (tbl : Catalog.table) ->
      if persist tbl.Catalog.tbl_name then attach_heap st tbl mode)
    (Catalog.tables t.catalog)

(* CREATE TABLE (forward or as DROP-undo) puts persisted tables on disk
   immediately; the new heap starts truncated. *)
let maybe_attach_new_table t name =
  match t.storage with
  | Some st when st.st_persist name -> (
      match Catalog.find_table t.catalog name with
      | Some tbl -> attach_heap st tbl `Overwrite
      | None -> ())
  | _ -> ()

(* DROP TABLE (forward or as CREATE-undo) deletes the heap file. *)
let drop_heap t name =
  match t.storage with
  | Some st -> (
      let key = storage_key name in
      match Hashtbl.find_opt st.st_heaps key with
      | Some h ->
          Hashtbl.remove st.st_heaps key;
          Heap.destroy h
      | None -> ())
  | None -> ()

(* DROP TABLE, forward or as CREATE-undo: the table's heap file and its
   cached plans go with it. *)
let drop_table_raw t (tbl : Catalog.table) =
  (match Catalog.drop_table t.catalog tbl.Catalog.tbl_name with Ok () | Error _ -> ());
  drop_heap t tbl.Catalog.tbl_name;
  release_readers t tbl

let flush_storage t =
  match t.storage with
  | Some st -> Buffer_pool.flush_all st.st_pool
  | None -> ()

(* Benchmark support: flush and drop every resident frame so the next
   scans run against a cold cache. *)
let drop_page_cache t =
  match t.storage with
  | Some st -> Hashtbl.iter (fun _ h -> Heap.evict h) st.st_heaps
  | None -> ()

let buffer_pool t = Option.map (fun st -> st.st_pool) t.storage
let storage_dir t = Option.map (fun st -> st.st_dir) t.storage

let storage_heaps t =
  match t.storage with
  | None -> []
  | Some st -> Hashtbl.fold (fun name h acc -> (name, h) :: acc) st.st_heaps []

(* Flush and close every heap, detach the relations (their in-memory
   mirrors keep the rows), and drop the pool. *)
let close_storage t =
  match t.storage with
  | None -> ()
  | Some st ->
      List.iter
        (fun (tbl : Catalog.table) ->
          if Relation.backed tbl.Catalog.tbl_relation then Relation.detach tbl.Catalog.tbl_relation)
        (Catalog.tables t.catalog);
      Hashtbl.iter (fun _ h -> Heap.close h) st.st_heaps;
      Hashtbl.reset st.st_heaps;
      t.storage <- None

(* ------------------------------------------------------------------ *)
(* Transactions: logical undo logging and the commit hook *)

(* [u] is a thunk so the (sometimes expensive) capture of old state only
   happens when a frame is listening. *)
let record t u =
  match t.sink with
  | Some sink -> sink := u () :: !sink
  | None -> ()

let apply_undo t u =
  let relation name =
    Option.map (fun tbl -> tbl.Catalog.tbl_relation) (Catalog.find_table t.catalog name)
  in
  match u with
  | U_insert (table, row) -> (
      match relation table with
      | Some rel -> ignore (Relation.delete rel row)
      | None -> ())
  | U_delete (table, row) -> (
      match relation table with
      | Some rel -> ignore (Relation.insert rel row)
      | None -> ())
  | U_truncate (table, rows) -> (
      match relation table with
      | Some rel -> List.iter (fun row -> ignore (Relation.insert rel row)) rows
      | None -> ())
  | U_create_table name -> (
      match Catalog.find_table t.catalog name with
      | Some tbl -> drop_table_raw t tbl
      | None -> ())
  | U_drop_table { dt_name; dt_schema; dt_rows; dt_indexes } -> (
      match Catalog.create_table t.catalog dt_name dt_schema with
      | Error _ -> ()
      | Ok tbl ->
          maybe_attach_new_table t dt_name;
          List.iter (fun row -> ignore (Relation.insert tbl.Catalog.tbl_relation row)) dt_rows;
          List.iter
            (fun (name, column, ordered) ->
              if ordered then
                match Catalog.create_ordered_index t.catalog ~name ~table:dt_name ~column with
                | Ok _ | Error _ -> ()
              else
                match Catalog.create_index t.catalog ~name ~table:dt_name ~column with
                | Ok _ | Error _ -> ())
            dt_indexes)
  | U_create_index name -> (
      match Catalog.drop_index t.catalog name with Ok () | Error _ -> ())
  | U_drop_index { di_index; di_table; di_column; di_ordered } -> (
      if di_ordered then
        match Catalog.create_ordered_index t.catalog ~name:di_index ~table:di_table ~column:di_column with
        | Ok _ | Error _ -> ()
      else
        match Catalog.create_index t.catalog ~name:di_index ~table:di_table ~column:di_column with
        | Ok _ | Error _ -> ())
  | U_swap (a, b) -> (
      match (relation a, relation b) with
      | Some ra, Some rb -> Relation.swap ra rb
      | _ -> ())

let notify_commit t script =
  match t.commit_hook with
  | Some hook -> hook script
  | None -> ()

let set_commit_hook t hook = t.commit_hook <- hook

let suspend_logging t f =
  let saved = t.log_suspended in
  t.log_suspended <- true;
  Fun.protect ~finally:(fun () -> t.log_suspended <- saved) f

let in_transaction t = t.txn <> None

let begin_txn t =
  match t.txn with
  | Some _ -> fail "transaction already open"
  | None -> t.txn <- Some { t_undo = []; t_redo = [] }

let commit_txn t =
  match t.txn with
  | None -> fail "no open transaction"
  | Some txn -> (
      t.txn <- None;
      t.stats.Stats.txns_committed <- t.stats.Stats.txns_committed + 1;
      match List.rev txn.t_redo with
      | [] -> ()
      | stmts -> notify_commit t (String.concat ";\n" stmts))

let rollback_txn t =
  match t.txn with
  | None -> fail "no open transaction"
  | Some txn ->
      t.txn <- None;
      t.stats.Stats.txns_rolled_back <- t.stats.Stats.txns_rolled_back + 1;
      (* t_undo is newest-first, so plain list order is reverse execution
         order. Undo application is not charged to the simulated I/O
         counters: the paper's cost model covers forward work only. *)
      List.iter (apply_undo t) txn.t_undo

(* Insert every row an iterator yields, accumulating count and bytes in a
   single pass (no intermediate inserted-rows list); works off either a
   list or a Batch. [trust] skips the per-row schema check — only for
   rows of a type-checked INSERT ... SELECT plan (see
   [typecheck_insert_select]); literal INSERT ... VALUES rows stay
   validated. *)
let insert_iter ?(trust = false) t table_name iter =
  let tbl = Catalog.find_table t.catalog table_name in
  match tbl with
  | None -> fail "no such table: %s" table_name
  | Some tbl ->
      let rel = tbl.Catalog.tbl_relation in
      let count = ref 0 in
      (* the relation already sums inserted bytes; charge off its delta
         instead of re-folding every row *)
      let bytes0 = Relation.byte_size rel in
      (* hoist the sink dispatch out of the hot loop: with no open
         transaction there is no undo frame, so don't allocate one
         closure per inserted row *)
      let log =
        match t.sink with
        | None -> fun _ -> ()
        | Some sink -> fun row -> sink := U_insert (table_name, row) :: !sink
      in
      let ins = if trust then Relation.insert_unchecked else Relation.insert in
      iter (fun row ->
          match ins rel row with
          | true ->
              log row;
              incr count
          | false -> ()
          | exception Invalid_argument msg -> raise (Sql_error msg));
      if !count > 0 then begin
        t.stats.Stats.page_writes <-
          t.stats.Stats.page_writes + max 1 (Stats.pages_of_bytes (Relation.byte_size rel - bytes0));
        t.stats.Stats.rows_inserted <- t.stats.Stats.rows_inserted + !count
      end;
      Affected !count

let insert_rows ?trust t table_name rows =
  insert_iter ?trust t table_name (fun f -> List.iter f rows)

let insert_batch ?trust t table_name b =
  insert_iter ?trust t table_name (fun f -> Batch.iter f b)

let plan_query_or_fail t q =
  try Planner.plan_query ~join_order:t.join_order t.catalog q with
  | Planner.Plan_error msg -> raise (Sql_error msg)
  | Failure msg -> raise (Sql_error msg)

let clear_table_raw t name =
  match Catalog.find_table t.catalog name with
  | None -> fail "no such table: %s" name
  | Some tbl ->
      let rel = tbl.Catalog.tbl_relation in
      record t (fun () -> U_truncate (name, Relation.to_list rel));
      let n = Relation.cardinal rel in
      if n > 0 then t.stats.Stats.rows_deleted <- t.stats.Stats.rows_deleted + n;
      t.stats.Stats.page_writes <-
        t.stats.Stats.page_writes + (if n > 0 then Relation.pages rel else 1);
      t.stats.Stats.tables_truncated <- t.stats.Stats.tables_truncated + 1;
      Relation.clear rel

(* Check a subquery plan whose rows are whole rows of [table] (the source
   of INSERT ... SELECT, the subquery of DELETE ... IN) against the
   table's current schema. Both depend only on the catalog, so a
   successful check stays valid exactly as long as a cached plan does. *)
let typecheck_row_source ~what t table plan =
  let tbl =
    match Catalog.find_table t.catalog table with
    | Some tbl -> tbl
    | None -> fail "no such table: %s" table
  in
  let target = Relation.schema tbl.Catalog.tbl_relation in
  let source_types = Array.map (fun c -> c.Plan.h_type) (Plan.header_of plan) in
  let target_types = Array.of_list (Schema.types target) in
  if Array.length source_types <> Array.length target_types then
    fail "%s: arity mismatch (%d into %d)" what (Array.length source_types)
      (Array.length target_types);
  Array.iteri
    (fun i ty ->
      if not (Datatype.equal ty target_types.(i)) then
        fail "%s: column %d type mismatch" what (i + 1))
    source_types;
  target

let typecheck_insert_select t table plan =
  ignore (typecheck_row_source ~what:"INSERT ... SELECT" t table plan : Schema.t)

(* DELETE ... IN also names the target's columns: exactly its own, in
   schema order, so the membership test is on whole rows. *)
let typecheck_delete_in t table columns plan =
  let target = typecheck_row_source ~what:"DELETE ... IN" t table plan in
  let lower = List.map String.lowercase_ascii in
  if lower columns <> lower (Schema.names target) then
    fail "DELETE ... IN: column list (%s) must be %s's columns in order (%s)"
      (String.concat ", " columns) table
      (String.concat ", " (Schema.names target))

(* Capture everything needed to recreate a table if a transaction drops it
   and then rolls back. *)
let capture_dropped_table tbl =
  let rel = tbl.Catalog.tbl_relation in
  U_drop_table
    {
      dt_name = tbl.Catalog.tbl_name;
      dt_schema = Relation.schema rel;
      dt_rows = Relation.to_list rel;
      dt_indexes =
        List.map (fun idx -> (Index.name idx, Index.column idx, false)) tbl.Catalog.tbl_indexes
        @ List.map
            (fun idx -> (Ordered_index.name idx, Ordered_index.column idx, true))
            tbl.Catalog.tbl_ordered;
    }

(* Resolve an index name to (table, column, ordered), for DROP INDEX undo. *)
let find_index_spec catalog name =
  let k = String.lowercase_ascii name in
  List.find_map
    (fun tbl ->
      match
        List.find_opt (fun idx -> String.lowercase_ascii (Index.name idx) = k) tbl.Catalog.tbl_indexes
      with
      | Some idx -> Some (tbl.Catalog.tbl_name, Index.column idx, false)
      | None ->
          List.find_opt
            (fun idx -> String.lowercase_ascii (Ordered_index.name idx) = k)
            tbl.Catalog.tbl_ordered
          |> Option.map (fun idx -> (tbl.Catalog.tbl_name, Ordered_index.column idx, true)))
    (Catalog.tables catalog)

(* Run an ad-hoc (uncached) plan, charging [stats]. The one-time closure
   compile is paid per execution here; repeated statements go through the
   prepared paths, which cache the compiled form. *)
let run_plan stats plan = Exec_compiled.run (Exec_compiled.compile stats plan)

(* The rows of [table] a DELETE or UPDATE touches, found by a full scan.
   The scan is charged here, once, at the relation's page count; the
   predicate runs against a scratch Stats so it is not charged twice. *)
let scan_victims t table rel where =
  t.stats.Stats.page_reads <- t.stats.Stats.page_reads + Relation.pages rel;
  match where with
  | None -> Relation.to_list rel
  | Some cond ->
      let from = [ { Sql_ast.table; alias = None } ] in
      run_plan (Stats.create ())
        (plan_query_or_fail t
           (Sql_ast.Q_select
              { distinct = false; items = [ Sql_ast.Sel_star ]; from; where = Some cond; group_by = [] }))

let target_relation t table =
  match Catalog.find_table t.catalog table with
  | Some tbl -> tbl.Catalog.tbl_relation
  | None -> fail "no such table: %s" table

(* Remove each of [rows] from [table] by full-row membership, one undo
   record per removed row; rows absent from the table are skipped. The
   rows are fully evaluated before the first removal, so a subquery over
   the target itself sees the state before the statement. *)
let delete_rows t table rel rows =
  let deleted = ref 0 and bytes = ref 0 in
  List.iter
    (fun row ->
      if Relation.delete rel row then begin
        record t (fun () -> U_delete (table, row));
        incr deleted;
        bytes := !bytes + Tuple.byte_size row
      end)
    rows;
  if !deleted > 0 then begin
    t.stats.Stats.page_writes <- t.stats.Stats.page_writes + max 1 (Stats.pages_of_bytes !bytes);
    t.stats.Stats.rows_deleted <- t.stats.Stats.rows_deleted + !deleted
  end;
  Affected !deleted

(* Execute a statement that has already been counted in [stats.statements].
   SELECT and INSERT ... SELECT are planned from scratch here; the cached
   paths live in [exec_prepared]. Transaction control never reaches this
   function ([run_stmt] dispatches it first). *)
let run_stmt_raw t stmt =
  match stmt with
  | Sql_ast.Begin | Sql_ast.Commit | Sql_ast.Rollback -> assert false
  | Sql_ast.Create_table { name; columns } ->
      let schema = try Schema.make columns with Invalid_argument msg -> raise (Sql_error msg) in
      let (_ : Catalog.table) = or_fail (Catalog.create_table t.catalog name schema) in
      maybe_attach_new_table t name;
      record t (fun () -> U_create_table name);
      t.stats.Stats.tables_created <- t.stats.Stats.tables_created + 1;
      t.stats.Stats.page_writes <- t.stats.Stats.page_writes + 1;
      Done
  | Sql_ast.Drop_table { name; if_exists } ->
      (match Catalog.find_table t.catalog name with
      | Some tbl ->
          (* captured while the heap still holds the rows *)
          record t (fun () -> capture_dropped_table tbl);
          drop_table_raw t tbl;
          t.stats.Stats.tables_dropped <- t.stats.Stats.tables_dropped + 1;
          t.stats.Stats.page_writes <- t.stats.Stats.page_writes + 1
      | None -> if not if_exists then fail "no such table: %s" name);
      Done
  | Sql_ast.Truncate { name } ->
      clear_table_raw t name;
      Done
  | Sql_ast.Analyze { table } ->
      let targets =
        match table with
        | Some name -> (
            match Catalog.find_table t.catalog name with
            | Some tbl -> [ tbl ]
            | None -> fail "no such table: %s" name)
        | None -> Catalog.tables t.catalog
      in
      List.iter
        (fun tbl ->
          (* collecting statistics reads the whole table once *)
          t.stats.Stats.page_reads <-
            t.stats.Stats.page_reads + Relation.pages tbl.Catalog.tbl_relation;
          t.stats.Stats.tables_analyzed <- t.stats.Stats.tables_analyzed + 1;
          Catalog.set_stats tbl (Table_stats.collect tbl.Catalog.tbl_relation))
        targets;
      Done
  | Sql_ast.Create_index { index; table; column; ordered } ->
      (if ordered then
         ignore
           (or_fail (Catalog.create_ordered_index t.catalog ~name:index ~table ~column)
             : Ordered_index.t)
       else
         ignore (or_fail (Catalog.create_index t.catalog ~name:index ~table ~column) : Index.t));
      record t (fun () -> U_create_index index);
      (* building the index reads the table and writes the index pages *)
      (match Catalog.find_table t.catalog table with
      | Some tbl ->
          t.stats.Stats.page_reads <- t.stats.Stats.page_reads + Relation.pages tbl.Catalog.tbl_relation;
          t.stats.Stats.page_writes <- t.stats.Stats.page_writes + Relation.pages tbl.Catalog.tbl_relation
      | None -> ());
      Done
  | Sql_ast.Drop_index { index } ->
      let saved =
        match t.sink with
        | Some _ -> find_index_spec t.catalog index
        | None -> None
      in
      or_fail (Catalog.drop_index t.catalog index);
      (match saved with
      | Some (di_table, di_column, di_ordered) ->
          record t (fun () -> U_drop_index { di_index = index; di_table; di_column; di_ordered })
      | None -> ());
      Done
  | Sql_ast.Insert_values { table; rows } ->
      insert_rows t table (List.map (fun r -> Array.of_list (List.map Sql_ast.value_of_literal r)) rows)
  | Sql_ast.Insert_select { table; query } ->
      let plan = plan_query_or_fail t query in
      typecheck_insert_select t table plan;
      emit_plan t plan;
      note_est_of_plan t plan;
      insert_batch ~trust:true t table
        (Exec_compiled.run_batch (Exec_compiled.compile t.stats plan))
  | Sql_ast.Delete { table; where } ->
      let rel = target_relation t table in
      (* Fast path: a WHERE that is a conjunction of [col = literal]
         predicates with a hash index on one of the columns is answered
         by an index probe (charged like any probe: one bucket read)
         instead of a full scan. *)
      let eq_conjuncts cond =
        let rec go acc cond =
          match cond with
          | Sql_ast.And (a, b) -> Option.bind (go acc a) (fun acc -> go acc b)
          | Sql_ast.Cmp (Sql_ast.Col c, Sql_ast.Eq, Sql_ast.Lit l)
          | Sql_ast.Cmp (Sql_ast.Lit l, Sql_ast.Eq, Sql_ast.Col c)
            when (match c.Sql_ast.qualifier with
                 | None -> true
                 | Some q -> String.equal q table) ->
              Some ((c.Sql_ast.column, Sql_ast.value_of_literal l) :: acc)
          | _ -> None
        in
        go [] cond
      in
      let indexed_probe =
        match where with
        | None -> None
        | Some cond ->
            Option.bind (eq_conjuncts cond) (fun eqs ->
                let schema = Relation.schema rel in
                let resolved =
                  List.map
                    (fun (col, v) ->
                      Option.map (fun (pos, _) -> (col, pos, v)) (Schema.find schema col))
                    eqs
                in
                if List.exists Option.is_none resolved then None
                else
                  let resolved = List.filter_map Fun.id resolved in
                  let rec pick = function
                    | [] -> None
                    | (col, _, key) :: rest -> (
                        match Catalog.find_index t.catalog ~table ~column:col with
                        | Some idx -> Some (idx, key, resolved)
                        | None -> pick rest)
                  in
                  pick resolved)
      in
      let victims =
        match indexed_probe with
        | Some (idx, key, eqs) ->
            let matched, bytes = Index.lookup_with_bytes idx key in
            t.stats.Stats.index_probes <- t.stats.Stats.index_probes + 1;
            t.stats.Stats.page_reads <-
              t.stats.Stats.page_reads + 1 + Stats.pages_of_bytes bytes;
            List.filter
              (fun row -> List.for_all (fun (_, pos, v) -> Value.equal row.(pos) v) eqs)
              matched
        | None -> scan_victims t table rel where
      in
      delete_rows t table rel victims
  | Sql_ast.Delete_in { table; columns; query } ->
      let plan = plan_query_or_fail t query in
      typecheck_delete_in t table columns plan;
      emit_plan t plan;
      note_est_of_plan t plan;
      delete_rows t table (target_relation t table) (run_plan t.stats plan)
  | Sql_ast.Update { table; sets; where } ->
      let tbl =
        match Catalog.find_table t.catalog table with
        | Some tbl -> tbl
        | None -> fail "no such table: %s" table
      in
      let rel = tbl.Catalog.tbl_relation in
      let schema = Relation.schema rel in
      (* resolve assignments: target position, and value as a function of
         the old row *)
      let compiled_sets =
        List.map
          (fun (col, e) ->
            let pos, def =
              match Schema.find schema col with
              | Some hit -> hit
              | None -> fail "no column %s in %s" col table
            in
            let value_of =
              match e with
              | Sql_ast.Lit l ->
                  let v = Sql_ast.value_of_literal l in
                  if not (Datatype.check def.Schema.col_type v) then
                    fail "UPDATE: %s expects %s" col (Datatype.to_string def.Schema.col_type);
                  fun (_ : Tuple.t) -> v
              | Sql_ast.Col cr -> (
                  match Schema.find schema cr.Sql_ast.column with
                  | Some (src, src_def) ->
                      if not (Datatype.equal src_def.Schema.col_type def.Schema.col_type) then
                        fail "UPDATE: type mismatch assigning %s to %s" cr.Sql_ast.column col;
                      fun (row : Tuple.t) -> row.(src)
                  | None -> fail "no column %s in %s" cr.Sql_ast.column table)
            in
            (pos, value_of))
          sets
      in
      let victims = scan_victims t table rel where in
      let updated =
        List.fold_left
          (fun acc old ->
            let fresh = Array.copy old in
            List.iter (fun (pos, value_of) -> fresh.(pos) <- value_of old) compiled_sets;
            if Tuple.equal fresh old then acc
            else begin
              if Relation.delete rel old then record t (fun () -> U_delete (table, old));
              if Relation.insert rel fresh then record t (fun () -> U_insert (table, fresh));
              acc + 1
            end)
          0 victims
      in
      if updated > 0 then begin
        t.stats.Stats.page_writes <- t.stats.Stats.page_writes + 1;
        t.stats.Stats.rows_inserted <- t.stats.Stats.rows_inserted + updated;
        t.stats.Stats.rows_deleted <- t.stats.Stats.rows_deleted + updated
      end;
      Affected updated
  | Sql_ast.Select { query; order_by } ->
      let plan =
        try Planner.plan_select_stmt ~join_order:t.join_order t.catalog query order_by with
        | Planner.Plan_error msg -> raise (Sql_error msg)
        | Failure msg -> raise (Sql_error msg)
      in
      emit_plan t plan;
      note_est_of_plan t plan;
      let rows = run_plan t.stats plan in
      let columns =
        Array.to_list (Array.map (fun c -> c.Plan.h_name) (Plan.header_of plan))
      in
      Rows { columns; rows }

(* A statement with zero effect (duplicate INSERT, DELETE matching nothing)
   is not worth a log record: replaying it is a no-op. *)
let worth_logging = function
  | Affected 0 -> false
  | Rows _ | Affected _ | Done -> true

(* Run the execution [body] of data-modifying [stmt] inside a
   statement-local undo frame: on failure the statement's partial effects
   are undone before the exception propagates (statement atomicity), on
   success the frame folds into the open transaction — or, in autocommit,
   the statement is published to the commit hook immediately. *)
let with_stmt_frame t stmt body =
  let frame = ref [] in
  let saved = t.sink in
  t.sink <- Some frame;
  let result =
    match body () with
    | result ->
        t.sink <- saved;
        result
    | exception e ->
        t.sink <- saved;
        List.iter (apply_undo t) !frame;
        raise e
  in
  (match t.txn with
  | Some txn ->
      txn.t_undo <- !frame @ txn.t_undo;
      if (not t.log_suspended) && worth_logging result then
        txn.t_redo <- Sql_printer.stmt stmt :: txn.t_redo
  | None ->
      if (not t.log_suspended) && worth_logging result then
        notify_commit t (Sql_printer.stmt stmt));
  result

(* Dispatcher: transaction control, then reads, then guarded writes. *)
let run_stmt t stmt =
  match stmt with
  | Sql_ast.Begin ->
      begin_txn t;
      Done
  | Sql_ast.Commit ->
      commit_txn t;
      Done
  | Sql_ast.Rollback ->
      rollback_txn t;
      Done
  (* ANALYZE changes only the catalog's statistics snapshot, never logged
     data, so like SELECT it runs outside the undo/redo frame (a WAL replay
     of ANALYZE would be harmless but is pointless noise). *)
  | Sql_ast.Select _ | Sql_ast.Analyze _ -> run_stmt_raw t stmt
  | _ -> with_stmt_frame t stmt (fun () -> run_stmt_raw t stmt)

let clear_table t name = ignore (run_stmt t (Sql_ast.Truncate { name }) : result)

(* Post-statement sanitizer: with the [sanitize] flag on, audit the
   structural invariants of every catalog-owned structure and of the
   statement cache after each successful statement. Violations surface as
   [Sql_error] — the statement that corrupted the engine is the one that
   fails. *)
let snapshot_violations t =
  List.map
    (fun msg -> { Invariants.v_table = "<snapshots>"; v_message = msg })
    (Snapshots.check t.snaps)

(* Every statement-cache plan depends only on table records the catalog
   still holds: a plan over a dropped record would keep a dead relation
   reachable. *)
let stmt_cache_violations t =
  Hashtbl.fold
    (fun sql p acc ->
      match p.p_plan with
      | None -> acc
      | Some cp ->
          List.fold_left
            (fun acc ((tbl : Catalog.table), _) ->
              match Catalog.find_table t.catalog tbl.Catalog.tbl_name with
              | Some held when held == tbl -> acc
              | _ ->
                  {
                    Invariants.v_table = tbl.Catalog.tbl_name;
                    v_message = Printf.sprintf "cached plan of %S reads a dropped table" sql;
                  }
                  :: acc)
            acc cp.cp_deps)
    t.stmt_cache []

(* Audit the catalog plus, when storage is attached, the buffer pool and
   heaps — inside [Buffer_pool.suspended], so the audit's own page
   traffic never pollutes the pool's measured counters. *)
let check_invariants t =
  let audit () =
    let vs =
      Invariants.check_catalog t.catalog @ snapshot_violations t @ stmt_cache_violations t
    in
    match t.storage with
    | Some st -> vs @ Invariants.check_storage ~pool:st.st_pool ~heaps:(storage_heaps t)
    | None -> vs
  in
  match t.storage with
  | Some st -> Buffer_pool.suspended st.st_pool audit
  | None -> audit ()

let maybe_sanitize t =
  if t.sanitize then
    match check_invariants t with
    | [] -> ()
    | vs ->
        fail "sanitize: engine invariant violated: %s"
          (String.concat "; " (List.map Invariants.violation_to_string vs))

let set_sanitize t on = t.sanitize <- on

let sanitize_enabled t = t.sanitize

(* Exchange the rows of two tables in O(1) (the LFP loop's delta and
   candidate tables). It is no statement and the WAL never sees it, so
   only unlogged tables may trade rows: the call must come inside
   [suspend_logging]. Indexes and heaps follow row ids, which the swap
   does not carry over, so neither table may have one. Undo stays exact:
   one [U_swap] joins the enclosing statement frame or the open
   transaction. The swap is charged one catalog page write, as CREATE
   TABLE is. *)
let swap_tables t a b =
  charged t @@ fun () ->
  if not t.log_suspended then
    fail "cannot swap %s and %s: only unlogged tables can trade rows (use suspend_logging)" a b;
  let relation name =
    match Catalog.find_table t.catalog name with
    | None -> fail "no such table: %s" name
    | Some tbl ->
        if tbl.Catalog.tbl_indexes <> [] || tbl.Catalog.tbl_ordered <> [] then
          fail "cannot swap %s: it has an index" name;
        if Relation.backed tbl.Catalog.tbl_relation then fail "cannot swap %s: it has a heap" name;
        tbl.Catalog.tbl_relation
  in
  let ra = relation a and rb = relation b in
  let types rel = Schema.types (Relation.schema rel) in
  if not (List.equal Datatype.equal (types ra) (types rb)) then
    fail "cannot swap %s and %s: their column types differ" a b;
  Relation.swap ra rb;
  (match (t.sink, t.txn) with
  | Some sink, _ -> sink := U_swap (a, b) :: !sink
  | None, Some txn -> txn.t_undo <- U_swap (a, b) :: txn.t_undo
  | None, None -> ());
  t.stats.Stats.page_writes <- t.stats.Stats.page_writes + 1;
  maybe_sanitize t

let exec_stmt t stmt =
  charged t @@ fun () ->
  t.stats.Stats.statements <- t.stats.Stats.statements + 1;
  let result =
    match t.trace_hook with
    | None -> run_stmt t stmt
    | Some _ -> traced t (Sql_printer.stmt stmt) (fun () -> run_stmt t stmt)
  in
  maybe_sanitize t;
  result

let parse_or_fail sql =
  try Sql_parser.parse sql with
  | Sql_parser.Parse_error (msg, pos) -> fail "parse error at offset %d: %s" pos msg
  | Sql_lexer.Lex_error (msg, pos) -> fail "lex error at offset %d: %s" pos msg

(* ------------------------------------------------------------------ *)
(* Snapshot transactions (MVCC-lite)

   A snapshot pins the state visible at its begin timestamp: relations
   freeze a copy-on-write version on their first mutation afterwards
   (see {!Relation}), and snapshot SELECTs plan against a catalog
   overlay presenting those frozen versions. Writers never wait —
   serialization stays on the WAL commit path — and releasing the
   snapshot prunes every version nobody else can reach. *)

let begin_snapshot t =
  charged t @@ fun () ->
  (* the live state inside an open transaction is uncommitted; pinning it
     would hand dirty reads to a "consistent" snapshot *)
  if t.txn <> None then fail "cannot begin a snapshot while a transaction is open";
  t.stats.Stats.snapshots_begun <- t.stats.Stats.snapshots_begun + 1;
  Snapshots.begin_snapshot t.snaps

let release_snapshot t ts =
  charged t @@ fun () ->
  try Snapshots.release t.snaps ts with Invalid_argument msg -> raise (Sql_error msg)

let snapshots_active t = Snapshots.active_count t.snaps
let snapshot_versions t = Snapshots.chained_versions t.snaps

(* One SELECT against the state as of snapshot [ts]. Plans are built
   against the overlay and deliberately never cached: they embed frozen
   table records that are garbage once the snapshot releases, and the
   shared statement cache must only ever hold live-catalog plans. *)
let exec_snapshot t ~ts sql =
  charged t @@ fun () ->
  match parse_or_fail sql with
  | Sql_ast.Select { query; order_by } ->
      t.stats.Stats.statements <- t.stats.Stats.statements + 1;
      t.stats.Stats.snapshot_queries <- t.stats.Stats.snapshot_queries + 1;
      traced t sql (fun () ->
          let cat = Catalog.overlay t.catalog ~as_of:(fun rel -> Relation.as_of rel ts) in
          let plan =
            try Planner.plan_select_stmt ~join_order:t.join_order cat query order_by with
            | Planner.Plan_error msg -> raise (Sql_error msg)
            | Failure msg -> raise (Sql_error msg)
          in
          emit_plan t plan;
          note_est_of_plan t plan;
          let rows = run_plan t.stats plan in
          let columns =
            Array.to_list (Array.map (fun c -> c.Plan.h_name) (Plan.header_of plan))
          in
          Rows { columns; rows })
  | _ -> fail "snapshot transactions are read-only: only SELECT is allowed"

let query_snapshot t ~ts sql =
  match exec_snapshot t ~ts sql with
  | Rows { rows; _ } -> rows
  | Affected _ | Done -> fail "expected a SELECT statement"

(* ------------------------------------------------------------------ *)
(* Prepared statements and the statement cache *)

let prepare t sql =
  charged t @@ fun () ->
  let stmt = parse_or_fail sql in
  t.stats.Stats.statements_prepared <- t.stats.Stats.statements_prepared + 1;
  make_prepared sql stmt

(* Floor log2 of a table's cardinality: rows 1..1 -> 0, 2..3 -> 1,
   4..7 -> 2, ... An empty table gets its own bucket (-1). Buckets are
   deliberately coarse — a plan stays cached while a table grows within
   the same power of two and is rebuilt only when the cardinality moves by
   an order of magnitude, which is when a different join order or access
   path could actually pay off. *)
let card_bucket n =
  if n <= 0 then -1
  else begin
    let b = ref 0 in
    let n = ref n in
    while !n > 1 do
      incr b;
      n := !n lsr 1
    done;
    !b
  end

(* The cardinality part of a plan-cache key. Syntactic planning ignores
   cardinalities entirely, so its key is empty and TRUNCATE/INSERT churn
   (the LFP inner loop) never invalidates a cached plan — the pre-existing
   behaviour. Cost-aware modes key on each referenced table's bucket. *)
let card_key t (p : prepared) =
  if t.join_order = Planner.Syntactic then []
  else
    List.map
      (fun name ->
        match Catalog.find_table t.catalog name with
        | Some tbl -> (name, card_bucket (Relation.cardinal tbl.Catalog.tbl_relation))
        | None -> (name, -2))
      p.p_tables

(* The (record, version) pairs a plan of [p] depends on: the tables it
   reads, plus the [target] of an INSERT ... SELECT. *)
let deps_of t p target =
  List.filter_map
    (fun name ->
      Option.map
        (fun (tbl : Catalog.table) -> (tbl, tbl.Catalog.tbl_version))
        (Catalog.find_table t.catalog name))
    (Option.to_list target @ p.p_tables)

let deps_valid cp =
  List.for_all (fun ((tbl : Catalog.table), v) -> tbl.Catalog.tbl_version = v) cp.cp_deps

(* Return the prepared statement's plan, reusing the cached operator tree
   when its table versions, join-order mode and cardinality buckets still
   match. With the statement cache disabled (an ablation configuration)
   every execution replans, so the measured difference is the full cost of
   plan caching. A rebuilt plan of a statement-cache entry is re-listed in
   the reverse index; caller-held prepared statements stay out of it and
   are validated at their next execution. *)
let make_cached t plan ~deps ~key =
  {
    cp_plan = plan;
    cp_deps = deps;
    cp_join_order = t.join_order;
    cp_card_key = key;
    cp_est = lazy (Cost.estimate plan);
    cp_exec = lazy (Exec_compiled.compile t.stats plan);
  }

let plan_of_prepared ?target t p build =
  if not t.cache_enabled then begin
    t.stats.Stats.plan_cache_misses <- t.stats.Stats.plan_cache_misses + 1;
    let plan = build () in
    emit_plan t plan;
    (* a fresh (uncached) entry: compiled form, if used, lives only for
       this execution *)
    let cp = make_cached t plan ~deps:[] ~key:[] in
    note_est t cp.cp_est;
    cp
  end
  else
  let key = card_key t p in
  match p.p_plan with
  | Some cp when deps_valid cp && cp.cp_join_order = t.join_order && cp.cp_card_key = key ->
      t.stats.Stats.plan_cache_hits <- t.stats.Stats.plan_cache_hits + 1;
      note_est t cp.cp_est;
      cp
  | prev ->
      t.stats.Stats.plan_cache_misses <- t.stats.Stats.plan_cache_misses + 1;
      (* a miss caused purely by cardinality drift is the LFP delta
         feedback firing — count it separately *)
      (match prev with
      | Some cp when deps_valid cp && cp.cp_join_order = t.join_order ->
          t.stats.Stats.card_replans <- t.stats.Stats.card_replans + 1
      | _ -> ());
      let plan = build () in
      let cp = make_cached t plan ~deps:(deps_of t p target) ~key in
      unindex_plan t p;
      p.p_plan <- Some cp;
      if in_cache p then index_plan t p cp;
      emit_plan t plan;
      note_est t cp.cp_est;
      cp

let select_plan_of_prepared t p query order_by =
  plan_of_prepared t p (fun () ->
      try Planner.plan_select_stmt ~join_order:t.join_order t.catalog query order_by with
      | Planner.Plan_error msg -> raise (Sql_error msg)
      | Failure msg -> raise (Sql_error msg))

(* Plan the subquery of INSERT ... SELECT or DELETE ... IN and [check]
   it against the current target schema. Both depend only on the
   catalog, so a successful check stays valid exactly as long as the plan
   does. *)
let subquery_plan_of_prepared t p table query check =
  plan_of_prepared ~target:table t p (fun () ->
      let plan = plan_query_or_fail t query in
      check plan;
      plan)

let exec_prepared t p =
  charged t @@ fun () ->
  t.stats.Stats.statements <- t.stats.Stats.statements + 1;
  let result =
    traced t p.p_sql (fun () ->
    match p.p_stmt with
    | Sql_ast.Select { query; order_by } ->
        let cp = select_plan_of_prepared t p query order_by in
        let rows = Exec_compiled.run (Lazy.force cp.cp_exec) in
        let columns =
          Array.to_list (Array.map (fun c -> c.Plan.h_name) (Plan.header_of cp.cp_plan))
        in
        Rows { columns; rows }
    | Sql_ast.Insert_select { table; query } as stmt ->
        with_stmt_frame t stmt (fun () ->
            let cp = subquery_plan_of_prepared t p table query (typecheck_insert_select t table) in
            insert_batch ~trust:true t table (Exec_compiled.run_batch (Lazy.force cp.cp_exec)))
    | Sql_ast.Delete_in { table; columns; query } as stmt ->
        with_stmt_frame t stmt (fun () ->
            let cp =
              subquery_plan_of_prepared t p table query (typecheck_delete_in t table columns)
            in
            delete_rows t table (target_relation t table) (Exec_compiled.run (Lazy.force cp.cp_exec)))
    | stmt ->
        (* no plan to cache, but a re-execution still skips lexing and
           parsing — count it so the counters mean "compiled form reused" *)
        if t.cache_enabled then
          if p.p_runs > 0 then
            t.stats.Stats.plan_cache_hits <- t.stats.Stats.plan_cache_hits + 1
          else t.stats.Stats.plan_cache_misses <- t.stats.Stats.plan_cache_misses + 1;
        run_stmt t stmt)
  in
  p.p_runs <- p.p_runs + 1;
  maybe_sanitize t;
  result

(* Fetch (or admit) the transparent-cache entry for a SQL text. Plain
   INSERT ... VALUES texts are executed uncached: fact loads rarely repeat
   verbatim and would only wash useful entries out of the LRU. *)
let cached_prepared t sql =
  match Hashtbl.find_opt t.stmt_cache sql with
  | Some p ->
      touch t p;
      Some p
  | None -> (
      let stmt = parse_or_fail sql in
      match stmt with
      (* bulk fact loads rarely repeat verbatim, transaction control is
         trivial to parse, and ANALYZE is rare by nature — none earns a
         cache slot *)
      | Sql_ast.Insert_values _ | Sql_ast.Begin | Sql_ast.Commit | Sql_ast.Rollback
      | Sql_ast.Analyze _ -> None
      | _ ->
          t.stats.Stats.statements_prepared <- t.stats.Stats.statements_prepared + 1;
          let p = make_prepared sql stmt in
          touch t p;
          Hashtbl.replace t.stmt_cache sql p;
          evict_lru t;
          Some p)

let prepare_cached t sql =
  charged t @@ fun () ->
  match if t.cache_enabled then cached_prepared t sql else None with
  | Some p -> p
  | None -> prepare t sql

let exec t sql =
  charged t @@ fun () ->
  if not t.cache_enabled then exec_stmt t (parse_or_fail sql)
  else
    match cached_prepared t sql with
    | Some p -> exec_prepared t p
    | None -> exec_stmt t (parse_or_fail sql)

let exec_script t sql =
  let stmts =
    try Sql_parser.parse_many sql with
    | Sql_parser.Parse_error (msg, pos) -> fail "parse error at offset %d: %s" pos msg
    | Sql_lexer.Lex_error (msg, pos) -> fail "lex error at offset %d: %s" pos msg
  in
  List.map (exec_stmt t) stmts

let query t sql =
  match exec t sql with
  | Rows { rows; _ } -> rows
  | Affected _ | Done -> fail "expected a SELECT statement"

let scalar_int t sql =
  match query t sql with
  | [ [| Value.Int n |] ] -> n
  | _ -> fail "expected a single integer result"

let explain t sql =
  (* route through the statement cache so the rendered tree is exactly the
     plan a subsequent [exec] of the same text would run (and so tests can
     observe cached plans being invalidated by DDL) *)
  let describe_select p query order_by =
    Plan.describe (select_plan_of_prepared t p query order_by).cp_plan
  in
  if t.cache_enabled then
    match cached_prepared t sql with
    | Some ({ p_stmt = Sql_ast.Select { query; order_by }; _ } as p) ->
        describe_select p query order_by
    | Some _ | None -> fail "EXPLAIN supports only SELECT statements"
  else
    match parse_or_fail sql with
    | Sql_ast.Select { query; order_by } -> (
        try Plan.describe (Planner.plan_select_stmt ~join_order:t.join_order t.catalog query order_by) with
        | Planner.Plan_error msg -> raise (Sql_error msg))
    | _ -> fail "EXPLAIN supports only SELECT statements"

let table_cardinality t name =
  match Catalog.find_table t.catalog name with
  | Some tbl -> Relation.cardinal tbl.Catalog.tbl_relation
  | None -> fail "no such table: %s" name

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE *)

(* Profiled execution: the profile tree's counter sums equal the
   statement's Stats delta. *)
let run_profiled t plan = Exec_compiled.run_profiled (Exec_compiled.compile t.stats plan)

let exec_analyze t sql =
  charged t @@ fun () ->
  let stmt = parse_or_fail sql in
  t.stats.Stats.statements <- t.stats.Stats.statements + 1;
  match stmt with
  | Sql_ast.Select { query; order_by } ->
      let plan =
        try Planner.plan_select_stmt ~join_order:t.join_order t.catalog query order_by with
        | Planner.Plan_error msg -> raise (Sql_error msg)
        | Failure msg -> raise (Sql_error msg)
      in
      let before = Stats.copy t.stats in
      let rows, profile = run_profiled t plan in
      let delta = Stats.diff t.stats before in
      let columns = Array.to_list (Array.map (fun c -> c.Plan.h_name) (Plan.header_of plan)) in
      (Rows { columns; rows }, profile, delta)
  | Sql_ast.Insert_select { table; query } ->
      let before = Stats.copy t.stats in
      let t0 = Timer.now_ms () in
      let source = ref None in
      let result =
        with_stmt_frame t stmt (fun () ->
            let plan = plan_query_or_fail t query in
            typecheck_insert_select t table plan;
            let rows, profile = run_profiled t plan in
            source := Some profile;
            insert_rows ~trust:true t table rows)
      in
      let delta = Stats.diff t.stats before in
      let child =
        match !source with
        | Some p -> p
        | None -> assert false
      in
      (* synthetic root for the insert side; its own counters are the
         statement delta minus the source subtree, so tree sums still
         equal the delta *)
      let root = Profile.make (Printf.sprintf "Insert %s" table) in
      Profile.add_child root child;
      root.Profile.reads <- delta.Stats.page_reads - Profile.total_reads child;
      root.Profile.writes <- delta.Stats.page_writes - Profile.total_writes child;
      root.Profile.probes <- delta.Stats.index_probes - Profile.total_probes child;
      root.Profile.rows <- (match result with Affected n -> n | _ -> 0);
      root.Profile.ms <- Timer.now_ms () -. t0;
      (result, root, delta)
  | _ -> fail "EXPLAIN ANALYZE supports only SELECT and INSERT ... SELECT"

let explain_analyze t sql =
  let result, profile, delta = exec_analyze t sql in
  let tail =
    match result with
    | Rows { rows; _ } -> Printf.sprintf " rows=%d" (List.length rows)
    | Affected n -> Printf.sprintf " affected=%d" n
    | Done -> ""
  in
  Profile.render profile
  ^ Printf.sprintf "Total: reads=%d writes=%d probes=%d ms=%.3f%s\n" delta.Stats.page_reads
      delta.Stats.page_writes delta.Stats.index_probes profile.Profile.ms tail
