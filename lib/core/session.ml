module Engine = Rdbms.Engine
module Value = Rdbms.Value
module Ast = Datalog.Ast
module Timer = Dkb_util.Timer

type t = {
  engine : Engine.t;
  sid : int;  (* unique within the shared engine; tags trace events *)
  stats : Rdbms.Stats.t;  (* this session's counter deltas only *)
  stored : Stored_dkb.t;
  workspace : Workspace.t;
  incr : Incremental.t;
  mutable epoch : int;
  mutable changes : (int * string) list; (* (epoch, head pred) *)
  mutable maintenance : Incremental.mode;
  mutable wal : Rdbms.Wal.t option;
  mutable trace : Trace.t option;
}

(* Every name-mangled table ("__" infix: the LFP scratch tables and the
   mat__ maintenance tables) is engine-internal churn — keep those
   in memory and put only user base relations and the dictionary on disk. *)
let persistable name =
  let n = String.length name in
  let rec mangled i = i + 1 < n && ((name.[i] = '_' && name.[i + 1] = '_') || mangled (i + 1)) in
  not (mangled 0)

(* Snapshot versioning covers what a reader can observe: user base
   relations, the dictionary, and the maintained views. The LFP
   scratch tables are transient within one query — freezing copies of
   them per writer iteration would be pure overhead. *)
let versioned name =
  persistable name || String.starts_with ~prefix:"mat__" name

let of_engine engine =
  let stored = Stored_dkb.init engine in
  Engine.set_version_filter engine versioned;
  {
    engine;
    sid = Engine.fresh_session_id engine;
    stats = Rdbms.Stats.create ();
    stored;
    workspace = Workspace.create ();
    incr = Incremental.create stored;
    epoch = 0;
    changes = [];
    maintenance = Incremental.Auto;
    wal = None;
    trace = None;
  }

let create () = of_engine (Engine.create ())

(* Every engine-touching entry point runs under this bracket: statement
   deltas accumulate into the session's own counters and trace events
   carry the session id, so K sessions sharing one engine stay
   distinguishable. *)
let scoped t f = Engine.with_session t.engine ~sid:t.sid ~charge:t.stats f

let engine t = t.engine
let session_id t = t.sid
let stored t = t.stored
let workspace t = t.workspace
let db_stats t = t.stats
let engine_stats t = Engine.stats t.engine
let rule_epoch t = t.epoch
let maintenance_mode t = t.maintenance
let set_maintenance t mode = t.maintenance <- mode

let changed_since t epoch =
  List.filter_map (fun (e, p) -> if e > epoch then Some p else None) t.changes

let bump t pred =
  t.epoch <- t.epoch + 1;
  t.changes <- (t.epoch, pred) :: t.changes

(* ------------------------------------------------------------------ *)
(* Extensional database *)

let define_base t name cols ?(indexes = []) () =
  scoped t @@ fun () ->
  match Datalog.Names.check_user_pred name with
  | Error _ as e -> e
  | Ok () -> (
      if cols = [] then Error "a base relation needs at least one column"
      else
        match
          Engine.exec t.engine
            (Rdbms.Sql_printer.stmt (Rdbms.Sql_ast.Create_table { name; columns = cols }))
        with
        | exception Engine.Sql_error msg -> Error msg
        | _ ->
            Stored_dkb.register_base t.stored name cols;
            let rec build = function
              | [] -> Ok ()
              | col :: rest -> (
                  match
                    Engine.exec t.engine
                      (Printf.sprintf "CREATE INDEX idx__%s__%s ON %s (%s)" name col name col)
                  with
                  | exception Engine.Sql_error msg -> Error msg
                  | _ -> build rest)
            in
            build indexes)

(* With materialized views registered, every base-fact mutation routes
   through the maintenance layer so the views stay consistent. *)
let apply_facts t ~inserts ~deletes () =
  scoped t @@ fun () ->
  let result = Incremental.apply t.incr ~mode:t.maintenance ~inserts ~deletes () in
  (match (result, t.trace) with Ok report, Some tr -> Trace.maintenance tr report | _ -> ());
  result

let insert_facts t name rows =
  apply_facts t ~inserts:(List.map (fun row -> (name, row)) rows) ~deletes:[] ()

let delete_facts t name rows =
  apply_facts t ~inserts:[] ~deletes:(List.map (fun row -> (name, row)) rows) ()

let add_fact t name values =
  scoped t @@ fun () ->
  if Incremental.is_maintained t.incr then
    match insert_facts t name [ values ] with Ok _ -> Ok () | Error _ as e -> e
  else
    match
      Engine.exec t.engine
        (Printf.sprintf "INSERT INTO %s VALUES (%s)" name
           (String.concat ", " (List.map Value.to_sql values)))
    with
    | exception Engine.Sql_error msg -> Error msg
    | _ -> Ok ()

let add_facts t name rows =
  scoped t @@ fun () ->
  if rows = [] then Ok 0
  else if Incremental.is_maintained t.incr then
    match insert_facts t name rows with
    | Ok r -> Ok r.Incremental.base_inserted
    | Error _ as e -> e
  else begin
    (* batch VALUES lists to keep statements a sane size *)
    let batch = 500 in
    let rec chunks acc = function
      | [] -> List.rev acc
      | l ->
          let rec take n acc = function
            | [] -> (List.rev acc, [])
            | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
            | rest -> (List.rev acc, rest)
          in
          let chunk, rest = take batch [] l in
          chunks (chunk :: acc) rest
    in
    let inserted = ref 0 in
    let rec run = function
      | [] -> Ok !inserted
      | chunk :: rest -> (
          let values =
            String.concat ", "
              (List.map
                 (fun row -> "(" ^ String.concat ", " (List.map Value.to_sql row) ^ ")")
                 chunk)
          in
          match Engine.exec t.engine (Printf.sprintf "INSERT INTO %s VALUES %s" name values) with
          | exception Engine.Sql_error msg -> Error msg
          | Engine.Affected n ->
              inserted := !inserted + n;
              run rest
          | Engine.Rows _ | Engine.Done -> run rest)
    in
    run (chunks [] rows)
  end

let base_count t name =
  try Engine.table_cardinality t.engine name with Engine.Sql_error _ -> 0

(* ------------------------------------------------------------------ *)
(* Workspace rules *)

let add_rule t text =
  match Datalog.Parser.parse_clause_located text with
  | exception Datalog.Parser.Parse_error (msg, pos) ->
      Error (Printf.sprintf "parse error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
  | exception Datalog.Lexer.Lex_error (msg, pos) ->
      Error (Printf.sprintf "lex error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
  | clause, loc -> (
      match Workspace.add_clause ~loc t.workspace clause with
      | Ok () ->
          bump t (Ast.head_pred clause);
          Ok ()
      | Error _ as e -> e)

let load_rules t text =
  match Workspace.add_text t.workspace text with
  | Ok () ->
      List.iter (fun p -> bump t p) (Workspace.head_predicates t.workspace);
      Ok ()
  | Error _ as e -> e

let clear_workspace t =
  List.iter (fun p -> bump t p) (Workspace.head_predicates t.workspace);
  Workspace.clear t.workspace

(* ------------------------------------------------------------------ *)
(* Querying *)

type options = {
  optimize : Compiler.optimize_mode;
  strategy : Runtime.strategy;
  index_derived : bool;
  max_iterations : int;
  join_order : Rdbms.Planner.join_order;
}

let default_options =
  {
    optimize = Compiler.Opt_off;
    strategy = Runtime.Seminaive;
    index_derived = false;
    max_iterations = 100_000;
    join_order = Rdbms.Planner.Syntactic;
  }

type answer = {
  compiled : Compiler.compiled;
  run : Runtime.report;
  total_ms : float;
}

let query_goal t ?(options = default_options) ?on_iteration goal =
  scoped t @@ fun () ->
  let goal_text = Ast.atom_to_string goal in
  (match t.trace with Some tr -> Trace.query_begin tr goal_text | None -> ());
  let t0 = Timer.now_ms () in
  (* the query runs under the caller's join-order mode; the engine's prior
     mode is restored on every exit so the setting stays query-scoped *)
  let saved_join_order = Engine.join_order t.engine in
  Engine.set_join_order t.engine options.join_order;
  (* every exit — success or error — goes through here so the trace's
     query_begin/query_end events always pair up *)
  let finish result =
    Engine.set_join_order t.engine saved_join_order;
    (match t.trace with
    | Some tr ->
        let ms = Timer.now_ms () -. t0 in
        (match result with
        | Ok a ->
            Trace.query_end tr goal_text ~ok:true ~ms
              ~rows:(List.length a.run.Runtime.rows) ()
        | Error _ -> Trace.query_end tr goal_text ~ok:false ~ms ())
    | None -> ());
    result
  in
  match
    Compiler.compile ~stored:t.stored ~workspace:t.workspace ~optimize:options.optimize ~goal ()
  with
  | exception Stored_dkb.Corrupt msg -> finish (Error ("corrupt stored D/KB: " ^ msg))
  | exception Engine.Sql_error msg -> finish (Error ("DBMS error during compilation: " ^ msg))
  | exception Failure msg -> finish (Error msg)
  | Error _ as e -> finish e
  | Ok compiled -> (
      (* the trace's iteration event and the caller's pump (the server
         serves snapshot reads between LFP iterations through this)
         share one runtime observer slot *)
      let observer =
        match (t.trace, on_iteration) with
        | None, None -> None
        | tr, cb ->
            Some
              (fun ip ->
                (match tr with Some tr -> Trace.iteration tr ip | None -> ());
                match cb with Some f -> f ip | None -> ())
      in
      match
        Runtime.execute t.engine ~strategy:options.strategy
          ~index_derived:options.index_derived ~max_iterations:options.max_iterations ?observer
          compiled.Compiler.program
      with
      | exception Engine.Sql_error msg -> finish (Error ("DBMS error during execution: " ^ msg))
      | exception Stored_dkb.Corrupt msg -> finish (Error ("corrupt stored D/KB: " ^ msg))
      | exception Failure msg -> finish (Error msg)
      | run ->
          finish
            (Ok { compiled; run; total_ms = compiled.Compiler.compile_ms +. run.Runtime.exec_ms }))

let query t ?options ?on_iteration text =
  match Datalog.Parser.parse_query text with
  | exception Datalog.Parser.Parse_error (msg, pos) ->
      Error (Printf.sprintf "parse error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
  | exception Datalog.Lexer.Lex_error (msg, pos) ->
      Error (Printf.sprintf "lex error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
  | goal -> query_goal t ?options ?on_iteration goal

let answer_rows a = (a.run.Runtime.columns, a.run.Runtime.rows)

(* ------------------------------------------------------------------ *)
(* Raw SQL and snapshot transactions (the server's entry points) *)

let sql t text =
  scoped t @@ fun () ->
  match Engine.exec t.engine text with
  | r -> Ok r
  | exception Engine.Sql_error msg -> Error msg

let begin_snapshot t =
  scoped t @@ fun () ->
  match Engine.begin_snapshot t.engine with
  | ts -> Ok ts
  | exception Engine.Sql_error msg -> Error msg

let end_snapshot t ts =
  scoped t @@ fun () ->
  match Engine.release_snapshot t.engine ts with
  | () -> Ok ()
  | exception Engine.Sql_error msg -> Error msg

let snapshot_query t ~ts text =
  scoped t @@ fun () ->
  match Engine.exec_snapshot t.engine ~ts text with
  | Engine.Rows { columns; rows } -> Ok (columns, rows)
  | Engine.Affected _ | Engine.Done -> Error "expected a SELECT statement"
  | exception Engine.Sql_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Stored D/KB updates *)

let update_stored t ?compiled_storage ?(clear = false) () =
  scoped t @@ fun () ->
  match Update.update ~stored:t.stored ~workspace:t.workspace ?compiled_storage () with
  | Ok report -> (
      List.iter (fun p -> bump t p) (Workspace.head_predicates t.workspace);
      if clear then Workspace.clear t.workspace;
      (* the rule base changed under any registered views: rebuild them *)
      if Incremental.is_maintained t.incr then
        match Incremental.ensure t.incr with
        | Ok () -> Ok report
        | Error msg -> Error ("maintained views stale after update: " ^ msg)
      else Ok report)
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Incremental view maintenance *)

let materialize t root =
  scoped t @@ fun () -> Incremental.materialize t.incr ~mode:t.maintenance root
let views t = Incremental.registered t.incr
let view_rows t pred = scoped t @@ fun () -> Incremental.view_rows t.incr pred
let refresh_views t = scoped t @@ fun () -> Incremental.refresh t.incr

(* ------------------------------------------------------------------ *)
(* Inspection *)

(* Each registered view against a from-scratch LFP of its predicate over
   the stored rules, the ones the view maintains: a view whose rows
   differ is reported on its [mat__] table, whatever bookkeeping
   produced it. *)
let view_violations t =
  let catalog = Engine.catalog t.engine in
  List.filter_map
    (fun (p, _) ->
      let table = Datalog.Names.mat p in
      let violation fmt =
        Printf.ksprintf (fun m -> Some { Rdbms.Invariants.v_table = table; v_message = m }) fmt
      in
      match Rdbms.Catalog.find_table catalog table with
      | None -> violation "materialized view of %s has no table" p
      | Some tbl -> (
          let mat = tbl.Rdbms.Catalog.tbl_relation in
          let arity = Rdbms.Schema.arity (Rdbms.Relation.schema mat) in
          let args = List.init arity (fun i -> Ast.Var (Printf.sprintf "X%d" i)) in
          let goal = { Ast.pred = p; args } in
          match Compiler.compile ~stored:t.stored ~workspace:(Workspace.create ()) ~goal () with
          | exception (Engine.Sql_error msg | Failure msg | Stored_dkb.Corrupt msg) ->
              violation "cannot evaluate %s from scratch: %s" p msg
          | Error msg -> violation "cannot evaluate %s from scratch: %s" p msg
          | Ok compiled -> (
              match Runtime.execute t.engine compiled.Compiler.program with
              | exception (Engine.Sql_error msg | Failure msg) ->
                  violation "cannot evaluate %s from scratch: %s" p msg
              | run ->
                  let rows = List.sort_uniq compare run.Runtime.rows in
                  let missing =
                    List.length (List.filter (fun r -> not (Rdbms.Relation.mem mat r)) rows)
                  in
                  let spurious = Rdbms.Relation.cardinal mat - (List.length rows - missing) in
                  if missing = 0 && spurious = 0 then None
                  else
                    violation "%d tuples missing and %d spurious against a from-scratch LFP of %s"
                      missing spurious p)))
    (Incremental.registered t.incr)

let check t =
  scoped t @@ fun () ->
  let ws = Workspace.located t.workspace in
  let ws_clauses = List.map fst ws in
  (* stored rules already loaded into the workspace would double-report *)
  let stored =
    List.filter
      (fun c -> not (List.exists (Ast.equal_clause c) ws_clauses))
      (Stored_dkb.stored_rules t.stored)
  in
  let clauses = ws @ List.map (fun c -> (c, None)) stored in
  let is_base p = Stored_dkb.base_schema t.stored p <> None in
  let base_types p = Option.map (List.map snd) (Stored_dkb.base_schema t.stored p) in
  let lint = Datalog.Lint.check ~base_types ~is_base ~clauses () in
  let invariants =
    List.map
      (fun (v : Rdbms.Invariants.violation) ->
        {
          Datalog.Lint.code = "E301";
          severity = Datalog.Lint.Sev_error;
          loc = None;
          pred = v.Rdbms.Invariants.v_table;
          message = "engine invariant: " ^ v.Rdbms.Invariants.v_message;
        })
      (Engine.check_invariants t.engine @ view_violations t)
  in
  List.stable_sort Datalog.Lint.compare_diagnostic (invariants @ lint)

let explain t ?(options = default_options) text =
  scoped t @@ fun () ->
  match Datalog.Parser.parse_query text with
  | exception Datalog.Parser.Parse_error (msg, pos) ->
      Error (Printf.sprintf "parse error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
  | goal -> (
      match
        Compiler.compile ~stored:t.stored ~workspace:t.workspace ~optimize:options.optimize
          ~goal ()
      with
      | exception Stored_dkb.Corrupt msg -> Error ("corrupt stored D/KB: " ^ msg)
      | exception Engine.Sql_error msg -> Error ("DBMS error during compilation: " ^ msg)
      | exception Failure msg -> Error msg
      | Error _ as e -> e
      | Ok compiled ->
          let buf = Buffer.create 256 in
          Buffer.add_string buf
            (Printf.sprintf "goal: %s%s\n" (Ast.atom_to_string compiled.Compiler.goal)
               (if compiled.Compiler.optimized then " (magic-sets optimized)" else ""));
          Buffer.add_string buf
            ("evaluation order: " ^ Datalog.Evalgraph.pp compiled.Compiler.eval_order ^ "\n");
          Buffer.add_string buf "program clauses:\n";
          List.iter
            (fun c -> Buffer.add_string buf ("  " ^ Ast.clause_to_string c ^ "\n"))
            compiled.Compiler.clauses;
          Buffer.add_string buf "generated SQL:\n";
          List.iter
            (fun sql -> Buffer.add_string buf ("  " ^ sql ^ "\n"))
            (Codegen.all_sql_texts compiled.Compiler.program);
          Ok (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Persistence *)

let save t path = Rdbms.Persist.save t.engine path

let restore path =
  match Rdbms.Persist.restore path with
  | Error _ as e -> e
  | Ok engine -> Ok (of_engine engine)

(* ------------------------------------------------------------------ *)
(* Write-ahead logging *)

let wal t = t.wal

let attach_wal t path =
  match Rdbms.Wal.open_log path with
  | exception Sys_error msg -> Error msg
  | fresh ->
      (match t.wal with Some old -> Rdbms.Wal.close old | None -> ());
      t.wal <- Some fresh;
      Rdbms.Wal.attach fresh t.engine;
      Ok ()

let checkpoint t ~db =
  match t.wal with
  | None -> Error "no WAL attached"
  | Some w -> Rdbms.Wal.checkpoint w t.engine ~db

(* ------------------------------------------------------------------ *)
(* Paged storage *)

let attach_storage t ~dir ?pool_pages ?mode () =
  match Engine.attach_storage t.engine ~dir ?pool_pages ~persist:persistable ?mode () with
  | () -> Ok ()
  | exception Engine.Sql_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Structured tracing *)

let trace t = t.trace

let detach_trace t =
  match t.trace with
  | None -> ()
  | Some tr ->
      Engine.set_trace_hook t.engine None;
      Trace.close tr;
      t.trace <- None

let attach_trace t path =
  match Trace.open_sink path with
  | Error _ as e -> e
  | Ok tr ->
      detach_trace t;
      t.trace <- Some tr;
      Engine.set_trace_hook t.engine (Some (Trace.engine_event tr));
      Ok ()

let recover ?storage ?pool_pages ~db ~wal:wal_path () =
  let base =
    if Sys.file_exists db then Rdbms.Persist.restore db
    else Ok (Rdbms.Engine.create ())
  in
  match base with
  | Error _ as e -> e
  | Ok engine -> (
      (* The Stored D/KB's dictionary tables are created when a session is
         born — before any WAL attaches — so they are in the checkpoint,
         not the log. Ensure they exist before replaying records that
         reference them (the no-checkpoint-yet case). *)
      ignore (Stored_dkb.init engine : Stored_dkb.t);
      (* Storage attaches with [`Overwrite]: post-checkpoint evictions can
         leave heap files ahead of the dump, and replay assumes exactly
         the dump state — the log is the truth, the heaps are a cache. *)
      (match storage with
      | Some dir ->
          Engine.attach_storage engine ~dir ?pool_pages ~persist:persistable ~mode:`Overwrite ()
      | None -> ());
      match Rdbms.Wal.replay ~subsumed:(Rdbms.Wal.subsumed ~db) engine wal_path with
      | Error _ as e -> e
      | Ok replayed -> (
          (* re-init so the ruleid counter resumes past replayed rules *)
          let t = of_engine engine in
          (* maintenance runs with logging suspended, so replay leaves the
             views stale: re-evaluate them from the replayed base state *)
          match
            if Incremental.is_maintained t.incr then Incremental.ensure t.incr else Ok ()
          with
          | Error msg -> Error ("view re-evaluation after recovery: " ^ msg)
          | Ok () -> (
              match attach_wal t wal_path with
              | Ok () -> Ok (t, replayed)
              | Error msg -> Error msg)))
