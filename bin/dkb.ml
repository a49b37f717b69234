(* The testbed's user interface (paper §3.1): an interactive shell over a
   D/KBMS session. Horn clauses go to the Workspace D/KB (facts for
   defined base relations go straight to the extensional database),
   [?- goal.] compiles and runs a query, and dot-commands drive the rest
   of the testbed.

   Run interactively:   dune exec bin/dkb.exe
   Run a script:        dune exec bin/dkb.exe -- examples/scripts/family.dkb *)

module Session = Core.Session
module V = Rdbms.Value

type state = {
  mutable session : Session.t;
  cache : Core.Precompiled.t;
  mutable options : Session.options;
  mutable use_cache : bool;
  mutable interactive : bool;
}

let help_text =
  {|commands:
  fact.                          add a fact (EDB if its base relation exists)
  head(..) :- body, ... .        add a workspace rule
  ?- goal(..).                   compile and run a query
  .base name(col type, ...)      define a base relation (types: integer|char)
  .index name(col) [ordered]     build a hash (or ordered/range) index
  .options [magic off|on|sup|auto] [strategy naive|semi] [indexderived on|off]
           [joinorder syntactic|greedy|costed]
           [maintenance off|auto] [sanitize on|off]
                                 set query-processing options (sanitize audits
                                 engine invariants after every SQL statement)
  .cache on|off                  toggle the precompiled-query cache
  .materialize pred              materialize a stored predicate as a view
                                 maintained by DRed (auto) or recomputed
                                 after each update (off)
  .views                         list materialized views and their strategies
  .insert fact(..) | .delete fact(..)
                                 change a base fact, maintaining the views
  .check                         lint the rule base (workspace + stored),
                                 audit the engine's internal invariants and
                                 compare each view with a from-scratch LFP
  .explain goal(..)              show the compiled program without running it
  .emitc goal(..)                show the generated embedded-SQL/C program
  .store [nocompiled]            persist workspace rules into the Stored D/KB
  .rules                         list workspace and stored rules
  .tables                        list DBMS tables
  .sql <statement>               run raw SQL against the DBMS
  .analyze <statement>           EXPLAIN ANALYZE: run a SELECT (or INSERT
                                 ... SELECT) with per-operator counters
  .analyze-stats [table]         collect optimizer statistics (SQL ANALYZE)
                                 and show the snapshot per table
  .profile goal(..)              run a query and show its per-iteration
                                 LFP profile (deltas, simulated I/O)
  .trace on <file> | .trace off  stream JSONL trace events to a file
  .stats                         show cumulative DBMS counters
  .load <file>                   execute a script of shell commands
  .save <file>                   persist the D/KB (EDB + stored rules) to a file
  .open <file>                   replace the session with a saved D/KB
  begin | commit | rollback      transaction control (rollback undoes since begin)
  .wal <file>                    attach a write-ahead log of committed work
  .checkpoint <file>             save the D/KB to <file>, flush dirty pages,
                                 and truncate the WAL
  .recover <db> <wal> [dir]      rebuild the session from a checkpoint + WAL
                                 (re-attaching paged storage at [dir])
  .storage <dir> [pages]         put base tables on slotted-page heap files
                                 under <dir> behind a [pages]-frame buffer
                                 pool; page_reads stay simulated, and the
                                 pool counts measured hits and misses.
                                 Bare .storage shows pool statistics
  .clear                         clear the workspace
  .help                          this message
  .quit                          leave|}

let printf = Printf.printf

let report_error msg = printf "error: %s\n" msg

let on_result ~ok = function
  | Ok v -> ok v
  | Error msg -> report_error msg

(* .base parent(par char, child char) *)
let parse_base_spec spec =
  match Rdbms.Sql_parser.parse ("CREATE TABLE " ^ spec) with
  | Rdbms.Sql_ast.Create_table { name; columns } -> Ok (name, columns)
  | _ -> Error "expected name(col type, ...)"
  | exception Rdbms.Sql_parser.Parse_error (msg, _) -> Error msg
  | exception Rdbms.Sql_lexer.Lex_error (msg, _) -> Error msg

let parse_index_spec spec =
  match String.index_opt spec '(' with
  | Some i when String.length spec > i + 2 && spec.[String.length spec - 1] = ')' ->
      let table = String.trim (String.sub spec 0 i) in
      let col = String.trim (String.sub spec (i + 1) (String.length spec - i - 2)) in
      Ok (table, col)
  | _ -> Error "expected name(column)"

let run_query st text =
  let t0 = Dkb_util.Timer.now_ms () in
  let result =
    if st.use_cache then
      match Datalog.Parser.parse_query text with
      | goal ->
          Result.map fst (Core.Precompiled.query st.cache st.session ~options:st.options goal)
      | exception Datalog.Parser.Parse_error (msg, pos) ->
          Error (Printf.sprintf "parse error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
    else Session.query st.session ~options:st.options text
  in
  on_result result ~ok:(fun answer ->
      let run = answer.Session.run in
      (match run.Core.Runtime.boolean with
      | Some b -> printf "%s\n" (if b then "yes" else "no")
      | None ->
          let columns, rows = Session.answer_rows answer in
          printf "%s\n" (String.concat "\t" columns);
          List.iter
            (fun row ->
              printf "%s\n" (String.concat "\t" (Array.to_list (Array.map V.to_string row))))
            rows;
          printf "(%d rows)\n" (List.length rows));
      printf "t_c=%.2f ms  t_e=%.2f ms  total=%.2f ms%s\n"
        answer.Session.compiled.Core.Compiler.compile_ms run.Core.Runtime.exec_ms
        (Dkb_util.Timer.now_ms () -. t0)
        (if answer.Session.compiled.Core.Compiler.optimized then "  [magic]" else ""))

let add_clause st text =
  (* facts for existing base relations go to the EDB *)
  match Datalog.Parser.parse_clause text with
  | exception Datalog.Parser.Parse_error (msg, pos) ->
      report_error (Printf.sprintf "parse error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
  | exception Datalog.Lexer.Lex_error (msg, pos) ->
      report_error (Printf.sprintf "lex error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
  | clause ->
      if Datalog.Ast.is_fact clause then begin
        let pred = Datalog.Ast.head_pred clause in
        let catalog = Rdbms.Engine.catalog (Session.engine st.session) in
        if Rdbms.Catalog.table_exists catalog pred then
          let values =
            List.map
              (function Datalog.Ast.Const v -> v | Datalog.Ast.Var _ -> assert false)
              clause.Datalog.Ast.head.Datalog.Ast.args
          in
          on_result (Session.add_fact st.session pred values) ~ok:(fun () ->
              if st.interactive then printf "fact stored in %s\n" pred)
        else
          on_result
            (Core.Workspace.add_clause (Session.workspace st.session) clause)
            ~ok:(fun () -> if st.interactive then printf "fact added to workspace\n")
      end
      else
        on_result
          (Core.Workspace.add_clause (Session.workspace st.session) clause)
          ~ok:(fun () -> if st.interactive then printf "rule added to workspace\n")

let set_options st words =
  let rec go = function
    | [] -> Ok ()
    | "magic" :: v :: rest ->
        let set m = st.options <- { st.options with optimize = m } in
        (match v with
        | "off" -> set Core.Compiler.Opt_off; go rest
        | "on" -> set Core.Compiler.Opt_on; go rest
        | "sup" -> set Core.Compiler.Opt_supplementary; go rest
        | "auto" -> set Core.Compiler.Opt_auto; go rest
        | _ -> Error ("unknown magic mode " ^ v))
    | "strategy" :: v :: rest ->
        let set m = st.options <- { st.options with strategy = m } in
        (match v with
        | "naive" -> set Core.Runtime.Naive; go rest
        | "semi" | "seminaive" -> set Core.Runtime.Seminaive; go rest
        | _ -> Error ("unknown strategy " ^ v))
    | "indexderived" :: v :: rest ->
        st.options <- { st.options with index_derived = v = "on" };
        go rest
    | "joinorder" :: v :: rest ->
        let set m = st.options <- { st.options with join_order = m } in
        (match v with
        | "syntactic" -> set Rdbms.Planner.Syntactic; go rest
        | "greedy" -> set Rdbms.Planner.Greedy; go rest
        | "costed" -> set Rdbms.Planner.Costed; go rest
        | _ -> Error ("unknown join order " ^ v))
    | "sanitize" :: v :: rest -> (
        match v with
        | "on" | "off" ->
            Rdbms.Engine.set_sanitize (Session.engine st.session) (v = "on");
            go rest
        | _ -> Error ("unknown sanitize setting " ^ v))
    | "maintenance" :: v :: rest -> (
        match Core.Incremental.mode_of_string v with
        | Some m ->
            Session.set_maintenance st.session m;
            go rest
        | None -> Error ("unknown maintenance mode " ^ v))
    | w :: _ -> Error ("unknown option " ^ w)
  in
  on_result (go words) ~ok:(fun () ->
      printf
        "options: magic=%s strategy=%s indexderived=%b joinorder=%s maintenance=%s sanitize=%b \
         cache=%b\n"
        (match st.options.Session.optimize with
        | Core.Compiler.Opt_off -> "off"
        | Core.Compiler.Opt_on -> "on"
        | Core.Compiler.Opt_supplementary -> "sup"
        | Core.Compiler.Opt_auto -> "auto")
        (Core.Runtime.strategy_to_string st.options.Session.strategy)
        st.options.Session.index_derived
        (match st.options.Session.join_order with
        | Rdbms.Planner.Syntactic -> "syntactic"
        | Rdbms.Planner.Greedy -> "greedy"
        | Rdbms.Planner.Costed -> "costed")
        (Core.Incremental.mode_to_string (Session.maintenance_mode st.session))
        (Rdbms.Engine.sanitize_enabled (Session.engine st.session))
        st.use_cache)

let show_rules st =
  let ws = Core.Workspace.rules (Session.workspace st.session) in
  let wf = Core.Workspace.facts (Session.workspace st.session) in
  printf "workspace (%d rules, %d facts):\n" (List.length ws) (List.length wf);
  List.iter (fun c -> printf "  %s\n" (Datalog.Ast.clause_to_string c)) (ws @ wf);
  let stored = Core.Stored_dkb.stored_rules (Session.stored st.session) in
  printf "stored (%d rules):\n" (List.length stored);
  List.iter (fun c -> printf "  %s\n" (Datalog.Ast.clause_to_string c)) stored

let show_tables st =
  let catalog = Rdbms.Engine.catalog (Session.engine st.session) in
  List.iter
    (fun tbl ->
      printf "  %-20s %6d rows  %s\n" tbl.Rdbms.Catalog.tbl_name
        (Rdbms.Relation.cardinal tbl.Rdbms.Catalog.tbl_relation)
        (Rdbms.Schema.to_string (Rdbms.Relation.schema tbl.Rdbms.Catalog.tbl_relation)))
    (Rdbms.Catalog.tables catalog)

let run_sql st sql =
  match Rdbms.Engine.exec (Session.engine st.session) sql with
  | Rdbms.Engine.Rows { columns; rows } ->
      printf "%s\n" (String.concat "\t" columns);
      List.iter
        (fun row -> printf "%s\n" (String.concat "\t" (Array.to_list (Array.map V.to_string row))))
        rows;
      printf "(%d rows)\n" (List.length rows)
  | Rdbms.Engine.Affected n -> printf "(%d rows affected)\n" n
  | Rdbms.Engine.Done -> printf "ok\n"
  | exception Rdbms.Engine.Sql_error msg -> report_error msg

let explain_goal st text =
  on_result (Session.explain st.session ~options:st.options text) ~ok:print_string

let analyze_sql st sql =
  match Rdbms.Engine.explain_analyze (Session.engine st.session) sql with
  | text -> print_string text
  | exception Rdbms.Engine.Sql_error msg -> report_error msg

(* .analyze-stats [table] — run SQL ANALYZE and print each refreshed
   snapshot from the catalog *)
let analyze_stats st table =
  let engine = Session.engine st.session in
  let sql = match table with Some t -> "ANALYZE " ^ t | None -> "ANALYZE" in
  match Rdbms.Engine.exec engine sql with
  | exception Rdbms.Engine.Sql_error msg -> report_error msg
  | _ ->
      let catalog = Rdbms.Engine.catalog engine in
      let show tbl =
        match tbl.Rdbms.Catalog.tbl_stats with
        | Some stats ->
            printf "%s:\n%s\n" tbl.Rdbms.Catalog.tbl_name (Rdbms.Table_stats.to_string stats)
        | None -> ()
      in
      (match table with
      | Some name -> (
          match Rdbms.Catalog.find_table catalog name with
          | Some tbl -> show tbl
          | None -> ())
      | None -> List.iter show (Rdbms.Catalog.tables catalog))

let profile_goal st text =
  on_result (Session.query st.session ~options:st.options text) ~ok:(fun answer ->
      let profile = answer.Session.run.Core.Runtime.profile in
      if profile = [] then printf "no LFP iterations (non-recursive goal)\n"
      else begin
        printf "%-16s %4s %8s %9s  %s\n" "clique" "iter" "sim io" "ms" "new tuples";
        List.iter
          (fun ip ->
            printf "%-16s %4d %8d %9.3f  %s\n" ip.Core.Runtime.ip_label
              ip.Core.Runtime.ip_index
              (Rdbms.Stats.total_io ip.Core.Runtime.ip_io)
              ip.Core.Runtime.ip_ms
              (String.concat " "
                 (List.map
                    (fun (p, n) -> Printf.sprintf "%s=%d" p n)
                    ip.Core.Runtime.ip_deltas)))
          profile;
        let phase_totals =
          List.fold_left
            (fun acc ip ->
              List.map2
                (fun (b, total) (_, v) -> (b, total + v))
                acc ip.Core.Runtime.ip_phase_io)
            (List.map (fun (b, _) -> (b, 0)) (List.hd profile).Core.Runtime.ip_phase_io)
            profile
        in
        printf "phase io: %s\n"
          (String.concat "  "
             (List.map (fun (b, v) -> Printf.sprintf "%s=%d" b v) phase_totals))
      end)

(* .insert edge(a, b) / .delete edge(a, b): a ground fact *)
let parse_ground_fact text =
  let text = String.trim text in
  let text =
    if String.length text > 0 && text.[String.length text - 1] = '.' then text else text ^ "."
  in
  match Datalog.Parser.parse_clause text with
  | exception Datalog.Parser.Parse_error (msg, pos) ->
      Error (Printf.sprintf "parse error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
  | exception Datalog.Lexer.Lex_error (msg, pos) ->
      Error (Printf.sprintf "lex error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
  | clause ->
      let args = clause.Datalog.Ast.head.Datalog.Ast.args in
      if
        (not (Datalog.Ast.is_fact clause))
        || List.exists (function Datalog.Ast.Var _ -> true | _ -> false) args
      then Error "expected a ground fact, e.g. edge(1, 2)"
      else
        Ok
          ( Datalog.Ast.head_pred clause,
            List.map
              (function Datalog.Ast.Const v -> v | Datalog.Ast.Var _ -> assert false)
              args )

let print_apply_report (r : Core.Incremental.apply_report) =
  let derived =
    String.concat "  "
      (List.map
         (fun (p, i, d) -> Printf.sprintf "%s +%d/-%d" p i d)
         r.Core.Incremental.derived_changes)
  in
  printf "base +%d/-%d%s%s  [%s]\n" r.Core.Incremental.base_inserted
    r.Core.Incremental.base_deleted
    (if derived = "" then "" else "  " ^ derived)
    (if r.Core.Incremental.rederived > 0 then
       Printf.sprintf "  rederived=%d" r.Core.Incremental.rederived
     else "")
    (if r.Core.Incremental.maintained then "maintained"
     else if r.Core.Incremental.fallback then "recomputed (fallback)"
     else "recomputed")

let emit_c_goal st text =
  match Datalog.Parser.parse_query text with
  | exception Datalog.Parser.Parse_error (msg, pos) ->
      report_error (Printf.sprintf "parse error at %s: %s" (Datalog.Lexer.pos_to_string pos) msg)
  | goal ->
      on_result
        (Core.Compiler.compile ~stored:(Session.stored st.session)
           ~workspace:(Session.workspace st.session) ~optimize:st.options.Session.optimize ~goal ())
        ~ok:(fun compiled -> print_string (Core.Emit_c.program compiled))

let rec handle st line =
  let line = String.trim line in
  if line = "" || line.[0] = '%' then true
  else if line.[0] = '.' then begin
    let words =
      String.split_on_char ' ' line |> List.filter (fun w -> w <> "") |> function
      | cmd :: rest -> (cmd, rest)
      | [] -> (".", [])
    in
    let rest_text (cmd : string) =
      String.trim (String.sub line (String.length cmd) (String.length line - String.length cmd))
    in
    match words with
    | ".quit", _ | ".exit", _ -> false
    | ".help", _ ->
        print_endline help_text;
        true
    | ".base", _ ->
        on_result (parse_base_spec (rest_text ".base")) ~ok:(fun (name, columns) ->
            on_result (Session.define_base st.session name columns ()) ~ok:(fun () ->
                printf "base relation %s defined\n" name));
        true
    | ".index", rest ->
        let ordered = List.mem "ordered" rest in
        let spec =
          let t = rest_text ".index" in
          match Astring.String.cut ~sep:" ordered" t with
          | Some (before, _) -> before
          | None -> t
        in
        on_result (parse_index_spec spec) ~ok:(fun (table, col) ->
            run_sql st
              (Printf.sprintf "CREATE %sINDEX idx__%s__%s ON %s (%s)"
                 (if ordered then "ORDERED " else "")
                 table col table col));
        true
    | ".options", rest ->
        set_options st rest;
        true
    | ".cache", [ v ] ->
        st.use_cache <- v = "on";
        printf "cache %s\n" (if st.use_cache then "on" else "off");
        true
    | ".check", _ ->
        (match Session.check st.session with
        | [] -> printf "check: ok\n"
        | ds ->
            List.iter (fun d -> printf "%s\n" (Datalog.Lint.to_string d)) ds;
            let errs =
              List.length
                (List.filter
                   (fun d -> d.Datalog.Lint.severity = Datalog.Lint.Sev_error)
                   ds)
            in
            printf "check: %d error(s), %d warning(s)\n" errs (List.length ds - errs));
        true
    | ".explain", _ ->
        explain_goal st (rest_text ".explain");
        true
    | ".emitc", _ ->
        emit_c_goal st (rest_text ".emitc");
        true
    | ".store", rest ->
        let compiled_storage = not (List.mem "nocompiled" rest) in
        on_result (Session.update_stored st.session ~compiled_storage ()) ~ok:(fun r ->
            List.iter
              (fun d -> printf "warning: %s\n" (Datalog.Lint.to_string d))
              r.Core.Update.warnings;
            printf "stored %d rules in %.2f ms (%d reachability pairs)\n"
              r.Core.Update.rules_stored r.Core.Update.total_ms r.Core.Update.tc_edges);
        true
    | ".rules", _ ->
        show_rules st;
        true
    | ".tables", _ ->
        show_tables st;
        true
    | ".sql", _ ->
        run_sql st (rest_text ".sql");
        true
    | ".analyze-stats", [] ->
        analyze_stats st None;
        true
    | ".analyze-stats", [ table ] ->
        analyze_stats st (Some table);
        true
    | ".analyze-stats", _ ->
        report_error "usage: .analyze-stats [table]";
        true
    | ".analyze", _ ->
        analyze_sql st (rest_text ".analyze");
        true
    | ".profile", _ ->
        profile_goal st (rest_text ".profile");
        true
    | ".trace", [ "off" ] ->
        Session.detach_trace st.session;
        printf "trace off\n";
        true
    | ".trace", [ "on"; file ] ->
        on_result (Session.attach_trace st.session file) ~ok:(fun () ->
            printf "trace on: %s\n" file);
        true
    | ".trace", _ ->
        report_error "usage: .trace on <file> | .trace off";
        true
    | ".materialize", [ pred ] ->
        on_result (Session.materialize st.session pred) ~ok:(fun assigned ->
            List.iter
              (fun (p, s) ->
                printf "materialized %s (%s)\n" p (Core.Incremental.strategy_to_string s))
              assigned);
        true
    | ".materialize", _ ->
        report_error "usage: .materialize <pred>";
        true
    | ".views", _ ->
        (match Session.views st.session with
        | [] -> printf "no materialized views\n"
        | vs -> List.iter (fun (p, s) -> printf "  %-20s %s\n" p s) vs);
        true
    | ".insert", _ ->
        on_result (parse_ground_fact (rest_text ".insert")) ~ok:(fun (pred, values) ->
            on_result (Session.insert_facts st.session pred [ values ]) ~ok:print_apply_report);
        true
    | ".delete", _ ->
        on_result (parse_ground_fact (rest_text ".delete")) ~ok:(fun (pred, values) ->
            on_result (Session.delete_facts st.session pred [ values ]) ~ok:print_apply_report);
        true
    | ".stats", _ ->
        printf "%s\n" (Rdbms.Stats.to_string (Rdbms.Engine.stats (Session.engine st.session)));
        true
    | ".clear", _ ->
        Session.clear_workspace st.session;
        printf "workspace cleared\n";
        true
    | ".load", [ file ] ->
        load_file st file;
        true
    | ".save", [ file ] ->
        on_result (Session.save st.session file) ~ok:(fun () -> printf "saved to %s
" file);
        true
    | ".open", [ file ] ->
        on_result (Session.restore file) ~ok:(fun session ->
            st.session <- session;
            Core.Precompiled.clear st.cache;
            printf "opened %s
" file);
        true
    | ".wal", [ file ] ->
        on_result (Session.attach_wal st.session file) ~ok:(fun () ->
            printf "wal attached: %s\n" file);
        true
    | ".checkpoint", [ file ] ->
        (match Session.checkpoint st.session ~db:file with
        | Ok () -> printf "checkpoint written to %s\n" file
        | Error "no WAL attached" -> report_error "no WAL attached (.wal <file> first)"
        | Error msg -> report_error msg);
        true
    | ".recover", [ db; wal ] ->
        on_result (Session.recover ~db ~wal ()) ~ok:(fun (session, replayed) ->
            st.session <- session;
            Core.Precompiled.clear st.cache;
            printf "recovered from %s + %s (%d records replayed)\n" db wal replayed);
        true
    | ".recover", [ db; wal; dir ] ->
        on_result (Session.recover ~storage:dir ~db ~wal ()) ~ok:(fun (session, replayed) ->
            st.session <- session;
            Core.Precompiled.clear st.cache;
            printf "recovered from %s + %s (%d records replayed), storage at %s\n" db wal
              replayed dir);
        true
    | ".storage", (([ _ ] | [ _; _ ]) as args) -> (
        let dir = List.hd args in
        let pool_pages =
          match args with
          | [ _; n ] -> int_of_string_opt n
          | _ -> Some 64
        in
        match pool_pages with
        | None | Some 0 -> report_error "usage: .storage <dir> [pool-pages > 0]"; true
        | Some pool_pages ->
            on_result (Session.attach_storage st.session ~dir ~pool_pages ()) ~ok:(fun () ->
                printf "storage attached: %s (%d-page buffer pool)\n" dir pool_pages);
            true)
    | ".storage", [] ->
        (match Rdbms.Engine.storage_dir (Session.engine st.session) with
        | Some dir ->
            let engine = Session.engine st.session in
            let pool = Option.get (Rdbms.Engine.buffer_pool engine) in
            let heaps = Rdbms.Engine.storage_heaps engine in
            let resident =
              List.fold_left (fun acc (_, h) -> acc + Rdbms.Heap.resident h) 0 heaps
            in
            printf
              "storage at %s: %d heaps, %d/%d frames resident, %d hits / %d misses / %d \
               writebacks\n"
              dir (List.length heaps) resident
              (Rdbms.Buffer_pool.size pool)
              (Rdbms.Buffer_pool.hits pool)
              (Rdbms.Buffer_pool.misses pool)
              (Rdbms.Buffer_pool.writebacks pool)
        | None -> printf "no storage attached (.storage <dir> [pool-pages])\n");
        true
    | cmd, _ ->
        report_error (Printf.sprintf "unknown command %s (try .help)" cmd);
        true
  end
  else if String.length line >= 2 && String.sub line 0 2 = "?-" then begin
    run_query st (String.sub line 2 (String.length line - 2));
    true
  end
  else if
    (* transaction control reads naturally without the .sql prefix *)
    match String.split_on_char ' ' (String.uppercase_ascii line) with
    | first :: _ ->
        let first =
          match String.index_opt first ';' with
          | Some i -> String.sub first 0 i
          | None -> first
        in
        List.mem first [ "BEGIN"; "COMMIT"; "ROLLBACK" ]
    | [] -> false
  then begin
    run_sql st line;
    true
  end
  else begin
    add_clause st line;
    true
  end

(* The shell must survive anything a command raises: report and continue.
   [Sql_error] and [Corrupt] are mapped to [Error] inside the session, but
   commands that talk to the engine directly (.sql facts, raw shell I/O)
   can still surface them — and a residual [Failure] anywhere is a bug
   that should not take the REPL down with it. *)
and safe_handle st line =
  try handle st line with
  | Rdbms.Engine.Sql_error msg ->
      report_error msg;
      true
  | Core.Stored_dkb.Corrupt msg ->
      report_error ("corrupt stored D/KB: " ^ msg);
      true
  | Failure msg ->
      report_error msg;
      true
  | Sys_error msg ->
      report_error msg;
      true

and load_file st file =
  match open_in file with
  | exception Sys_error msg -> report_error msg
  | ic ->
      let was_interactive = st.interactive in
      st.interactive <- false;
      (try
         let rec loop () =
           match input_line ic with
           | line ->
               ignore (safe_handle st line);
               loop ()
           | exception End_of_file -> ()
         in
         loop ()
       with e ->
         close_in ic;
         st.interactive <- was_interactive;
         raise e);
      close_in ic;
      st.interactive <- was_interactive

(* ------------------------------------------------------------------ *)
(* [dkb check <file.dkb>...]: batch lint over shell scripts without
   executing them. Each file is read the way the shell would: [.base]
   and [.sql CREATE TABLE] lines register base relations, clause lines
   parse with source positions, queries and goal-taking commands become
   lint roots, [.load] recurses. Diagnostics print as
   [file:line:col: severity[CODE] message]; exit status 1 when any
   error-class diagnostic (including E100 syntax errors) was reported. *)

let check_files files =
  let module L = Datalog.Lint in
  let any_error = ref false in
  let check_one top_file =
    let bases : (string, Rdbms.Datatype.t list) Hashtbl.t = Hashtbl.create 16 in
    let clauses = ref [] in
    let roots = ref [] in
    let extra = ref [] in
    let e100 ?loc msg =
      extra :=
        { L.code = "E100"; severity = L.Sev_error; loc; pred = ""; message = msg } :: !extra
    in
    let goal_root ~lineno ~col0 text =
      match Datalog.Parser.parse_query text with
      | (goal : Datalog.Ast.atom) -> roots := goal.Datalog.Ast.pred :: !roots
      | exception Datalog.Parser.Parse_error (msg, pos) ->
          e100 ~loc:{ Datalog.Lexer.line = lineno; col = pos.Datalog.Lexer.col + col0 } msg
      | exception Datalog.Lexer.Lex_error (msg, pos) ->
          e100 ~loc:{ Datalog.Lexer.line = lineno; col = pos.Datalog.Lexer.col + col0 } msg
    in
    let rec process_file file =
      match open_in file with
      | exception Sys_error msg -> e100 msg
      | ic ->
          let lineno = ref 0 in
          (try
             while true do
               let raw = input_line ic in
               incr lineno;
               let n = !lineno in
               let line = String.trim raw in
               if line = "" || line.[0] = '%' then ()
               else if String.length line >= 2 && String.sub line 0 2 = "?-" then
                 goal_root ~lineno:n ~col0:2 (String.sub line 2 (String.length line - 2))
               else if line.[0] = '.' then begin
                 let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
                 let rest cmd =
                   String.trim
                     (String.sub line (String.length cmd) (String.length line - String.length cmd))
                 in
                 match words with
                 | ".base" :: _ -> (
                     match parse_base_spec (rest ".base") with
                     | Ok (name, columns) -> Hashtbl.replace bases name (List.map snd columns)
                     | Error msg ->
                         e100 ~loc:{ Datalog.Lexer.line = n; col = 1 } ("bad .base: " ^ msg))
                 | ".sql" :: _ -> (
                     match Rdbms.Sql_parser.parse (rest ".sql") with
                     | Rdbms.Sql_ast.Create_table { name; columns } ->
                         Hashtbl.replace bases name (List.map snd columns)
                     | _ -> ()
                     | exception Rdbms.Sql_parser.Parse_error _ -> ()
                     | exception Rdbms.Sql_lexer.Lex_error _ -> ())
                 | (".explain" | ".profile" | ".emitc") :: _ ->
                     let cmd = List.hd words in
                     goal_root ~lineno:n ~col0:(String.length cmd + 1) (rest cmd)
                 | [ ".materialize"; pred ] -> roots := pred :: !roots
                 | [ ".load"; f ] -> process_file f
                 | _ -> ()
               end
               else if
                 match String.split_on_char ' ' (String.uppercase_ascii line) with
                 | first :: _ ->
                     let first =
                       match String.index_opt first ';' with
                       | Some i -> String.sub first 0 i
                       | None -> first
                     in
                     List.mem first [ "BEGIN"; "COMMIT"; "ROLLBACK" ]
                 | [] -> false
               then ()
               else begin
                 match Datalog.Parser.parse_clause_located line with
                 | clause, pos ->
                     clauses :=
                       (clause, Some { Datalog.Lexer.line = n; col = pos.Datalog.Lexer.col })
                       :: !clauses
                 | exception Datalog.Parser.Parse_error (msg, pos) ->
                     e100 ~loc:{ Datalog.Lexer.line = n; col = pos.Datalog.Lexer.col } msg
                 | exception Datalog.Lexer.Lex_error (msg, pos) ->
                     e100 ~loc:{ Datalog.Lexer.line = n; col = pos.Datalog.Lexer.col } msg
               end
             done
           with End_of_file -> ());
          close_in ic
    in
    process_file top_file;
    let diags =
      L.check
        ~roots:(List.sort_uniq compare !roots)
        ~base_types:(Hashtbl.find_opt bases)
        ~is_base:(Hashtbl.mem bases)
        ~clauses:(List.rev !clauses) ()
    in
    let all = List.sort L.compare_diagnostic (!extra @ diags) in
    List.iter (fun d -> printf "%s:%s\n" top_file (L.to_string d)) all;
    if L.has_errors all then any_error := true
  in
  List.iter check_one files;
  if !any_error then 1 else 0

let () =
  let st =
    {
      session = Session.create ();
      cache = Core.Precompiled.create ();
      options = Session.default_options;
      use_cache = false;
      interactive = true;
    }
  in
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "check" :: (_ :: _ as files) -> exit (check_files files)
  | [ file ] -> load_file st file
  | [] ->
      printf "D/KBMS testbed shell - .help for commands\n";
      let rec loop () =
        printf "dkb> %!";
        match input_line stdin with
        | line -> if safe_handle st line then loop ()
        | exception End_of_file -> ()
      in
      loop ()
  | _ ->
      prerr_endline "usage: dkb [check <file.dkb>... | script.dkb]";
      exit 2
