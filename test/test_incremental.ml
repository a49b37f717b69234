(* Tests for incremental view maintenance: after every update, a
   maintained view must be tuple-identical to a from-scratch LFP over
   the same base state — for counting (non-recursive) and DRed
   (recursive) strategies alike. Plus the update-path edge cases:
   deleting a never-inserted fact, delete + re-insert in one batch,
   ROLLBACK restoring base relations and derivation counts. *)

module Session = Core.Session
module Incremental = Core.Incremental
module Engine = Rdbms.Engine
module D = Rdbms.Datatype
module V = Rdbms.Value
module Rng = Dkb_util.Rng

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

let query_rows s goal =
  let a = ok (Session.query s goal) in
  sorted_rows (snd (Session.answer_rows a))

let view s pred = sorted_rows (ok (Session.view_rows s pred))

let table_rows s sql =
  match Engine.exec (Session.engine s) sql with
  | Engine.Rows { rows; _ } -> sorted_rows rows
  | _ -> Alcotest.fail ("expected rows from " ^ sql)

let setup ?(indexes = [ "src" ]) rules =
  let s = Session.create () in
  ok (Session.define_base s "edge" [ ("src", D.TInt); ("dst", D.TInt) ] ~indexes ());
  List.iter (fun r -> ok (Session.add_rule s r)) rules;
  ignore (ok (Session.update_stored s ~clear:true ()));
  s

let load_edges s edges =
  ignore (ok (Session.add_facts s "edge" (Workload.Graphgen.to_rows edges)))

let row_of (a, b) = [ V.Int a; V.Int b ]

(* ------------------------------------------------------------------ *)
(* Randomized differential battery: maintained view = from-scratch LFP
   after every update of a mixed insert/delete workload. *)

let differential ~mode ~rules ~roots ~goals ~seed ~steps () =
  let s = setup rules in
  Session.set_maintenance s mode;
  let rng = Rng.create seed in
  let n = 7 in
  (* initial graph: random edges over n nodes *)
  let live = Hashtbl.create 32 in
  let initial =
    List.init 12 (fun _ -> (1 + Rng.int rng n, 1 + Rng.int rng n))
    |> List.sort_uniq compare
  in
  List.iter (fun e -> Hashtbl.replace live e ()) initial;
  load_edges s initial;
  List.iter (fun root -> ignore (ok (Session.materialize s root))) roots;
  let maintained = ref 0 in
  let check step =
    List.iter
      (fun (pred, goal) ->
        Alcotest.(check (list (list string)))
          (Printf.sprintf "%s = from-scratch LFP after step %d" pred step)
          (List.map (List.map V.to_string) (query_rows s goal))
          (List.map (List.map V.to_string) (view s pred)))
      goals;
    (* every step is a quiescent point: the full sanitizer (structural
       audit + matcnt__/mat__ cross-checks) must hold *)
    match Engine.check_invariants (Session.engine s) with
    | [] -> ()
    | vs ->
        Alcotest.failf "invariants violated after step %d: %s" step
          (String.concat "; " (List.map Rdbms.Invariants.violation_to_string vs))
  in
  check (-1);
  for step = 0 to steps - 1 do
    let edges = Hashtbl.fold (fun e () acc -> e :: acc) live [] in
    let do_delete = edges <> [] && Rng.bool rng in
    let report =
      if do_delete then begin
        let e = Rng.pick rng (Array.of_list edges) in
        Hashtbl.remove live e;
        ok (Session.delete_facts s "edge" [ row_of e ])
      end
      else begin
        let e = (1 + Rng.int rng n, 1 + Rng.int rng n) in
        Hashtbl.replace live e ();
        ok (Session.insert_facts s "edge" [ row_of e ])
      end
    in
    if report.Incremental.maintained then incr maintained;
    check step
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most steps maintained incrementally (%d/%d)" !maintained steps)
    true
    (2 * !maintained >= steps)

let test_differential_counting () =
  (* layered non-recursive views: deltas propagate through a derived
     predicate into another counting-maintained one *)
  differential ~mode:Incremental.Counting
    ~rules:
      [
        "hop2(X, Y) :- edge(X, Z), edge(Z, Y).";
        "hop3(X, Y) :- hop2(X, Z), edge(Z, Y).";
      ]
    ~roots:[ "hop3" ]
    ~goals:[ ("hop2", "hop2(X, Y)"); ("hop3", "hop3(X, Y)") ]
    ~seed:42 ~steps:40 ()

let test_differential_dred () =
  (* the recursive clique (cycles included in the random graphs) *)
  differential ~mode:Incremental.Auto
    ~rules:
      [
        "anc(X, Y) :- edge(X, Y).";
        "anc(X, Y) :- edge(X, Z), anc(Z, Y).";
      ]
    ~roots:[ "anc" ]
    ~goals:[ ("anc", "anc(X, Y)") ]
    ~seed:7 ~steps:40 ()

let test_differential_mixed () =
  (* counting below DRed: a non-recursive view feeding a recursive one *)
  differential ~mode:Incremental.Auto
    ~rules:
      [
        "hop2(X, Y) :- edge(X, Z), edge(Z, Y).";
        "far(X, Y) :- hop2(X, Y).";
        "far(X, Y) :- hop2(X, Z), far(Z, Y).";
      ]
    ~roots:[ "far" ]
    ~goals:[ ("hop2", "hop2(X, Y)"); ("far", "far(X, Y)") ]
    ~seed:99 ~steps:30 ()

(* ------------------------------------------------------------------ *)
(* Derivation counts: exact multiplicities on the diamond *)

let test_counting_multiplicities () =
  let s = setup [ "hop2(X, Y) :- edge(X, Z), edge(Z, Y)." ] in
  Session.set_maintenance s Incremental.Counting;
  load_edges s [ (1, 2); (1, 3); (2, 4); (3, 4) ];
  ignore (ok (Session.materialize s "hop2"));
  (* hop2(1,4) has two derivations: via 2 and via 3 *)
  Alcotest.(check (list (list string)))
    "two derivations recorded"
    [ [ "1"; "4"; "2" ] ]
    (List.map (List.map V.to_string) (table_rows s "SELECT * FROM matcnt__hop2"));
  let r = ok (Session.delete_facts s "edge" [ row_of (2, 4) ]) in
  Alcotest.(check bool) "maintained" true r.Incremental.maintained;
  (* one support gone, the tuple survives on the other *)
  Alcotest.(check (list (list string)))
    "count decremented, tuple kept"
    [ [ "1"; "4"; "1" ] ]
    (List.map (List.map V.to_string) (table_rows s "SELECT * FROM matcnt__hop2"));
  Alcotest.(check (list (list string)))
    "view keeps the tuple" [ [ "1"; "4" ] ]
    (List.map (List.map V.to_string) (view s "hop2"));
  let r = ok (Session.delete_facts s "edge" [ row_of (3, 4) ]) in
  Alcotest.(check (list (pair string (pair int int))))
    "view delta reported"
    [ ("hop2", (0, 1)) ]
    (List.map (fun (p, i, d) -> (p, (i, d))) r.Incremental.derived_changes);
  Alcotest.(check (list (list string))) "tuple gone" []
    (List.map (List.map V.to_string) (view s "hop2"))

(* ------------------------------------------------------------------ *)
(* Update-path edge cases *)

let test_delete_never_inserted () =
  let s = setup [ "hop2(X, Y) :- edge(X, Z), edge(Z, Y)." ] in
  load_edges s [ (1, 2); (2, 3) ];
  ignore (ok (Session.materialize s "hop2"));
  let before = view s "hop2" in
  let r = ok (Session.delete_facts s "edge" [ row_of (8, 9) ]) in
  Alcotest.(check int) "no base rows deleted" 0 r.Incremental.base_deleted;
  Alcotest.(check (list (pair string (pair int int)))) "no view changes" []
    (List.map (fun (p, i, d) -> (p, (i, d))) r.Incremental.derived_changes);
  Alcotest.(check bool) "view unchanged" true (before = view s "hop2")

let test_delete_and_reinsert_in_one_batch () =
  let s = setup [ "hop2(X, Y) :- edge(X, Z), edge(Z, Y)." ] in
  load_edges s [ (1, 2); (2, 3) ];
  ignore (ok (Session.materialize s "hop2"));
  let before_view = view s "hop2" in
  let before_cnt = table_rows s "SELECT * FROM matcnt__hop2" in
  let r =
    ok (Session.apply_facts s ~inserts:[ ("edge", row_of (1, 2)) ]
          ~deletes:[ ("edge", row_of (1, 2)) ] ())
  in
  (* both sides stay real — the phases net out *)
  Alcotest.(check (pair int int)) "delete + re-insert both applied" (1, 1)
    (r.Incremental.base_inserted, r.Incremental.base_deleted);
  Alcotest.(check bool) "view unchanged" true (before_view = view s "hop2");
  Alcotest.(check bool) "counts unchanged" true
    (before_cnt = table_rows s "SELECT * FROM matcnt__hop2");
  Alcotest.(check (list (list string))) "base row still present"
    [ [ "1"; "2" ]; [ "2"; "3" ] ]
    (List.map (List.map V.to_string) (table_rows s "SELECT * FROM edge"))

let test_rollback_restores_views_and_counts () =
  let s = setup [ "hop2(X, Y) :- edge(X, Z), edge(Z, Y)." ] in
  load_edges s [ (1, 2); (1, 3); (2, 4); (3, 4) ];
  ignore (ok (Session.materialize s "hop2"));
  let engine = Session.engine s in
  let base_before = table_rows s "SELECT * FROM edge" in
  let view_before = view s "hop2" in
  let cnt_before = table_rows s "SELECT * FROM matcnt__hop2" in
  Engine.begin_txn engine;
  let r =
    ok (Session.apply_facts s ~inserts:[ ("edge", row_of (4, 5)) ]
          ~deletes:[ ("edge", row_of (2, 4)) ] ())
  in
  Alcotest.(check bool) "maintained inside the caller's txn" true r.Incremental.maintained;
  Alcotest.(check bool) "view changed inside txn" true (view_before <> view s "hop2");
  Engine.rollback_txn engine;
  Alcotest.(check bool) "base restored" true (base_before = table_rows s "SELECT * FROM edge");
  Alcotest.(check bool) "view restored" true (view_before = view s "hop2");
  Alcotest.(check bool) "derivation counts restored" true
    (cnt_before = table_rows s "SELECT * FROM matcnt__hop2")

let test_rollback_restores_dred_view () =
  let s = setup [ "anc(X, Y) :- edge(X, Y)."; "anc(X, Y) :- edge(X, Z), anc(Z, Y)." ] in
  load_edges s [ (1, 2); (2, 3); (3, 4) ];
  ignore (ok (Session.materialize s "anc"));
  let engine = Session.engine s in
  let view_before = view s "anc" in
  Engine.begin_txn engine;
  ignore (ok (Session.delete_facts s "edge" [ row_of (2, 3) ]));
  Alcotest.(check bool) "view changed inside txn" true (view_before <> view s "anc");
  Engine.rollback_txn engine;
  Alcotest.(check bool) "view restored" true (view_before = view s "anc")

(* ------------------------------------------------------------------ *)
(* Fallbacks and mode gates *)

let test_bulk_delta_falls_back () =
  let s = setup [ "hop2(X, Y) :- edge(X, Z), edge(Z, Y)." ] in
  load_edges s [ (1, 2); (2, 3) ];
  ignore (ok (Session.materialize s "hop2"));
  let stats = Engine.stats (Session.engine s) in
  let before = stats.Rdbms.Stats.maint_fallbacks in
  let bulk = List.init 40 (fun i -> row_of (100 + i, 101 + i)) in
  let r = ok (Session.insert_facts s "edge" bulk) in
  Alcotest.(check bool) "bulk load recomputes" true r.Incremental.fallback;
  Alcotest.(check int) "fallback counted" (before + 1) stats.Rdbms.Stats.maint_fallbacks;
  Alcotest.(check (list (list string)))
    "view correct after fallback"
    (List.map (List.map V.to_string) (query_rows s "hop2(X, Y)"))
    (List.map (List.map V.to_string) (view s "hop2"))

let test_mode_off_refreshes_without_fallback () =
  let s = setup [ "hop2(X, Y) :- edge(X, Z), edge(Z, Y)." ] in
  load_edges s [ (1, 2); (2, 3) ];
  ignore (ok (Session.materialize s "hop2"));
  Session.set_maintenance s Incremental.Off;
  let stats = Engine.stats (Session.engine s) in
  let before = stats.Rdbms.Stats.maint_fallbacks in
  let r = ok (Session.insert_facts s "edge" [ row_of (3, 4) ]) in
  Alcotest.(check bool) "not maintained" false r.Incremental.maintained;
  Alcotest.(check bool) "not a fallback" false r.Incremental.fallback;
  Alcotest.(check int) "no fallback counted" before stats.Rdbms.Stats.maint_fallbacks;
  Alcotest.(check (list (list string)))
    "view still correct"
    (List.map (List.map V.to_string) (query_rows s "hop2(X, Y)"))
    (List.map (List.map V.to_string) (view s "hop2"))

let test_derived_target_rejected () =
  let s = setup [ "hop2(X, Y) :- edge(X, Z), edge(Z, Y)." ] in
  load_edges s [ (1, 2); (2, 3) ];
  ignore (ok (Session.materialize s "hop2"));
  match Session.insert_facts s "hop2" [ row_of (9, 9) ] with
  | Ok _ -> Alcotest.fail "inserting into a derived predicate must fail"
  | Error msg ->
      Alcotest.(check bool) "explains" true
        (Astring.String.is_infix ~affix:"derived" msg)

(* ------------------------------------------------------------------ *)
(* DELETE ... WHERE on an indexed column takes the index-probe path *)

let test_delete_fast_path_uses_index () =
  let s = Session.create () in
  let engine = Session.engine s in
  ok (Session.define_base s "big" [ ("k", D.TInt); ("v", D.TInt) ] ~indexes:[ "k" ] ());
  ignore
    (ok (Session.add_facts s "big" (List.init 500 (fun i -> [ V.Int i; V.Int (i * i) ]))));
  let stats = Engine.stats engine in
  let probes = stats.Rdbms.Stats.index_probes in
  let reads = stats.Rdbms.Stats.page_reads in
  (match Engine.exec engine "DELETE FROM big WHERE k = 250" with
  | Engine.Affected 1 -> ()
  | _ -> Alcotest.fail "expected one row deleted");
  Alcotest.(check int) "one index probe" (probes + 1) stats.Rdbms.Stats.index_probes;
  let delta_reads = stats.Rdbms.Stats.page_reads - reads in
  Alcotest.(check bool)
    (Printf.sprintf "probe-sized read charge (%d pages)" delta_reads)
    true
    (delta_reads >= 1 && delta_reads < 5);
  (* non-indexed predicate still scans (and still works) *)
  (match Engine.exec engine "DELETE FROM big WHERE v = 16" with
  | Engine.Affected 1 -> ()
  | r -> Alcotest.failf "expected one row deleted, got %s"
           (match r with Engine.Affected n -> string_of_int n | _ -> "?"));
  Alcotest.(check int) "scan path leaves probe count" (probes + 1)
    stats.Rdbms.Stats.index_probes

(* ------------------------------------------------------------------ *)
(* The sanitizer actually bites: corrupt the maintenance bookkeeping
   through raw SQL and the audit (and Session.check) must report it. *)

(* non-recursive, so materialization picks counting and keeps a
   matcnt__hop table alongside mat__hop *)
let hop_rules = [ "hop(X, Y) :- edge(X, Z), edge(Z, Y)." ]

let corrupted_session () =
  let s = setup hop_rules in
  load_edges s [ (1, 2); (2, 3) ];
  ignore (ok (Session.materialize s "hop"));
  s

let test_detects_count_corruption () =
  let s = corrupted_session () in
  Alcotest.(check (list string)) "clean before corruption" []
    (List.map Rdbms.Invariants.violation_to_string
       (Engine.check_invariants (Session.engine s)));
  (* a derivation count of 0 is never legal *)
  ignore (Engine.exec (Session.engine s) "UPDATE matcnt__hop SET dcount = 0 WHERE c1 = 1");
  let vs = Engine.check_invariants (Session.engine s) in
  Alcotest.(check bool) "violations reported" true (vs <> []);
  Alcotest.(check bool) "attributed to matcnt__hop" true
    (List.exists (fun v -> v.Rdbms.Invariants.v_table = "matcnt__hop") vs)

let test_detects_missing_support () =
  let s = corrupted_session () in
  (* mat__anc loses a tuple the counts still claim *)
  ignore (Engine.exec (Session.engine s) "DELETE FROM mat__hop WHERE c1 = 1 AND c2 = 3");
  let vs = Engine.check_invariants (Session.engine s) in
  Alcotest.(check bool) "violations reported" true (vs <> []);
  Alcotest.(check bool) "attributed to mat__hop" true
    (List.exists (fun v -> v.Rdbms.Invariants.v_table = "mat__hop") vs)

let test_session_check_surfaces_e301 () =
  let s = corrupted_session () in
  ignore (Engine.exec (Session.engine s) "DELETE FROM mat__hop WHERE c1 = 1 AND c2 = 3");
  let ds = Session.check s in
  Alcotest.(check bool) "E301 diagnostic" true
    (List.exists
       (fun d -> d.Datalog.Lint.code = "E301" && d.Datalog.Lint.pred = "mat__hop")
       ds)

(* ------------------------------------------------------------------ *)
(* Maintenance plans: over an [edge] declared without any index, every
   delta join starts at the delta and probes its way out, for right- and
   left-linear tc maintained by DRed next to a counting hop2. *)

let right_tc = [ "tc(X, Y) :- edge(X, Y)."; "tc(X, Y) :- edge(X, Z), tc(Z, Y)." ]
let left_tc = [ "tc(X, Y) :- edge(X, Y)."; "tc(X, Y) :- tc(X, Z), edge(Z, Y)." ]
let hop2_rule = "hop2(X, Y) :- edge(X, Z), edge(Z, Y)."

(* two diamonds in a row: moving 2->4 to 2->5 over-deletes tc pairs of 1
   that 1->3->4 rederives, and the insert propagates downstream *)
let diamonds = [ (1, 2); (1, 3); (2, 4); (3, 4); (4, 5); (5, 6) ]

let materialize_views s =
  load_edges s diamonds;
  Session.set_maintenance s Incremental.Auto;
  List.iter (fun v -> ignore (ok (Session.materialize s v))) [ "tc"; "hop2" ]

let unindexed tc_rules =
  let s = setup ~indexes:[] (hop2_rule :: tc_rules) in
  materialize_views s;
  s

let move s (a, b, c) =
  let r =
    ok
      (Session.apply_facts s
         ~deletes:[ ("edge", row_of (a, b)) ]
         ~inserts:[ ("edge", row_of (a, c)) ]
         ())
  in
  Alcotest.(check bool) "maintained incrementally" true r.Incremental.maintained

let views_fresh label s =
  List.iter
    (fun (pred, goal) ->
      Alcotest.(check (list (list string)))
        (Printf.sprintf "%s: %s = from-scratch LFP" label pred)
        (List.map (List.map V.to_string) (query_rows s goal))
        (List.map (List.map V.to_string) (view s pred)))
    [ ("tc", "tc(X, Y)"); ("hop2", "hop2(X, Y)") ]

let test_join_columns_indexed () =
  List.iter
    (fun (label, rules, expect) ->
      let s = unindexed rules in
      let catalog = Engine.catalog (Session.engine s) in
      List.iter
        (fun (table, column, want) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s.%s indexed" label table column)
            want
            (Rdbms.Catalog.find_index catalog ~table ~column <> None))
        expect)
    [
      (* mat__tc.c2 is never probed first: the member join onto mat__tc
         binds both columns and enters through c1 *)
      ( "right-linear",
        right_tc,
        [
          ("edge", "src", true); ("edge", "dst", true); ("mat__tc", "c1", true);
          ("mat__tc", "c2", false);
        ] );
      ( "left-linear",
        left_tc,
        [
          ("edge", "src", true); ("edge", "dst", true); ("mat__tc", "c1", true);
          ("mat__tc", "c2", true);
        ] );
    ]

(* Plan-tree lines as (indent, operator label). *)
let plan_lines tree =
  String.split_on_char '\n' tree
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         let n = String.length l - String.length (String.trim l) in
         (n, String.trim l))

(* Labels of the direct inputs of every hash or nested-loop join. *)
let scanned_join_inputs tree =
  let rec go acc = function
    | [] -> acc
    | (d, op) :: rest ->
        let is_join =
          Astring.String.is_prefix ~affix:"HashJoin" op
          || Astring.String.is_prefix ~affix:"NestedLoopJoin" op
        in
        let acc =
          if not is_join then acc
          else
            let rec kids acc = function
              | (d', op') :: rest when d' > d -> kids (if d' = d + 2 then op' :: acc else acc) rest
              | _ -> acc
            in
            kids acc rest
        in
        go acc rest
  in
  go [] (plan_lines tree)

let test_delta_joins_probe () =
  List.iter
    (fun (label, rules) ->
      let s = unindexed rules in
      let e = Session.engine s in
      let trees = ref [] in
      (* uncached: every statement of the move plans and traces its tree *)
      Engine.set_statement_cache e false;
      Engine.set_trace_hook e
        (Some (function Engine.Tr_plan { sql; tree } -> trees := (sql, tree) :: !trees | _ -> ()));
      move s (2, 4, 5);
      Engine.set_trace_hook e None;
      Engine.set_statement_cache e true;
      let probes = ref 0 and members = ref 0 in
      List.iter
        (fun (sql, tree) ->
          let where = Printf.sprintf "%s: %s\n%s" label sql tree in
          Alcotest.(check bool) ("no edge scan: " ^ where) false
            (Astring.String.is_infix ~affix:"SeqScan edge" tree);
          List.iter
            (fun op ->
              List.iter
                (fun table ->
                  Alcotest.(check bool)
                    (Printf.sprintf "hash or loop join onto %s: %s" table where)
                    false
                    (Astring.String.is_infix ~affix:("Scan " ^ table ^ " ") (op ^ " ")))
                [ "edge"; "mat__tc" ])
            (scanned_join_inputs tree);
          List.iter
            (fun (_, op) ->
              List.iter
                (fun table ->
                  let onto kind = Astring.String.is_prefix ~affix:(kind ^ " " ^ table ^ " ") op in
                  if onto "IndexJoin" then incr probes;
                  if onto "MemberJoin" then begin
                    incr probes;
                    incr members
                  end)
                [ "edge"; "mat__tc" ])
            (plan_lines tree))
        !trees;
      Alcotest.(check bool) (label ^ ": delta joins probe edge and mat__tc") true (!probes > 0);
      Alcotest.(check bool) (label ^ ": rederivation uses member joins") true (!members > 0);
      views_fresh label s)
    [ ("right-linear", right_tc); ("left-linear", left_tc) ]

(* Base-ness is decided once per plan and each target once per apply:
   one rulesource probe for a single-edge move. *)
let test_one_rulesource_probe () =
  let s = unindexed right_tc in
  let e = Session.engine s in
  let probes = ref 0 in
  Engine.set_trace_hook e
    (Some
       (function
       | Engine.Tr_stmt_begin { sql }
         when Astring.String.is_infix ~affix:"FROM rulesource WHERE" sql ->
           incr probes
       | _ -> ()));
  move s (2, 4, 5);
  Engine.set_trace_hook e None;
  Alcotest.(check int) "rulesource probes" 1 !probes

(* The maintenance indexes on a base table survive a checkpoint: the
   recovery's ensure must skip them, not create them twice. *)
let test_recover_after_checkpoint () =
  let wal = Filename.temp_file "dkb_incr" ".wal" in
  let db = Filename.temp_file "dkb_incr" ".db" in
  Sys.remove db;
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ wal; db ])
    (fun () ->
      let s = Session.create () in
      ok (Session.attach_wal s wal);
      ok (Session.define_base s "edge" [ ("src", D.TInt); ("dst", D.TInt) ] ~indexes:[] ());
      List.iter (fun r -> ok (Session.add_rule s r)) (hop2_rule :: right_tc);
      ignore (ok (Session.update_stored s ~clear:true ()));
      materialize_views s;
      ok (Session.checkpoint s ~db);
      move s (2, 4, 5);
      let s2, _ = ok (Session.recover ~db ~wal ()) in
      views_fresh "recovered" s2;
      (* materializing again recreates the tables over the same catalog *)
      ignore (ok (Session.materialize s2 "tc"));
      move s2 (2, 5, 4);
      views_fresh "maintained after recovery" s2)

let () =
  Alcotest.run "incremental"
    [
      ( "differential",
        [
          Alcotest.test_case "counting (layered non-recursive)" `Quick
            test_differential_counting;
          Alcotest.test_case "dred (recursive, cyclic graphs)" `Quick test_differential_dred;
          Alcotest.test_case "counting under dred" `Quick test_differential_mixed;
        ] );
      ( "counting",
        [ Alcotest.test_case "exact multiplicities" `Quick test_counting_multiplicities ] );
      ( "edge cases",
        [
          Alcotest.test_case "delete never-inserted" `Quick test_delete_never_inserted;
          Alcotest.test_case "delete + re-insert in one batch" `Quick
            test_delete_and_reinsert_in_one_batch;
          Alcotest.test_case "rollback restores counting state" `Quick
            test_rollback_restores_views_and_counts;
          Alcotest.test_case "rollback restores dred view" `Quick
            test_rollback_restores_dred_view;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "count corruption detected" `Quick test_detects_count_corruption;
          Alcotest.test_case "missing support detected" `Quick test_detects_missing_support;
          Alcotest.test_case "Session.check reports E301" `Quick
            test_session_check_surfaces_e301;
        ] );
      ( "fallbacks",
        [
          Alcotest.test_case "bulk delta recomputes" `Quick test_bulk_delta_falls_back;
          Alcotest.test_case "mode off refreshes quietly" `Quick
            test_mode_off_refreshes_without_fallback;
          Alcotest.test_case "derived target rejected" `Quick test_derived_target_rejected;
        ] );
      ( "delete fast path",
        [ Alcotest.test_case "indexed equality probes" `Quick test_delete_fast_path_uses_index ] );
      ( "maintenance plans",
        [
          Alcotest.test_case "join columns indexed" `Quick test_join_columns_indexed;
          Alcotest.test_case "delta joins probe" `Quick test_delta_joins_probe;
          Alcotest.test_case "one rulesource probe" `Quick test_one_rulesource_probe;
          Alcotest.test_case "recover after checkpoint" `Quick test_recover_after_checkpoint;
        ] );
    ]
