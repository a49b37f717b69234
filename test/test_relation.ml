(* Unit tests for Relation, Index and Catalog. *)

module V = Rdbms.Value
module D = Rdbms.Datatype
module S = Rdbms.Schema
module R = Rdbms.Relation
module I = Rdbms.Index
module C = Rdbms.Catalog

let schema2 = S.make [ ("a", D.TInt); ("b", D.TStr) ]

let row i s = [| V.Int i; V.Str s |]

let test_insert_set_semantics () =
  let r = R.create schema2 in
  Alcotest.(check bool) "new" true (R.insert r (row 1 "x"));
  Alcotest.(check bool) "dup" false (R.insert r (row 1 "x"));
  Alcotest.(check int) "cardinal" 1 (R.cardinal r);
  Alcotest.(check bool) "mem" true (R.mem r (row 1 "x"))

let test_insert_validates () =
  let r = R.create schema2 in
  Alcotest.(check bool) "bad arity raises" true
    (try
       ignore (R.insert r [| V.Int 1 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad type raises" true
    (try
       ignore (R.insert r [| V.Str "x"; V.Str "y" |]);
       false
     with Invalid_argument _ -> true)

let test_delete () =
  let r = R.create schema2 in
  ignore (R.insert r (row 1 "x"));
  ignore (R.insert r (row 2 "y"));
  Alcotest.(check bool) "deleted" true (R.delete r (row 1 "x"));
  Alcotest.(check bool) "absent" false (R.delete r (row 1 "x"));
  Alcotest.(check int) "cardinal" 1 (R.cardinal r);
  Alcotest.(check (list string)) "iteration skips tombstones" [ "(2, y)" ]
    (List.map Rdbms.Tuple.to_string (R.to_list r))

let test_insertion_order () =
  let r = R.create schema2 in
  let rows = [ row 3 "c"; row 1 "a"; row 2 "b" ] in
  List.iter (fun x -> ignore (R.insert r x)) rows;
  Alcotest.(check (list string)) "insertion order"
    (List.map Rdbms.Tuple.to_string rows)
    (List.map Rdbms.Tuple.to_string (R.to_list r))

let test_bytes_and_pages () =
  let r = R.create schema2 in
  Alcotest.(check int) "empty bytes" 0 (R.byte_size r);
  Alcotest.(check int) "empty is zero pages" 0 (R.pages r);
  ignore (R.insert r (row 1 "abc"));
  (* 4 header + 4 int + 3 str *)
  Alcotest.(check int) "bytes" 11 (R.byte_size r);
  Alcotest.(check int) "one page once non-empty" 1 (R.pages r);
  ignore (R.delete r (row 1 "abc"));
  Alcotest.(check int) "bytes restored" 0 (R.byte_size r)

let test_clear () =
  let r = R.create schema2 in
  ignore (R.insert r (row 1 "x"));
  R.clear r;
  Alcotest.(check int) "empty" 0 (R.cardinal r);
  Alcotest.(check bool) "reinsert ok" true (R.insert r (row 1 "x"))

let test_observer_order () =
  (* registration is O(1) (cons); notification order is unspecified but
     currently most-recently-registered first — pin it so a change is
     deliberate *)
  let r = R.create schema2 in
  let trace = ref [] in
  R.on_insert r (fun _ _ -> trace := "first" :: !trace);
  R.on_insert r (fun _ _ -> trace := "second" :: !trace);
  ignore (R.insert r (row 1 "x"));
  Alcotest.(check (list string)) "most-recent first" [ "second"; "first" ] (List.rev !trace);
  trace := [];
  R.on_clear r (fun () -> trace := "clear_a" :: !trace);
  R.on_clear r (fun () -> trace := "clear_b" :: !trace);
  R.clear r;
  Alcotest.(check (list string)) "clear order" [ "clear_b"; "clear_a" ] (List.rev !trace)

(* ---------------- index ---------------- *)

let test_index_lookup () =
  let r = R.create schema2 in
  ignore (R.insert r (row 1 "x"));
  ignore (R.insert r (row 2 "x"));
  ignore (R.insert r (row 3 "y"));
  let idx = I.create ~name:"i_b" r ~column:"b" in
  Alcotest.(check int) "x count" 2 (I.lookup_count idx (V.Str "x"));
  Alcotest.(check int) "distinct keys" 2 (I.distinct_keys idx);
  Alcotest.(check (list string)) "insertion order" [ "(1, x)"; "(2, x)" ]
    (List.map Rdbms.Tuple.to_string (I.lookup idx (V.Str "x")));
  Alcotest.(check (list string)) "miss" [] (List.map Rdbms.Tuple.to_string (I.lookup idx (V.Str "z")))

let test_index_tracks_changes () =
  let r = R.create schema2 in
  let idx = I.create ~name:"i_a" r ~column:"a" in
  ignore (R.insert r (row 1 "x"));
  Alcotest.(check int) "after insert" 1 (I.lookup_count idx (V.Int 1));
  ignore (R.delete r (row 1 "x"));
  Alcotest.(check int) "after delete" 0 (I.lookup_count idx (V.Int 1));
  ignore (R.insert r (row 1 "x"));
  R.clear r;
  Alcotest.(check int) "after clear" 0 (I.lookup_count idx (V.Int 1))

(* Delete/insert churn over a small live set: the row slots are reused
   once most are tombstones, so memory follows the live rows, while scan
   order, the tuple table and both kinds of index stay exact. *)
let test_churn_stays_bounded () =
  let r = R.create schema2 in
  let idx = I.create ~name:"i_a" r ~column:"a" in
  let ord = Rdbms.Ordered_index.create ~name:"o_a" r ~column:"a" in
  let live = Queue.create () in
  let add i =
    ignore (R.insert r (row i (string_of_int (i mod 7))));
    Queue.push i live
  in
  for i = 0 to 99 do add i done;
  for i = 100 to 20_099 do
    let j = Queue.pop live in
    ignore (R.delete r (row j (string_of_int (j mod 7))));
    add i
  done;
  Alcotest.(check int) "cardinal" 100 (R.cardinal r);
  Alcotest.(check (list string)) "audit clean" [] (R.check r);
  Alcotest.(check (list int)) "scan keeps insertion order" (List.init 100 (fun k -> 20_000 + k))
    (List.map (fun row -> match row.(0) with V.Int i -> i | _ -> -1) (R.to_list r));
  List.iter
    (fun i ->
      let want = if i >= 20_000 then 1 else 0 in
      Alcotest.(check int) (Printf.sprintf "hash index on %d" i) want
        (List.length (I.lookup idx (V.Int i)));
      Alcotest.(check int) (Printf.sprintf "ordered index on %d" i) want
        (List.length (Rdbms.Ordered_index.lookup ord (V.Int i))))
    [ 5; 19_999; 20_000; 20_050; 20_099 ];
  let words = Obj.reachable_words (Obj.repr r) in
  Alcotest.(check bool) (Printf.sprintf "%d words reachable (< 10000)" words) true (words < 10_000)

let test_index_bad_column () =
  let r = R.create schema2 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (I.create ~name:"i" r ~column:"nope");
       false
     with Invalid_argument _ -> true)

(* ---------------- catalog ---------------- *)

let test_catalog_tables () =
  let c = C.create () in
  (match C.create_table c "t1" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "exists case-insensitive" true (C.table_exists c "T1");
  Alcotest.(check bool) "dup rejected" true (Result.is_error (C.create_table c "T1" schema2));
  (match C.drop_table c "t1" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "gone" false (C.table_exists c "t1");
  Alcotest.(check bool) "drop missing" true (Result.is_error (C.drop_table c "t1"))

let test_catalog_indexes () =
  let c = C.create () in
  (match C.create_table c "t" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  (match C.create_index c ~name:"ix" ~table:"t" ~column:"a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "found" true (C.find_index c ~table:"t" ~column:"A" <> None);
  Alcotest.(check bool) "dup name" true
    (Result.is_error (C.create_index c ~name:"ix" ~table:"t" ~column:"b"));
  Alcotest.(check bool) "bad column" true
    (Result.is_error (C.create_index c ~name:"ix2" ~table:"t" ~column:"zz"));
  (match C.drop_index c "IX" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "dropped" true (C.find_index c ~table:"t" ~column:"a" = None)

let test_catalog_version () =
  let c = C.create () in
  (match C.create_table c "t" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  (match C.create_table c "u" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  let version name = (C.find_table_exn c name).C.tbl_version in
  let v0 = version "t" and u0 = version "u" in
  (match C.create_index c ~name:"ix" ~table:"t" ~column:"a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let v1 = version "t" in
  Alcotest.(check bool) "create index bumps its table" true (v1 > v0);
  (* clearing rows is not a schema change *)
  R.clear (C.find_table_exn c "t").C.tbl_relation;
  Alcotest.(check int) "clear does not bump" v1 (version "t");
  (match C.drop_index c "ix" with Ok () -> () | Error e -> Alcotest.fail e);
  let v2 = version "t" in
  Alcotest.(check bool) "drop index bumps its table" true (v2 > v1);
  let dropped = C.find_table_exn c "t" in
  (match C.drop_table c "t" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "drop table bumps the dropped record" true (dropped.C.tbl_version > v2);
  (match C.create_table c "t" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "a re-created table is a new record" true (C.find_table_exn c "t" != dropped);
  Alcotest.(check int) "DDL on t leaves u's version alone" u0 (version "u")

let test_catalog_drop_table_drops_indexes () =
  let c = C.create () in
  (match C.create_table c "t" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  (match C.create_index c ~name:"ix" ~table:"t" ~column:"a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match C.drop_table c "t" with Ok () -> () | Error e -> Alcotest.fail e);
  (* index name is free again *)
  (match C.create_table c "t" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  match C.create_index c ~name:"ix" ~table:"t" ~column:"a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "relation"
    [
      ( "relation",
        [
          Alcotest.test_case "set semantics" `Quick test_insert_set_semantics;
          Alcotest.test_case "schema validation" `Quick test_insert_validates;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "insertion order" `Quick test_insertion_order;
          Alcotest.test_case "bytes and pages" `Quick test_bytes_and_pages;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "observer order" `Quick test_observer_order;
        ] );
      ( "index",
        [
          Alcotest.test_case "lookup" `Quick test_index_lookup;
          Alcotest.test_case "tracks changes" `Quick test_index_tracks_changes;
          Alcotest.test_case "churn stays bounded" `Quick test_churn_stays_bounded;
          Alcotest.test_case "bad column" `Quick test_index_bad_column;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "tables" `Quick test_catalog_tables;
          Alcotest.test_case "indexes" `Quick test_catalog_indexes;
          Alcotest.test_case "version" `Quick test_catalog_version;
          Alcotest.test_case "drop table drops indexes" `Quick test_catalog_drop_table_drops_indexes;
        ] );
    ]
