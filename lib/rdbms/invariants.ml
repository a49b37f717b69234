(* The engine-state sanitizer: audits every structure the catalog owns
   against first principles. [check_catalog] is cheap enough to run after
   every statement (the engine's `sanitize` flag does exactly that). *)

type violation = {
  v_table : string;
  v_message : string;
}

let violation_to_string v = Printf.sprintf "%s: %s" v.v_table v.v_message

let check_table (tbl : Catalog.table) =
  let errs = ref [] in
  let err fmt =
    Printf.ksprintf
      (fun s -> errs := { v_table = tbl.Catalog.tbl_name; v_message = s } :: !errs)
      fmt
  in
  let rel = tbl.Catalog.tbl_relation in
  List.iter (fun m -> err "relation: %s" m) (Relation.check rel);
  (* hash indexes: every bucket must hold exactly the live rows of its key *)
  List.iter
    (fun idx ->
      let pos = Index.column_pos idx in
      let expected : (Value.t, int * int) Hashtbl.t = Hashtbl.create 64 in
      Relation.iter
        (fun row ->
          let key = row.(pos) in
          let cnt, bytes = Option.value (Hashtbl.find_opt expected key) ~default:(0, 0) in
          Hashtbl.replace expected key (cnt + 1, bytes + Tuple.byte_size row))
        rel;
      Hashtbl.iter
        (fun key (cnt, bytes) ->
          let rows, got_bytes = Index.lookup_with_bytes idx key in
          if List.length rows <> cnt then
            err "index %s: key %s resolves %d rows, relation holds %d" (Index.name idx)
              (Value.to_string key) (List.length rows) cnt;
          if Index.lookup_count idx key <> cnt then
            err "index %s: key %s bucket has %d entries, relation holds %d rows"
              (Index.name idx) (Value.to_string key) (Index.lookup_count idx key) cnt;
          if got_bytes <> bytes then
            err "index %s: key %s bucket byte counter %d, rows sum to %d" (Index.name idx)
              (Value.to_string key) got_bytes bytes;
          List.iter
            (fun row ->
              if not (Value.equal row.(pos) key) then
                err "index %s: key %s returned a row whose column holds %s" (Index.name idx)
                  (Value.to_string key)
                  (Value.to_string row.(pos)))
            rows)
        expected;
      if Index.distinct_keys idx <> Hashtbl.length expected then
        err "index %s: %d buckets but the relation has %d distinct keys" (Index.name idx)
          (Index.distinct_keys idx) (Hashtbl.length expected))
    tbl.Catalog.tbl_indexes;
  (* ordered indexes: the full range scan must enumerate every live row in
     ascending key order *)
  List.iter
    (fun oidx ->
      let pos = Ordered_index.column_pos oidx in
      let rows = Ordered_index.range oidx () in
      if List.length rows <> Relation.cardinal rel then
        err "ordered index %s: range scan yields %d rows, relation holds %d"
          (Ordered_index.name oidx) (List.length rows) (Relation.cardinal rel);
      let rec ascending = function
        | a :: (b :: _ as rest) ->
            if Value.compare a.(pos) b.(pos) > 0 then
              err "ordered index %s: range scan is out of order at key %s"
                (Ordered_index.name oidx)
                (Value.to_string b.(pos))
            else ascending rest
        | _ -> ()
      in
      ascending rows)
    tbl.Catalog.tbl_ordered;
  (* statistics snapshots: internally consistent (they are snapshots, so
     they are not compared against the live row count) *)
  (match tbl.Catalog.tbl_stats with
  | None -> ()
  | Some s ->
      let schema = Relation.schema rel in
      if List.length s.Table_stats.s_cols <> Schema.arity schema then
        err "stats: %d column entries for a %d-column schema"
          (List.length s.Table_stats.s_cols) (Schema.arity schema);
      List.iter
        (fun (c : Table_stats.col) ->
          if c.c_ndv < 0 || c.c_ndv > s.Table_stats.s_rows then
            err "stats: column %s has ndv %d out of [0, %d]" c.c_name c.c_ndv
              s.Table_stats.s_rows;
          if c.c_null_frac <> 0.0 then
            err "stats: column %s has null fraction %f (engine stores no NULLs)" c.c_name
              c.c_null_frac;
          match (c.c_min, c.c_max) with
          | Some lo, Some hi ->
              if Value.compare lo hi > 0 then
                err "stats: column %s has min %s > max %s" c.c_name (Value.to_string lo)
                  (Value.to_string hi)
          | None, None ->
              if s.Table_stats.s_rows > 0 then
                err "stats: column %s has no min/max despite %d rows" c.c_name
                  s.Table_stats.s_rows
          | _ -> err "stats: column %s has min/max presence mismatch" c.c_name)
        s.Table_stats.s_cols);
  List.rev !errs

let check_catalog catalog =
  List.concat_map check_table (Catalog.tables catalog)

(* Paged-storage audit: the buffer pool's frame accounting must be
   internally consistent and agree with the heaps it caches — a file
   can never have more resident frames than it has pages (a TRUNCATE or
   DROP that forgot to invalidate its frames would leak exactly that). *)
let check_storage ~pool ~heaps =
  let pool_errs =
    List.map (fun m -> { v_table = "<buffer pool>"; v_message = m }) (Buffer_pool.check pool)
  in
  let heap_errs =
    List.concat_map
      (fun (name, h) ->
        let errs = ref [] in
        let err fmt =
          Printf.ksprintf (fun s -> errs := { v_table = name; v_message = s } :: !errs) fmt
        in
        let res = Heap.resident h and np = Heap.page_count h in
        if res > np then err "pool holds %d frames for a %d-page heap" res np;
        List.rev !errs)
      heaps
  in
  pool_errs @ heap_errs
