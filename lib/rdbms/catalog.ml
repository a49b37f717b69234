type table = {
  tbl_name : string;
  tbl_relation : Relation.t;
  mutable tbl_indexes : Index.t list;
  mutable tbl_ordered : Ordered_index.t list;
  mutable tbl_stats : Table_stats.t option;
  mutable tbl_version : int;
}

type t = {
  by_name : (string, table) Hashtbl.t;
  index_owner : (string, table) Hashtbl.t; (* index name -> owning table *)
  mutable version_wiring : (string -> Relation.version_ctl option) option;
      (* decides, per table name at creation time, whether the relation
         participates in snapshot versioning (the engine installs this) *)
}

let key = String.lowercase_ascii

let create () =
  {
    by_name = Hashtbl.create 32;
    index_owner = Hashtbl.create 32;
    version_wiring = None;
  }

(* Install the snapshot wiring and (re)wire existing tables under it. New
   tables are wired as they are created; the decision is cached in the
   relation, so changing the wiring later only affects future tables plus
   this explicit re-sweep. *)
let set_version_wiring t wiring =
  t.version_wiring <- wiring;
  Hashtbl.iter
    (fun _ tbl ->
      match wiring with
      | None -> Relation.set_version_ctl tbl.tbl_relation None
      | Some f -> Relation.set_version_ctl tbl.tbl_relation (f tbl.tbl_name))
    t.by_name

let wire_versions t tbl =
  match t.version_wiring with
  | None -> ()
  | Some f -> Relation.set_version_ctl tbl.tbl_relation (f tbl.tbl_name)

(* Invalidates the cached plans that read [tbl]: they recorded the
   version they were planned under. *)
let bump tbl = tbl.tbl_version <- tbl.tbl_version + 1

let table_exists t name = Hashtbl.mem t.by_name (key name)
let find_table t name = Hashtbl.find_opt t.by_name (key name)

let find_table_exn t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> Sql_error.fail "no such table: %s" name

let create_table t name schema =
  if table_exists t name then Error (Printf.sprintf "table %s already exists" name)
  else begin
    let tbl =
      {
        tbl_name = name;
        tbl_relation = Relation.create schema;
        tbl_indexes = [];
        tbl_ordered = [];
        tbl_stats = None;
        tbl_version = 0;
      }
    in
    wire_versions t tbl;
    Hashtbl.add t.by_name (key name) tbl;
    Ok tbl
  end

let drop_table t name =
  match find_table t name with
  | None -> Error (Printf.sprintf "no such table: %s" name)
  | Some tbl ->
      List.iter (fun idx -> Hashtbl.remove t.index_owner (key (Index.name idx))) tbl.tbl_indexes;
      List.iter
        (fun idx -> Hashtbl.remove t.index_owner (key (Ordered_index.name idx)))
        tbl.tbl_ordered;
      Hashtbl.remove t.by_name (key name);
      bump tbl;
      Ok ()

let create_index t ~name ~table ~column =
  if Hashtbl.mem t.index_owner (key name) then
    Error (Printf.sprintf "index %s already exists" name)
  else
    match find_table t table with
    | None -> Error (Printf.sprintf "no such table: %s" table)
    | Some tbl -> (
        match Index.create ~name tbl.tbl_relation ~column with
        | idx ->
            tbl.tbl_indexes <- tbl.tbl_indexes @ [ idx ];
            Hashtbl.add t.index_owner (key name) tbl;
            bump tbl;
            Ok idx
        | exception Invalid_argument msg -> Error msg)

let create_ordered_index t ~name ~table ~column =
  if Hashtbl.mem t.index_owner (key name) then
    Error (Printf.sprintf "index %s already exists" name)
  else
    match find_table t table with
    | None -> Error (Printf.sprintf "no such table: %s" table)
    | Some tbl -> (
        match Ordered_index.create ~name tbl.tbl_relation ~column with
        | idx ->
            tbl.tbl_ordered <- tbl.tbl_ordered @ [ idx ];
            Hashtbl.add t.index_owner (key name) tbl;
            bump tbl;
            Ok idx
        | exception Invalid_argument msg -> Error msg)

let find_ordered_index t ~table ~column =
  match find_table t table with
  | None -> None
  | Some tbl ->
      List.find_opt
        (fun idx -> String.lowercase_ascii (Ordered_index.column idx) = key column)
        tbl.tbl_ordered

let drop_index t name =
  match Hashtbl.find_opt t.index_owner (key name) with
  | None -> Error (Printf.sprintf "no such index: %s" name)
  | Some tbl ->
      tbl.tbl_indexes <-
        List.filter (fun idx -> key (Index.name idx) <> key name) tbl.tbl_indexes;
      tbl.tbl_ordered <-
        List.filter (fun idx -> key (Ordered_index.name idx) <> key name) tbl.tbl_ordered;
      Hashtbl.remove t.index_owner (key name);
      bump tbl;
      Ok ()

let find_index t ~table ~column =
  match find_table t table with
  | None -> None
  | Some tbl ->
      List.find_opt
        (fun idx -> String.lowercase_ascii (Index.column idx) = key column)
        tbl.tbl_indexes

(* Fresh statistics invalidate the table's cached plans the same way
   index DDL does: a plan chosen under the old (or missing) stats should
   be recosted. *)
let set_stats tbl stats =
  tbl.tbl_stats <- Some stats;
  bump tbl

let tables t =
  Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.by_name []
  |> List.sort (fun a b -> String.compare a.tbl_name b.tbl_name)

(* A read-only catalog view as of snapshot timestamp [ts]: tables whose
   relation pins a frozen version for [ts] are presented as bare
   relations — no indexes, so the planner can only choose scans over them
   (index structures track the live rows and would leak post-snapshot
   state); the ANALYZE statistics are carried over for cost estimates.
   Unmutated tables share the live table record, indexes and all. Plans
   built against an overlay must never enter a plan cache. *)
let overlay t ~as_of =
  let o =
    {
      by_name = Hashtbl.create (Hashtbl.length t.by_name);
      index_owner = t.index_owner;
      version_wiring = None;
    }
  in
  Hashtbl.iter
    (fun k tbl ->
      match as_of tbl.tbl_relation with
      | None -> Hashtbl.add o.by_name k tbl
      | Some frozen ->
          Hashtbl.add o.by_name k
            {
              tbl_name = tbl.tbl_name;
              tbl_relation = frozen;
              tbl_indexes = [];
              tbl_ordered = [];
              tbl_stats = tbl.tbl_stats;
              tbl_version = tbl.tbl_version;
            })
    t.by_name;
  o
