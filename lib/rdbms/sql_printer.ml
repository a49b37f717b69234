open Sql_ast

let literal = function
  | L_int n -> string_of_int n
  | L_str s -> Value.to_sql (Value.Str s)

let column_ref { qualifier; column } =
  match qualifier with
  | Some q -> q ^ "." ^ column
  | None -> column

let scalar = function
  | Col c -> column_ref c
  | Lit l -> literal l

let select_item = function
  | Sel_star -> "*"
  | Sel_expr (e, None) -> scalar e
  | Sel_expr (e, Some a) -> scalar e ^ " AS " ^ a
  | Sel_count_star None -> "COUNT(*)"
  | Sel_count_star (Some a) -> "COUNT(*) AS " ^ a
  | Sel_agg (fn, e, None) -> agg_fn_to_string fn ^ "(" ^ scalar e ^ ")"
  | Sel_agg (fn, e, Some a) -> agg_fn_to_string fn ^ "(" ^ scalar e ^ ") AS " ^ a

let from_item { table; alias } =
  match alias with
  | Some a -> table ^ " " ^ a
  | None -> table

(* Conditions print fully parenthesized except at the top of each
   associative chain, keeping output readable and reparse-equal. *)
let rec cond = function
  | Cmp (a, op, b) -> scalar a ^ " " ^ cmp_op_to_string op ^ " " ^ scalar b
  | And (a, b) -> cond_atom a ^ " AND " ^ cond_atom b
  | Or (a, b) -> cond_atom a ^ " OR " ^ cond_atom b
  | Not c -> "NOT " ^ cond_atom c
  | Not_exists core -> "NOT EXISTS (" ^ select_core core ^ ")"

and cond_atom c =
  match c with
  | Cmp _ | Not_exists _ -> cond c
  | _ -> "(" ^ cond c ^ ")"

and select_core { distinct; items; from; where; group_by } =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "SELECT ";
  if distinct then Buffer.add_string buf "DISTINCT ";
  Buffer.add_string buf (String.concat ", " (List.map select_item items));
  Buffer.add_string buf " FROM ";
  Buffer.add_string buf (String.concat ", " (List.map from_item from));
  (match where with
  | Some c ->
      Buffer.add_string buf " WHERE ";
      Buffer.add_string buf (cond c)
  | None -> ());
  if group_by <> [] then begin
    Buffer.add_string buf " GROUP BY ";
    Buffer.add_string buf (String.concat ", " (List.map column_ref group_by))
  end;
  Buffer.contents buf

let rec query = function
  | Q_select core -> select_core core
  | Q_union (a, b) -> query_atom a ^ " UNION " ^ query_atom b
  | Q_union_all (a, b) -> query_atom a ^ " UNION ALL " ^ query_atom b
  | Q_except (a, b) -> query_atom a ^ " EXCEPT " ^ query_atom b

and query_atom q =
  match q with
  | Q_select _ -> query q
  | _ -> "(" ^ query q ^ ")"

let order_key { target; descending } =
  let base = match target with `Name n -> n | `Position p -> string_of_int p in
  if descending then base ^ " DESC" else base

let stmt = function
  | Create_table { name; columns } ->
      Printf.sprintf "CREATE TABLE %s (%s)" name
        (String.concat ", "
           (List.map (fun (c, ty) -> c ^ " " ^ Datatype.to_string ty) columns))
  | Drop_table { name; if_exists } ->
      if if_exists then "DROP TABLE IF EXISTS " ^ name else "DROP TABLE " ^ name
  | Truncate { name } -> "TRUNCATE TABLE " ^ name
  | Create_index { index; table; column; ordered } ->
      Printf.sprintf "CREATE %sINDEX %s ON %s (%s)" (if ordered then "ORDERED " else "") index
        table column
  | Drop_index { index } -> "DROP INDEX " ^ index
  | Insert_values { table; rows } ->
      Printf.sprintf "INSERT INTO %s VALUES %s" table
        (String.concat ", "
           (List.map (fun row -> "(" ^ String.concat ", " (List.map literal row) ^ ")") rows))
  | Insert_select { table; query = q } -> Printf.sprintf "INSERT INTO %s %s" table (query q)
  | Delete { table; where } -> (
      match where with
      | Some c -> Printf.sprintf "DELETE FROM %s WHERE %s" table (cond c)
      | None -> "DELETE FROM " ^ table)
  | Delete_in { table; columns; query = q } ->
      Printf.sprintf "DELETE FROM %s WHERE (%s) IN (%s)" table (String.concat ", " columns) (query q)
  | Update { table; sets; where } ->
      Printf.sprintf "UPDATE %s SET %s%s" table
        (String.concat ", " (List.map (fun (c, e) -> c ^ " = " ^ scalar e) sets))
        (match where with Some c -> " WHERE " ^ cond c | None -> "")
  | Select { query = q; order_by } ->
      let base = query q in
      if order_by = [] then base
      else base ^ " ORDER BY " ^ String.concat ", " (List.map order_key order_by)
  | Begin -> "BEGIN"
  | Commit -> "COMMIT"
  | Rollback -> "ROLLBACK"
  | Analyze { table = Some t } -> "ANALYZE " ^ t
  | Analyze { table = None } -> "ANALYZE"
