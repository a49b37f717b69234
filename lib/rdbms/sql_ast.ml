type column_ref = {
  qualifier : string option;
  column : string;
}

type literal =
  | L_int of int
  | L_str of string
  | L_param of int

type scalar =
  | Col of column_ref
  | Lit of literal

type cmp_op =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type agg_fn =
  | Agg_count
  | Agg_sum
  | Agg_min
  | Agg_max

type select_item =
  | Sel_star
  | Sel_expr of scalar * string option
  | Sel_count_star of string option
  | Sel_agg of agg_fn * scalar * string option

type from_item = {
  table : string;
  alias : string option;
}

type cond =
  | Cmp of scalar * cmp_op * scalar
  | And of cond * cond
  | Or of cond * cond
  | Not of cond
  | Not_exists of select_core
      (** correlated anti-join subquery; only legal as a top-level
          conjunct of a WHERE clause *)

and select_core = {
  distinct : bool;
  items : select_item list;
  from : from_item list;
  where : cond option;
  group_by : column_ref list;
}


type query =
  | Q_select of select_core
  | Q_union of query * query
  | Q_union_all of query * query
  | Q_except of query * query

type order_key = {
  target : [ `Name of string | `Position of int ];
  descending : bool;
}

type stmt =
  | Create_table of { name : string; columns : (string * Datatype.t) list }
  | Drop_table of { name : string; if_exists : bool }
  | Truncate of { name : string }
  | Create_index of { index : string; table : string; column : string; ordered : bool }
  | Drop_index of { index : string }
  | Insert_values of { table : string; rows : literal list list }
  | Insert_select of { table : string; query : query }
  | Delete of { table : string; where : cond option }
  | Delete_in of { table : string; columns : string list; query : query }
  | Update of {
      table : string;
      sets : (string * scalar) list;
      where : cond option;
    }
  | Select of { query : query; order_by : order_key list }
  | Begin
  | Commit
  | Rollback
  | Analyze of { table : string option }

let tables_of_query q =
  let acc = ref [] in
  let add t = acc := String.lowercase_ascii t :: !acc in
  let rec core c =
    List.iter (fun (f : from_item) -> add f.table) c.from;
    Option.iter cond c.where
  and cond = function
    | Cmp _ -> ()
    | And (a, b) | Or (a, b) -> cond a; cond b
    | Not c -> cond c
    | Not_exists c -> core c
  in
  let rec query = function
    | Q_select c -> core c
    | Q_union (a, b) | Q_union_all (a, b) | Q_except (a, b) -> query a; query b
  in
  query q;
  List.sort_uniq String.compare !acc

let tables_of_stmt = function
  | Select { query; _ } | Insert_select { query; _ } | Delete_in { query; _ } ->
      tables_of_query query
  | Create_table _ | Drop_table _ | Truncate _ | Create_index _ | Drop_index _
  | Insert_values _ | Delete _ | Update _ | Begin | Commit | Rollback | Analyze _ ->
      []

let value_of_literal = function
  | L_int n -> Value.Int n
  | L_str s -> Value.Str s
  | L_param n -> Sql_error.fail "parameter ?%d has no value" n

let literal_of_value = function
  | Value.Int n -> L_int n
  | Value.Str s -> L_str s

(* Rebuild a statement with every literal passed through [f] (binding). *)
let map_literals f stmt =
  let scalar = function Lit l -> Lit (f l) | Col _ as c -> c in
  let rec cond = function
    | Cmp (a, op, b) -> Cmp (scalar a, op, scalar b)
    | And (a, b) -> And (cond a, cond b)
    | Or (a, b) -> Or (cond a, cond b)
    | Not c -> Not (cond c)
    | Not_exists c -> Not_exists (core c)
  and core c =
    let item = function
      | Sel_expr (e, a) -> Sel_expr (scalar e, a)
      | Sel_agg (fn, e, a) -> Sel_agg (fn, scalar e, a)
      | (Sel_star | Sel_count_star _) as i -> i
    in
    { c with items = List.map item c.items; where = Option.map cond c.where }
  in
  let rec query = function
    | Q_select c -> Q_select (core c)
    | Q_union (a, b) -> Q_union (query a, query b)
    | Q_union_all (a, b) -> Q_union_all (query a, query b)
    | Q_except (a, b) -> Q_except (query a, query b)
  in
  match stmt with
  | Insert_values { table; rows } -> Insert_values { table; rows = List.map (List.map f) rows }
  | Insert_select { table; query = q } -> Insert_select { table; query = query q }
  | Delete { table; where } -> Delete { table; where = Option.map cond where }
  | Delete_in { table; columns; query = q } -> Delete_in { table; columns; query = query q }
  | Update { table; sets; where } ->
      Update
        {
          table;
          sets = List.map (fun (c, e) -> (c, scalar e)) sets;
          where = Option.map cond where;
        }
  | Select { query = q; order_by } -> Select { query = query q; order_by }
  | Create_table _ | Drop_table _ | Truncate _ | Create_index _ | Drop_index _ | Begin | Commit
  | Rollback | Analyze _ ->
      stmt

(* The same walk without the rebuild, so counting a statement's
   parameters allocates nothing for one that has none. *)
let iter_literals f stmt =
  let scalar = function Lit l -> f l | Col _ -> () in
  let rec cond = function
    | Cmp (a, _, b) ->
        scalar a;
        scalar b
    | And (a, b) | Or (a, b) ->
        cond a;
        cond b
    | Not c -> cond c
    | Not_exists c -> core c
  and core c =
    List.iter
      (function
        | Sel_expr (e, _) | Sel_agg (_, e, _) -> scalar e | Sel_star | Sel_count_star _ -> ())
      c.items;
    Option.iter cond c.where
  in
  let rec query = function
    | Q_select c -> core c
    | Q_union (a, b) | Q_union_all (a, b) | Q_except (a, b) ->
        query a;
        query b
  in
  match stmt with
  | Insert_values { rows; _ } -> List.iter (List.iter f) rows
  | Insert_select { query = q; _ } | Delete_in { query = q; _ } | Select { query = q; _ } -> query q
  | Delete { where; _ } -> Option.iter cond where
  | Update { sets; where; _ } ->
      List.iter (fun (_, e) -> scalar e) sets;
      Option.iter cond where
  | Create_table _ | Drop_table _ | Truncate _ | Create_index _ | Drop_index _ | Begin | Commit
  | Rollback | Analyze _ ->
      ()

let param_indexes stmt =
  let seen = ref [] in
  iter_literals (function L_param n -> seen := n :: !seen | L_int _ | L_str _ -> ()) stmt;
  List.sort_uniq compare !seen

let bind args stmt =
  map_literals
    (function
      | L_param n -> literal_of_value args.(n - 1)
      | l -> l)
    stmt

let cmp_op_to_string = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let eval_cmp op a b =
  let c = Value.compare a b in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let agg_fn_to_string = function
  | Agg_count -> "COUNT"
  | Agg_sum -> "SUM"
  | Agg_min -> "MIN"
  | Agg_max -> "MAX"
