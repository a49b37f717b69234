type est = { rows : float; cost : float }

let cpu_per_row = 0.001

(* Page-count estimate for a (possibly fractional) byte estimate.
   Routed through the same integer [Stats.pages_of_bytes] the executors
   charge with, so an estimate and a charge can never disagree by a page
   on boundary sizes (the old float ceil rounded [n * page_size] bytes
   differently from the int ceil for exact multiples reached via
   fractional arithmetic). *)
let pages_f bytes =
  if bytes <= 0.0 then 0.0
  else float_of_int (Stats.pages_of_bytes (int_of_float (ceil bytes)))

let table_rows (tbl : Catalog.table) =
  float_of_int (Relation.cardinal tbl.Catalog.tbl_relation)

let avg_row_bytes (tbl : Catalog.table) =
  let rel = tbl.Catalog.tbl_relation in
  let n = Relation.cardinal rel in
  if n > 0 then float_of_int (Relation.byte_size rel) /. float_of_int n
  else
    match tbl.Catalog.tbl_stats with
    | Some st -> Table_stats.avg_row_bytes st
    | None -> 16.0

let col_ndv (tbl : Catalog.table) column =
  let column = String.lowercase_ascii column in
  let from_index =
    List.find_opt
      (fun idx -> String.lowercase_ascii (Index.column idx) = column)
      tbl.Catalog.tbl_indexes
  in
  match from_index with
  | Some idx -> Some (float_of_int (max 1 (Index.distinct_keys idx)))
  | None -> (
      match tbl.Catalog.tbl_stats with
      | None -> None
      | Some st -> (
          match Table_stats.find_col st column with
          | None -> None
          | Some c ->
              (* clamp a stale snapshot to the live row count *)
              let live = Relation.cardinal tbl.Catalog.tbl_relation in
              let ndv = if live > 0 then min c.Table_stats.c_ndv live else c.Table_stats.c_ndv in
              Some (float_of_int (max 1 ndv))))

(* ------------------------------------------------------------------ *)
(* Selectivities *)

let clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

let eq_default = 0.1
let neq_default = 0.9
let range_default = 1.0 /. 3.0

(* Fraction of a column's [min, max] interval (from ANALYZE stats)
   selected by [col op literal]; [None] without integer stats. *)
let range_fraction (tbl : Catalog.table) column op (v : Value.t) =
  match (tbl.Catalog.tbl_stats, v) with
  | Some st, Value.Int k -> (
      match Table_stats.find_col st column with
      | Some
          {
            Table_stats.c_min = Some (Value.Int m);
            c_max = Some (Value.Int mx);
            _;
          } ->
          if mx <= m then Some 1.0
          else
            let span = float_of_int (mx - m) in
            let fk = float_of_int k in
            let frac =
              match (op : Sql_ast.cmp_op) with
              | Sql_ast.Lt | Sql_ast.Le -> (fk -. float_of_int m) /. span
              | Sql_ast.Gt | Sql_ast.Ge -> (float_of_int mx -. fk) /. span
              | Sql_ast.Eq | Sql_ast.Neq -> range_default
            in
            Some (clamp01 frac)
      | _ -> None)
  | _ -> None

let flip_op = function
  | Sql_ast.Lt -> Sql_ast.Gt
  | Sql_ast.Le -> Sql_ast.Ge
  | Sql_ast.Gt -> Sql_ast.Lt
  | Sql_ast.Ge -> Sql_ast.Le
  | o -> o

(* Selectivity of a compiled condition. [col_info pos] resolves a header
   position to the base table and column it came from, when known. *)
let rec cond_sel col_info (c : Plan.rcond) =
  match c with
  | Plan.R_and (a, b) -> cond_sel col_info a *. cond_sel col_info b
  | Plan.R_or (a, b) ->
      let sa = cond_sel col_info a and sb = cond_sel col_info b in
      sa +. sb -. (sa *. sb)
  | Plan.R_not a -> 1.0 -. cond_sel col_info a
  | Plan.R_cmp (x, op, y) -> cmp_sel col_info x op y

and cmp_sel col_info x op y =
  let ndv p =
    match col_info p with
    | Some (tbl, col) -> col_ndv tbl col
    | None -> None
  in
  match (x, (op : Sql_ast.cmp_op), y) with
  | Plan.R_col p, Sql_ast.Eq, Plan.R_lit _ | Plan.R_lit _, Sql_ast.Eq, Plan.R_col p -> (
      match ndv p with Some n -> 1.0 /. max 1.0 n | None -> eq_default)
  | Plan.R_col a, Sql_ast.Eq, Plan.R_col b -> (
      match (ndv a, ndv b) with
      | Some na, Some nb -> 1.0 /. max 1.0 (max na nb)
      | Some n, None | None, Some n -> 1.0 /. max 1.0 n
      | None, None -> eq_default)
  | _, Sql_ast.Eq, _ -> eq_default
  | _, Sql_ast.Neq, _ -> neq_default
  | Plan.R_col p, op, Plan.R_lit v | Plan.R_lit v, op, Plan.R_col p -> (
      let op = match x with Plan.R_lit _ -> flip_op op | _ -> op in
      match col_info p with
      | Some (tbl, col) -> (
          match range_fraction tbl col op v with
          | Some f -> f
          | None -> range_default)
      | None -> range_default)
  | _ -> range_default

let opt_sel col_info = function
  | None -> 1.0
  | Some c -> cond_sel col_info c

(* ------------------------------------------------------------------ *)
(* Header-position provenance: which base-table column a position holds. *)

let rec source_col plan pos : (Catalog.table * string) option =
  match plan with
  | Plan.Seq_scan { table; header; _ }
  | Plan.Index_scan { table; header; _ }
  | Plan.Range_scan { table; header; _ } ->
      if pos < Array.length header then Some (table, header.(pos).Plan.h_name) else None
  | Plan.Nl_join { left; right; _ } | Plan.Hash_join { left; right; _ } ->
      let lw = Array.length (Plan.header_of left) in
      if pos < lw then source_col left pos else source_col right (pos - lw)
  | Plan.Index_join { left; table; header; _ } | Plan.Member_join { left; table; header; _ } ->
      let lw = Array.length (Plan.header_of left) in
      if pos < lw then source_col left pos
      else if pos < Array.length header then Some (table, header.(pos).Plan.h_name)
      else None
  | Plan.Anti_join { left; _ } -> source_col left pos
  | Plan.Distinct p | Plan.Sort { input = p; _ } -> source_col p pos
  | Plan.Union_all (a, _) | Plan.Union_distinct (a, _) | Plan.Except_distinct (a, _) ->
      source_col a pos
  | Plan.Project _ | Plan.Count_star _ | Plan.Aggregate _ -> None

(* ------------------------------------------------------------------ *)
(* Plan estimation *)

let anti_default = 0.5

let rec estimate (plan : Plan.t) : est =
  let info_of p pos = source_col p pos in
  match plan with
  | Plan.Seq_scan { table; filter; _ } ->
      let rows = table_rows table *. opt_sel (info_of plan) filter in
      { rows; cost = float_of_int (Relation.pages table.Catalog.tbl_relation) }
  | Plan.Index_scan { table; index; filter; _ } ->
      let matched = table_rows table /. max 1.0 (float_of_int (Index.distinct_keys index)) in
      let probe = 1.0 +. pages_f (matched *. avg_row_bytes table) in
      { rows = matched *. opt_sel (info_of plan) filter; cost = probe }
  | Plan.Range_scan { table; oindex; lo; hi; filter; _ } ->
      let column = String.lowercase_ascii (Ordered_index.column oindex) in
      let bound_frac op = function
        | None -> 1.0
        | Some (v, _incl) -> (
            match range_fraction table column op v with
            | Some f -> f
            | None -> range_default)
      in
      (* intersection of the lo and hi half-intervals, floored at the
         one-row fraction so a tight range never estimates to nothing *)
      let frac =
        clamp01 (bound_frac Sql_ast.Ge lo +. bound_frac Sql_ast.Le hi -. 1.0)
      in
      let frac = max frac (1.0 /. max 1.0 (table_rows table)) in
      let matched = table_rows table *. frac in
      let probe = 1.0 +. pages_f (matched *. avg_row_bytes table) in
      { rows = matched *. opt_sel (info_of plan) filter; cost = probe }
  | Plan.Nl_join { left; right; cond; _ } ->
      let l = estimate left and r = estimate right in
      let pairs = l.rows *. r.rows in
      let rows = pairs *. opt_sel (info_of plan) cond in
      { rows; cost = l.cost +. r.cost +. (cpu_per_row *. pairs) }
  | Plan.Hash_join { left; right; left_keys; right_keys; residual; _ } ->
      let l = estimate left and r = estimate right in
      let key_sel =
        List.fold_left2
          (fun acc lk rk ->
            let nl =
              match source_col left lk with
              | Some (t, c) -> col_ndv t c
              | None -> None
            in
            let nr =
              match source_col right rk with
              | Some (t, c) -> col_ndv t c
              | None -> None
            in
            let s =
              match (nl, nr) with
              | Some a, Some b -> 1.0 /. max 1.0 (max a b)
              | Some n, None | None, Some n -> 1.0 /. max 1.0 n
              | None, None -> eq_default
            in
            acc *. s)
          1.0 left_keys right_keys
      in
      let rows = l.rows *. r.rows *. key_sel *. opt_sel (info_of plan) residual in
      { rows; cost = l.cost +. r.cost +. (cpu_per_row *. (l.rows +. r.rows +. rows)) }
  | Plan.Index_join { left; table; index; residual; _ } ->
      let l = estimate left in
      let per_probe =
        table_rows table /. max 1.0 (float_of_int (Index.distinct_keys index))
      in
      let probe_cost = 1.0 +. pages_f (per_probe *. avg_row_bytes table) in
      let rows = l.rows *. per_probe *. opt_sel (info_of plan) residual in
      { rows; cost = l.cost +. (l.rows *. probe_cost) +. (cpu_per_row *. rows) }
  | Plan.Member_join { left; table; residual; _ } ->
      (* one tuple-table probe per outer row, charged like an index probe
         that matches at most one row; the hit rate is the table's share
         of its columns' value space, a column with no distinct-value
         count taking the equality default's 1/10 *)
      let l = estimate left in
      let space =
        List.fold_left
          (fun acc c ->
            acc
            *. match col_ndv table c.Schema.col_name with Some n -> n | None -> 1.0 /. eq_default)
          1.0
          (Schema.columns (Relation.schema table.Catalog.tbl_relation))
      in
      let hit = Float.min 1.0 (table_rows table /. max 1.0 space) in
      let probe_cost = 1.0 +. pages_f (avg_row_bytes table) in
      let rows = l.rows *. hit *. opt_sel (info_of plan) residual in
      { rows; cost = l.cost +. (l.rows *. probe_cost) +. (cpu_per_row *. rows) }
  | Plan.Anti_join { left; table; _ } ->
      let l = estimate left in
      {
        rows = l.rows *. anti_default;
        cost =
          l.cost
          +. float_of_int (Relation.pages table.Catalog.tbl_relation)
          +. (cpu_per_row *. l.rows);
      }
  | Plan.Project { input; _ } ->
      let i = estimate input in
      { i with cost = i.cost +. (cpu_per_row *. i.rows) }
  | Plan.Count_star { input; _ } ->
      let i = estimate input in
      { rows = 1.0; cost = i.cost +. (cpu_per_row *. i.rows) }
  | Plan.Aggregate { input; group_keys; _ } ->
      let i = estimate input in
      let rows = if group_keys = [] then 1.0 else max 1.0 (i.rows *. eq_default) in
      { rows; cost = i.cost +. (cpu_per_row *. i.rows) }
  | Plan.Distinct p ->
      let i = estimate p in
      { i with cost = i.cost +. (cpu_per_row *. i.rows) }
  | Plan.Union_all (a, b) ->
      let ea = estimate a and eb = estimate b in
      { rows = ea.rows +. eb.rows; cost = ea.cost +. eb.cost }
  | Plan.Union_distinct (a, b) ->
      let ea = estimate a and eb = estimate b in
      {
        rows = ea.rows +. eb.rows;
        cost = ea.cost +. eb.cost +. (cpu_per_row *. (ea.rows +. eb.rows));
      }
  | Plan.Except_distinct (a, b) ->
      let ea = estimate a and eb = estimate b in
      { rows = ea.rows; cost = ea.cost +. eb.cost +. (cpu_per_row *. (ea.rows +. eb.rows)) }
  | Plan.Sort { input; _ } ->
      let i = estimate input in
      { i with cost = i.cost +. (cpu_per_row *. i.rows) }
