type header_col = {
  h_qual : string;
  h_name : string;
  h_type : Datatype.t;
}

type header = header_col array

type rexpr =
  | R_col of int
  | R_lit of Value.t

type rcond =
  | R_cmp of rexpr * Sql_ast.cmp_op * rexpr
  | R_and of rcond * rcond
  | R_or of rcond * rcond
  | R_not of rcond

type agg_output =
  | O_group of int
  | O_count_star
  | O_count of int
  | O_sum of int
  | O_min of int
  | O_max of int

type t =
  | Seq_scan of { table : Catalog.table; header : header; filter : rcond option }
  | Index_scan of {
      table : Catalog.table;
      index : Index.t;
      key : Value.t;
      header : header;
      filter : rcond option;
    }
  | Range_scan of {
      table : Catalog.table;
      oindex : Ordered_index.t;
      lo : (Value.t * bool) option;
      hi : (Value.t * bool) option;
      header : header;
      filter : rcond option;
    }
  | Nl_join of { left : t; right : t; header : header; cond : rcond option }
  | Hash_join of {
      left : t;
      right : t;
      header : header;
      left_keys : int list;
      right_keys : int list;
      residual : rcond option;
      build_left : bool;
    }
  | Index_join of {
      left : t;
      table : Catalog.table;
      index : Index.t;
      outer_pos : int;
      header : header;
      residual : rcond option;
    }
  | Member_join of {
      left : t;
      table : Catalog.table;
      outer_pos : int array;
      header : header;
      residual : rcond option;
    }
  | Anti_join of {
      left : t;
      table : Catalog.table;
      header : header;
      key_outer : int list;
      key_inner : int list;
      residual : rcond option;
    }
  | Project of { input : t; header : header; exprs : rexpr array }
  | Count_star of { input : t; header : header }
  | Aggregate of {
      input : t;
      header : header;
      group_keys : int list;
      outputs : agg_output array;
    }
  | Distinct of t
  | Union_all of t * t
  | Union_distinct of t * t
  | Except_distinct of t * t
  | Sort of { input : t; keys : (int * bool) list }

let rec header_of = function
  | Seq_scan { header; _ }
  | Index_scan { header; _ }
  | Range_scan { header; _ }
  | Nl_join { header; _ }
  | Hash_join { header; _ }
  | Index_join { header; _ }
  | Member_join { header; _ }
  | Anti_join { header; _ }
  | Project { header; _ }
  | Count_star { header; _ }
  | Aggregate { header; _ } -> header
  | Distinct p | Sort { input = p; _ } -> header_of p
  | Union_all (a, _) | Union_distinct (a, _) | Except_distinct (a, _) -> header_of a

let eval_rexpr e row =
  match e with
  | R_col i -> row.(i)
  | R_lit v -> v

let rec eval_rcond c row =
  match c with
  | R_cmp (a, op, b) -> Sql_ast.eval_cmp op (eval_rexpr a row) (eval_rexpr b row)
  | R_and (a, b) -> eval_rcond a row && eval_rcond b row
  | R_or (a, b) -> eval_rcond a row || eval_rcond b row
  | R_not a -> not (eval_rcond a row)

(* Compiled forms: dispatch on the expression AST once, yielding a closure
   with no per-row constructor matching (the Exec_compiled hot path). *)
let compile_rexpr e =
  match e with
  | R_col i -> fun (row : Tuple.t) -> row.(i)
  | R_lit v -> fun _ -> v

let rec compile_rcond c =
  match c with
  | R_cmp (R_col i, op, R_lit v) -> fun (row : Tuple.t) -> Sql_ast.eval_cmp op row.(i) v
  | R_cmp (R_col i, op, R_col j) -> fun (row : Tuple.t) -> Sql_ast.eval_cmp op row.(i) row.(j)
  | R_cmp (a, op, b) ->
      let fa = compile_rexpr a and fb = compile_rexpr b in
      fun row -> Sql_ast.eval_cmp op (fa row) (fb row)
  | R_and (a, b) ->
      let fa = compile_rcond a and fb = compile_rcond b in
      fun row -> fa row && fb row
  | R_or (a, b) ->
      let fa = compile_rcond a and fb = compile_rcond b in
      fun row -> fa row || fb row
  | R_not a ->
      let fa = compile_rcond a in
      fun row -> not (fa row)

let rexpr_to_string header e =
  match e with
  | R_col i ->
      (* Anti_join residuals are resolved against the concatenation of the
         outer header and the inner table, so positions can exceed the
         operator's own header — fall back to a positional name *)
      if i >= Array.length header then "col" ^ string_of_int i
      else
        let c = header.(i) in
        if c.h_qual = "" then c.h_name else c.h_qual ^ "." ^ c.h_name
  | R_lit v -> Value.to_sql v

let rec rcond_to_string header = function
  | R_cmp (a, op, b) ->
      Printf.sprintf "%s %s %s" (rexpr_to_string header a) (Sql_ast.cmp_op_to_string op)
        (rexpr_to_string header b)
  | R_and (a, b) -> Printf.sprintf "(%s AND %s)" (rcond_to_string header a) (rcond_to_string header b)
  | R_or (a, b) -> Printf.sprintf "(%s OR %s)" (rcond_to_string header a) (rcond_to_string header b)
  | R_not a -> Printf.sprintf "(NOT %s)" (rcond_to_string header a)

let op_label p =
  let filter_str header = function
    | Some c -> " filter=[" ^ rcond_to_string header c ^ "]"
    | None -> ""
  in
  match p with
  | Seq_scan { table; header; filter } ->
      Printf.sprintf "SeqScan %s%s" table.Catalog.tbl_name (filter_str header filter)
  | Index_scan { table; index; key; header; filter } ->
      Printf.sprintf "IndexScan %s via %s = %s%s" table.Catalog.tbl_name (Index.name index)
        (Value.to_sql key) (filter_str header filter)
  | Range_scan { table; oindex; lo; hi; header; filter } ->
      let bound prefix = function
        | None -> ""
        | Some (v, incl) ->
            Printf.sprintf " %s%s %s" prefix (if incl then "=" else "") (Value.to_sql v)
      in
      Printf.sprintf "RangeScan %s via %s%s%s%s" table.Catalog.tbl_name
        (Ordered_index.name oindex) (bound ">" lo) (bound "<" hi) (filter_str header filter)
  | Nl_join { header; cond; _ } -> "NestedLoopJoin" ^ filter_str header cond
  | Hash_join { header; left_keys; right_keys; residual; build_left; _ } ->
      Printf.sprintf "HashJoin keys=[%s]=[%s]%s%s"
        (String.concat "," (List.map string_of_int left_keys))
        (String.concat "," (List.map string_of_int right_keys))
        (if build_left then " build=left" else "")
        (filter_str header residual)
  | Index_join { table; index; outer_pos; header; residual; _ } ->
      Printf.sprintf "IndexJoin %s via %s probe=col%d%s" table.Catalog.tbl_name
        (Index.name index) outer_pos (filter_str header residual)
  | Member_join { table; outer_pos; header; residual; _ } ->
      Printf.sprintf "MemberJoin %s probe=[%s]%s" table.Catalog.tbl_name
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "col%d") outer_pos)))
        (filter_str header residual)
  | Anti_join { table; key_outer; key_inner; residual; header; _ } ->
      Printf.sprintf "AntiJoin %s keys=[%s]=[%s]%s" table.Catalog.tbl_name
        (String.concat "," (List.map string_of_int key_outer))
        (String.concat "," (List.map string_of_int key_inner))
        (match residual with
        | Some c -> " residual=[" ^ rcond_to_string header c ^ "]"
        | None -> "")
  | Project { input; exprs; _ } ->
      Printf.sprintf "Project [%s]"
        (String.concat ", "
           (Array.to_list (Array.map (rexpr_to_string (header_of input)) exprs)))
  | Count_star _ -> "CountStar"
  | Aggregate { group_keys; outputs; _ } ->
      let out_str = function
        | O_group i -> Printf.sprintf "col%d" i
        | O_count_star -> "count(*)"
        | O_count i -> Printf.sprintf "count(col%d)" i
        | O_sum i -> Printf.sprintf "sum(col%d)" i
        | O_min i -> Printf.sprintf "min(col%d)" i
        | O_max i -> Printf.sprintf "max(col%d)" i
      in
      Printf.sprintf "Aggregate keys=[%s] outputs=[%s]"
        (String.concat "," (List.map string_of_int group_keys))
        (String.concat ", " (Array.to_list (Array.map out_str outputs)))
  | Distinct _ -> "Distinct"
  | Union_all _ -> "UnionAll"
  | Union_distinct _ -> "Union"
  | Except_distinct _ -> "Except"
  | Sort { keys; _ } ->
      Printf.sprintf "Sort [%s]"
        (String.concat ", "
           (List.map (fun (i, d) -> string_of_int i ^ if d then " DESC" else "") keys))

(* The sub-plans an operator's execution recurses into; Index_join,
   Member_join and Anti_join access their inner table through the operator
   itself, so only the outer input is a child. *)
let children = function
  | Seq_scan _ | Index_scan _ | Range_scan _ -> []
  | Nl_join { left; right; _ } | Hash_join { left; right; _ } -> [ left; right ]
  | Index_join { left; _ } | Member_join { left; _ } | Anti_join { left; _ } -> [ left ]
  | Project { input; _ } | Count_star { input; _ } | Aggregate { input; _ }
  | Sort { input; _ } ->
      [ input ]
  | Distinct p -> [ p ]
  | Union_all (a, b) | Union_distinct (a, b) | Except_distinct (a, b) -> [ a; b ]

let describe plan =
  let buf = Buffer.create 128 in
  let rec go depth p =
    Buffer.add_string buf (String.make (2 * depth) ' ' ^ op_label p ^ "\n");
    List.iter (go (depth + 1)) (children p)
  in
  go 0 plan;
  Buffer.contents buf
