open Sql_ast

exception Plan_error of string

type join_order =
  | Syntactic
  | Greedy
  | Costed

let err fmt = Printf.ksprintf (fun s -> raise (Plan_error s)) fmt

let lc = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Name resolution *)

(* One FROM item in scope: its alias (lowercased) and table. *)
type scope_item = {
  si_alias : string;
  si_table : Catalog.table;
  si_schema : Schema.t;
}

let scope_of_from catalog from =
  let items =
    List.map
      (fun { table; alias } ->
        let tbl = Catalog.find_table catalog table in
        match tbl with
        | None -> err "no such table: %s" table
        | Some tbl ->
            let si_alias = lc (Option.value alias ~default:table) in
            { si_alias; si_table = tbl; si_schema = Relation.schema tbl.Catalog.tbl_relation })
      from
  in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun si ->
      if Hashtbl.mem seen si.si_alias then err "duplicate table alias: %s" si.si_alias;
      Hashtbl.add seen si.si_alias ())
    items;
  Array.of_list items

(* Resolve a column reference to (from-item index, column position, type). *)
let resolve scope { qualifier; column } =
  let name = lc column in
  match qualifier with
  | Some q ->
      let q = lc q in
      let rec find i =
        if i >= Array.length scope then err "unknown table or alias: %s" q
        else if scope.(i).si_alias = q then
          match Schema.find scope.(i).si_schema column with
          | Some (pos, col) -> (i, pos, col.Schema.col_type)
          | None -> err "no column %s in %s" column q
        else find (i + 1)
      in
      find 0
  | None ->
      let hits = ref [] in
      Array.iteri
        (fun i si ->
          match Schema.find si.si_schema column with
          | Some (pos, col) -> hits := (i, pos, col.Schema.col_type) :: !hits
          | None -> ())
        scope;
      (match !hits with
      | [ hit ] -> hit
      | [] -> err "unknown column: %s" name
      | _ -> err "ambiguous column: %s" name)

(* ------------------------------------------------------------------ *)
(* Condition analysis *)

let rec split_and = function
  | And (a, b) -> split_and a @ split_and b
  | c -> [ c ]

(* All (from-item, column) pairs referenced by a condition. *)
let rec cond_refs scope = function
  | Cmp (a, _, b) -> scalar_refs scope a @ scalar_refs scope b
  | And (a, b) | Or (a, b) -> cond_refs scope a @ cond_refs scope b
  | Not a -> cond_refs scope a
  | Not_exists _ -> err "NOT EXISTS is only supported as a top-level WHERE conjunct"

and scalar_refs scope = function
  | Col c ->
      let i, _, _ = resolve scope c in
      [ i ]
  | Lit _ -> []

let tables_of_cond scope c = List.sort_uniq compare (cond_refs scope c)

(* ------------------------------------------------------------------ *)
(* Compiling conditions against a header built from a set of scope items *)

(* A layout maps a from-item index to its column offset in the current
   intermediate header. *)
type layout = (int * int) list (* from-item idx -> base offset *)

let header_of_items scope (layout : layout) width : Plan.header =
  let header = Array.make width { Plan.h_qual = ""; h_name = ""; h_type = Datatype.TInt } in
  List.iter
    (fun (i, base) ->
      let si = scope.(i) in
      List.iteri
        (fun j col ->
          header.(base + j) <-
            {
              Plan.h_qual = si.si_alias;
              h_name = lc col.Schema.col_name;
              h_type = col.Schema.col_type;
            })
        (Schema.columns si.si_schema))
    layout;
  header

(* A parameter carries no type here: {!param_types} typed it from the
   same comparisons before planning began, and the engine checks each
   execution's arguments against those types. *)
let compile_scalar scope layout s : Plan.rexpr * Datatype.t option =
  match s with
  | Lit (L_param n) -> (Plan.R_param n, None)
  | Lit l ->
      let v = value_of_literal l in
      (Plan.R_lit v, Some (Datatype.of_value v))
  | Col c ->
      let i, pos, ty = resolve scope c in
      let base =
        match List.assoc_opt i layout with
        | Some b -> b
        | None -> err "column %s not available at this point in the plan" c.column
      in
      (Plan.R_col (base + pos), Some ty)

let rec compile_cond scope layout c : Plan.rcond =
  match c with
  | Cmp (a, op, b) ->
      let ra, ta = compile_scalar scope layout a in
      let rb, tb = compile_scalar scope layout b in
      (match (ta, tb) with
      | Some x, Some y when not (Datatype.equal x y) ->
          err "type mismatch in comparison: %s vs %s" (Datatype.to_string x) (Datatype.to_string y)
      | _ -> ());
      Plan.R_cmp (ra, op, rb)
  | And (a, b) -> Plan.R_and (compile_cond scope layout a, compile_cond scope layout b)
  | Or (a, b) -> Plan.R_or (compile_cond scope layout a, compile_cond scope layout b)
  | Not a -> Plan.R_not (compile_cond scope layout a)
  | Not_exists _ -> err "NOT EXISTS is only supported as a top-level WHERE conjunct"

let conjoin = function
  | [] -> None
  | c :: rest -> Some (List.fold_left (fun acc x -> Plan.R_and (acc, x)) c rest)

(* ------------------------------------------------------------------ *)
(* Scan planning: apply local predicates, using an index when an equality
   with a literal mentions an indexed column. *)

(* Can [l] serve as an index key or range bound on column [cr]? A literal
   of another type cannot (the comparison then fails to type-check); a
   parameter always can, being typed by that column. *)
let literal_fits scope cr l =
  match l with
  | L_param _ -> true
  | L_int _ | L_str _ ->
      let _, _, ty = resolve scope cr in
      Datatype.equal ty (Datatype.of_value (value_of_literal l))

let key_of_literal = function
  | L_param n -> Plan.R_param n
  | l -> Plan.R_lit (value_of_literal l)

let plan_scan ?(costed = false) catalog scope i (local_conds : cond list) : Plan.t =
  let si = scope.(i) in
  let layout = [ (i, 0) ] in
  let header = header_of_items scope layout (Schema.arity si.si_schema) in
  (* look for  col = literal  (either side) on an indexed column *)
  let index_candidate c =
    match c with
    | Cmp (Col cr, Eq, Lit l) | Cmp (Lit l, Eq, Col cr) -> (
        if not (literal_fits scope cr l) then None
        else
          match Catalog.find_index catalog ~table:si.si_table.Catalog.tbl_name ~column:cr.column with
          | Some idx -> Some (idx, key_of_literal l)
          | None -> None)
    | _ -> None
  in
  let rec pick acc = function
    | [] -> (None, List.rev acc)
    | c :: rest -> (
        match index_candidate c with
        | Some hit -> (Some hit, List.rev_append acc rest)
        | None -> pick (c :: acc) rest)
  in
  let hit, residual_conds = pick [] local_conds in
  let chosen_plan =
    match hit with
    | Some (index, key) ->
      let filter = conjoin (List.map (compile_cond scope layout) residual_conds) in
      Plan.Index_scan { table = si.si_table; index; key; header; filter }
  | None -> (
      (* no hash-index equality: try an ordered index over comparison
         predicates with literals *)
      let range_candidate c =
        let oriented =
          match c with
          | Cmp (Col cr, op, Lit l) -> Some (cr, op, l)
          | Cmp (Lit l, op, Col cr) ->
              let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | o -> o in
              Some (cr, flip op, l)
          | _ -> None
        in
        match oriented with
        | Some (cr, op, l) when op <> Neq -> (
            if not (literal_fits scope cr l) then None
            else
              match
                Catalog.find_ordered_index catalog ~table:si.si_table.Catalog.tbl_name
                  ~column:cr.column
              with
              | Some oidx -> Some (oidx, op, key_of_literal l)
              | None -> None)
        | _ -> None
      in
      (* gather all range conds on the first usable ordered column *)
      let chosen = List.find_map range_candidate residual_conds in
      match chosen with
      | None ->
          let filter = conjoin (List.map (compile_cond scope layout) residual_conds) in
          Plan.Seq_scan { table = si.si_table; header; filter }
      | Some (oidx, _, _) ->
          (* keep the tighter of two literal bounds; a parameter's value
             is unknown until execution, so beside another bound on the
             same side it stays a filter instead *)
          let tighten ~sign bound (e, incl) =
            match (!bound, e) with
            | None, _ ->
                bound := Some (e, incl);
                true
            | Some (Plan.R_lit v', incl'), Plan.R_lit v ->
                let c = sign * Value.compare v v' in
                if c > 0 || (c = 0 && (not incl) && incl') then bound := Some (e, incl);
                true
            | Some _, _ -> false
          in
          let lo = ref None and hi = ref None in
          let leftovers =
            List.filter
              (fun c ->
                match range_candidate c with
                | Some (oidx', op, e) when Ordered_index.name oidx' = Ordered_index.name oidx -> (
                    match op with
                    | Eq ->
                        let l = tighten ~sign:1 lo (e, true) in
                        let h = tighten ~sign:(-1) hi (e, true) in
                        not (l && h)
                    | Lt -> not (tighten ~sign:(-1) hi (e, false))
                    | Le -> not (tighten ~sign:(-1) hi (e, true))
                    | Gt -> not (tighten ~sign:1 lo (e, false))
                    | Ge -> not (tighten ~sign:1 lo (e, true))
                    | Neq -> true)
                | _ -> true)
              residual_conds
          in
          let filter = conjoin (List.map (compile_cond scope layout) leftovers) in
          Plan.Range_scan { table = si.si_table; oindex = oidx; lo = !lo; hi = !hi; header; filter })
  in
  if not costed then chosen_plan
  else
    match chosen_plan with
    | Plan.Seq_scan _ -> chosen_plan
    | _ ->
        (* the syntax-preferred access path is not always cheapest: probing
           an index on a one-page table reads more pages than scanning it *)
        let filter = conjoin (List.map (compile_cond scope layout) local_conds) in
        let seq = Plan.Seq_scan { table = si.si_table; header; filter } in
        if (Cost.estimate seq).Cost.cost < (Cost.estimate chosen_plan).Cost.cost then seq
        else chosen_plan

(* ------------------------------------------------------------------ *)
(* Join planning *)

(* an equi-join conjunct between two distinct from-items *)
type join_edge = {
  je_cond : cond;
  je_left : int * string;  (* from idx, column name *)
  je_right : int * string;
}

let as_join_edge scope c =
  match c with
  | Cmp (Col a, Eq, Col b) ->
      let ia, _, _ = resolve scope a and ib, _, _ = resolve scope b in
      if ia = ib then None
      else Some { je_cond = c; je_left = (ia, a.column); je_right = (ib, b.column) }
  | _ -> None

let width_of scope layout =
  List.fold_left (fun acc (i, _) -> acc + Schema.arity scope.(i).si_schema) 0 layout

(* The in-progress left-deep join: the plan built so far and the
   predicates not yet applied. Pure value, so the costed enumerator can
   branch from one state into several candidate extensions. *)
type build_state = {
  bs_plan : Plan.t;
  bs_layout : layout;
  bs_joined : int list;
  bs_edges : join_edge list;  (* equi-join edges not yet applied *)
  bs_other : cond list;  (* non-edge join/residual conds not yet applied *)
}

let initial_state ~costed catalog scope per_table_conds join_conds residual_conds first_idx =
  {
    bs_plan = plan_scan ~costed catalog scope first_idx per_table_conds.(first_idx);
    bs_layout = [ (first_idx, 0) ];
    bs_joined = [ first_idx ];
    bs_edges = List.filter_map (as_join_edge scope) join_conds;
    bs_other = List.filter (fun c -> as_join_edge scope c = None) join_conds @ residual_conds;
  }

(* Join table [j] onto [st]. In costed mode the access path (index probe
   vs building the inner side) and the hash-join build side are chosen by
   comparing {!Cost} estimates; otherwise an index join is taken whenever
   table [j] is indexed on a join column and has no local filter. An index
   join whose edges bind every column of [j] becomes a member join. *)
let join_step ~costed catalog scope per_table_conds st j =
  let prev_layout = st.bs_layout in
  let base = width_of scope prev_layout in
  let next_layout = prev_layout @ [ (j, base) ] in
  let covered = j :: st.bs_joined in
  (* edges connecting j to already-joined tables *)
  let usable, rest =
    List.partition
      (fun e ->
        let li, _ = e.je_left and ri, _ = e.je_right in
        (li = j && List.mem ri st.bs_joined) || (ri = j && List.mem li st.bs_joined))
      st.bs_edges
  in
  (* conditions that become applicable once j is joined *)
  let applicable, still_pending =
    List.partition
      (fun c -> List.for_all (fun i -> List.mem i covered) (tables_of_cond scope c))
      st.bs_other
  in
  let header = header_of_items scope next_layout (base + Schema.arity scope.(j).si_schema) in
  let residual = List.map (compile_cond scope next_layout) applicable in
  (* local scan for table j, including its single-table predicates *)
  let make_inner_scan () = plan_scan ~costed catalog scope j per_table_conds.(j) in
  let rows_in = lazy ((Cost.estimate st.bs_plan).Cost.rows) in
  let new_plan =
    match usable with
    | [] ->
        (* no equi-join edge: cross join with any residual *)
        Plan.Nl_join
          { left = st.bs_plan; right = make_inner_scan (); header; cond = conjoin residual }
    | edges -> (
        (* orient edges as (outer column in left layout, inner column of j) *)
        let oriented =
          List.map
            (fun e ->
              let (li, lcol), (ri, rcol) = (e.je_left, e.je_right) in
              if li = j then ((ri, rcol), lcol) else ((li, lcol), rcol))
            edges
        in
        (* an index join on one edge is available when table j is indexed
           on that column and has no extra local filter to lose *)
        let index_edge =
          if per_table_conds.(j) <> [] then None
          else
            List.find_map
              (fun (outer, inner_col) ->
                match
                  Catalog.find_index catalog ~table:scope.(j).si_table.Catalog.tbl_name
                    ~column:inner_col
                with
                | Some idx -> Some (outer, inner_col, idx)
                | None -> None)
              oriented
        in
        (* in costed mode, probe only if cheaper than scanning j once for
           a hash join: probing charges (1 + matched pages) per outer row *)
        let index_edge =
          match index_edge with
          | Some (_, _, idx) when costed ->
              let tbl = scope.(j).si_table in
              let per_probe =
                Cost.table_rows tbl /. max 1.0 (float_of_int (Index.distinct_keys idx))
              in
              let probe_cost = 1.0 +. Cost.pages_f (per_probe *. Cost.avg_row_bytes tbl) in
              let cost_index = Lazy.force rows_in *. probe_cost in
              let cost_hash = (Cost.estimate (make_inner_scan ())).Cost.cost in
              if cost_index < cost_hash then index_edge else None
          | _ -> index_edge
        in
        match index_edge with
        | Some ((oi, ocol), inner_col, idx) ->
            let outer_position (o, c) =
              List.assoc o prev_layout + Schema.position_exn scope.(o).si_schema c
            in
            (* all other edges become residual conditions *)
            let other_edges = List.filter (fun e -> e <> ((oi, ocol), inner_col)) oriented in
            let extra =
              List.map
                (fun ((o, ocol'), icol) ->
                  compile_cond scope next_layout
                    (Cmp
                       ( Col { qualifier = Some scope.(o).si_alias; column = ocol' },
                         Eq,
                         Col { qualifier = Some scope.(j).si_alias; column = icol } )))
                other_edges
            in
            (* MemberJoin: when the edges bind every inner column, the
               outer row names the one inner row it can match, and the
               relation's tuple table answers the probe; an edge onto an
               already-bound column stays a residual *)
            let inner_schema = scope.(j).si_schema in
            let bound = Array.make (Schema.arity inner_schema) None in
            let leftover =
              List.filter_map
                (fun ((outer, icol), cond) ->
                  let ipos = Schema.position_exn inner_schema icol in
                  match bound.(ipos) with
                  | None ->
                      bound.(ipos) <- Some (outer_position outer);
                      None
                  | Some _ -> cond)
                ((((oi, ocol), inner_col), None)
                :: List.map2 (fun e c -> (e, Some c)) other_edges extra)
            in
            if Array.for_all Option.is_some bound then
              Plan.Member_join
                {
                  left = st.bs_plan;
                  table = scope.(j).si_table;
                  outer_pos = Array.map Option.get bound;
                  header;
                  residual = conjoin (leftover @ residual);
                }
            else
              Plan.Index_join
                {
                  left = st.bs_plan;
                  table = scope.(j).si_table;
                  index = idx;
                  outer_pos = outer_position (oi, ocol);
                  header;
                  residual = conjoin (extra @ residual);
                }
        | None ->
            let left_keys, right_keys =
              List.split
                (List.map
                   (fun ((oi, ocol), icol) ->
                     let obase = List.assoc oi prev_layout in
                     ( obase + Schema.position_exn scope.(oi).si_schema ocol,
                       Schema.position_exn scope.(j).si_schema icol ))
                   oriented)
            in
            let right = make_inner_scan () in
            let build_left =
              costed && Lazy.force rows_in < (Cost.estimate right).Cost.rows
            in
            Plan.Hash_join
              {
                left = st.bs_plan;
                right;
                header;
                left_keys;
                right_keys;
                residual = conjoin residual;
                build_left;
              })
  in
  {
    bs_plan = new_plan;
    bs_layout = next_layout;
    bs_joined = covered;
    bs_edges = rest;
    bs_other = still_pending;
  }

let finish_state st =
  if st.bs_other <> [] || st.bs_edges <> [] then
    err "internal: unapplied predicates remain after join planning";
  (st.bs_plan, st.bs_layout)

let plan_joins ?(costed = false) catalog scope ~order per_table_conds join_conds residual_conds =
  match order with
  | [] -> err "internal: empty join order"
  | first_idx :: rest ->
      let st0 =
        initial_state ~costed catalog scope per_table_conds join_conds residual_conds first_idx
      in
      finish_state
        (List.fold_left (fun st j -> join_step ~costed catalog scope per_table_conds st j) st0 rest)

(* Beyond this many FROM items the costed planner falls back to a greedy
   order (the DP below is exponential in the number of tables). *)
let costed_dp_limit = 12

(* Dynamic-programming enumeration of left-deep join orders: for every
   subset of FROM items keep the cheapest (by {!Cost.estimate}) partial
   plan that joins exactly that subset. Cross joins are deferred until no
   connected extension exists, like the greedy planner. Ties keep the
   first candidate in (subset, table-index) order, so plans are
   deterministic. *)
let costed_order_plan catalog scope per_table_conds join_conds residual_conds =
  let n = Array.length scope in
  let edge_pairs =
    List.filter_map (as_join_edge scope) join_conds
    |> List.map (fun e -> (fst e.je_left, fst e.je_right))
  in
  let size = 1 lsl n in
  let best = Array.make size None in
  for i = 0 to n - 1 do
    let st =
      initial_state ~costed:true catalog scope per_table_conds join_conds residual_conds i
    in
    best.(1 lsl i) <- Some ((Cost.estimate st.bs_plan).Cost.cost, st)
  done;
  for mask = 1 to size - 2 do
    match best.(mask) with
    | None -> ()
    | Some (_, st) ->
        let in_mask j = mask land (1 lsl j) <> 0 in
        let connected j =
          List.exists
            (fun (a, b) -> (a = j && in_mask b) || (b = j && in_mask a))
            edge_pairs
        in
        let absent = List.filter (fun j -> not (in_mask j)) (List.init n (fun i -> i)) in
        let candidates =
          match List.filter connected absent with [] -> absent | conn -> conn
        in
        List.iter
          (fun j ->
            let st' = join_step ~costed:true catalog scope per_table_conds st j in
            let cost = (Cost.estimate st'.bs_plan).Cost.cost in
            let mask' = mask lor (1 lsl j) in
            match best.(mask') with
            | Some (prev, _) when prev <= cost -> ()
            | _ -> best.(mask') <- Some (cost, st'))
          candidates
  done;
  match best.(size - 1) with
  | Some (_, st) -> finish_state st
  | None -> err "internal: costed join enumeration found no complete plan"

(* ------------------------------------------------------------------ *)
(* Projection *)

let output_name idx item =
  match item with
  | Sel_expr (_, Some a) -> lc a
  | Sel_expr (Col c, None) -> lc c.column
  | Sel_expr (Lit _, None) -> Printf.sprintf "col%d" (idx + 1)
  | Sel_count_star (Some a) | Sel_agg (_, _, Some a) -> lc a
  | Sel_count_star None -> "count"
  | Sel_agg (fn, Col c, None) -> lc (Sql_ast.agg_fn_to_string fn ^ "_" ^ c.column)
  | Sel_agg (fn, Lit _, None) -> lc (Sql_ast.agg_fn_to_string fn)
  | Sel_star -> err "internal: star in projection"

let plan_projection params scope layout input items =
  let has_count = List.exists (function Sel_count_star _ -> true | _ -> false) items in
  if has_count then begin
    (match items with
    | [ Sel_count_star _ ] -> ()
    | _ -> err "COUNT( * ) cannot be combined with other select items");
    let name = output_name 0 (List.hd items) in
    Plan.Count_star
      { input; header = [| { Plan.h_qual = ""; h_name = name; h_type = Datatype.TInt } |] }
  end
  else
    let compiled =
      List.mapi
        (fun idx item ->
          match item with
          | Sel_expr (s, _) ->
              let re, ty = compile_scalar scope layout s in
              let ty =
                match s with
                | Lit (L_param n) -> params.(n - 1)
                | _ -> Option.value ty ~default:Datatype.TStr
              in
              (re, { Plan.h_qual = ""; h_name = output_name idx item; h_type = ty })
          | Sel_count_star _ | Sel_agg _ | Sel_star -> err "internal: bad projection item")
        items
    in
    let exprs = Array.of_list (List.map fst compiled) in
    let header = Array.of_list (List.map snd compiled) in
    Plan.Project { input; header; exprs }

(* ------------------------------------------------------------------ *)
(* Entry points *)

(* Plan one NOT EXISTS subquery as an anti-join above [plan]. *)
let plan_anti catalog scope layout plan (core : select_core) =
  let inner_item =
    match core.from with
    | [ item ] -> item
    | _ -> err "NOT EXISTS subquery must have exactly one FROM table"
  in
  let inner_scope = scope_of_from catalog [ inner_item ] in
  let inner = inner_scope.(0) in
  Array.iter
    (fun si ->
      if String.equal si.si_alias inner.si_alias then
        err "NOT EXISTS subquery alias %s shadows an outer table" inner.si_alias)
    scope;
  let combined = Array.append scope inner_scope in
  let inner_idx = Array.length scope in
  let outer_width = Array.length (Plan.header_of plan) in
  let combined_layout = layout @ [ (inner_idx, outer_width) ] in
  let conjuncts = match core.where with Some c -> split_and c | None -> [] in
  (* equality keys between an inner column and an outer column *)
  let as_key c =
    match c with
    | Cmp (Col a, Eq, Col b) -> (
        let ia, pa, _ = resolve combined a and ib, pb, _ = resolve combined b in
        if ia = inner_idx && ib < inner_idx then
          Some (List.assoc ib layout + pb, pa)
        else if ib = inner_idx && ia < inner_idx then
          Some (List.assoc ia layout + pa, pb)
        else None)
    | _ -> None
  in
  let keys, residual_conds =
    List.fold_left
      (fun (keys, res) c ->
        match as_key c with
        | Some k -> (keys @ [ k ], res)
        | None -> (keys, res @ [ c ]))
      ([], []) conjuncts
  in
  let residual = conjoin (List.map (compile_cond combined combined_layout) residual_conds) in
  Plan.Anti_join
    {
      left = plan;
      table = inner.si_table;
      header = Plan.header_of plan;
      key_outer = List.map fst keys;
      key_inner = List.map snd keys;
      residual;
    }

(* GROUP BY / aggregate planning: group keys and aggregate arguments are
   resolved against the pre-projection header *)
let plan_aggregate scope layout input items group_by =
  let pos_of_col c =
    match compile_scalar scope layout (Col c) with
    | Plan.R_col p, _ -> p
    | (Plan.R_lit _ | Plan.R_param _), _ -> err "internal: column compiled to a literal"
  in
  let input_header = Plan.header_of input in
  let key_positions = List.map pos_of_col group_by in
  let agg_arg fn s =
    match s with
    | Col c ->
        let p = pos_of_col c in
        let ty = input_header.(p).Plan.h_type in
        if fn = Agg_sum && not (Datatype.equal ty Datatype.TInt) then
          err "SUM requires an integer column";
        (p, ty)
    | Lit _ -> err "aggregates apply to columns, not literals"
  in
  let compiled =
    List.mapi
      (fun idx item ->
        let name = output_name idx item in
        match item with
        | Sel_expr (Col c, _) ->
            let p = pos_of_col c in
            if not (List.mem p key_positions) then
              err "column %s must appear in GROUP BY to be selected" c.column;
            (Plan.O_group p, { Plan.h_qual = ""; h_name = name; h_type = input_header.(p).Plan.h_type })
        | Sel_expr (Lit _, _) ->
            err "plain expressions in an aggregate query must be grouping columns"
        | Sel_count_star _ ->
            (Plan.O_count_star, { Plan.h_qual = ""; h_name = name; h_type = Datatype.TInt })
        | Sel_agg (Agg_count, s, _) ->
            let p, _ = agg_arg Agg_count s in
            (Plan.O_count p, { Plan.h_qual = ""; h_name = name; h_type = Datatype.TInt })
        | Sel_agg (Agg_sum, s, _) ->
            let p, _ = agg_arg Agg_sum s in
            (Plan.O_sum p, { Plan.h_qual = ""; h_name = name; h_type = Datatype.TInt })
        | Sel_agg (Agg_min, s, _) ->
            let p, ty = agg_arg Agg_min s in
            (Plan.O_min p, { Plan.h_qual = ""; h_name = name; h_type = ty })
        | Sel_agg (Agg_max, s, _) ->
            let p, ty = agg_arg Agg_max s in
            (Plan.O_max p, { Plan.h_qual = ""; h_name = name; h_type = ty })
        | Sel_star -> err "SELECT * cannot be combined with aggregates")
      items
  in
  Plan.Aggregate
    {
      input;
      header = Array.of_list (List.map snd compiled);
      group_keys = key_positions;
      outputs = Array.of_list (List.map fst compiled);
    }

(* crude selectivity estimate for greedy ordering: an equality filter on
   an indexed column keeps about cardinality/distinct-keys rows; any other
   local filter is assumed to keep a tenth. Each division is clamped to
   >= 1 so stacked filters never collapse an estimate to 0 (which made
   every later table look equally cheap). *)
let estimated_rows catalog scope per_table i =
  let si = scope.(i) in
  let n = Relation.cardinal si.si_table.Catalog.tbl_relation in
  List.fold_left
    (fun est c ->
      match c with
      | Cmp (Col cr, Eq, Lit _) | Cmp (Lit _, Eq, Col cr) -> (
          match
            Catalog.find_index catalog ~table:si.si_table.Catalog.tbl_name ~column:cr.column
          with
          | Some idx -> max 1 (est / max 1 (Index.distinct_keys idx))
          | None -> max 1 (est / 10))
      | _ -> max 1 (est / 10))
    n per_table.(i)

let greedy_order catalog scope per_table joins =
  let n = Array.length scope in
  let edges =
    List.filter_map (fun c -> as_join_edge scope c) joins
    |> List.map (fun e -> (fst e.je_left, fst e.je_right))
  in
  let connected covered j =
    List.exists (fun (a, b) -> (a = j && List.mem b covered) || (b = j && List.mem a covered)) edges
  in
  let est = Array.init n (fun i -> estimated_rows catalog scope per_table i) in
  let pick candidates =
    (* ties break on the lower from-item index for deterministic plans *)
    List.fold_left
      (fun best j ->
        match best with
        | None -> Some j
        | Some b -> if est.(j) < est.(b) || (est.(j) = est.(b) && j < b) then Some j else best)
      None candidates
    |> Option.get
  in
  let first = pick (List.init n (fun i -> i)) in
  let remaining = ref (List.filter (fun i -> i <> first) (List.init n (fun i -> i))) in
  let order = ref [ first ] in
  (* reversed accumulator: [order] holds the chosen prefix newest-first *)
  while !remaining <> [] do
    let covered = !order in
    let connected_cands = List.filter (connected covered) !remaining in
    let next = pick (if connected_cands = [] then !remaining else connected_cands) in
    remaining := List.filter (fun i -> i <> next) !remaining;
    order := next :: !order
  done;
  List.rev !order

let plan_core ~params ~join_order catalog core =
  let scope = scope_of_from catalog core.from in
  let n = Array.length scope in
  let all_conjuncts = match core.where with Some c -> split_and c | None -> [] in
  let anti_cores, conjuncts =
    List.partition_map
      (function
        | Not_exists inner -> Either.Left inner
        | c -> Either.Right c)
      all_conjuncts
  in
  let per_table = Array.make n [] in
  let joins = ref [] and residual = ref [] in
  List.iter
    (fun c ->
      match tables_of_cond scope c with
      | [ i ] -> per_table.(i) <- per_table.(i) @ [ c ]
      | [] ->
          (* constant condition: fold into the first table's filter for a
             single-table query, otherwise apply at the first join *)
          if n = 1 then per_table.(0) <- per_table.(0) @ [ c ]
          else residual := !residual @ [ c ]
      | [ _; _ ] -> joins := !joins @ [ c ]
      | _ -> residual := !residual @ [ c ])
    conjuncts;
  let costed = join_order = Costed in
  let base_plan, layout =
    if n = 1 then (plan_scan ~costed catalog scope 0 per_table.(0), [ (0, 0) ])
    else
      match join_order with
      | Syntactic ->
          plan_joins catalog scope ~order:(List.init n (fun i -> i)) per_table !joins !residual
      | Greedy ->
          let order = greedy_order catalog scope per_table !joins in
          plan_joins catalog scope ~order per_table !joins !residual
      | Costed when n <= costed_dp_limit ->
          costed_order_plan catalog scope per_table !joins !residual
      | Costed ->
          (* too many tables for the DP: greedy order, costed access paths *)
          let order = greedy_order catalog scope per_table !joins in
          plan_joins ~costed:true catalog scope ~order per_table !joins !residual
  in
  let with_anti =
    List.fold_left (fun p core -> plan_anti catalog scope layout p core) base_plan anti_cores
  in
  let has_agg =
    core.group_by <> []
    || List.exists (function Sel_count_star _ | Sel_agg _ -> true | _ -> false) core.items
  in
  let projected =
    match core.items with
    | [ Sel_star ] when not has_agg -> with_anti
    | [ Sel_count_star _ ] when core.group_by = [] ->
        (* fast path kept from the pre-aggregate engine *)
        plan_projection params scope layout with_anti core.items
    | items when has_agg -> plan_aggregate scope layout with_anti items core.group_by
    | items -> plan_projection params scope layout with_anti items
  in
  if core.distinct then Plan.Distinct projected else projected

let check_compat a b ctx =
  let ha = Plan.header_of a and hb = Plan.header_of b in
  if Array.length ha <> Array.length hb then err "%s: operand arities differ" ctx;
  Array.iteri
    (fun i ca ->
      if not (Datatype.equal ca.Plan.h_type hb.(i).Plan.h_type) then
        err "%s: column %d types differ" ctx (i + 1))
    ha

(* Parameter typing, before planning: a [?N] takes the type of the column
   or literal it is compared with (or is inserted into, or assigned to),
   recorded in [types.(N - 1)]. Scopes are those the planner resolves in
   (a NOT EXISTS subquery sees the outer FROM items too) and are built
   only for a core that holds a parameter. *)
let note_param types n ty =
  if n > Array.length types then err "parameter ?%d has no value" n;
  match (types.(n - 1), ty) with
  | Some a, Some b when not (Datatype.equal a b) ->
      err "parameter ?%d is used as both %s and %s" n (Datatype.to_string a) (Datatype.to_string b)
  | None, Some _ -> types.(n - 1) <- ty
  | _ -> ()

let infer_params catalog q types =
  let rec core outer c =
    let scope = lazy (Array.append outer (scope_of_from catalog c.from)) in
    let type_of = function
      | Col cr ->
          let _, _, ty = resolve (Lazy.force scope) cr in
          Some ty
      | Lit (L_param _) -> None
      | Lit l -> Some (Datatype.of_value (value_of_literal l))
    in
    let side x other =
      match x with Lit (L_param n) -> note_param types n (type_of other) | _ -> ()
    in
    let rec cond = function
      | Cmp (a, _, b) ->
          side a b;
          side b a
      | And (a, b) | Or (a, b) ->
          cond a;
          cond b
      | Not a -> cond a
      | Not_exists inner -> core (Lazy.force scope) inner
    in
    Option.iter cond c.where;
    List.iter
      (function
        | Sel_expr (Lit (L_param n), _) | Sel_agg (_, Lit (L_param n), _) -> note_param types n None
        | Sel_expr _ | Sel_agg _ | Sel_star | Sel_count_star _ -> ())
      c.items
  in
  let rec query = function
    | Q_select c -> core [||] c
    | Q_union (a, b) | Q_union_all (a, b) | Q_except (a, b) ->
        query a;
        query b
  in
  query q

let param_types catalog stmt n =
  let types = Array.make n None in
  let schema table =
    match Catalog.find_table catalog table with
    | Some tbl -> Relation.schema tbl.Catalog.tbl_relation
    | None -> err "no such table: %s" table
  in
  (* the WHERE of DELETE and UPDATE, read as the scan of their victims *)
  let victims table =
    Option.iter (fun c ->
        infer_params catalog
          (Q_select
             {
               distinct = false;
               items = [ Sel_star ];
               from = [ { table; alias = None } ];
               where = Some c;
               group_by = [];
             })
          types)
  in
  (* a parameter inserted into the [i]th column takes its type *)
  let inserted table =
    let cols = Array.of_list (Schema.types (schema table)) in
    fun i l ->
      match l with
      | L_param n when i < Array.length cols -> note_param types n (Some cols.(i))
      | _ -> ()
  in
  (match stmt with
  | Select { query; _ } | Delete_in { query; _ } -> infer_params catalog query types
  | Insert_select { table; query } ->
      infer_params catalog query types;
      let into = inserted table in
      let rec items = function
        | Q_select c ->
            List.iteri
              (fun i -> function Sel_expr (Lit l, _) -> into i l | _ -> ())
              c.items
        | Q_union (a, b) | Q_union_all (a, b) | Q_except (a, b) ->
            items a;
            items b
      in
      items query
  | Insert_values { table; rows } -> List.iter (List.iteri (inserted table)) rows
  | Delete { table; where } -> victims table where
  | Update { table; sets; where } ->
      let schema = schema table in
      List.iter
        (fun (col, e) ->
          match e with
          | Lit (L_param n) -> (
              match Schema.find schema col with
              | Some (_, def) -> note_param types n (Some def.Schema.col_type)
              | None -> err "no column %s in %s" col table)
          | Lit _ | Col _ -> ())
        sets;
      victims table where
  | Create_table _ | Drop_table _ | Truncate _ | Create_index _ | Drop_index _ | Begin | Commit
  | Rollback | Analyze _ ->
      ());
  Array.mapi
    (fun i -> function
      | Some ty -> ty
      | None -> err "cannot infer the type of ?%d: compare it with a column" (i + 1))
    types

let plan_query ?(params = [||]) ?(join_order = Syntactic) catalog q =
  (* refuse a parameter past [params]: it has neither type nor value *)
  infer_params catalog q (Array.make (Array.length params) None);
  let rec go = function
    | Q_select core -> plan_core ~params ~join_order catalog core
    | Q_union (a, b) ->
        let pa = go a and pb = go b in
        check_compat pa pb "UNION";
        Plan.Union_distinct (pa, pb)
    | Q_union_all (a, b) ->
        let pa = go a and pb = go b in
        check_compat pa pb "UNION ALL";
        Plan.Union_all (pa, pb)
    | Q_except (a, b) ->
        let pa = go a and pb = go b in
        check_compat pa pb "EXCEPT";
        Plan.Except_distinct (pa, pb)
  in
  go q

let plan_select_stmt ?params ?join_order catalog q order_by =
  let p = plan_query ?params ?join_order catalog q in
  if order_by = [] then p
  else
    let header = Plan.header_of p in
    let keys =
      List.map
        (fun { target; descending } ->
          let pos =
            match target with
            | `Position i ->
                if i < 1 || i > Array.length header then err "ORDER BY position %d out of range" i;
                i - 1
            | `Name n ->
                let n = lc n in
                let rec find i =
                  if i >= Array.length header then err "ORDER BY: unknown column %s" n
                  else if header.(i).Plan.h_name = n then i
                  else find (i + 1)
                in
                find 0
          in
          (pos, descending))
        order_by
    in
    Plan.Sort { input = p; keys }
