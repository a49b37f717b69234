(* Incremental view maintenance over the semi-naive runtime: counting
   for non-recursive predicates, DRed (delete-rederive) for recursive
   cliques. Derived predicates are kept materialized in [mat__p] tables,
   with per-tuple derivation counts in [matcnt__p] for counting nodes;
   fact INSERT / DELETE traffic is propagated through delta rules that
   reuse {!Runtime}'s scratch-table and prepared-statement machinery
   instead of re-running the LFP from scratch. *)

module Ast = Datalog.Ast
module Names = Datalog.Names
module Engine = Rdbms.Engine
module Value = Rdbms.Value
module Timer = Dkb_util.Timer

type mode =
  | Off
  | Counting
  | Dred
  | Auto

let mode_to_string = function
  | Off -> "off"
  | Counting -> "counting"
  | Dred -> "dred"
  | Auto -> "auto"

let mode_of_string = function
  | "off" -> Some Off
  | "counting" -> Some Counting
  | "dred" -> Some Dred
  | "auto" -> Some Auto
  | _ -> None

type strategy =
  | S_counting
  | S_dred
  | S_recompute

let strategy_to_string = function
  | S_counting -> "counting"
  | S_dred -> "dred"
  | S_recompute -> "recompute"

let strategy_of_string = function
  | "counting" -> Some S_counting
  | "dred" -> Some S_dred
  | "recompute" -> Some S_recompute
  | _ -> None

exception Fallback of string
exception Maint_error of string

let maint_err fmt = Printf.ksprintf (fun s -> raise (Maint_error s)) fmt

(* More changed body occurrences than this and the subset-variant count
   (2^k - 1 delta rules per rule) stops being worth it: fall back. *)
let max_changed_occurrences = 6

type pnode =
  | P_pred of {
      pred : string;
      rules : Ast.clause list;
      facts : Ast.clause list;
      strat : strategy;
    }
  | P_clique of {
      label : string;
      members : string list;
      facts : (string * Ast.clause list) list;
      exit_rules : (string * Ast.clause) list;
      rec_rules : (string * Ast.clause) list;
      strat : strategy;
    }

type plan = {
  nodes : pnode list;  (* dependency (evaluation) order *)
  derived : (string * Rdbms.Datatype.t list) list;
  bases : (string * (string * Rdbms.Datatype.t) list) list;
  is_base : string -> bool;
  columns : string -> string list;  (* tolerant of decorated table names *)
}

type t = {
  stored : Stored_dkb.t;
  engine : Engine.t;
  mutable plan : plan option;
  mutable plan_key : (int * (string * string) list) option;
}

type apply_report = {
  base_inserted : int;
  base_deleted : int;
  derived_changes : (string * int * int) list;  (* pred, inserted, deleted *)
  rederived : int;
  fallback : bool;
  maintained : bool;
  total_ms : float;
}

let create stored = { stored; engine = Stored_dkb.engine stored; plan = None; plan_key = None }

let invalidate t =
  t.plan <- None;
  t.plan_key <- None

let registered t = Stored_dkb.matviews t.stored
let is_maintained t = registered t <> []

(* ------------------------------------------------------------------ *)
(* Small SQL helpers *)

let exec t sql = ignore (Engine.exec t.engine sql)
let q t sql = Engine.query t.engine sql

let row_values row =
  "(" ^ String.concat ", " (List.map Value.to_sql (Array.to_list row)) ^ ")"

let row_where cols row =
  String.concat " AND "
    (List.map2 (fun c v -> Printf.sprintf "%s = %s" c (Value.to_sql v)) cols (Array.to_list row))

let insert_rows_chunked t name rows =
  let batch = 400 in
  let rec take n acc = function
    | [] -> (List.rev acc, [])
    | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> ()
    | l ->
        let chunk, rest = take batch [] l in
        exec t
          (Printf.sprintf "INSERT INTO %s VALUES %s" name
             (String.concat ", " (List.map row_values chunk)));
        go rest
  in
  go rows

let bump counts row d =
  match Hashtbl.find_opt counts row with
  | Some r -> r := !r + d
  | None -> Hashtbl.add counts row (ref d)

(* ------------------------------------------------------------------ *)
(* Plan building *)

let has_negation rules =
  List.exists
    (fun c ->
      List.exists (function Ast.Neg _ -> true | Ast.Pos _ | Ast.Cmp _ -> false) c.Ast.body)
    rules

let build_plan t =
  let stored = t.stored in
  let catalog = Engine.catalog t.engine in
  let registry = Stored_dkb.matviews stored in
  let reg_preds = List.map fst registry in
  let clauses = Stored_dkb.rules_with_head stored reg_preds in
  (* decided once per plan (a plan is rebuilt whenever the rule base or
     the registrations change): each decision probes rulesource *)
  let base_memo = Hashtbl.create 16 in
  let is_base p =
    match Hashtbl.find_opt base_memo p with
    | Some b -> b
    | None ->
        let b = Rdbms.Catalog.table_exists catalog p && not (Stored_dkb.has_rules_for stored p) in
        Hashtbl.add base_memo p b;
        b
  in
  let base_preds =
    List.sort_uniq String.compare
      (List.concat_map
         (fun c ->
           List.filter_map (fun (p, _) -> if is_base p then Some p else None) (Ast.body_preds c))
         clauses)
  in
  let bases =
    List.map
      (fun b ->
        match Stored_dkb.base_schema stored b with
        | Some cols -> (b, cols)
        | None -> (
            match Rdbms.Catalog.find_table catalog b with
            | Some tbl ->
                let sch = Rdbms.Relation.schema tbl.Rdbms.Catalog.tbl_relation in
                ( b,
                  List.map
                    (fun c -> (c.Rdbms.Schema.col_name, c.Rdbms.Schema.col_type))
                    (Rdbms.Schema.columns sch) )
            | None -> maint_err "maintenance: base relation %s not found" b))
      base_preds
  in
  let base_types p = Option.map (List.map snd) (List.assoc_opt p bases) in
  let derived =
    match Datalog.Typecheck.infer ~base:base_types ~rules:clauses with
    | Ok tys -> tys
    | Error msg -> maint_err "maintenance: %s" msg
  in
  let columns p =
    let p = Names.strip_decorations p in
    match List.assoc_opt p bases with
    | Some cols -> List.map fst cols
    | None -> (
        match List.assoc_opt p derived with
        | Some tys -> Datalog.Sqlgen.default_columns (List.length tys)
        | None -> maint_err "maintenance: no schema known for %s" p)
  in
  let order = Datalog.Evalgraph.evaluation_order ~rules:clauses ~is_base ~goals:reg_preds in
  let strat_of preds rules =
    if has_negation rules then S_recompute
    else
      match List.assoc_opt (List.hd preds) registry with
      | Some s -> ( match strategy_of_string s with Some s -> s | None -> S_recompute)
      | None -> S_recompute
  in
  let nodes =
    List.map
      (function
        | Datalog.Evalgraph.N_pred p ->
            let own = List.filter (fun c -> String.equal (Ast.head_pred c) p) clauses in
            let facts, rules = List.partition Ast.is_fact own in
            let strat = strat_of [ p ] rules in
            if strat = S_dred then
              (* non-recursive predicate maintained DRed-style: a clique
                 of one member with no recursive rules *)
              P_clique
                {
                  label = p;
                  members = [ p ];
                  facts = [ (p, facts) ];
                  exit_rules = List.map (fun r -> (p, r)) rules;
                  rec_rules = [];
                  strat;
                }
            else P_pred { pred = p; rules; facts; strat }
        | Datalog.Evalgraph.N_clique cl ->
            let members = cl.Datalog.Clique.preds in
            let exit_facts, exit_rules =
              List.partition Ast.is_fact cl.Datalog.Clique.exit_rules
            in
            let facts =
              List.map
                (fun m ->
                  (m, List.filter (fun c -> String.equal (Ast.head_pred c) m) exit_facts))
                members
            in
            let strat =
              match strat_of members (exit_rules @ cl.Datalog.Clique.recursive_rules) with
              | S_counting -> S_recompute  (* counting cannot maintain recursion *)
              | s -> s
            in
            P_clique
              {
                label = String.concat "+" members;
                members;
                facts;
                exit_rules = List.map (fun r -> (Ast.head_pred r, r)) exit_rules;
                rec_rules =
                  List.map (fun r -> (Ast.head_pred r, r)) cl.Datalog.Clique.recursive_rules;
                strat;
              })
      order
  in
  { nodes; derived; bases; is_base; columns }

let get_plan t =
  let key = (Stored_dkb.rule_count t.stored, Stored_dkb.matviews t.stored) in
  match t.plan with
  | Some p when t.plan_key = Some key -> p
  | _ ->
      let p = build_plan t in
      t.plan <- Some p;
      t.plan_key <- Some key;
      p

(* ------------------------------------------------------------------ *)
(* Rule compilation against the materialized tables *)

(* Table read for a predicate in its current state. *)
let cur_table plan p = if plan.is_base p then p else Names.mat p

let positive_vars = function
  | Ast.Pos a -> Some (Ast.vars_of_atom a)
  | Ast.Neg _ | Ast.Cmp _ -> None

(* Delta-first sideways-information-passing order of a rule body, as body
   positions: the [lead] occurrences (the delta or over-deletion tables)
   first, then repeatedly the first remaining positive literal sharing a
   variable with those placed, so every join proceeds outward from bound
   arguments, as a QSQ subquery does; negations and comparisons follow in
   body order. The KM's left-to-right SIP plans FROM in exactly this
   order, so the delta drives and each later table is probed. *)
let sip_order body ~lead =
  let all = List.init (Array.length body) Fun.id in
  let positives, others = List.partition (fun i -> positive_vars body.(i) <> None) all in
  let vars i = Option.get (positive_vars body.(i)) in
  let leads, rest = List.partition lead positives in
  let rec place placed bound = function
    | [] -> List.rev placed
    | rest ->
        let next =
          match List.find_opt (fun i -> List.exists (fun v -> List.mem v bound) (vars i)) rest with
          | Some i -> i
          | None -> List.hd rest
        in
        place (next :: placed) (vars next @ bound) (List.filter (( <> ) next) rest)
  in
  place (List.rev leads) (List.concat_map vars leads) rest @ others

(* Compile one rule body to a SELECT, reading [cur_table] for every
   positive occurrence unless [override] substitutes another table for
   that body position (delta or over-delete tables). With [lead], the
   body is joined in {!sip_order} from those positions. *)
let rule_select plan ?(distinct = true) ?lead ?(override = fun _ -> None) clause =
  let body = Array.of_list clause.Ast.body in
  let order =
    match lead with
    | None -> Array.init (Array.length body) Fun.id
    | Some lead -> Array.of_list (sip_order body ~lead)
  in
  let table_of k =
    match override order.(k) with
    | Some tbl -> tbl
    | None -> (
        match body.(order.(k)) with
        | Ast.Pos a | Ast.Neg a -> cur_table plan a.Ast.pred
        | Ast.Cmp _ -> "")
  in
  let clause = { clause with Ast.body = Array.to_list (Array.map (Array.get body) order) } in
  Rdbms.Sql_printer.query
    (Datalog.Sqlgen.select_for_rule ~columns:plan.columns ~table_of ~distinct clause)

let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1)

(* The delta-rule variants of one rule for a set of changed predicates:
   one SELECT per nonempty subset S of the changed body occurrences,
   occurrences in S reading [delta_of pred] and every other occurrence
   its current table. With the deltas applied to the current state first,
   the deletion-phase variants partition the removed derivations exactly
   (deltas disjoint from the new state) and the insertion-phase variants
   enumerate the added ones with inclusion-exclusion signs. Returns
   [(sql, |S|)] pairs. *)
let subset_variants plan ?(distinct = true) ~changed ~delta_of clause =
  let body = Array.of_list clause.Ast.body in
  let positions =
    List.filter_map
      (fun i ->
        match body.(i) with
        | Ast.Pos a when changed a.Ast.pred -> Some i
        | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> None)
      (List.init (Array.length body) (fun i -> i))
  in
  match positions with
  | [] -> []
  | _ ->
      let k = List.length positions in
      if k > max_changed_occurrences then
        raise (Fallback "too many changed body occurrences");
      let pos = Array.of_list positions in
      List.map
        (fun mask ->
          let override j =
            let rec in_subset b =
              if b >= k then None
              else if mask land (1 lsl b) <> 0 && pos.(b) = j then
                match body.(j) with
                | Ast.Pos a -> Some (delta_of a.Ast.pred)
                | Ast.Neg _ | Ast.Cmp _ -> None
              else in_subset (b + 1)
            in
            in_subset 0
          in
          let lead j = override j <> None in
          (rule_select plan ~distinct ~lead ~override clause, popcount mask))
        (List.init ((1 lsl k) - 1) (fun m -> m + 1))

(* Semi-naive delta variants of the recursive rules of a clique: one per
   clique-member occurrence, that occurrence reading [delta_table], the
   other member occurrences [member_table], upstream its current table.
   Returns [(member_table_of_head, select)] pairs for
   {!Runtime.resume_seminaive}. *)
let clique_delta_rules plan ~members ~target ~delta_table ~member_table rec_rules =
  List.concat_map
    (fun (head, rule) ->
      let body = Array.of_list rule.Ast.body in
      let idxs =
        List.filter_map
          (fun i ->
            match body.(i) with
            | Ast.Pos a when List.mem a.Ast.pred members -> Some i
            | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> None)
          (List.init (Array.length body) (fun i -> i))
      in
      List.map
        (fun i ->
          let override j =
            match body.(j) with
            | Ast.Pos a when List.mem a.Ast.pred members ->
                Some (if j = i then delta_table a.Ast.pred else member_table a.Ast.pred)
            | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> None
          in
          (target head, rule_select plan ~lead:(( = ) i) ~override rule))
        idxs)
    rec_rules

(* DRed's rederivation form of a rule: guarded by the over-deleted set of
   its head, read at body position 0. *)
let guarded_rule head rule =
  let guard = Ast.Pos { Ast.pred = Names.overdel head; args = rule.Ast.head.Ast.args } in
  { rule with Ast.body = guard :: rule.Ast.body }

(* ------------------------------------------------------------------ *)
(* Table lifecycle *)

let create_table_sql name cols =
  Printf.sprintf "CREATE TABLE %s (%s)" name
    (String.concat ", "
       (List.map (fun (c, ty) -> c ^ " " ^ Rdbms.Datatype.to_string ty) cols))

let recreate t ?(index = false) name cols =
  exec t ("DROP TABLE IF EXISTS " ^ name);
  exec t (create_table_sql name cols);
  if index then
    exec t
      (Printf.sprintf "CREATE INDEX idx__%s__%s ON %s (%s)" name (fst (List.hd cols)) name
         (fst (List.hd cols)))

let derived_cols plan p =
  match List.assoc_opt p plan.derived with
  | Some tys -> List.mapi (fun i ty -> (Printf.sprintf "c%d" (i + 1), ty)) tys
  | None -> maint_err "maintenance: no inferred types for %s" p

(* The lead sets a maintained rule runs under: counting variants and DRed
   seeds read deltas at a subset of the positive occurrences, propagation
   at one member occurrence. Every nonempty subset covers both (only the
   singletons past [max_changed_occurrences], where maintenance falls
   back). *)
let lead_sets body =
  let positives =
    List.filter (fun i -> positive_vars body.(i) <> None) (List.init (Array.length body) Fun.id)
  in
  let k = List.length positives in
  if k > max_changed_occurrences then List.map (fun i -> [ i ]) positives
  else
    List.init ((1 lsl k) - 1) (fun m ->
        List.filteri (fun b _ -> (m + 1) land (1 lsl b) <> 0) positives)

(* Hash-index the columns the delta joins of a rule probe. Each lead set's
   SIP order is walked as the planner joins it: a later literal read from
   its base or [mat__] table is probed on its bound columns, and unless
   one of them is indexed already the first gets an index, which turns
   that join from a hash join over a scan into an index (or member) join.
   A literal with a constant or a repeated variable carries a local
   filter, which the planner never probes through an index. *)
let index_join_columns t plan ?leads clause =
  let catalog = Engine.catalog t.engine in
  let body = Array.of_list clause.Ast.body in
  let probe leads bound i =
    match body.(i) with
    | Ast.Pos a ->
        let vars = Ast.vars_of_atom a in
        let filtered = List.length vars < List.length a.Ast.args in
        if
          bound <> []
          && (not (List.mem i leads))
          && (not filtered)
          && (plan.is_base a.Ast.pred || List.mem_assoc a.Ast.pred plan.derived)
        then begin
          let table = cur_table plan a.Ast.pred in
          let bound_cols =
            List.concat
              (List.map2
                 (fun c arg -> match arg with Ast.Var v when List.mem v bound -> [ c ] | _ -> [])
                 (plan.columns a.Ast.pred) a.Ast.args)
          in
          let indexed c = Rdbms.Catalog.find_index catalog ~table ~column:c <> None in
          match bound_cols with
          | c :: _ when not (List.exists indexed bound_cols) ->
              exec t (Printf.sprintf "CREATE INDEX idx__%s__%s ON %s (%s)" table c table c)
          | _ -> ()
        end;
        vars @ bound
    | Ast.Neg _ | Ast.Cmp _ -> bound
  in
  List.iter
    (fun leads ->
      ignore (List.fold_left (probe leads) [] (sip_order body ~lead:(fun i -> List.mem i leads))))
    (match leads with Some l -> l | None -> lead_sets body)

(* Drop and recreate every maintenance table of the plan: the [mat__p]
   materializations (hash-indexed on c1 so per-tuple deletes hit the
   DELETE index fast path), [matcnt__p] for counting nodes, the
   per-update [insd__]/[deld__] delta tables for every derived and base
   dependency, and the DRed / semi-naive scratch tables for cliques; then
   index the base and [mat__] columns the delta joins probe. Base-table
   indexes outlive the call, so a column already indexed (by an earlier
   [ensure], or restored from a checkpoint) is skipped. *)
let ensure_tables t plan =
  Engine.suspend_logging t.engine @@ fun () ->
  let scratch_of tbl cols =
    List.iter (fun s -> recreate t s cols) [ Names.delta tbl; Names.new_delta tbl ]
  in
  List.iter
    (fun node ->
      let per_derived ?(clique = false) ?(counting = false) p =
        let cols = derived_cols plan p in
        recreate t ~index:true (Names.mat p) cols;
        recreate t (Names.ins_delta p) cols;
        recreate t (Names.del_delta p) cols;
        if counting then
          recreate t ~index:true (Names.cnt p) (cols @ [ ("dcount", Rdbms.Datatype.TInt) ]);
        if clique then begin
          recreate t (Names.overdel p) cols;
          scratch_of (Names.mat p) cols;
          scratch_of (Names.overdel p) cols
        end
      in
      match node with
      | P_pred { pred; strat; _ } -> per_derived ~counting:(strat = S_counting) pred
      | P_clique { members; _ } -> List.iter (fun m -> per_derived ~clique:true m) members)
    plan.nodes;
  List.iter
    (fun (b, cols) ->
      recreate t (Names.ins_delta b) cols;
      recreate t (Names.del_delta b) cols)
    plan.bases;
  List.iter
    (function
      | P_pred { rules; strat = S_counting; _ } -> List.iter (index_join_columns t plan) rules
      | P_clique { exit_rules; rec_rules; strat = S_dred; _ } ->
          List.iter
            (fun (head, r) ->
              index_join_columns t plan r;
              index_join_columns t plan ~leads:[ [ 0 ] ] (guarded_rule head r))
            (exit_rules @ rec_rules)
      | P_pred _ | P_clique _ -> ())
    plan.nodes

(* ------------------------------------------------------------------ *)
(* Full (re)evaluation of the materializations *)

let fact_row f =
  Array.of_list
    (List.map (function Ast.Const v -> v | Ast.Var _ -> assert false) f.Ast.head.Ast.args)

let clear t name = Engine.clear_table t.engine name

(* Evaluate one node from scratch into its (already truncated) tables. *)
let eval_node t plan = function
  | P_pred { pred = p; rules; facts; strat } ->
      if strat = S_counting then begin
        (* bag evaluation: one row per derivation, folded into counts *)
        let counts = Hashtbl.create 256 in
        List.iter (fun f -> bump counts (fact_row f) 1) facts;
        List.iter
          (fun r -> List.iter (fun row -> bump counts row 1) (q t (rule_select plan ~distinct:false r)))
          rules;
        let rows = Hashtbl.fold (fun row c acc -> (row, !c) :: acc) counts [] in
        insert_rows_chunked t (Names.mat p) (List.map fst rows);
        insert_rows_chunked t (Names.cnt p)
          (List.map (fun (row, c) -> Array.append row [| Value.Int c |]) rows)
      end
      else begin
        List.iter
          (fun f -> exec t ("INSERT INTO " ^ Names.mat p ^ " " ^ Datalog.Sqlgen.fact_values f))
          facts;
        List.iter
          (fun r -> exec t (Printf.sprintf "INSERT INTO %s %s" (Names.mat p) (rule_select plan r)))
          rules
      end
  | P_clique { label; members; facts; exit_rules; rec_rules; strat = _ } ->
      List.iter
        (fun (m, fs) ->
          List.iter
            (fun f -> exec t ("INSERT INTO " ^ Names.mat m ^ " " ^ Datalog.Sqlgen.fact_values f))
            fs)
        facts;
      List.iter
        (fun (m, r) -> exec t (Printf.sprintf "INSERT INTO %s %s" (Names.mat m) (rule_select plan r)))
        exit_rules;
      List.iter
        (fun m ->
          let mt = Names.mat m in
          clear t (Names.delta mt);
          clear t (Names.new_delta mt);
          exec t (Printf.sprintf "INSERT INTO %s SELECT * FROM %s" (Names.delta mt) mt))
        members;
      if rec_rules <> [] then begin
        let rules =
          clique_delta_rules plan ~members ~target:Names.mat
            ~delta_table:(fun m -> Names.delta (Names.mat m))
            ~member_table:Names.mat rec_rules
        in
        ignore
          (Runtime.resume_seminaive t.engine ~label:("maint:" ^ label)
             ~members:(List.map Names.mat members) ~rules ())
      end

let truncate_node_tables t = function
  | P_pred { pred; strat; _ } ->
      clear t (Names.mat pred);
      if strat = S_counting then clear t (Names.cnt pred)
  | P_clique { members; _ } -> List.iter (fun m -> clear t (Names.mat m)) members

(* Truncate every materialization and re-evaluate the whole plan — the
   fallback path and the recovery/initialization path. *)
let refresh_plan t plan =
  Engine.suspend_logging t.engine @@ fun () ->
  List.iter (truncate_node_tables t) plan.nodes;
  List.iter (eval_node t plan) plan.nodes

(* ------------------------------------------------------------------ *)
(* Per-node maintenance: deletion phase *)

(* Counting node, deletions. The base/upstream deletions are already
   applied, so the delta tables are disjoint from the current state and
   the subset variants partition the removed derivations exactly: every
   variant row decrements its tuple's derivation count by one. Tuples
   whose count reaches zero leave the view and feed [deld__p]. *)
let counting_del t plan ~del_changed ~chg p rules =
  let changed q' = Hashtbl.mem del_changed q' in
  let counts = Hashtbl.create 32 in
  List.iter
    (fun rule ->
      List.iter
        (fun (sql, _) -> List.iter (fun row -> bump counts row 1) (q t sql))
        (subset_variants plan ~distinct:false ~changed ~delta_of:Names.del_delta rule))
    rules;
  if Hashtbl.length counts > 0 then begin
    let cols = plan.columns p in
    let deleted = ref 0 in
    Hashtbl.iter
      (fun row d ->
        let where = row_where cols row in
        let cur =
          match q t (Printf.sprintf "SELECT dcount FROM %s WHERE %s" (Names.cnt p) where) with
          | [ [| Value.Int n |] ] -> n
          | _ -> raise (Fallback "derivation count missing")
        in
        let n' = cur - !d in
        if n' < 0 then raise (Fallback "negative derivation count");
        exec t (Printf.sprintf "DELETE FROM %s WHERE %s" (Names.cnt p) where);
        if n' = 0 then begin
          exec t (Printf.sprintf "DELETE FROM %s WHERE %s" (Names.mat p) where);
          exec t (Printf.sprintf "INSERT INTO %s VALUES %s" (Names.del_delta p) (row_values row));
          incr deleted
        end
        else
          exec t
            (Printf.sprintf "INSERT INTO %s VALUES %s" (Names.cnt p)
               (row_values (Array.append row [| Value.Int n' |]))))
      counts;
    if !deleted > 0 then begin
      Hashtbl.replace del_changed p ();
      let _, del_r = chg p in
      del_r := !del_r + !deleted
    end
  end

(* DRed clique, deletions: over-delete everything a deleted tuple could
   have supported, rederive the survivors from what remains, and emit the
   true deletions. *)
let dred_del t plan ~del_changed ~chg ~rederived ~label ~members ~exit_rules ~rec_rules =
  let upstream_changed q' = Hashtbl.mem del_changed q' && not (List.mem q' members) in
  List.iter
    (fun m ->
      let od = Names.overdel m in
      clear t od;
      clear t (Names.delta od);
      clear t (Names.new_delta od))
    members;
  (* seed: derivations that used at least one deleted upstream tuple;
     clique-member occurrences read the (still old) materialization *)
  let seeded = ref false in
  List.iter
    (fun (head, rule) ->
      List.iter
        (fun (sql, _) ->
          match Engine.exec t.engine ("INSERT INTO " ^ Names.overdel head ^ " " ^ sql) with
          | Engine.Affected n when n > 0 -> seeded := true
          | _ -> ())
        (subset_variants plan ~changed:upstream_changed ~delta_of:Names.del_delta rule))
    (exit_rules @ rec_rules);
  if !seeded then begin
    (* propagate over-deletion through the recursive rules *)
    List.iter
      (fun m ->
        let od = Names.overdel m in
        exec t (Printf.sprintf "INSERT INTO %s SELECT * FROM %s" (Names.delta od) od))
      members;
    if rec_rules <> [] then begin
      let rules =
        clique_delta_rules plan ~members ~target:Names.overdel
          ~delta_table:(fun m -> Names.delta (Names.overdel m))
          ~member_table:Names.mat rec_rules
      in
      ignore
        (Runtime.resume_seminaive t.engine ~label:("maint:" ^ label ^ ":overdelete")
           ~members:(List.map Names.overdel members) ~rules ())
    end;
    (* apply the over-deletions to the materializations *)
    List.iter
      (fun m ->
        let cols = plan.columns m in
        List.iter
          (fun row -> exec t (Printf.sprintf "DELETE FROM %s WHERE %s" (Names.mat m) (row_where cols row)))
          (q t ("SELECT * FROM " ^ Names.overdel m)))
      members;
    let card_total () =
      List.fold_left (fun acc m -> acc + Engine.table_cardinality t.engine (Names.mat m)) 0 members
    in
    let post_delete = card_total () in
    (* rederive survivors: each rule guarded by the over-deleted set of
       its head, re-run to a fixpoint over the post-deletion state *)
    let guarded =
      List.map
        (fun (head, rule) ->
          let override j = if j = 0 then Some (Names.overdel head) else None in
          Printf.sprintf "INSERT INTO %s %s" (Names.mat head)
            (rule_select plan ~lead:(( = ) 0) ~override (guarded_rule head rule)))
        (exit_rules @ rec_rules)
    in
    let continue_ = ref true in
    while !continue_ do
      let before = card_total () in
      List.iter (exec t) guarded;
      if card_total () = before then continue_ := false
    done;
    rederived := !rederived + (card_total () - post_delete);
    (* the true deletions: over-deleted and not rederived *)
    List.iter
      (fun m ->
        exec t
          (Printf.sprintf "INSERT INTO %s (SELECT * FROM %s) EXCEPT (SELECT * FROM %s)"
             (Names.del_delta m) (Names.overdel m) (Names.mat m));
        let n = Engine.table_cardinality t.engine (Names.del_delta m) in
        if n > 0 then begin
          Hashtbl.replace del_changed m ();
          let _, del_r = chg m in
          del_r := !del_r + n
        end)
      members
  end

(* ------------------------------------------------------------------ *)
(* Per-node maintenance: insertion phase *)

(* Counting node, insertions. The insertions are already applied, so the
   deltas are subsets of the current state: inclusion-exclusion over the
   subset variants gives the exact number of new derivations per tuple. *)
let counting_ins t plan ~ins_changed ~chg p rules =
  let changed q' = Hashtbl.mem ins_changed q' in
  let counts = Hashtbl.create 32 in
  List.iter
    (fun rule ->
      List.iter
        (fun (sql, size) ->
          let sign = if size land 1 = 1 then 1 else -1 in
          List.iter (fun row -> bump counts row sign) (q t sql))
        (subset_variants plan ~distinct:false ~changed ~delta_of:Names.ins_delta rule))
    rules;
  if Hashtbl.length counts > 0 then begin
    let cols = plan.columns p in
    let inserted = ref 0 in
    Hashtbl.iter
      (fun row d ->
        if !d < 0 then raise (Fallback "negative insertion count");
        if !d > 0 then begin
          let where = row_where cols row in
          match q t (Printf.sprintf "SELECT dcount FROM %s WHERE %s" (Names.cnt p) where) with
          | [ [| Value.Int n |] ] ->
              exec t (Printf.sprintf "DELETE FROM %s WHERE %s" (Names.cnt p) where);
              exec t
                (Printf.sprintf "INSERT INTO %s VALUES %s" (Names.cnt p)
                   (row_values (Array.append row [| Value.Int (n + !d) |])))
          | [] ->
              exec t
                (Printf.sprintf "INSERT INTO %s VALUES %s" (Names.cnt p)
                   (row_values (Array.append row [| Value.Int !d |])));
              exec t (Printf.sprintf "INSERT INTO %s VALUES %s" (Names.mat p) (row_values row));
              exec t (Printf.sprintf "INSERT INTO %s VALUES %s" (Names.ins_delta p) (row_values row));
              incr inserted
          | _ -> raise (Fallback "ambiguous derivation count")
        end)
      counts;
    if !inserted > 0 then begin
      Hashtbl.replace ins_changed p ();
      let ins_r, _ = chg p in
      ins_r := !ins_r + !inserted
    end
  end

(* DRed clique, insertions: seed the new derivations that use at least
   one inserted upstream tuple, then resume the semi-naive loop to
   propagate them through the recursive rules, accumulating every
   genuinely new tuple into [insd__m]. *)
let dred_ins t plan ~ins_changed ~chg ~label ~members ~exit_rules ~rec_rules =
  let upstream_changed q' = Hashtbl.mem ins_changed q' && not (List.mem q' members) in
  List.iter
    (fun m ->
      let mt = Names.mat m in
      clear t (Names.delta mt);
      clear t (Names.new_delta mt))
    members;
  List.iter
    (fun (head, rule) ->
      List.iter
        (fun (sql, _) -> exec t ("INSERT INTO " ^ Names.new_delta (Names.mat head) ^ " " ^ sql))
        (subset_variants plan ~changed:upstream_changed ~delta_of:Names.ins_delta rule))
    (exit_rules @ rec_rules);
  (* the loop's member step by hand: the EXCEPT fills the (empty) delta
     table directly and its affected count is the number of new tuples *)
  let any = ref false in
  List.iter
    (fun m ->
      let mt = Names.mat m and delta = Names.delta (Names.mat m) in
      match
        Engine.exec t.engine
          (Printf.sprintf "INSERT INTO %s (SELECT * FROM %s) EXCEPT (SELECT * FROM %s)" delta
             (Names.new_delta mt) mt)
      with
      | Engine.Affected n when n > 0 ->
          exec t (Printf.sprintf "INSERT INTO %s SELECT * FROM %s" mt delta);
          exec t (Printf.sprintf "INSERT INTO %s SELECT * FROM %s" (Names.ins_delta m) delta);
          any := true
      | _ -> ())
    members;
  if !any && rec_rules <> [] then begin
    let rules =
      clique_delta_rules plan ~members ~target:Names.mat
        ~delta_table:(fun m -> Names.delta (Names.mat m))
        ~member_table:Names.mat rec_rules
    in
    ignore
      (Runtime.resume_seminaive t.engine ~label:("maint:" ^ label ^ ":insert")
         ~members:(List.map Names.mat members) ~rules
         ~accumulate:(fun mt -> Some (Names.ins_delta (Names.strip_decorations mt)))
         ())
  end;
  List.iter
    (fun m ->
      let n = Engine.table_cardinality t.engine (Names.ins_delta m) in
      if n > 0 then begin
        Hashtbl.replace ins_changed m ();
        let ins_r, _ = chg m in
        ins_r := !ins_r + n
      end)
    members

(* ------------------------------------------------------------------ *)
(* Applying a batch of base-fact changes *)

let node_preds = function
  | P_pred { pred; _ } -> [ pred ]
  | P_clique { members; _ } -> members

let node_strat = function P_pred { strat; _ } | P_clique { strat; _ } -> strat

let node_dep_preds node =
  let rules =
    match node with
    | P_pred { rules; _ } -> rules
    | P_clique { exit_rules; rec_rules; _ } -> List.map snd (exit_rules @ rec_rules)
  in
  List.sort_uniq String.compare
    (List.concat_map (fun c -> List.map fst (Ast.body_preds c)) rules)

let process_node_del t plan ~del_changed ~chg ~rederived = function
  | P_pred { pred; rules; strat = S_counting; _ } -> counting_del t plan ~del_changed ~chg pred rules
  | P_clique { label; members; exit_rules; rec_rules; strat = S_dred; _ } ->
      dred_del t plan ~del_changed ~chg ~rederived ~label ~members ~exit_rules ~rec_rules
  | node ->
      (* recompute nodes must not be reached on the maintained path *)
      if List.exists (fun d -> Hashtbl.mem del_changed d) (node_dep_preds node) then
        raise (Fallback "recompute-strategy node affected")

let process_node_ins t plan ~ins_changed ~chg = function
  | P_pred { pred; rules; strat = S_counting; _ } -> counting_ins t plan ~ins_changed ~chg pred rules
  | P_clique { label; members; exit_rules; rec_rules; strat = S_dred; _ } ->
      dred_ins t plan ~ins_changed ~chg ~label ~members ~exit_rules ~rec_rules
  | node ->
      if List.exists (fun d -> Hashtbl.mem ins_changed d) (node_dep_preds node) then
        raise (Fallback "recompute-strategy node affected")

let apply t ~mode ~inserts ~deletes () =
  let t0 = Timer.now_ms () in
  let engine = t.engine in
  let catalog = Engine.catalog engine in
  let stats = Engine.stats engine in
  try
    (* each distinct target is checked (one rulesource probe) once *)
    let targets = Hashtbl.create 4 in
    let check_target p =
      match Hashtbl.find_opt targets p with
      | Some tbl -> tbl
      | None -> (
          if Stored_dkb.has_rules_for t.stored p then
            maint_err "%s is a derived predicate; update its base relations instead" p;
          match Rdbms.Catalog.find_table catalog p with
          | None -> maint_err "unknown relation %s" p
          | Some tbl ->
              Hashtbl.add targets p tbl;
              tbl)
    in
    let table_cols p =
      Rdbms.Schema.names (Rdbms.Relation.schema (check_target p).Rdbms.Catalog.tbl_relation)
    in
    let mem p row = Rdbms.Relation.mem (check_target p).Rdbms.Catalog.tbl_relation row in
    let dedup l =
      let seen = Hashtbl.create 16 in
      List.filter
        (fun x -> if Hashtbl.mem seen x then false else (Hashtbl.add seen x (); true))
        l
    in
    let deletes = dedup (List.map (fun (p, row) -> (p, Array.of_list row)) deletes) in
    let inserts = dedup (List.map (fun (p, row) -> (p, Array.of_list row)) inserts) in
    List.iter (fun (p, _) -> ignore (check_target p)) (deletes @ inserts);
    (* canonicalize: deletes of absent rows and inserts of present rows
       are no-ops; a delete + re-insert of the same row stays real in
       both phases and nets out *)
    let eff_del = List.filter (fun (p, row) -> mem p row) deletes in
    let eff_ins =
      List.filter (fun (p, row) -> (not (mem p row)) || List.mem (p, row) eff_del) inserts
    in
    let registry = Stored_dkb.matviews t.stored in
    let own_txn = not (Engine.in_transaction engine) in
    if own_txn then Engine.begin_txn engine;
    try
      let del_applied = ref false and ins_applied = ref false in
      let apply_base_deletes () =
        if not !del_applied then begin
          del_applied := true;
          List.iter
            (fun (p, row) ->
              exec t (Printf.sprintf "DELETE FROM %s WHERE %s" p (row_where (table_cols p) row)))
            eff_del
        end
      in
      let apply_base_inserts () =
        if not !ins_applied then begin
          ins_applied := true;
          let by_pred = Hashtbl.create 8 in
          List.iter
            (fun (p, row) ->
              match Hashtbl.find_opt by_pred p with
              | Some r -> r := row :: !r
              | None -> Hashtbl.add by_pred p (ref [ row ]))
            eff_ins;
          Hashtbl.iter (fun p rows -> insert_rows_chunked t p (List.rev !rows)) by_pred
        end
      in
      let finish report =
        if own_txn then Engine.commit_txn engine;
        Ok { report with total_ms = Timer.now_ms () -. t0 }
      in
      let base_report =
        {
          base_inserted = List.length eff_ins;
          base_deleted = List.length eff_del;
          derived_changes = [];
          rederived = 0;
          fallback = false;
          maintained = false;
          total_ms = 0.;
        }
      in
      if registry = [] then begin
        apply_base_deletes ();
        apply_base_inserts ();
        finish base_report
      end
      else begin
        let plan = get_plan t in
        let changed_base = List.sort_uniq String.compare (List.map fst (eff_del @ eff_ins)) in
        (* potentially affected nodes, walking the plan in order *)
        let potential = Hashtbl.create 16 in
        List.iter (fun b -> Hashtbl.replace potential b ()) changed_base;
        let affected =
          List.filter
            (fun node ->
              if List.exists (fun d -> Hashtbl.mem potential d) (node_dep_preds node) then begin
                List.iter (fun p -> Hashtbl.replace potential p ()) (node_preds node);
                true
              end
              else false)
            plan.nodes
        in
        let strat_ok = List.for_all (fun n -> node_strat n <> S_recompute) affected in
        let total_delta = List.length eff_del + List.length eff_ins in
        let small_delta =
          total_delta = 0
          ||
          let base_card =
            List.fold_left
              (fun acc b -> acc + Engine.table_cardinality engine b)
              0 changed_base
          in
          2 * total_delta <= max 16 base_card
        in
        let refresh_path ~fallback =
          apply_base_deletes ();
          apply_base_inserts ();
          refresh_plan t plan;
          if fallback then stats.Rdbms.Stats.maint_fallbacks <- stats.Rdbms.Stats.maint_fallbacks + 1;
          finish { base_report with fallback; maintained = false }
        in
        if mode = Off then refresh_path ~fallback:false
        else if (not strat_ok) || not small_delta then refresh_path ~fallback:true
        else begin
          try
            let derived_changes = Hashtbl.create 16 in
            let chg p =
              match Hashtbl.find_opt derived_changes p with
              | Some c -> c
              | None ->
                  let c = (ref 0, ref 0) in
                  Hashtbl.add derived_changes p c;
                  c
            in
            let rederived = ref 0 in
            (* reset per-update delta tables *)
            Engine.suspend_logging engine (fun () ->
                List.iter
                  (fun (b, _) ->
                    clear t (Names.ins_delta b);
                    clear t (Names.del_delta b))
                  plan.bases;
                List.iter
                  (fun (p, _) ->
                    clear t (Names.ins_delta p);
                    clear t (Names.del_delta p))
                  plan.derived);
            (* deletion phase: apply base deletions (logged), then walk
               the affected nodes in dependency order *)
            apply_base_deletes ();
            Engine.suspend_logging engine (fun () ->
                let del_changed = Hashtbl.create 16 in
                List.iter
                  (fun (p, row) ->
                    Hashtbl.replace del_changed p ();
                    exec t
                      (Printf.sprintf "INSERT INTO %s VALUES %s" (Names.del_delta p)
                         (row_values row)))
                  eff_del;
                List.iter (process_node_del t plan ~del_changed ~chg ~rederived) affected);
            (* insertion phase: apply base insertions (logged), then walk
               the affected nodes again *)
            apply_base_inserts ();
            Engine.suspend_logging engine (fun () ->
                let ins_changed = Hashtbl.create 16 in
                List.iter
                  (fun (p, row) ->
                    Hashtbl.replace ins_changed p ();
                    exec t
                      (Printf.sprintf "INSERT INTO %s VALUES %s" (Names.ins_delta p)
                         (row_values row)))
                  eff_ins;
                List.iter (process_node_ins t plan ~ins_changed ~chg) affected);
            let changes =
              Hashtbl.fold (fun p (i, d) acc -> (p, !i, !d) :: acc) derived_changes []
              |> List.filter (fun (_, i, d) -> i > 0 || d > 0)
              |> List.sort compare
            in
            let ins_total = List.fold_left (fun acc (_, i, _) -> acc + i) 0 changes in
            let del_total = List.fold_left (fun acc (_, _, d) -> acc + d) 0 changes in
            stats.Rdbms.Stats.maint_insertions <- stats.Rdbms.Stats.maint_insertions + ins_total;
            stats.Rdbms.Stats.maint_deletions <- stats.Rdbms.Stats.maint_deletions + del_total;
            stats.Rdbms.Stats.maint_rederived <- stats.Rdbms.Stats.maint_rederived + !rederived;
            finish
              {
                base_report with
                derived_changes = changes;
                rederived = !rederived;
                maintained = true;
              }
          with Fallback _ -> refresh_path ~fallback:true
        end
      end
    with e ->
      if own_txn && Engine.in_transaction engine then Engine.rollback_txn engine;
      raise e
  with
  | Maint_error msg | Failure msg -> Error msg
  | Engine.Sql_error msg -> Error ("maintenance: " ^ msg)
  | Stored_dkb.Corrupt msg -> Error ("maintenance: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Materialization, refresh, recovery *)

let materialize t ~mode root =
  try
    if not (Stored_dkb.has_rules_for t.stored root) then
      Error (Printf.sprintf "%s has no stored rules" root)
    else begin
      let catalog = Engine.catalog t.engine in
      let is_base p =
        Rdbms.Catalog.table_exists catalog p && not (Stored_dkb.has_rules_for t.stored p)
      in
      (* closure of derived predicates reachable from the root *)
      let rec closure seen = function
        | [] -> List.rev seen
        | p :: rest when List.mem p seen -> closure seen rest
        | p :: rest ->
            let seen = p :: seen in
            let fresh =
              List.concat_map
                (fun c -> List.map fst (Ast.body_preds c))
                (Stored_dkb.rules_with_head t.stored [ p ])
              |> List.sort_uniq String.compare
              |> List.filter (fun d ->
                     (not (is_base d)) && (not (List.mem d seen)) && not (List.mem d rest))
            in
            closure seen (rest @ fresh)
      in
      let derived = closure [] [ root ] in
      let clauses = Stored_dkb.rules_with_head t.stored derived in
      let cliques = Datalog.Clique.find_all clauses in
      let clique_of p = List.find_opt (fun cl -> List.mem p cl.Datalog.Clique.preds) cliques in
      let strategy p =
        let node_rules =
          match clique_of p with
          | Some cl -> Datalog.Clique.rules_of cl
          | None -> List.filter (fun c -> String.equal (Ast.head_pred c) p) clauses
        in
        let recursive = clique_of p <> None in
        if has_negation node_rules then S_recompute
        else
          match mode with
          | Off -> S_recompute
          | Counting -> if recursive then S_recompute else S_counting
          | Dred -> S_dred
          | Auto -> if recursive then S_dred else S_counting
      in
      let assigned = List.map (fun p -> (p, strategy p)) derived in
      List.iter
        (fun (p, s) -> Stored_dkb.register_matview t.stored p (strategy_to_string s))
        assigned;
      invalidate t;
      let plan = get_plan t in
      ensure_tables t plan;
      refresh_plan t plan;
      Ok assigned
    end
  with
  | Maint_error msg | Failure msg -> Error msg
  | Engine.Sql_error msg -> Error ("materialize: " ^ msg)
  | Stored_dkb.Corrupt msg -> Error ("materialize: " ^ msg)

let refresh t =
  try
    if is_maintained t then refresh_plan t (get_plan t);
    Ok ()
  with
  | Maint_error msg | Failure msg -> Error msg
  | Engine.Sql_error msg -> Error ("refresh: " ^ msg)
  | Stored_dkb.Corrupt msg -> Error ("refresh: " ^ msg)

(* After a restart or a change to the stored rule base: rebuild the plan,
   recreate every maintenance table and re-evaluate. *)
let ensure t =
  try
    if is_maintained t then begin
      invalidate t;
      let plan = get_plan t in
      ensure_tables t plan;
      refresh_plan t plan
    end;
    Ok ()
  with
  | Maint_error msg | Failure msg -> Error msg
  | Engine.Sql_error msg -> Error ("maintenance: " ^ msg)
  | Stored_dkb.Corrupt msg -> Error ("maintenance: " ^ msg)

let view_rows t p =
  try
    if List.mem_assoc p (registered t) then Ok (q t ("SELECT * FROM " ^ Names.mat p))
    else Error (Printf.sprintf "%s is not materialized" p)
  with Engine.Sql_error msg -> Error msg
