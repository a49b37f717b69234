(* Incremental view maintenance over the semi-naive runtime by DRed
   (delete-rederive). Derived predicates are kept materialized in
   [mat__p] tables; fact INSERT / DELETE traffic is propagated through
   delta rules that reuse {!Runtime}'s scratch-table and
   prepared-statement machinery instead of re-running the LFP from
   scratch. A non-recursive predicate is maintained as a clique of one
   member with no recursive rules. *)

module Ast = Datalog.Ast
module Names = Datalog.Names
module Engine = Rdbms.Engine
module Value = Rdbms.Value
module Timer = Dkb_util.Timer

type mode =
  | Off
  | Auto

let mode_to_string = function
  | Off -> "off"
  | Auto -> "auto"

let mode_of_string = function
  | "off" -> Some Off
  | "auto" -> Some Auto
  | _ -> None

type strategy =
  | S_dred
  | S_recompute

let strategy_to_string = function
  | S_dred -> "dred"
  | S_recompute -> "recompute"

let strategy_of_string = function
  | "dred" -> Some S_dred
  | "recompute" -> Some S_recompute
  | _ -> None

exception Fallback of string
exception Maint_error of string

let maint_err fmt = Printf.ksprintf (fun s -> raise (Maint_error s)) fmt

(* More changed body occurrences than this and the subset-variant count
   (2^k - 1 delta rules per rule) stops being worth it: fall back. *)
let max_changed_occurrences = 6

(* A node of the evaluation order: a clique of mutually recursive
   predicates, or a non-recursive predicate as a clique of one member
   with no recursive rules. *)
type node = {
  label : string;
  members : string list;
  facts : (string * Ast.clause list) list;
  exit_rules : (string * Ast.clause) list;
  rec_rules : (string * Ast.clause) list;
  deps : string list;  (* the body predicates of its rules *)
  strat : strategy;
}

type plan = {
  nodes : node list;  (* dependency (evaluation) order *)
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

(* ------------------------------------------------------------------ *)
(* Plan building *)

let has_negation rules =
  List.exists
    (fun c ->
      List.exists (function Ast.Neg _ -> true | Ast.Pos _ | Ast.Cmp _ -> false) c.Ast.body)
    rules

let build_plan t registry =
  let stored = t.stored in
  let catalog = Engine.catalog t.engine in
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
  let own m = List.filter (fun c -> String.equal (Ast.head_pred c) m) in
  let node members ~exit_rules ~rec_rules =
    let facts, exit_rules = List.partition Ast.is_fact exit_rules in
    let heads = List.map (fun r -> (Ast.head_pred r, r)) in
    let rules = exit_rules @ rec_rules in
    {
      label = String.concat "+" members;
      members;
      facts = List.map (fun m -> (m, own m facts)) members;
      exit_rules = heads exit_rules;
      rec_rules = heads rec_rules;
      deps =
        List.sort_uniq String.compare
          (List.concat_map (fun c -> List.map fst (Ast.body_preds c)) rules);
      strat = strat_of members rules;
    }
  in
  let nodes =
    List.map
      (function
        | Datalog.Evalgraph.N_pred p ->
            node [ p ] ~exit_rules:(own p clauses) ~rec_rules:[]
        | Datalog.Evalgraph.N_clique cl ->
            node cl.Datalog.Clique.preds ~exit_rules:cl.Datalog.Clique.exit_rules
              ~rec_rules:cl.Datalog.Clique.recursive_rules)
      order
  in
  { nodes; derived; bases; is_base; columns }

(* The plan for the current rule base and the [registry] just read. *)
let get_plan t registry =
  let key = (Stored_dkb.rule_count t.stored, registry) in
  match t.plan with
  | Some p when t.plan_key = Some key -> p
  | _ ->
      let p = build_plan t registry in
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
let rule_select plan ?lead ?(override = fun _ -> None) clause =
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
    (Datalog.Sqlgen.select_for_rule ~columns:plan.columns ~table_of clause)

(* The delta-rule variants of one rule for a set of changed predicates:
   one SELECT per nonempty subset S of the changed body occurrences,
   occurrences in S reading [delta_of pred] and every other occurrence
   its current table. With the deltas applied to the current state first,
   the deletion-phase variants cover every removed derivation (deltas
   disjoint from the new state) and the insertion-phase variants every
   added one. *)
let subset_variants plan ~changed ~delta_of clause =
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
          rule_select plan ~lead ~override clause)
        (List.init ((1 lsl k) - 1) (fun m -> m + 1))

(* Body positions of a rule's clique-member occurrences. *)
let member_positions members rule =
  List.concat
    (List.mapi
       (fun i lit ->
         match lit with
         | Ast.Pos a when List.mem a.Ast.pred members -> [ i ]
         | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> [])
       rule.Ast.body)

(* DRed's rederivation form of a rule: guarded by the over-deleted set of
   its head, an extra literal at the end of the body, so a SIP order
   led elsewhere joins it last. Returns the rule and the guard's
   position, whose table callers supply by override: [odel__h] is no
   predicate, and looking it up would probe rulesource. *)
let guarded_rule head rule =
  let guard = Ast.Pos { Ast.pred = Names.overdel head; args = rule.Ast.head.Ast.args } in
  ({ rule with Ast.body = rule.Ast.body @ [ guard ] }, List.length rule.Ast.body)

(* Semi-naive delta variants of the recursive rules of a clique: one per
   clique-member occurrence, that occurrence reading [delta_table], the
   other member occurrences [member_table], upstream its current table.
   With [guarded], each variant also carries its head's guard, joined
   after the delta (DRed rederivation). Returns
   [(member_table_of_head, select)] pairs for {!Runtime.resume_seminaive}. *)
let clique_delta_rules plan ?(guarded = false) ~members ~target ~delta_table ~member_table
    rec_rules =
  List.concat_map
    (fun (head, rule) ->
      let rule, guard =
        if guarded then
          let rule, g = guarded_rule head rule in
          (rule, Some g)
        else (rule, None)
      in
      let body = Array.of_list rule.Ast.body in
      List.map
        (fun i ->
          let override j =
            match body.(j) with
            | _ when Some j = guard -> Some (Names.overdel head)
            | Ast.Pos a when List.mem a.Ast.pred members ->
                Some (if j = i then delta_table a.Ast.pred else member_table a.Ast.pred)
            | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> None
          in
          (target head, rule_select plan ~lead:(( = ) i) ~override rule))
        (member_positions members rule))
    rec_rules

(* ------------------------------------------------------------------ *)
(* Table lifecycle *)

let create_table_sql name cols =
  Printf.sprintf "CREATE TABLE %s (%s)" name
    (String.concat ", "
       (List.map (fun (c, ty) -> c ^ " " ^ Rdbms.Datatype.to_string ty) cols))

let recreate t name cols =
  exec t ("DROP TABLE IF EXISTS " ^ name);
  exec t (create_table_sql name cols)

let derived_cols plan p =
  match List.assoc_opt p plan.derived with
  | Some tys -> List.mapi (fun i ty -> (Printf.sprintf "c%d" (i + 1), ty)) tys
  | None -> maint_err "maintenance: no inferred types for %s" p

(* The lead sets a maintained rule runs under: DRed seeds read deltas at a
   subset of the positive occurrences, propagation at one member
   occurrence. Every nonempty subset covers both (only the
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
   filter, which the planner never probes through an index. [override]
   names the table of a position that reads no base or [mat__] table
   (a DRed guard). *)
let index_join_columns t plan ?leads ?(override = fun _ -> None) clause =
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
          && (override i <> None || plan.is_base a.Ast.pred || List.mem_assoc a.Ast.pred plan.derived)
        then begin
          let table = match override i with Some tbl -> tbl | None -> cur_table plan a.Ast.pred in
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

(* Drop and recreate the maintenance tables of [nodes]: per member the
   [mat__p] materialization, the per-update [insd__]/[deld__] delta
   tables, the over-deleted set [odel__p] and the semi-naive scratch
   tables of [mat__p] (and, in a recursive clique, of [odel__p]); the
   delta tables of each of [bases]; then index the base and [mat__]
   columns the delta joins of the plan probe, and the guard tables of its
   rederivations. A column already indexed (by an earlier call, or
   restored from a checkpoint) is skipped, so only the tables just
   created, and the upstream columns the new nodes probe, gain
   indexes. *)
let ensure_tables t plan ~nodes ~bases =
  Engine.suspend_logging t.engine @@ fun () ->
  let recreate_all tbls cols = List.iter (fun tbl -> recreate t tbl cols) tbls in
  let scratch_of tbl = [ Names.delta tbl; Names.new_delta tbl ] in
  List.iter
    (fun node ->
      List.iter
        (fun m ->
          recreate_all
            ([ Names.mat m; Names.ins_delta m; Names.del_delta m; Names.overdel m ]
            @ scratch_of (Names.mat m)
            @ if node.rec_rules <> [] then scratch_of (Names.overdel m) else [])
            (derived_cols plan m))
        node.members)
    nodes;
  List.iter (fun (b, cols) -> recreate_all [ Names.ins_delta b; Names.del_delta b ] cols) bases;
  List.iter
    (fun node ->
      if node.strat = S_dred then
        List.iter
          (fun (head, r) ->
            index_join_columns t plan r;
            (* the guard leads the first rederivation pass, a member
               occurrence each guarded delta variant *)
            let guarded, g = guarded_rule head r in
            index_join_columns t plan
              ~leads:([ g ] :: List.map (fun i -> [ i ]) (member_positions node.members r))
              ~override:(fun j -> if j = g then Some (Names.overdel head) else None)
              guarded)
          (node.exit_rules @ node.rec_rules))
    plan.nodes

(* ------------------------------------------------------------------ *)
(* Full (re)evaluation of the materializations *)

let clear t name = Engine.clear_table t.engine name

(* Evaluate one node from scratch into its (already truncated) tables:
   facts and exit rules, which in a recursive clique are the seed of the
   semi-naive loop and go to the candidate tables it absorbs. *)
let eval_node t plan { label; members; facts; exit_rules; rec_rules; _ } =
  let recursive = rec_rules <> [] in
  let target m = if recursive then Names.new_delta (Names.mat m) else Names.mat m in
  if recursive then List.iter (fun m -> clear t (target m)) members;
  List.iter
    (fun (m, fs) ->
      List.iter
        (fun f -> exec t ("INSERT INTO " ^ target m ^ " " ^ Datalog.Sqlgen.fact_values f))
        fs)
    facts;
  List.iter
    (fun (m, r) -> exec t (Printf.sprintf "INSERT INTO %s %s" (target m) (rule_select plan r)))
    exit_rules;
  if recursive then begin
    let rules =
      clique_delta_rules plan ~members ~target:Names.mat
        ~delta_table:(fun m -> Names.delta (Names.mat m))
        ~member_table:Names.mat rec_rules
    in
    ignore
      (Runtime.resume_seminaive t.engine ~label:("maint:" ^ label)
         ~members:(List.map Names.mat members) ~rules ())
  end

(* Truncate the materializations of [nodes] (in plan order) and
   re-evaluate them over the current state of everything upstream. *)
let refresh_nodes t plan nodes =
  Engine.suspend_logging t.engine @@ fun () ->
  List.iter (fun node -> List.iter (fun m -> clear t (Names.mat m)) node.members) nodes;
  List.iter (eval_node t plan) nodes

(* The whole plan — the fallback path and the recovery/initialization
   path. *)
let refresh_plan t plan = refresh_nodes t plan plan.nodes

(* ------------------------------------------------------------------ *)
(* Per-node maintenance: deletion phase *)

(* Empty the candidate tables of [tables], where a seed for
   {!Runtime.resume_seminaive} is about to go. *)
let clear_candidates t tables = List.iter (fun tbl -> clear t (Names.new_delta tbl)) tables

(* Deletions: over-delete everything a deleted tuple could have
   supported, rederive the survivors from what remains, and emit the true
   deletions. *)
let dred_del t plan ~del_changed ~chg ~rederived { label; members; exit_rules; rec_rules; _ } =
  let upstream_changed q' = Hashtbl.mem del_changed q' && not (List.mem q' members) in
  let recursive = rec_rules <> [] in
  List.iter (fun m -> clear t (Names.overdel m)) members;
  (* seed: derivations that used at least one deleted upstream tuple;
     clique-member occurrences read the (still old) materialization. In a
     recursive clique the seed goes to the (empty) over-deleted sets'
     candidate tables, for the loop to absorb and propagate. *)
  let target m = if recursive then Names.new_delta (Names.overdel m) else Names.overdel m in
  if recursive then clear_candidates t (List.map Names.overdel members);
  let seeded = ref false in
  List.iter
    (fun (head, rule) ->
      List.iter
        (fun sql ->
          match Engine.exec t.engine ("INSERT INTO " ^ target head ^ " " ^ sql) with
          | Engine.Affected n when n > 0 -> seeded := true
          | _ -> ())
        (subset_variants plan ~changed:upstream_changed ~delta_of:Names.del_delta rule))
    (exit_rules @ rec_rules);
  if !seeded then begin
    (* propagate over-deletion through the recursive rules *)
    if recursive then begin
      let rules =
        clique_delta_rules plan ~members ~target:Names.overdel
          ~delta_table:(fun m -> Names.delta (Names.overdel m))
          ~member_table:Names.mat rec_rules
      in
      ignore
        (Runtime.resume_seminaive t.engine ~label:("maint:" ^ label ^ ":overdelete")
           ~members:(List.map Names.overdel members) ~rules ())
    end;
    (* apply the over-deletions to the materializations, one set-based
       DELETE per member *)
    List.iter
      (fun m ->
        exec t
          (Printf.sprintf "DELETE FROM %s WHERE (%s) IN (SELECT * FROM %s)" (Names.mat m)
             (String.concat ", " (plan.columns m))
             (Names.overdel m)))
      members;
    let card_total () =
      List.fold_left (fun acc m -> acc + Engine.table_cardinality t.engine (Names.mat m)) 0 members
    in
    let post_delete = card_total () in
    (* rederive the survivors semi-naively: every rule guarded by the
       over-deleted set of its head runs once over the post-deletion
       state, seeding the candidate tables with what comes back, then the
       guarded delta variants of the recursive rules resume the loop *)
    clear_candidates t (List.map Names.mat members);
    List.iter
      (fun (head, rule) ->
        let guarded, g = guarded_rule head rule in
        let override j = if j = g then Some (Names.overdel head) else None in
        exec t
          (Runtime.insert_new (Names.mat head) (rule_select plan ~lead:(( = ) g) ~override guarded)))
      (exit_rules @ rec_rules);
    let rules =
      clique_delta_rules plan ~guarded:true ~members ~target:Names.mat
        ~delta_table:(fun m -> Names.delta (Names.mat m))
        ~member_table:Names.mat rec_rules
    in
    ignore
      (Runtime.resume_seminaive t.engine ~label:("maint:" ^ label ^ ":rederive")
         ~members:(List.map Names.mat members) ~rules ());
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

(* Insertions: seed the new derivations that use at least one inserted
   upstream tuple, then resume the semi-naive loop to propagate them
   through the recursive rules, accumulating every genuinely new tuple
   into [insd__m]. *)
let dred_ins t plan ~ins_changed ~chg { label; members; exit_rules; rec_rules; _ } =
  let upstream_changed q' = Hashtbl.mem ins_changed q' && not (List.mem q' members) in
  clear_candidates t (List.map Names.mat members);
  List.iter
    (fun (head, rule) ->
      List.iter
        (fun sql -> exec t (Runtime.insert_new (Names.mat head) sql))
        (subset_variants plan ~changed:upstream_changed ~delta_of:Names.ins_delta rule))
    (exit_rules @ rec_rules);
  let rules =
    clique_delta_rules plan ~members ~target:Names.mat
      ~delta_table:(fun m -> Names.delta (Names.mat m))
      ~member_table:Names.mat rec_rules
  in
  ignore
    (Runtime.resume_seminaive t.engine ~label:("maint:" ^ label ^ ":insert")
       ~members:(List.map Names.mat members) ~rules
       ~accumulate:(fun mt -> Some (Names.ins_delta (Names.strip_decorations mt)))
       ());
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

(* A phase visits a node only when one of its body predicates changed in
   that phase. *)
let visit changed f node = if List.exists (Hashtbl.mem changed) node.deps then f node

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
        let plan = get_plan t registry in
        let changed_base = List.sort_uniq String.compare (List.map fst (eff_del @ eff_ins)) in
        (* potentially affected nodes, walking the plan in order *)
        let potential = Hashtbl.create 16 in
        List.iter (fun b -> Hashtbl.replace potential b ()) changed_base;
        let affected =
          List.filter
            (fun node ->
              if List.exists (Hashtbl.mem potential) node.deps then begin
                List.iter (fun p -> Hashtbl.replace potential p ()) node.members;
                true
              end
              else false)
            plan.nodes
        in
        let strat_ok = List.for_all (fun n -> n.strat = S_dred) affected in
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
                List.iter
                  (visit del_changed (dred_del t plan ~del_changed ~chg ~rederived))
                  affected);
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
                List.iter (visit ins_changed (dred_ins t plan ~ins_changed ~chg)) affected);
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
        if mode = Off || has_negation node_rules then S_recompute else S_dred
      in
      let assigned = List.map (fun p -> (p, strategy p)) derived in
      (* only the nodes whose registration this call adds or changes are
         built: every other view keeps its tables, indexes and rows *)
      let before = registered t in
      let changed =
        List.filter_map
          (fun (p, s) ->
            let s = strategy_to_string s in
            if List.assoc_opt p before = Some s then None
            else begin
              Stored_dkb.register_matview t.stored p s;
              Some p
            end)
          assigned
      in
      if changed <> [] then begin
        invalidate t;
        let plan = get_plan t (registered t) in
        let nodes =
          List.filter (fun n -> List.exists (fun p -> List.mem p changed) n.members) plan.nodes
        in
        let catalog = Engine.catalog t.engine in
        let bases =
          List.filter
            (fun (b, _) -> not (Rdbms.Catalog.table_exists catalog (Names.ins_delta b)))
            plan.bases
        in
        ensure_tables t plan ~nodes ~bases;
        refresh_nodes t plan nodes
      end;
      Ok assigned
    end
  with
  | Maint_error msg | Failure msg -> Error msg
  | Engine.Sql_error msg -> Error ("materialize: " ^ msg)
  | Stored_dkb.Corrupt msg -> Error ("materialize: " ^ msg)

let refresh t =
  try
    (match registered t with [] -> () | registry -> refresh_plan t (get_plan t registry));
    Ok ()
  with
  | Maint_error msg | Failure msg -> Error msg
  | Engine.Sql_error msg -> Error ("refresh: " ^ msg)
  | Stored_dkb.Corrupt msg -> Error ("refresh: " ^ msg)

(* After a restart or a change to the stored rule base: rebuild the plan,
   recreate every maintenance table and re-evaluate. *)
let ensure t =
  try
    (match registered t with
    | [] -> ()
    | registry ->
        invalidate t;
        let plan = get_plan t registry in
        ensure_tables t plan ~nodes:plan.nodes ~bases:plan.bases;
        refresh_plan t plan);
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
