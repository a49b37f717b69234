module Timer = Dkb_util.Timer

(* The engine's executor: a one-time pass translates a physical plan into
   a tree of closures, so the per-run hot path has no plan-AST dispatch,
   and operators exchange Batch.t buffers instead of consed lists. A
   tuple-at-a-time reference interpreter in the test suite defines the
   semantics: same counters bumped at the same points with the same
   amounts, same rows in the same order, same profile trees — the
   differential test battery holds the two to it. *)

type t = {
  label : string Lazy.t; (* op_label of the plan root, for the profile root node *)
  args : Value.t array ref;
      (* the running execution's arguments, read by every closure that
         evaluates a parameter; empty between executions *)
  exec : Profile.t option -> Batch.t;
      (* the argument is the operator's own profile node (None when not
         profiling); the engine-global Stats are captured at compile time *)
}

let concat_rows a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) (Value.Int 0) in
  Array.blit a 0 out 0 la;
  Array.blit b 0 out la lb;
  out

module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal a b = List.equal Value.equal a b
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 k
end)

(* Scan charge: the relation's simulated page count, whether or not a
   heap backs it (the buffer pool counts a backed scan's real page
   traffic separately). *)
let charge_scan stats node rel =
  let pages = Relation.pages rel in
  stats.Stats.page_reads <- stats.Stats.page_reads + pages;
  match node with
  | Some n -> n.Profile.reads <- n.Profile.reads + pages
  | None -> ()

let charge_probe_bytes stats node bytes =
  let pages = 1 + Stats.pages_of_bytes bytes in
  stats.Stats.index_probes <- stats.Stats.index_probes + 1;
  stats.Stats.page_reads <- stats.Stats.page_reads + pages;
  match node with
  | Some n ->
      n.Profile.probes <- n.Profile.probes + 1;
      n.Profile.reads <- n.Profile.reads + pages
  | None -> ()

let compile_filter args = function
  | None -> fun _ -> true
  | Some c -> Plan.compile_rcond args c

(* Is this projection the identity over its input header? Then the input
   batch can pass through untouched (rows are immutable, and scans already
   hand out the stored arrays). *)
let identity_projection exprs input_width =
  Array.length exprs = input_width
  && (let id = ref true in
      Array.iteri (fun i e -> match e with Plan.R_col j when j = i -> () | _ -> id := false) exprs;
      !id)

(* A chain of identity projections over an unfiltered Seq_scan is just the
   stored relation: its rows are distinct (relations have set semantics)
   and membership is O(1) through the relation's own tuple table. The
   set operators below exploit both. Returns the relation plus the plan
   chain (outermost first, scan last) for profile parity. *)
let rec bare_relation plan =
  match plan with
  | Plan.Seq_scan { table; filter = None; _ } -> Some (table.Catalog.tbl_relation, [ plan ])
  | Plan.Project { input; exprs; _ }
    when identity_projection exprs (Array.length (Plan.header_of input)) ->
      Option.map (fun (rel, chain) -> (rel, plan :: chain)) (bare_relation input)
  | _ -> None

(* "Run" a bare-relation side without materializing it: charge the stats
   and build the profile-node chain exactly as running the subtree would
   (scan pages read on the innermost node, [cardinal] rows out of every
   operator on the chain). *)
let phantom_side stats parent chain rel =
  let n = Relation.cardinal rel in
  let pages = Relation.pages rel in
  (match parent with
  | None -> ()
  | Some pn ->
      let rec build parent = function
        | [] -> ()
        | p :: rest ->
            let cn = Profile.make (Plan.op_label p) in
            Profile.add_child parent cn;
            cn.Profile.rows <- n;
            if rest = [] then cn.Profile.reads <- cn.Profile.reads + pages;
            build cn rest
      in
      build pn chain);
  stats.Stats.page_reads <- stats.Stats.page_reads + pages;
  stats.Stats.rows_read <- stats.Stats.rows_read + n

(* Hash aggregation over materialized rows: GROUP BY semantics, groups
   in order of first appearance. *)
let aggregate_rows rows group_keys outputs =
  let groups = Key_tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
      let k = List.map (fun i -> row.(i)) group_keys in
      match Key_tbl.find_opt groups k with
      | Some members -> members := row :: !members
      | None ->
          Key_tbl.add groups k (ref [ row ]);
          order := k :: !order)
    rows;
  let fold_group members =
    Array.map
      (fun output ->
        match output with
        | Plan.O_group i -> (List.hd members).(i)
        | Plan.O_count_star | Plan.O_count _ -> Value.Int (List.length members)
        | Plan.O_sum i ->
            Value.Int
              (List.fold_left
                 (fun acc r -> match r.(i) with Value.Int n -> acc + n | Value.Str _ -> acc)
                 0 members)
        | Plan.O_min i ->
            List.fold_left
              (fun acc r -> if Value.compare r.(i) acc < 0 then r.(i) else acc)
              (List.hd members).(i) members
        | Plan.O_max i ->
            List.fold_left
              (fun acc r -> if Value.compare r.(i) acc > 0 then r.(i) else acc)
              (List.hd members).(i) members)
      outputs
  in
  if group_keys = [] then
    if rows = [] then
      (* empty input, one conceptual group: counts are 0; min/max/sum are
         undefined without NULLs, so such queries produce no row *)
      if
        Array.for_all
          (function Plan.O_count_star | Plan.O_count _ -> true | _ -> false)
          outputs
      then [ Array.map (fun _ -> Value.Int 0) outputs ]
      else []
    else [ fold_group rows ]
  else
    List.rev_map (fun k -> fold_group !(Key_tbl.find groups k)) !order

let compile stats plan =
  let args = ref [||] in
  let compile_filter = compile_filter args in
  let produced n = stats.Stats.rows_read <- stats.Stats.rows_read + n in
  let rec comp plan : Profile.t option -> Batch.t =
    match plan with
    | Plan.Seq_scan { table; filter; _ } ->
        let rel = table.Catalog.tbl_relation in
        let keep = compile_filter filter in
        fun node ->
          charge_scan stats node rel;
          let out = Batch.create ~capacity:(Relation.cardinal rel) () in
          Relation.iter (fun row -> if keep row then Batch.push out row) rel;
          produced (Batch.length out);
          out
    | Plan.Index_scan { index; key; filter; _ } ->
        let key = Plan.compile_rexpr args key in
        let keep = compile_filter filter in
        fun node ->
          let matched, bytes = Index.lookup_with_bytes index (key [||]) in
          charge_probe_bytes stats node bytes;
          let out = Batch.create () in
          List.iter (fun row -> if keep row then Batch.push out row) matched;
          produced (Batch.length out);
          out
    | Plan.Range_scan { oindex; lo; hi; filter; _ } ->
        let bound = Option.map (fun (e, inclusive) -> (Plan.compile_rexpr args e, inclusive)) in
        let lo = bound lo and hi = bound hi in
        (* a bound is a literal or a parameter: no row to read *)
        let at =
          Option.map (fun (value, inclusive) -> { Ordered_index.value = value [||]; inclusive })
        in
        let keep = compile_filter filter in
        fun node ->
          let matched = Ordered_index.range oindex ?lo:(at lo) ?hi:(at hi) () in
          let bytes = List.fold_left (fun acc r -> acc + Tuple.byte_size r) 0 matched in
          charge_probe_bytes stats node bytes;
          let out = Batch.create () in
          List.iter (fun row -> if keep row then Batch.push out row) matched;
          produced (Batch.length out);
          out
    | Plan.Nl_join { left; right; cond; _ } ->
        let lf = child left and rf = child right in
        let keep = compile_filter cond in
        fun node ->
          let lb = lf node in
          let rb = rf node in
          let out = Batch.create () in
          Batch.iter
            (fun l ->
              Batch.iter
                (fun r ->
                  let row = concat_rows l r in
                  if keep row then Batch.push out row)
                rb)
            lb;
          produced (Batch.length out);
          out
    | Plan.Hash_join { left; right; left_keys; right_keys; residual; build_left; _ } ->
        let lf = child left and rf = child right in
        let keep = compile_filter residual in
        let build_keys, probe_keys =
          if build_left then (left_keys, right_keys) else (right_keys, left_keys)
        in
        let join (build : Batch.t) (probe : Batch.t) find_bucket add_row =
          Batch.iter add_row build;
          let out = Batch.create () in
          Batch.iter
            (fun p ->
              match find_bucket p with
              | None -> ()
              | Some bucket ->
                  Batch.iter
                    (fun b ->
                      let row = if build_left then concat_rows b p else concat_rows p b in
                      if keep row then Batch.push out row)
                    bucket)
            probe;
          produced (Batch.length out);
          out
        in
        (match (build_keys, probe_keys) with
        | [ bk ], [ pk ] ->
            (* single-key joins (the common planner output) probe a
               Value-keyed table: no per-row key-list allocation *)
            fun node ->
              let lb = lf node in
              let rb = rf node in
              let build, probe = if build_left then (lb, rb) else (rb, lb) in
              let table = Value_tbl.create ((2 * Batch.length build) + 1) in
              let add_row r =
                let k = r.(bk) in
                match Value_tbl.find_opt table k with
                | Some bucket -> Batch.push bucket r
                | None ->
                    let bucket = Batch.create ~capacity:4 () in
                    Batch.push bucket r;
                    Value_tbl.add table k bucket
              in
              join build probe (fun p -> Value_tbl.find_opt table p.(pk)) add_row
        | _ ->
            fun node ->
              let lb = lf node in
              let rb = rf node in
              let build, probe = if build_left then (lb, rb) else (rb, lb) in
              let table = Key_tbl.create ((2 * Batch.length build) + 1) in
              let add_row r =
                let k = List.map (fun i -> r.(i)) build_keys in
                match Key_tbl.find_opt table k with
                | Some bucket -> Batch.push bucket r
                | None ->
                    let bucket = Batch.create ~capacity:4 () in
                    Batch.push bucket r;
                    Key_tbl.add table k bucket
              in
              join build probe
                (fun p -> Key_tbl.find_opt table (List.map (fun i -> p.(i)) probe_keys))
                add_row)
    | Plan.Index_join { left; index; outer_pos; residual; _ } ->
        let lf = child left in
        let keep = compile_filter residual in
        fun node ->
          let lb = lf node in
          let out = Batch.create () in
          Batch.iter
            (fun l ->
              let matched, bytes = Index.lookup_with_bytes index l.(outer_pos) in
              charge_probe_bytes stats node bytes;
              List.iter
                (fun r ->
                  let row = concat_rows l r in
                  if keep row then Batch.push out row)
                matched)
            lb;
          produced (Batch.length out);
          out
    | Plan.Member_join { left; table; outer_pos; residual; _ } ->
        let lf = child left in
        let rel = table.Catalog.tbl_relation in
        let keep = compile_filter residual in
        fun node ->
          let lb = lf node in
          let out = Batch.create () in
          Batch.iter
            (fun l ->
              let r = Array.map (fun p -> l.(p)) outer_pos in
              let hit = Relation.mem rel r in
              charge_probe_bytes stats node (if hit then Tuple.byte_size r else 0);
              if hit then begin
                let row = concat_rows l r in
                if keep row then Batch.push out row
              end)
            lb;
          produced (Batch.length out);
          out
    | Plan.Anti_join { left; table; key_outer; key_inner; residual; _ } ->
        let lf = child left in
        let rel = table.Catalog.tbl_relation in
        let keep = compile_filter residual in
        fun node ->
          let lb = lf node in
          charge_scan stats node rel;
          let survives =
            match key_inner with
            | [] ->
                (* no equality keys: test every inner row *)
                let inner_rows = Relation.to_list rel in
                fun l -> not (List.exists (fun r -> keep (concat_rows l r)) inner_rows)
            | _ ->
                let buckets = Key_tbl.create ((2 * Relation.cardinal rel) + 1) in
                Relation.iter
                  (fun r ->
                    let k = List.map (fun i -> r.(i)) key_inner in
                    match Key_tbl.find_opt buckets k with
                    | Some bucket -> Batch.push bucket r
                    | None ->
                        let bucket = Batch.create ~capacity:4 () in
                        Batch.push bucket r;
                        Key_tbl.add buckets k bucket)
                  rel;
                fun l ->
                  let k = List.map (fun i -> l.(i)) key_outer in
                  (match Key_tbl.find_opt buckets k with
                  | None -> true
                  | Some bucket ->
                      not (Batch.fold (fun hit r -> hit || keep (concat_rows l r)) false bucket))
          in
          let out = Batch.create ~capacity:(Batch.length lb) () in
          Batch.iter (fun l -> if survives l then Batch.push out l) lb;
          produced (Batch.length out);
          out
    | Plan.Project { input; exprs; _ } ->
        if identity_projection exprs (Array.length (Plan.header_of input)) then
          (* header renaming only: pass the child's batch through (the
             Project profile node still appears, with zero charges, because
             node creation lives in the parent's [child] wrapper) *)
          child input
        else
          let f = child input in
          let fns = Array.map (Plan.compile_rexpr args) exprs in
          fun node ->
            let b = f node in
            let out = Batch.create ~capacity:(Batch.length b) () in
            Batch.iter (fun row -> Batch.push out (Array.map (fun g -> g row) fns)) b;
            out
    | Plan.Count_star { input; _ } -> (
        match bare_relation input with
        | Some (rel, chain) ->
            (* counting a stored relation: the cardinality is already
               known; charge the scan without copying a single row *)
            fun node ->
              phantom_side stats node chain rel;
              let out = Batch.create ~capacity:1 () in
              Batch.push out [| Value.Int (Relation.cardinal rel) |];
              out
        | None ->
            let f = child input in
            fun node ->
              let b = f node in
              let out = Batch.create ~capacity:1 () in
              Batch.push out [| Value.Int (Batch.length b) |];
              out)
    | Plan.Aggregate { input; group_keys; outputs; _ } ->
        let f = child input in
        fun node -> Batch.of_list (aggregate_rows (Batch.to_list (f node)) group_keys outputs)
    | Plan.Distinct p ->
        if bare_relation p <> None then
          (* relation rows are already a set: DISTINCT is the identity *)
          child p
        else
          let f = child p in
          fun node ->
            let b = f node in
            let seen = Tuple_tbl.create () in
            let out = Batch.create ~capacity:(Batch.length b) () in
            Batch.iter (fun row -> if Tuple_tbl.add seen row then Batch.push out row) b;
            out
    | Plan.Union_all (a, b) ->
        let fa = child a and fb = child b in
        fun node ->
          let ba = fa node in
          let bb = fb node in
          Batch.iter (Batch.push ba) bb;
          ba
    | Plan.Union_distinct (a, b) -> (
        let fa = child a and fb = child b in
        match bare_relation a with
        | Some (arel, _) ->
            (* left rows are already distinct; the right side only needs
               an O(1) membership probe against the left relation (plus
               its own dedup set when it can repeat) *)
            let b_distinct = bare_relation b <> None in
            fun node ->
              let ba = fa node in
              let bb = fb node in
              let out = Batch.create ~capacity:(Batch.length ba + Batch.length bb) () in
              Batch.iter (Batch.push out) ba;
              if b_distinct then
                Batch.iter
                  (fun row -> if not (Relation.mem arel row) then Batch.push out row)
                  bb
              else begin
                let seen = Tuple_tbl.create () in
                Batch.iter
                  (fun row ->
                    if (not (Relation.mem arel row)) && Tuple_tbl.add seen row then
                      Batch.push out row)
                  bb
              end;
              out
        | None ->
            fun node ->
              let ba = fa node in
              let bb = fb node in
              let seen = Tuple_tbl.create () in
              let out = Batch.create ~capacity:(Batch.length ba + Batch.length bb) () in
              let push row = if Tuple_tbl.add seen row then Batch.push out row in
              Batch.iter push ba;
              Batch.iter push bb;
              out)
    | Plan.Except_distinct (a, b) -> (
        match bare_relation b with
        | Some (brel, bchain) ->
            (* the LFP's set difference, [variant EXCEPT member]: instead
               of materializing the (large, growing) right side and
               hashing it into an exclusion set every execution, probe
               the relation's own tuple table — it IS that set. A left
               side that is a stored relation or a DISTINCT (every rule
               variant) has no repeats, so needs no dedupe set either. *)
            let fa = child a in
            let a_distinct =
              match a with
              | Plan.Distinct _ -> true
              | _ -> bare_relation a <> None
            in
            fun node ->
              phantom_side stats node bchain brel;
              let ba = fa node in
              let out = Batch.create ~capacity:(Batch.length ba) () in
              if a_distinct then
                Batch.iter
                  (fun row -> if not (Relation.mem brel row) then Batch.push out row)
                  ba
              else begin
                let seen = Tuple_tbl.create () in
                Batch.iter
                  (fun row ->
                    if (not (Relation.mem brel row)) && Tuple_tbl.add seen row then
                      Batch.push out row)
                  ba
              end;
              out
        | None ->
            let fa = child a and fb = child b in
            fun node ->
              (* right side first: its rows seed the exclusion set, which
                 then also dedupes the left *)
              let bb = fb node in
              let bset = Tuple_tbl.create () in
              Batch.iter (fun row -> ignore (Tuple_tbl.add bset row)) bb;
              let ba = fa node in
              let out = Batch.create ~capacity:(Batch.length ba) () in
              Batch.iter (fun row -> if Tuple_tbl.add bset row then Batch.push out row) ba;
              out)
    | Plan.Sort { input; keys } ->
        let f = child input in
        let cmp a b =
          let rec go = function
            | [] -> 0
            | (pos, desc) :: rest ->
                let c = Value.compare a.(pos) b.(pos) in
                if c <> 0 then if desc then -c else c else go rest
          in
          go keys
        in
        fun node ->
          let arr = Batch.to_array (f node) in
          Array.stable_sort cmp arr;
          Batch.of_array arr
  (* Compile a child operator, wrapping it so that when profiling is on a
     child Profile node is created, attached, timed, and given the child's
     output cardinality. *)
  and child plan =
    let exec = comp plan in
    let label = lazy (Plan.op_label plan) in
    fun parent ->
      match parent with
      | None -> exec None
      | Some pn ->
          let cn = Profile.make (Lazy.force label) in
          Profile.add_child pn cn;
          let t0 = Timer.now_ms () in
          let b = exec (Some cn) in
          cn.Profile.ms <- Timer.now_ms () -. t0;
          cn.Profile.rows <- Batch.length b;
          b
  in
  { label = lazy (Plan.op_label plan); args; exec = comp plan }

(* Run with [args] in the cell, and clear it after: the compiled form
   keeps no value past its execution. *)
let with_args t args f =
  match args with
  | None -> f ()
  | Some a ->
      t.args := a;
      Fun.protect ~finally:(fun () -> t.args := [||]) f

let run_batch ?args t = with_args t args (fun () -> t.exec None)
let run ?args t = Batch.to_list (run_batch ?args t)

let run_profiled_batch ?args t =
  with_args t args @@ fun () ->
  let root = Profile.make (Lazy.force t.label) in
  let t0 = Timer.now_ms () in
  let b = t.exec (Some root) in
  root.Profile.ms <- Timer.now_ms () -. t0;
  root.Profile.rows <- Batch.length b;
  (b, root)

let run_profiled ?args t =
  let b, root = run_profiled_batch ?args t in
  (Batch.to_list b, root)
