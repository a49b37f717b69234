open Rdbms
module Timer = Dkb_util.Timer

(* Execution observer: the engine-global stats plus, when profiling, the
   Profile node of the operator currently running. Charges are recorded on
   both, so tree sums over a profile equal the statement's Stats delta. *)
type obs = {
  stats : Stats.t;
  node : Profile.t option;
}

(* Scan charge: the relation's simulated page count, heap-backed or not. *)
let charge_scan obs rel =
  let pages = Relation.pages rel in
  obs.stats.Stats.page_reads <- obs.stats.Stats.page_reads + pages;
  match obs.node with
  | Some n -> n.Profile.reads <- n.Profile.reads + pages
  | None -> ()

(* One probe charged at [bytes] worth of matched rows. Index probes pass the
   bucket's running byte counter; range scans still fold over the matches. *)
let charge_probe_bytes obs bytes =
  let pages = 1 + Stats.pages_of_bytes bytes in
  obs.stats.Stats.index_probes <- obs.stats.Stats.index_probes + 1;
  obs.stats.Stats.page_reads <- obs.stats.Stats.page_reads + pages;
  match obs.node with
  | Some n ->
      n.Profile.probes <- n.Profile.probes + 1;
      n.Profile.reads <- n.Profile.reads + pages
  | None -> ()

let charge_probe obs matched =
  charge_probe_bytes obs (List.fold_left (fun acc r -> acc + Tuple.byte_size r) 0 matched)

let produced obs n = obs.stats.Stats.rows_read <- obs.stats.Stats.rows_read + n

let keep filter row =
  match filter with
  | None -> true
  | Some c -> Plan.eval_rcond c row

let concat_rows a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) (Value.Int 0) in
  Array.blit a 0 out 0 la;
  Array.blit b 0 out la lb;
  out

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal a b = List.equal Value.equal a b
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 k
end)

let rec go obs plan =
  match plan with
  | Plan.Seq_scan { table; filter; _ } ->
      let rel = table.Catalog.tbl_relation in
      charge_scan obs rel;
      let out = Relation.fold (fun acc row -> if keep filter row then row :: acc else acc) [] rel in
      let rows = List.rev out in
      produced obs (List.length rows);
      rows
  | Plan.Index_scan { index; key; filter; _ } ->
      let matched, bytes = Index.lookup_with_bytes index key in
      charge_probe_bytes obs bytes;
      let rows = List.filter (keep filter) matched in
      produced obs (List.length rows);
      rows
  | Plan.Range_scan { oindex; lo; hi; filter; _ } ->
      let bound = Option.map (fun (value, inclusive) -> { Ordered_index.value; inclusive }) in
      let matched = Ordered_index.range oindex ?lo:(bound lo) ?hi:(bound hi) () in
      charge_probe obs matched;
      let rows = List.filter (keep filter) matched in
      produced obs (List.length rows);
      rows
  | Plan.Nl_join { left; right; cond; _ } ->
      let lrows = sub obs left in
      let rrows = sub obs right in
      let out = ref [] in
      List.iter
        (fun l ->
          List.iter
            (fun r ->
              let row = concat_rows l r in
              if keep cond row then out := row :: !out)
            rrows)
        lrows;
      let rows = List.rev !out in
      produced obs (List.length rows);
      rows
  | Plan.Hash_join { left; right; left_keys; right_keys; residual; build_left; _ } ->
      let lrows = sub obs left in
      let rrows = sub obs right in
      (* build on whichever side the planner chose (right by default);
         output rows are left-then-right either way *)
      let build_rows, build_keys, probe_rows, probe_keys =
        if build_left then (lrows, left_keys, rrows, right_keys)
        else (rrows, right_keys, lrows, left_keys)
      in
      let table = Key_tbl.create (List.length build_rows * 2 + 1) in
      List.iter
        (fun r ->
          let k = List.map (fun i -> r.(i)) build_keys in
          let prev = match Key_tbl.find_opt table k with Some l -> l | None -> [] in
          Key_tbl.replace table k (r :: prev))
        build_rows;
      (* flip each bucket into insertion order once, instead of List.rev
         on every probe hit *)
      Key_tbl.filter_map_inplace (fun _ matches -> Some (List.rev matches)) table;
      let out = ref [] in
      List.iter
        (fun p ->
          let k = List.map (fun i -> p.(i)) probe_keys in
          match Key_tbl.find_opt table k with
          | None -> ()
          | Some matches ->
              List.iter
                (fun b ->
                  let row = if build_left then concat_rows b p else concat_rows p b in
                  if keep residual row then out := row :: !out)
                matches)
        probe_rows;
      let rows = List.rev !out in
      produced obs (List.length rows);
      rows
  | Plan.Index_join { left; index; outer_pos; residual; _ } ->
      let lrows = sub obs left in
      let out = ref [] in
      List.iter
        (fun l ->
          let matched, bytes = Index.lookup_with_bytes index l.(outer_pos) in
          charge_probe_bytes obs bytes;
          List.iter
            (fun r ->
              let row = concat_rows l r in
              if keep residual row then out := row :: !out)
            matched)
        lrows;
      let rows = List.rev !out in
      produced obs (List.length rows);
      rows
  | Plan.Member_join { left; table; outer_pos; residual; _ } ->
      let lrows = sub obs left in
      let rel = table.Catalog.tbl_relation in
      let out = ref [] in
      List.iter
        (fun l ->
          let r = Array.map (fun p -> l.(p)) outer_pos in
          let matched = if Relation.mem rel r then [ r ] else [] in
          charge_probe obs matched;
          List.iter
            (fun r ->
              let row = concat_rows l r in
              if keep residual row then out := row :: !out)
            matched)
        lrows;
      let rows = List.rev !out in
      produced obs (List.length rows);
      rows
  | Plan.Anti_join { left; table; key_outer; key_inner; residual; _ } ->
      let lrows = sub obs left in
      let rel = table.Catalog.tbl_relation in
      charge_scan obs rel;
      let inner_rows = Relation.to_list rel in
      let survives =
        match key_inner with
        | [] ->
            (* no equality keys: test every inner row *)
            fun l ->
              not
                (List.exists
                   (fun r -> keep residual (concat_rows l r))
                   inner_rows)
        | _ ->
            let buckets = Key_tbl.create (List.length inner_rows * 2 + 1) in
            List.iter
              (fun r ->
                let k = List.map (fun i -> r.(i)) key_inner in
                let prev = match Key_tbl.find_opt buckets k with Some l -> l | None -> [] in
                Key_tbl.replace buckets k (r :: prev))
              inner_rows;
            fun l ->
              let k = List.map (fun i -> l.(i)) key_outer in
              (match Key_tbl.find_opt buckets k with
              | None -> true
              | Some candidates ->
                  not (List.exists (fun r -> keep residual (concat_rows l r)) candidates))
      in
      let rows = List.filter survives lrows in
      produced obs (List.length rows);
      rows
  | Plan.Project { input; exprs; _ } ->
      let rows = sub obs input in
      List.map (fun row -> Array.map (fun e -> Plan.eval_rexpr e row) exprs) rows
  | Plan.Count_star { input; _ } ->
      let rows = sub obs input in
      [ [| Value.Int (List.length rows) |] ]
  | Plan.Aggregate { input; group_keys; outputs; _ } ->
      let rows = sub obs input in
      Exec_compiled.aggregate_rows rows group_keys outputs
  | Plan.Distinct p ->
      let rows = sub obs p in
      dedupe rows
  | Plan.Union_all (a, b) ->
      (* left side first, so profile children follow the plan's order *)
      let arows = sub obs a in
      arows @ sub obs b
  | Plan.Union_distinct (a, b) ->
      let arows = sub obs a in
      dedupe (arows @ sub obs b)
  | Plan.Except_distinct (a, b) ->
      let brows = sub obs b in
      let bset = Tuple.Hashset.of_seq (List.to_seq brows) in
      let arows = sub obs a in
      let out =
        List.fold_left
          (fun acc row -> if Tuple.Hashset.add bset row then row :: acc else acc)
          [] arows
      in
      List.rev out
  | Plan.Sort { input; keys } ->
      let rows = sub obs input in
      let cmp a b =
        let rec go = function
          | [] -> 0
          | (pos, desc) :: rest ->
              let c = Value.compare a.(pos) b.(pos) in
              if c <> 0 then if desc then -c else c else go rest
        in
        go keys
      in
      List.stable_sort cmp rows

(* Recurse into a child operator, materializing a profile node for it when
   profiling is on. [ms] is inclusive; counters are the child's own. *)
and sub obs child =
  match obs.node with
  | None -> go obs child
  | Some parent ->
      let cn = Profile.make (Plan.op_label child) in
      Profile.add_child parent cn;
      let t0 = Timer.now_ms () in
      let rows = go { obs with node = Some cn } child in
      cn.Profile.ms <- Timer.now_ms () -. t0;
      cn.Profile.rows <- List.length rows;
      rows

and dedupe rows =
  let seen = Tuple.Hashset.create (List.length rows * 2 + 1) in
  let out =
    List.fold_left (fun acc row -> if Tuple.Hashset.add seen row then row :: acc else acc) [] rows
  in
  List.rev out

let run stats plan = go { stats; node = None } plan

let run_profiled stats plan =
  let root = Profile.make (Plan.op_label plan) in
  let t0 = Timer.now_ms () in
  let rows = go { stats; node = Some root } plan in
  root.Profile.ms <- Timer.now_ms () -. t0;
  root.Profile.rows <- List.length rows;
  (rows, root)
