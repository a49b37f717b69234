(* Test 6 / Table 5: relative contributions of the steps of naive and
   semi-naive LFP evaluation when implemented as an application program
   over a relational DBMS: temp-table create/drop, RHS evaluation,
   termination checking, and table copying. Paper: evaluation + termination
   dominate (95% naive, 85% semi-naive), and naive's absolute times for
   those steps are 2.5-3x those of semi-naive. *)

module Session = Core.Session
module Phases = Dkb_util.Timer.Phases

let buckets = [ "create_drop"; "eval"; "termination"; "copy" ]

type row = {
  strategy : string;
  bucket_ms : (string * float) list;
  total_ms : float;
}

type result_t = {
  rows : row list;
  work_dominates : bool;
  naive_work_larger : bool;
}

(* Each step takes a few ms at full scale, so GC work left over from
   earlier experiments in the same process, or one host stall, landing in
   a single run's copy step would decide the dominance verdict. Each run
   starts from a collected heap (outside the timed region), so it pays
   for its own garbage only, and each bucket is the median of a few
   runs. *)
let repeat = 3

let measure s goal strategy =
  let options = { Session.default_options with strategy } in
  let runs =
    List.init repeat (fun _ ->
        Gc.full_major ();
        (Common.ok (Session.query_goal s ~options goal)).Session.run.Core.Runtime.phases)
  in
  List.map (fun b -> (b, Common.median (List.map (fun ph -> Phases.get ph b) runs))) buckets

let run ?(scale = Common.Full) () =
  let depth =
    match scale with
    | Common.Full -> 10
    (* small depths are unstable: with sub-ms phase times the fixed
       create/drop and copy overheads rival the O(n) work phases and the
       >= 60% shape flickers; depth 8 keeps quick mode fast but lets
       evaluation + termination dominate reliably *)
    | Common.Quick -> 8
  in
  Common.section "Test 6 (Table 5)"
    "Step breakdown of LFP evaluation (ancestor over a full binary tree),\n\
     naive vs semi-naive. Paper: RHS evaluation + termination checking take\n\
     95% (naive) / 85% (semi-naive) of the loop; naive's are ~2.5-3x larger.";
  let s, tree = Common.tree_session ~depth in
  let goal = Workload.Queries.ancestor_goal tree.Workload.Graphgen.t_root in
  let rows =
    List.map
      (fun strategy ->
        let bucket_ms = measure s goal strategy in
        let total_ms = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 bucket_ms in
        { strategy = Core.Runtime.strategy_to_string strategy; bucket_ms; total_ms })
      [ Core.Runtime.Naive; Core.Runtime.Seminaive ]
  in
  Common.print_table
    ~header:("strategy" :: "total (ms)" :: List.concat_map (fun b -> [ b ^ " (ms)"; b ^ " %" ]) buckets)
    (List.map
       (fun row ->
         row.strategy :: Common.fmt_ms row.total_ms
         :: List.concat_map
              (fun b ->
                let ms = List.assoc b row.bucket_ms in
                [
                  Common.fmt_ms ms;
                  (if row.total_ms > 0.0 then Common.fmt_pct (100.0 *. ms /. row.total_ms) else "-");
                ])
              buckets)
       rows);
  let work_share row =
    (List.assoc "eval" row.bucket_ms +. List.assoc "termination" row.bucket_ms) /. row.total_ms
  in
  let work_dominates =
    Common.shape "Table 5: RHS evaluation + termination dominate the loop (>= 60%)"
      (List.for_all (fun r -> work_share r >= 0.6) rows)
  in
  let work_of name =
    let r = List.find (fun r -> r.strategy = name) rows in
    List.assoc "eval" r.bucket_ms +. List.assoc "termination" r.bucket_ms
  in
  let naive_work_larger =
    Common.shape "Table 5: naive's evaluation+termination time exceeds semi-naive's (paper 2.5-3x)"
      (work_of "naive" > 1.2 *. work_of "semi-naive")
  in
  { rows; work_dominates; naive_work_larger }
