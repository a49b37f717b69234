(* Test 5 / Figure 12: impact of the redundant work done during LFP
   computation — naive vs semi-naive evaluation of ancestor queries.
   Paper: semi-naive is 2.5x-3x faster. *)

module Session = Core.Session
module Graphgen = Workload.Graphgen

type point = {
  d_rel : int;
  naive_ms : float;
  seminaive_ms : float;
  naive_io : int;
  seminaive_io : int;
}

type result_t = {
  points : point list;
  seminaive_wins : bool;
  median_speedup : float;
}

let run_query s node strategy =
  let options = { Session.default_options with strategy } in
  let answer = Common.ok (Session.query_goal s ~options (Workload.Queries.ancestor_goal node)) in
  (answer.Session.run.Core.Runtime.exec_ms, Rdbms.Stats.total_io answer.Session.run.Core.Runtime.io)

let run ?(scale = Common.Full) () =
  let depth, repeat =
    match scale with
    | Common.Full -> (10, 3)
    (* median-of-3 at depth 7 even in quick mode: at depth 6 the per-query
       times are well under a millisecond, where one GC slice on either
       side flips the speedup shape *)
    | Common.Quick -> (7, 3)
  in
  Common.section "Test 5 (Figure 12)"
    "t_e for naive vs semi-naive LFP evaluation of ancestor queries rooted at\n\
     different subtrees. Paper: semi-naive is 2.5-3x faster, because naive\n\
     recomputes tuples from previous iterations.";
  let s, tree = Common.tree_session ~depth in
  let points =
    List.map
      (fun level ->
        let node = List.hd (Graphgen.tree_nodes_at_level tree level) in
        let d_rel = Graphgen.subtree_edge_count tree level in
        let nio = ref 0 and sio = ref 0 in
        let naive_ms =
          Common.measure ~repeat (fun () ->
              let ms, io = run_query s node Core.Runtime.Naive in
              nio := io;
              ms)
        in
        let seminaive_ms =
          Common.measure ~repeat (fun () ->
              let ms, io = run_query s node Core.Runtime.Seminaive in
              sio := io;
              ms)
        in
        { d_rel; naive_ms; seminaive_ms; naive_io = !nio; seminaive_io = !sio })
      [ 1; 2; 3 ]
  in
  Common.print_table
    ~header:
      [ "D_rel"; "naive t_e (ms)"; "semi-naive t_e (ms)"; "speedup"; "naive I/O"; "semi I/O" ]
    (List.map
       (fun p ->
         [
           string_of_int p.d_rel;
           Common.fmt_ms p.naive_ms;
           Common.fmt_ms p.seminaive_ms;
           Printf.sprintf "%.2fx" (p.naive_ms /. p.seminaive_ms);
           string_of_int p.naive_io;
           string_of_int p.seminaive_io;
         ])
       points);
  let speedups = List.map (fun p -> p.naive_ms /. p.seminaive_ms) points in
  let median_speedup = Common.median speedups in
  let seminaive_wins =
    Common.shape
      (Printf.sprintf "Fig 12: semi-naive beats naive (median speedup %.2fx; paper: 2.5-3x)"
         median_speedup)
      (List.for_all (fun x -> x > 1.2) speedups)
  in
  { points; seminaive_wins; median_speedup }
