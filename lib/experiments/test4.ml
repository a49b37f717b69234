(* Test 4 / Figure 11: effect of the fraction of relevant facts
   (D_rel / D_tot) on D/KB query execution time t_e, without optimization
   (semi-naive LFP). Two methods: vary D_rel with D_tot fixed (ancestor
   queries rooted at different subtrees), and vary D_tot with D_rel fixed
   (same query against progressively larger parent relations). *)

module Session = Core.Session
module Graphgen = Workload.Graphgen

type point = {
  d_rel : int;
  d_tot : int;
  t_e : float;
  io : int;
  rows_read : int;  (* finer-grained work metric for the shape checks *)
}

type result_t = {
  method1 : point list;  (** D_tot fixed *)
  method2 : point list;  (** D_rel fixed *)
  m1_insensitive : bool;
  m2_grows : bool;
}

let query_at s node ~options =
  let answer = Common.ok (Session.query_goal s ~options (Workload.Queries.ancestor_goal node)) in
  let io = answer.Session.run.Core.Runtime.io in
  (answer.Session.run.Core.Runtime.exec_ms, Rdbms.Stats.total_io io, io.Rdbms.Stats.rows_read)

let leftmost_at_level tree level = List.hd (Graphgen.tree_nodes_at_level tree level)

let run ?(scale = Common.Full) () =
  let depth, depths2, sub_depth, repeat =
    match scale with
    | Common.Full -> (10, [ 7; 8; 9; 10 ], 5, 3)
    | Common.Quick -> (6, [ 5; 6 ], 3, 1)
  in
  Common.section "Test 4 (Figure 11)"
    "t_e vs D_rel/D_tot, semi-naive evaluation, no optimization.\n\
     Paper: with D_tot fixed t_e is insensitive to D_rel (the whole transitive\n\
     closure is computed regardless); with D_rel fixed t_e grows with D_tot.";
  let options = Session.default_options in
  (* method 1: one tree, queries rooted at each level *)
  let s, tree = Common.tree_session ~depth in
  let d_tot = List.length tree.Graphgen.t_edges in
  let method1 =
    List.map
      (fun level ->
        let node = leftmost_at_level tree level in
        let d_rel = Graphgen.subtree_edge_count tree level in
        let io = ref 0 and work = ref 0 in
        let t_e =
          Common.measure ~repeat (fun () ->
              let ms, pages, rows = query_at s node ~options in
              io := pages;
              work := rows;
              ms)
        in
        { d_rel; d_tot; t_e; io = !io; rows_read = !work })
      (List.init (depth - 1) (fun i -> i + 1))
  in
  (* method 2: same relative query, growing trees *)
  let method2 =
    List.map
      (fun d ->
        let s, tree = Common.tree_session ~depth:d in
        let level = d - sub_depth + 1 in
        let node = leftmost_at_level tree level in
        let d_rel = Graphgen.subtree_edge_count tree level in
        let io = ref 0 and work = ref 0 in
        let t_e =
          Common.measure ~repeat (fun () ->
              let ms, pages, rows = query_at s node ~options in
              io := pages;
              work := rows;
              ms)
        in
        { d_rel; d_tot = List.length tree.Graphgen.t_edges; t_e; io = !io; rows_read = !work })
      depths2
  in
  let to_rows points =
    List.map
      (fun p ->
        [
          string_of_int p.d_rel;
          string_of_int p.d_tot;
          Common.fmt_pct (100.0 *. float_of_int p.d_rel /. float_of_int p.d_tot);
          Common.fmt_ms p.t_e;
          string_of_int p.io;
        ])
      points
  in
  let header = [ "D_rel"; "D_tot"; "D_rel/D_tot"; "t_e (ms)"; "sim I/O" ] in
  print_endline "method 1: D_tot fixed, D_rel varied (query rooted at each level)";
  Common.print_table ~header (to_rows method1);
  print_endline "method 2: D_rel fixed, D_tot varied (larger parent relations)";
  Common.print_table ~header (to_rows method2);
  let m1_insensitive =
    Common.shape "Fig 11: t_e insensitive to D_rel when D_tot fixed (work spread <= 1.2)"
      (Common.spread (List.map (fun p -> float_of_int p.rows_read) method1) <= 1.2)
  in
  let m2_grows =
    Common.shape "Fig 11: t_e grows with D_tot when D_rel fixed"
      (Common.monotone_increasing (List.map (fun p -> float_of_int p.rows_read) method2)
      && Common.spread (List.map (fun p -> float_of_int p.rows_read) method2) > 1.5)
  in
  { method1; method2; m1_insensitive; m2_grows }
