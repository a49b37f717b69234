(* Join-order bench: the cost-based optimizer against the syntactic and
   greedy planners, measured in simulated page I/O.

   Part 1 — a 3-way join with skewed table sizes whose written FROM order
   is the worst one (largest table first). The syntactic planner pays for
   probing the big table once per outer row; greedy reorders but keeps
   index probes even when a scan is cheaper; the costed planner reorders
   AND picks scan-vs-probe and the hash-join build side from ANALYZE
   statistics.

   Part 2 — the same grandparent self-join on the paper's Test 1-3 base
   relation shapes (lists, full binary tree, layered DAG).

   Part 3 — LFP delta feedback: the magic-sets ancestor query on lists
   keeps its per-iteration delta tables tiny while the parent relation is
   large. Cardinality-bucketed plan-cache keys let the costed planner
   replan the prepared inner-loop statements for the small deltas. *)

module Session = Core.Session
module Runtime = Core.Runtime
module Engine = Rdbms.Engine
module Stats = Rdbms.Stats
module Planner = Rdbms.Planner
module Graphgen = Workload.Graphgen

let modes =
  [
    ("syntactic", Planner.Syntactic);
    ("greedy", Planner.Greedy);
    ("costed", Planner.Costed);
  ]

type measure = {
  m_mode : string;
  m_rows : int;
  m_reads : int;
  m_probes : int;
  m_io : int; (* total simulated I/O: reads + writes + probes *)
}

(* Execute [sql] once under [mode] on a fresh engine built by [setup],
   with ANALYZE run first in costed mode (the statistics are the point). *)
let measure_mode setup sql (name, mode) =
  let engine = setup () in
  Engine.set_join_order engine mode;
  if mode = Planner.Costed then ignore (Engine.exec engine "ANALYZE" : Engine.result);
  let stats = Engine.stats engine in
  let before = Stats.copy stats in
  let rows =
    match Engine.exec engine sql with
    | Engine.Rows { rows; _ } -> List.length rows
    | _ -> 0
  in
  let delta = Stats.diff stats before in
  {
    m_mode = name;
    m_rows = rows;
    m_reads = delta.Stats.page_reads;
    m_probes = delta.Stats.index_probes;
    m_io = Stats.total_io delta;
  }

let measure_json m =
  Printf.sprintf
    {|{ "mode": "%s", "rows": %d, "page_reads": %d, "index_probes": %d, "total_io": %d }|}
    m.m_mode m.m_rows m.m_reads m.m_probes m.m_io

let print_measures label ms =
  Printf.printf "\n  %s\n" label;
  Common.print_table
    ~header:[ "mode"; "rows"; "reads"; "probes"; "total io" ]
    (List.map
       (fun m ->
         [
           m.m_mode;
           string_of_int m.m_rows;
           string_of_int m.m_reads;
           string_of_int m.m_probes;
           string_of_int m.m_io;
         ])
       ms)

let io_of name ms = (List.find (fun m -> m.m_mode = name) ms).m_io

(* All modes must compute the same relation; anything else is a planner
   bug, not a performance difference. *)
let same_rows ms =
  match ms with
  | first :: rest -> List.for_all (fun m -> m.m_rows = first.m_rows) rest
  | [] -> false

(* ------------------------------------------------------------------ *)
(* Part 1: skewed 3-way join *)

let exec_batches engine table rows =
  let batch = 500 in
  let rec go = function
    | [] -> ()
    | rows ->
        let rec take n acc = function
          | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let chunk, rest = take batch [] rows in
        ignore
          (Engine.exec engine
             (Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " chunk))
            : Engine.result);
        go rest
  in
  go rows

(* big(bk, bv): [n] rows; mid(mk, bk, sk): [n/3] rows, bk hitting one big
   row in three; small(sk, sv): [n/25] rows, sv = sk mod 10 so "sv = 0"
   keeps a tenth. Every join column is hash-indexed, which is exactly what
   makes the syntactic order expensive: written big-first, the planner
   index-joins into mid and then small, paying one probe per outer row,
   where scanning the small tables first costs a handful of pages. *)
let skewed_setup n () =
  let engine = Engine.create () in
  let e sql = ignore (Engine.exec engine sql : Engine.result) in
  e "CREATE TABLE big (bk INTEGER, bv INTEGER)";
  e "CREATE TABLE mid (mk INTEGER, bk INTEGER, sk INTEGER)";
  e "CREATE TABLE small (sk INTEGER, sv INTEGER)";
  let n_mid = n / 3 and n_small = n / 25 in
  exec_batches engine "big"
    (List.init n (fun i -> Printf.sprintf "(%d, %d)" i (i mod 50)));
  exec_batches engine "mid"
    (List.init n_mid (fun i -> Printf.sprintf "(%d, %d, %d)" i (i * 3) (i mod n_small)));
  exec_batches engine "small"
    (List.init n_small (fun i -> Printf.sprintf "(%d, %d)" i (i mod 10)));
  e "CREATE INDEX idx_big_bk ON big (bk)";
  e "CREATE INDEX idx_mid_bk ON mid (bk)";
  e "CREATE INDEX idx_mid_sk ON mid (sk)";
  e "CREATE INDEX idx_small_sk ON small (sk)";
  engine

let skewed_sql =
  "SELECT b.bv FROM big b, mid m, small s WHERE b.bk = m.bk AND m.sk = s.sk AND s.sv = 0"

(* ------------------------------------------------------------------ *)
(* Part 2: grandparent self-join on the Test 1-3 base-relation shapes *)

let shape_edges scale =
  let rng = Dkb_util.Rng.create 88 in
  let count, avg_length, depth, path_length, width =
    match scale with
    | Common.Full -> (60, 10, 9, 12, 24)
    | Common.Quick -> (20, 8, 6, 8, 12)
  in
  [
    ("lists", (Graphgen.lists ~rng ~count ~avg_length).Graphgen.l_edges);
    ("tree", (Graphgen.full_binary_tree ~depth ()).Graphgen.t_edges);
    ("dag", (Graphgen.dag ~rng ~path_length ~width ~fan_out:2 ()).Graphgen.d_edges);
  ]

let shape_setup edges () =
  let s = Common.bench_session () in
  Common.ok (Workload.Queries.setup_parent s edges);
  Session.engine s

let grandparent_sql =
  "SELECT p1.par, p3.child FROM parent p1, parent p2, parent p3 \
   WHERE p1.child = p2.par AND p2.child = p3.par"

(* ------------------------------------------------------------------ *)
(* Part 3: LFP delta feedback (magic-sets ancestor on lists) *)

type lfp_measure = {
  lm_mode : string;
  lm_answers : int;
  lm_iterations : int;
  lm_inner_io : int; (* summed per-iteration I/O of the LFP inner loop *)
  lm_total_io : int;
  lm_card_replans : int;
}

let lfp_mode edges head (name, mode) =
  let s = Common.bench_session () in
  Common.ok (Workload.Queries.setup_parent s edges);
  Common.ok (Session.load_rules s Workload.Queries.ancestor_rules);
  let engine = Session.engine s in
  if mode = Planner.Costed then ignore (Engine.exec engine "ANALYZE" : Engine.result);
  let options =
    { Session.default_options with optimize = Core.Compiler.Opt_on; join_order = mode }
  in
  let stats = Engine.stats engine in
  let before = Stats.copy stats in
  let answer = Common.ok (Session.query_goal s ~options (Workload.Queries.ancestor_goal head)) in
  let delta = Stats.diff stats before in
  let profile = answer.Session.run.Runtime.profile in
  {
    lm_mode = name;
    lm_answers = List.length answer.Session.run.Runtime.rows;
    lm_iterations = List.length profile;
    lm_inner_io =
      List.fold_left
        (fun acc ip -> acc + Stats.total_io ip.Runtime.ip_io)
        0 profile;
    lm_total_io = Stats.total_io delta;
    lm_card_replans = delta.Stats.card_replans;
  }

let lfp_json m =
  Printf.sprintf
    {|{ "mode": "%s", "answers": %d, "iterations": %d, "inner_loop_io": %d, "total_io": %d, "card_replans": %d }|}
    m.lm_mode m.lm_answers m.lm_iterations m.lm_inner_io m.lm_total_io m.lm_card_replans

(* ------------------------------------------------------------------ *)

let run ?(json_path = "BENCH_joins.json") ~scale () =
  Common.section "Join-order bench (cost-based optimizer)"
    "Simulated page I/O of the syntactic, greedy and costed planners on a\n\
     skewed 3-way join, on the paper's base-relation shapes, and on the\n\
     magic-sets ancestor LFP where cardinality-bucketed plan-cache keys\n\
     let the costed planner replan for small deltas. Writes\n\
     BENCH_joins.json.";
  let n = match scale with Common.Full -> 3000 | Common.Quick -> 750 in

  (* --- part 1: skewed 3-way join ------------------------------------ *)
  let skewed = List.map (measure_mode (skewed_setup n) skewed_sql) modes in
  print_measures (Printf.sprintf "skewed 3-way join (big=%d rows)" n) skewed;
  ignore (Common.shape "all modes return the same rows" (same_rows skewed));
  ignore
    (Common.shape "costed <= greedy <= syntactic total I/O"
       (io_of "costed" skewed <= io_of "greedy" skewed
       && io_of "greedy" skewed <= io_of "syntactic" skewed));

  (* --- part 2: test 1-3 shapes -------------------------------------- *)
  let shapes =
    List.map
      (fun (shape, edges) ->
        let ms = List.map (measure_mode (shape_setup edges) grandparent_sql) modes in
        print_measures (Printf.sprintf "grandparent self-join on %s" shape) ms;
        ignore (Common.shape (shape ^ ": all modes return the same rows") (same_rows ms));
        ignore
          (Common.shape
             (shape ^ ": costed <= syntactic total I/O")
             (io_of "costed" ms <= io_of "syntactic" ms));
        (shape, ms))
      (shape_edges scale)
  in

  (* --- part 3: LFP delta feedback ----------------------------------- *)
  let rng = Dkb_util.Rng.create 77 in
  let count, avg_length =
    match scale with Common.Full -> (120, 12) | Common.Quick -> (40, 8)
  in
  let ls = Graphgen.lists ~rng ~count ~avg_length in
  let head = List.hd ls.Graphgen.l_heads in
  let lfp =
    List.map (lfp_mode ls.Graphgen.l_edges head) [ List.hd modes; List.nth modes 2 ]
  in
  Printf.printf "\n  magic-sets ancestor on lists (%d edges)\n"
    (List.length ls.Graphgen.l_edges);
  Common.print_table
    ~header:[ "mode"; "answers"; "iters"; "inner io"; "total io"; "replans" ]
    (List.map
       (fun m ->
         [
           m.lm_mode;
           string_of_int m.lm_answers;
           string_of_int m.lm_iterations;
           string_of_int m.lm_inner_io;
           string_of_int m.lm_total_io;
           string_of_int m.lm_card_replans;
         ])
       lfp);
  let syn = List.find (fun m -> m.lm_mode = "syntactic") lfp in
  let cost = List.find (fun m -> m.lm_mode = "costed") lfp in
  let improved = cost.lm_inner_io < syn.lm_inner_io in
  ignore (Common.shape "same answers in both modes" (cost.lm_answers = syn.lm_answers));
  ignore (Common.shape "costed replanned on delta-cardinality buckets" (cost.lm_card_replans > 0));
  ignore (Common.shape "costed inner-loop I/O below syntactic" improved);

  (* --- BENCH_joins.json --------------------------------------------- *)
  let json =
    Printf.sprintf
      {|{
  "experiment": "joins",
  "skewed_3way": {
    "big_rows": %d,
    "sql": "%s",
    "measures": [
      %s
    ]
  },
  "shapes": [
    %s
  ],
  "lfp_delta_feedback": {
    "workload": "magic-sets ancestor on lists",
    "edges": %d,
    "measures": [
      %s
    ],
    "improved": %b
  }
}
|}
      n
      (Rdbms.Profile.json_escape skewed_sql)
      (String.concat ",\n      " (List.map measure_json skewed))
      (String.concat ",\n    "
         (List.map
            (fun (shape, ms) ->
              Printf.sprintf {|{ "shape": "%s", "measures": [ %s ] }|} shape
                (String.concat ", " (List.map measure_json ms)))
            shapes))
      (List.length ls.Graphgen.l_edges)
      (String.concat ",\n      " (List.map lfp_json lfp))
      improved
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n" json_path
