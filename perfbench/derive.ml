(* derive: recursive goals through Session.query_goal with magic sets
   chosen automatically (Opt_auto) over a stored D/KB.

   parent is a full binary tree of depth 16 (65,534 edges) and edge a
   layered DAG of 16 layers x 64 nodes with in- and out-degree 2 (1,920
   edges; Harness.shuffle_dag). The Stored D/KB holds ancestor,
   same-generation and tc plus 1,000 chain rules, so rule extraction has
   a realistic dictionary to search. Goals are ancestor from nodes of
   subtree height 7-10, same-generation at levels 10-13 and tc from DAG
   layers 6-9, in rounds whose order the seed shuffles: the semi-naive
   loop (INSERT ... SELECT and EXCEPT through the compiled executor) does
   most of the work, KM compile a few percent, and every statement text
   fits the engine's statement cache. Both graphs are symmetric, so every
   goal of one kind costs the same whichever node the seed picks. *)

module Session = Core.Session
module Engine = Rdbms.Engine
module Stats = Rdbms.Stats
module Phases = Dkb_util.Timer.Phases
module Rng = Dkb_util.Rng
module G = Workload.Graphgen
module Q = Workload.Queries
module H = Harness

let tree_depth = 16
let dag_layers = 16
let dag_width = 64

type expect =
  | Count of int
  | Reach of int list  (** sorted BFS reach set *)

type input = {
  tree : G.tree;
  dag : G.dag;
  chains : Workload.Rulegen.t;
  reach : (int, int list) Hashtbl.t;  (** tc start node -> reach set *)
}

(* tc start layers (1-based); every node of these gets its answer
   computed by BFS before timing *)
let tc_layers = [ 6; 7; 8; 9 ]

let generate seed =
  let rng = Rng.create seed in
  let dag = H.shuffle_dag ~rng ~layers:dag_layers ~width:dag_width ~first_node:1 in
  let succ = Hashtbl.create 2048 in
  List.iter (fun (a, b) -> Hashtbl.add succ a b) dag.G.d_edges;
  let bfs v =
    let seen = Hashtbl.create 256 in
    let rec visit = function
      | [] -> ()
      | x :: rest ->
          let fresh = List.filter (fun y -> not (Hashtbl.mem seen y)) (Hashtbl.find_all succ x) in
          List.iter (fun y -> Hashtbl.replace seen y ()) fresh;
          visit (fresh @ rest)
    in
    visit [ v ];
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])
  in
  let reach = Hashtbl.create 512 in
  List.iter
    (fun l -> List.iter (fun v -> Hashtbl.replace reach v (bfs v)) (List.nth dag.G.d_layers (l - 1)))
    tc_layers;
  {
    tree = G.full_binary_tree ~depth:tree_depth ();
    dag;
    chains = Workload.Rulegen.chains ~clusters:200 ~rules_per_cluster:5 ();
    reach;
  }

let build input _replica =
  let s = Session.create () in
  Engine.set_sanitize (Session.engine s) false;
  H.ok "parent" (Q.setup_parent s input.tree.G.t_edges);
  H.ok "edge" (Q.setup_edge s input.dag.G.d_edges);
  let base = input.chains.Workload.Rulegen.base_pred in
  H.ok "chain base"
    (Session.define_base s base [ ("x", Rdbms.Datatype.TInt); ("y", Rdbms.Datatype.TInt) ] ());
  ignore
    (H.ok "chain facts"
       (Session.add_facts s base (List.init 8 (fun i -> [ Rdbms.Value.Int i; Rdbms.Value.Int (i + 1) ]))));
  H.ok "rules" (Session.load_rules s (Q.ancestor_rules ^ Q.same_generation_rules ^ Q.tc_rules));
  List.iter
    (fun c -> H.ok "chain rule" (Core.Workspace.add_clause (Session.workspace s) c))
    input.chains.Workload.Rulegen.clauses;
  ignore (H.ok "store rules" (Session.update_stored s ~clear:true ()));
  s

type kind =
  | Anc of int  (** subtree height of the start node *)
  | Sg of int  (** tree level of the start node *)
  | Tc of int  (** DAG layer of the start node *)

(* Sizes with similar cost form four latency tiers, of about 2.5, 5, 11
   and 24 ms on a 2-vCPU x86-64 VM, each with one goal of every class: a
   round of ten goals takes 3 from the first, 4 from the second, 2 from
   the third and 1 from the last, rotating within tiers.
   The median then falls inside the second tier and p95 inside the
   last, never in the sparse gap between two tiers, where a small shift
   of the mix would move them a lot. The seed never changes the mix. *)
let round_kinds r =
  let rot tier k = List.nth tier ((r + k) mod List.length tier) in
  let b = [ Anc 8; Sg 11; Tc 8 ] and c = [ Anc 9; Sg 12; Tc 7 ] and d = [ Anc 10; Sg 13; Tc 6 ] in
  [ Anc 7; Sg 10; Tc 9 ] @ b @ [ rot b 0; rot c 0; rot c 1; rot d 0 ]

let goal rng input = function
  | Anc h ->
      let level = tree_depth - h + 1 in
      (Q.ancestor_goal ((1 lsl (level - 1)) + Rng.int rng (1 lsl (level - 1))), Count ((1 lsl h) - 2))
  | Sg l -> (Q.same_generation_goal ((1 lsl (l - 1)) + Rng.int rng (1 lsl (l - 1))), Count (1 lsl (l - 1)))
  | Tc layer ->
      let v = Rng.pick rng (Array.of_list (List.nth input.dag.G.d_layers (layer - 1))) in
      (Q.tc_goal_from v, Reach (Hashtbl.find input.reach v))

let round_goals rng input r =
  let goals = Array.of_list (List.map (goal rng input) (round_kinds r)) in
  Rng.shuffle rng goals;
  Array.to_list goals

let verify expect (a : Session.answer) =
  let rows = a.Session.run.Core.Runtime.rows in
  match expect with
  | Count n -> List.length rows = n
  | Reach nodes ->
      let last row =
        match row.(Array.length row - 1) with Rdbms.Value.Int v -> v | _ -> min_int
      in
      List.sort compare (List.map last rows) = nodes

let options = { Session.default_options with optimize = Core.Compiler.Opt_auto }

(* the layer counters of one traced goal, with its reported children *)
let record_answer sums tr call (a : Session.answer) =
  let c = a.Session.compiled and run = a.Session.run in
  let comp = H.Spans.reported tr call ~at:call.H.Spans.start "compiler" c.Core.Compiler.compile_ms in
  H.Spans.reported_phases tr comp ~prefix:"compiler." (Phases.to_list c.Core.Compiler.phases);
  let rt = H.Spans.reported tr call ~at:comp.H.Spans.stop "runtime" run.Core.Runtime.exec_ms in
  H.Spans.reported_phases tr rt ~prefix:"runtime." (Phases.to_list run.Core.Runtime.phases);
  let add = H.Sums.add sums and addi = H.Sums.addi sums in
  add "compiler.compile_ms" c.Core.Compiler.compile_ms;
  List.iter
    (fun p -> add ("compiler." ^ p ^ "_ms") (Phases.get c.Core.Compiler.phases p))
    [ "extract"; "semantic"; "codegen" ];
  add "runtime.exec_ms" run.Core.Runtime.exec_ms;
  List.iter
    (fun p -> add ("runtime." ^ p ^ "_ms") (Phases.get run.Core.Runtime.phases p))
    [ "eval"; "termination"; "copy"; "create_drop" ];
  addi "runtime.iterations" (List.fold_left (fun acc (_, n) -> acc + n) 0 run.Core.Runtime.iterations);
  addi "runtime.rows_inserted" run.Core.Runtime.io.Stats.rows_inserted;
  addi "runtime.new_tuples"
    (List.fold_left
       (fun acc ip -> List.fold_left (fun acc (_, n) -> acc + n) acc ip.Core.Runtime.ip_deltas)
       0 run.Core.Runtime.profile)

let run (cfg : H.config) =
  let input = generate cfg.H.seed in
  let s, setup_s = H.replicated_setup ~teardown:ignore (build input) in
  let engine = Session.engine s in
  let rng = Rng.create (cfg.H.seed + 1) in
  let queue = ref [] and round = ref 0 in
  let next_goal () =
    if !queue = [] then begin
      queue := round_goals rng input !round;
      incr round
    end;
    match !queue with
    | g :: rest ->
        queue := rest;
        g
    | [] -> assert false
  in
  (* warm-up: thirty rounds, so statement and plan caches are filled and
     the heap has grown most of the way to its steady size before timing *)
  for _ = 1 to 300 do
    let goal, _ = next_goal () in
    ignore (H.ok "warm-up goal" (Session.query_goal s ~options goal))
  done;
  let sums = H.Sums.create () in
  let tr = H.Spans.create () in
  let op ~traced i =
    let goal, expect = next_goal () in
    if not traced then begin
      let t0 = H.now () in
      let r = Session.query_goal s ~options goal in
      let t1 = H.now () in
      (H.ms_between t0 t1, match r with Ok a -> verify expect a | Error _ -> false)
    end
    else begin
      let root = H.Spans.root tr ~op:i "op" in
      let st0 = Stats.copy (Engine.stats engine) and gc0 = Gc.quick_stat () in
      let call = H.Spans.child tr root "session.query_goal" in
      let r = Session.query_goal s ~options goal in
      H.Spans.close call;
      let gc1 = Gc.quick_stat () and d = Stats.diff (Engine.stats engine) st0 in
      (match r with Ok a -> record_answer sums tr call a | Error _ -> ());
      H.Sums.addi sums "engine.statements" d.Stats.statements;
      H.Sums.addi sums "engine.plans_built" d.Stats.plan_cache_misses;
      H.Sums.addi sums "engine.plan_hits" d.Stats.plan_cache_hits;
      H.Sums.add sums "gc.minor_mwords" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      H.Sums.addi sums "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
      let check = H.Spans.child tr root "verify" in
      let ok = match r with Ok a -> verify expect a | Error _ -> false in
      H.Spans.close check;
      H.Spans.close root;
      (H.Spans.dur call, ok)
    end
  in
  let tally = H.tally () in
  let start = H.now () in
  H.run_loop ~start ~seconds:cfg.H.seconds ~trace:cfg.H.trace tally op;
  {
    H.setup_s;
    start;
    tallies = [ tally ];
    peak_rss_mb = H.peak_rss_mb "self";
    checks_ok = true;
    sums;
    layer_ops = tally.H.traced_ops;
    spans = [ tr ];
  }
