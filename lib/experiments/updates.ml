(* Incremental-maintenance bench: a live graph under single-edge
   insert/delete traffic.

   Each scenario materializes a view (the non-recursive two-hop, or the
   recursive ancestor/tc clique), then cycles a handful of edges —
   delete, re-insert — twice per edge:

   - incremental: the session's Auto maintenance (DRed) propagates the
     delta through the registered views;
   - recompute: the same traffic with maintenance Off, so every update
     fully re-evaluates the views (the pre-maintenance behaviour).

   The headline is the per-update median wall-clock of each column and
   their ratio. Deletes and re-inserts are two populations (a DRed
   delete over-deletes and rederives; a re-insert only propagates), so
   each column also reports them apart: median, mean and p95 per kind. A
   differential check re-derives every view from scratch after the
   traffic and requires tuple-identical contents. Writes
   BENCH_updates.json. *)

module Session = Core.Session
module Incremental = Core.Incremental
module Engine = Rdbms.Engine
module Stats = Rdbms.Stats
module Graphgen = Workload.Graphgen
module Timer = Dkb_util.Timer
module D = Rdbms.Datatype
module V = Rdbms.Value

let row_of (a, b) = [ V.Int a; V.Int b ]

let ancestor_rules =
  "anc(X, Y) :- edge(X, Y).\nanc(X, Y) :- edge(X, Z), anc(Z, Y).\n"

let twohop_rules = "hop2(X, Y) :- edge(X, Z), edge(Z, Y).\n"

let session ~edges ~rules ~roots ~mode =
  let s = Common.bench_session () in
  Common.ok (Session.define_base s "edge" [ ("src", D.TInt); ("dst", D.TInt) ] ~indexes:[ "src" ] ());
  ignore (Common.ok (Session.add_facts s "edge" (Graphgen.to_rows edges)));
  Common.ok (Session.load_rules s rules);
  ignore (Common.ok (Session.update_stored s ~clear:true ()));
  Session.set_maintenance s mode;
  List.iter (fun r -> ignore (Common.ok (Session.materialize s r))) roots;
  s

(* spread picks [n] edges evenly over the list *)
let spread n edges =
  let arr = Array.of_list edges in
  let len = Array.length arr in
  if len <= n then Array.to_list arr
  else List.init n (fun i -> arr.(i * len / n))

type column = {
  c_per_update_ms : float;  (** median wall-clock per single-edge update *)
  c_latency : Dkb_util.Percentile.summary;  (** full per-update latency distribution *)
  c_delete : Dkb_util.Percentile.summary;  (** the deletes alone *)
  c_reinsert : Dkb_util.Percentile.summary;  (** the re-inserts alone *)
  c_maintained : int;
  c_fallbacks : int;
  c_ok : bool;  (** views tuple-identical to a from-scratch LFP at the end *)
}

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

let check_views s goals =
  List.for_all
    (fun (pred, goal) ->
      let answer = Common.ok (Session.query s goal) in
      sorted_rows (snd (Session.answer_rows answer))
      = sorted_rows (Common.ok (Session.view_rows s pred)))
    goals

let drive ~edges ~rules ~roots ~goals ~traffic ~mode () =
  let s = session ~edges ~rules ~roots ~mode in
  let stats = Engine.stats (Session.engine s) in
  let fallbacks0 = stats.Stats.maint_fallbacks in
  let maintained = ref 0 in
  let deletes = ref [] and reinserts = ref [] in
  let update op rows =
    let t0 = Timer.now_ms () in
    let r, samples =
      match op with
      | `Del -> (Session.delete_facts s "edge" rows, deletes)
      | `Ins -> (Session.insert_facts s "edge" rows, reinserts)
    in
    let r = Common.ok r in
    samples := (Timer.now_ms () -. t0) :: !samples;
    if r.Incremental.maintained then incr maintained
  in
  for _ = 1 to 2 do
    List.iter
      (fun e ->
        update `Del [ row_of e ];
        update `Ins [ row_of e ])
      traffic
  done;
  let samples = !deletes @ !reinserts in
  {
    c_per_update_ms = Common.median samples;
    c_latency = Dkb_util.Percentile.summarize samples;
    c_delete = Dkb_util.Percentile.summarize !deletes;
    c_reinsert = Dkb_util.Percentile.summarize !reinserts;
    c_maintained = !maintained;
    c_fallbacks = stats.Stats.maint_fallbacks - fallbacks0;
    c_ok = check_views s goals;
  }

type scenario = {
  sc_name : string;
  sc_recursive : bool;
  sc_edges : int;
  sc_incr : column;
  sc_recomp : column;
}

let speedup sc =
  if sc.sc_incr.c_per_update_ms > 0. then
    sc.sc_recomp.c_per_update_ms /. sc.sc_incr.c_per_update_ms
  else infinity

let scenario ~name ~recursive ~edges ~rules ~roots ~goals ~traffic =
  let incr = drive ~edges ~rules ~roots ~goals ~traffic ~mode:Incremental.Auto () in
  let recomp = drive ~edges ~rules ~roots ~goals ~traffic ~mode:Incremental.Off () in
  {
    sc_name = name;
    sc_recursive = recursive;
    sc_edges = List.length edges;
    sc_incr = incr;
    sc_recomp = recomp;
  }

let scenario_json sc =
  Printf.sprintf
    {|    { "name": "%s", "strategy": "dred", "edges": %d, "incremental_ms": %.4f, "recompute_ms": %.4f, "speedup": %.2f, "maintained": %d, "fallbacks": %d, "ok": %b,
      "incremental_latency": %s,
      "incremental_delete_latency": %s,
      "incremental_reinsert_latency": %s,
      "recompute_latency": %s,
      "recompute_delete_latency": %s,
      "recompute_reinsert_latency": %s }|}
    sc.sc_name sc.sc_edges sc.sc_incr.c_per_update_ms
    sc.sc_recomp.c_per_update_ms (speedup sc) sc.sc_incr.c_maintained
    sc.sc_incr.c_fallbacks
    (sc.sc_incr.c_ok && sc.sc_recomp.c_ok)
    (Dkb_util.Percentile.json sc.sc_incr.c_latency)
    (Dkb_util.Percentile.json sc.sc_incr.c_delete)
    (Dkb_util.Percentile.json sc.sc_incr.c_reinsert)
    (Dkb_util.Percentile.json sc.sc_recomp.c_latency)
    (Dkb_util.Percentile.json sc.sc_recomp.c_delete)
    (Dkb_util.Percentile.json sc.sc_recomp.c_reinsert)

let run ?(json_path = "BENCH_updates.json") ~scale () =
  Common.section "Updates bench (incremental view maintenance)"
    "Single-edge insert/delete traffic against materialized views:\n\
     a non-recursive two-hop and the recursive ancestor over a full\n\
     binary tree and tc over a layered DAG, each maintained by DRed and\n\
     measured against full re-evaluation. Writes BENCH_updates.json.";
  (* quick scale is still big enough that a full re-evaluation visibly
     loses to a single-edge delta — the CI gate relies on that *)
  let depth, (dag_pl, dag_w, dag_f) =
    match scale with
    | Common.Full -> (9, (12, 10, 2))
    | Common.Quick -> (7, (8, 6, 2))
  in
  let tree = Graphgen.full_binary_tree ~depth () in
  (* leaf edges: small D_rel, the paper's favourable single-update case *)
  let leafy =
    let leaf_min = 1 lsl (depth - 1) in
    spread 6 (List.filter (fun (_, c) -> c >= leaf_min) tree.Graphgen.t_edges)
  in
  let rng = Dkb_util.Rng.create 2024 in
  let dag = Graphgen.dag ~rng ~path_length:dag_pl ~width:dag_w ~fan_out:dag_f () in
  let dag_traffic = spread 6 (List.rev dag.Graphgen.d_edges) in
  (* one binding per scenario, so they run in the order the table and
     the JSON list them (a list literal's elements are evaluated right
     to left) *)
  let run_scenarios () =
    let hop2_tree =
      scenario ~name:"hop2_tree" ~recursive:false ~edges:tree.Graphgen.t_edges
        ~rules:twohop_rules ~roots:[ "hop2" ]
        ~goals:[ ("hop2", "hop2(X, Y)") ]
        ~traffic:leafy
    in
    let ancestor_tree =
      scenario ~name:"ancestor_tree" ~recursive:true ~edges:tree.Graphgen.t_edges
        ~rules:ancestor_rules ~roots:[ "anc" ]
        ~goals:[ ("anc", "anc(X, Y)") ]
        ~traffic:leafy
    in
    let tc_dag =
      scenario ~name:"tc_dag" ~recursive:true ~edges:dag.Graphgen.d_edges
        ~rules:ancestor_rules ~roots:[ "anc" ]
        ~goals:[ ("anc", "anc(X, Y)") ]
        ~traffic:dag_traffic
    in
    [ hop2_tree; ancestor_tree; tc_dag ]
  in
  (* a cold process runs its first updates slower (heap growth, the
     first GC cycles): one unrecorded pass warms it, so no scenario's
     numbers depend on where it runs *)
  ignore (run_scenarios () : scenario list);
  let scenarios = run_scenarios () in
  Common.print_table
    ~header:
      [ "scenario"; "strategy"; "edges"; "incr ms"; "recomp ms"; "speedup"; "maint"; "ok" ]
    (List.map
       (fun sc ->
         [
           sc.sc_name;
           "dred";
           string_of_int sc.sc_edges;
           Common.fmt_ms sc.sc_incr.c_per_update_ms;
           Common.fmt_ms sc.sc_recomp.c_per_update_ms;
           Printf.sprintf "%.1fx" (speedup sc);
           Printf.sprintf "%d/%d" sc.sc_incr.c_maintained (2 * (2 * List.length (if sc.sc_name = "tc_dag" then dag_traffic else leafy)));
           (if sc.sc_incr.c_ok && sc.sc_recomp.c_ok then "yes" else "NO");
         ])
       scenarios);
  Printf.printf "\n  per-update ms by kind\n";
  Common.print_table
    ~header:[ "scenario"; "column"; "kind"; "n"; "p50"; "mean"; "p95" ]
    (List.concat_map
       (fun sc ->
         List.map
           (fun (column, kind, (l : Dkb_util.Percentile.summary)) ->
             [
               sc.sc_name; column; kind; string_of_int l.n; Common.fmt_ms l.p50_ms;
               Common.fmt_ms l.mean_ms; Common.fmt_ms l.p95_ms;
             ])
           [
             ("incr", "delete", sc.sc_incr.c_delete);
             ("incr", "re-insert", sc.sc_incr.c_reinsert);
             ("recomp", "delete", sc.sc_recomp.c_delete);
             ("recomp", "re-insert", sc.sc_recomp.c_reinsert);
           ])
       scenarios);
  ignore
    (Common.shape "maintained views tuple-identical to from-scratch LFP"
       (List.for_all (fun sc -> sc.sc_incr.c_ok && sc.sc_recomp.c_ok) scenarios));
  ignore
    (Common.shape "every single-edge update was maintained incrementally"
       (List.for_all (fun sc -> sc.sc_incr.c_fallbacks = 0) scenarios));
  ignore
    (Common.shape "incremental maintenance no slower than recomputation"
       (List.for_all
          (fun sc -> sc.sc_incr.c_per_update_ms <= sc.sc_recomp.c_per_update_ms)
          scenarios));
  (match scale with
  | Common.Full ->
      ignore
        (Common.shape "recursive views maintained >= 5x faster at full scale"
           (List.for_all
              (fun sc -> speedup sc >= 5.0)
              (List.filter (fun sc -> sc.sc_recursive) scenarios)))
  | Common.Quick -> ());
  let json =
    Printf.sprintf
      {|{
  "bench": "updates",
  "scale": "%s",
  "scenarios": [
%s
  ]
}
|}
      (match scale with Common.Full -> "full" | Common.Quick -> "quick")
      (String.concat ",\n" (List.map scenario_json scenarios))
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n" json_path
