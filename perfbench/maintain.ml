(* maintain: update transactions through Session.apply_facts against a
   recursive tc view (DRed) and a non-recursive hop2 view (counting),
   materialized under Auto over 64 disjoint layered DAGs of 10 layers x
   12 nodes with in- and out-degree 2 (13,824 edges; Harness.shuffle_dag).
   Paged storage with the default 64-frame pool, which the edge heap
   overflows, and the WAL are attached.

   Each op moves one edge within its DAG: it deletes (a,b) and inserts
   (a,c) with c from b's layer, and the next op moves it back, so the
   graph returns to its symmetric start after every second op and the
   costs the ops draw from stay the same for every seed and all run
   long. That runs Incremental, the semi-naive loop re-entered by DRed,
   DML, heap reads and writes and WAL appends, with no KM compile — the
   write-side counterpart of derive. On DAGs DRed over-deletes and
   rederives, the tail the LFP data-movement work targets. *)

module Session = Core.Session
module Incremental = Core.Incremental
module Engine = Rdbms.Engine
module Stats = Rdbms.Stats
module Pool = Rdbms.Buffer_pool
module Rng = Dkb_util.Rng
module G = Workload.Graphgen
module Q = Workload.Queries
module V = Rdbms.Value
module H = Harness

let dags = 64
let layers = 10
let width = 12
let hop2_rules = "hop2(X, Y) :- edge(X, Z), edge(Z, Y).\n"

type input = {
  edges : G.edge list;
  layer_of : (int, int array) Hashtbl.t;  (** node -> the nodes of its layer *)
  sources : int array array;  (** per layer but the last, its nodes in all DAGs *)
}

let generate seed =
  let rng = Rng.create seed in
  let layer_of = Hashtbl.create 8192 in
  let edges = ref [] and sources = Array.make (layers - 1) [] in
  for k = 0 to dags - 1 do
    let d = H.shuffle_dag ~rng ~layers ~width ~first_node:((k * layers * width) + 1) in
    edges := List.rev_append d.G.d_edges !edges;
    List.iteri
      (fun l nodes ->
        let arr = Array.of_list nodes in
        List.iter (fun v -> Hashtbl.replace layer_of v arr) nodes;
        if l < layers - 1 then sources.(l) <- List.rev_append nodes sources.(l))
      d.G.d_layers
  done;
  {
    edges = List.rev !edges;
    layer_of;
    sources = Array.map (fun nodes -> Array.of_list (List.rev nodes)) sources;
  }

let build (cfg : H.config) input replica =
  let dir = Filename.concat cfg.H.dir (Printf.sprintf "setup-%d" replica) in
  H.fresh_dir dir;
  let s = Session.create () in
  Engine.set_sanitize (Session.engine s) false;
  H.ok "storage" (Session.attach_storage s ~dir:(Filename.concat dir "heaps") ());
  H.ok "wal" (Session.attach_wal s (Filename.concat dir "wal.log"));
  H.ok "edge"
    (Session.define_base s "edge" [ ("src", Rdbms.Datatype.TInt); ("dst", Rdbms.Datatype.TInt) ]
       ~indexes:[ "src" ] ());
  ignore (H.ok "edges" (Session.add_facts s "edge" (G.to_rows input.edges)));
  H.ok "rules" (Session.load_rules s (Q.tc_rules ^ hop2_rules));
  ignore (H.ok "store rules" (Session.update_stored s ~clear:true ()));
  Session.set_maintenance s Incremental.Auto;
  List.iter (fun v -> ignore (H.ok ("materialize " ^ v) (Session.materialize s v))) [ "tc"; "hop2" ];
  s

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

(* both views tuple-identical to a from-scratch evaluation *)
let views_match s =
  List.for_all
    (fun (pred, goal) ->
      let fresh = snd (Session.answer_rows (H.ok goal (Session.query s goal))) in
      sorted_rows fresh = sorted_rows (H.ok pred (Session.view_rows s pred)))
    [ ("tc", "tc(X, Y)"); ("hop2", "hop2(X, Y)") ]

let run (cfg : H.config) =
  let input = generate cfg.H.seed in
  let s, setup_s = H.replicated_setup ~teardown:ignore (build cfg input) in
  let engine = Session.engine s in
  let pool = Option.get (Engine.buffer_pool engine) in
  (* the op stream's model of the graph: node -> successors *)
  let succ = Hashtbl.create 8192 in
  List.iter
    (fun (a, b) -> Hashtbl.replace succ a (b :: Option.value ~default:[] (Hashtbl.find_opt succ a)))
    input.edges;
  let rng = Rng.create (cfg.H.seed + 1) in
  (* Fresh moves come in rounds of one per source layer, in an order the
     seed shuffles. A move's cost depends mostly on its layer (DRed
     over-deletes the tc pairs from its tail's ancestors to its head's
     descendants), so every run draws the same mix of costs. *)
  let round = ref [] in
  let next_layer () =
    if !round = [] then begin
      let r = Array.init (layers - 1) Fun.id in
      Rng.shuffle rng r;
      round := Array.to_list r
    end;
    let l = List.hd !round in
    round := List.tl !round;
    l
  in
  (* the move the next op undoes, if the last op made a fresh one *)
  let undo = ref None in
  let next_move () =
    match !undo with
    | Some (a, b, c) ->
        undo := None;
        (a, c, b)
    | None ->
        let a = Rng.pick rng input.sources.(next_layer ()) in
        let out = Hashtbl.find succ a in
        let b = List.nth out (Rng.int rng (List.length out)) in
        let layer = Hashtbl.find input.layer_of b in
        let rec pick () =
          let c = Rng.pick rng layer in
          if List.mem c out then pick () else c
        in
        let m = (a, b, pick ()) in
        undo := Some m;
        m
  in
  let apply (a, b, c) =
    Session.apply_facts s
      ~deletes:[ ("edge", [ V.Int a; V.Int b ]) ]
      ~inserts:[ ("edge", [ V.Int a; V.Int c ]) ]
      ()
  in
  let applied (a, b, c) = function
    | Ok r when r.Incremental.base_inserted = 1 && r.Incremental.base_deleted = 1 ->
        Hashtbl.replace succ a (c :: List.filter (( <> ) b) (Hashtbl.find succ a));
        true
    | Ok _ | Error _ ->
        undo := None;
        false
  in
  (* warm-up: two rounds of moves and their undos fill the statement
     cache with the maintenance texts; timing starts at a round's start *)
  for _ = 1 to 4 * (layers - 1) do
    let m = next_move () in
    if not (applied m (apply m)) then failwith "warm-up update failed"
  done;
  let sums = H.Sums.create () in
  let tr = H.Spans.create () in
  let op ~traced i =
    let m = next_move () in
    if not traced then begin
      let t0 = H.now () in
      let r = apply m in
      let t1 = H.now () in
      (H.ms_between t0 t1, applied m r)
    end
    else begin
      let root = H.Spans.root tr ~op:i "op" in
      (* Incremental commits through Engine.commit_txn, outside the
         session's charged scope: WAL and commit counters are only in
         the engine's stats *)
      let st0 = Stats.copy (Engine.stats engine) and gc0 = Gc.quick_stat () in
      let hits0 = Pool.hits pool and misses0 = Pool.misses pool and wb0 = Pool.writebacks pool in
      let call = H.Spans.child tr root "session.apply_facts" in
      let r = apply m in
      H.Spans.close call;
      let gc1 = Gc.quick_stat () and d = Stats.diff (Engine.stats engine) st0 in
      let add = H.Sums.add sums and addi = H.Sums.addi sums in
      (match r with
      | Ok rep ->
          ignore (H.Spans.reported tr call ~at:call.H.Spans.start "incremental.apply" rep.Incremental.total_ms);
          add "incremental.apply_ms" rep.Incremental.total_ms;
          addi "incremental.maintained" (if rep.Incremental.maintained then 1 else 0);
          List.iter
            (fun (_, ins, del) ->
              addi "incremental.view_changes" (ins + del);
              addi "incremental.view_deletions" del)
            rep.Incremental.derived_changes;
          addi "incremental.rederived" rep.Incremental.rederived
      | Error _ -> ());
      addi "engine.statements" d.Stats.statements;
      addi "engine.plans_built" d.Stats.plan_cache_misses;
      addi "engine.plan_hits" d.Stats.plan_cache_hits;
      addi "wal.records" d.Stats.wal_records;
      addi "wal.bytes" d.Stats.wal_bytes;
      addi "wal.writes" d.Stats.txns_committed;
      addi "buffer_pool.hits" (Pool.hits pool - hits0);
      addi "buffer_pool.misses" (Pool.misses pool - misses0);
      addi "buffer_pool.writebacks" (Pool.writebacks pool - wb0);
      add "gc.minor_mwords" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      addi "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
      let check = H.Spans.child tr root "verify" in
      let ok = applied m r in
      H.Spans.close check;
      H.Spans.close root;
      (H.Spans.dur call, ok)
    end
  in
  let tally = H.tally () in
  let start = H.now () in
  H.run_loop ~start ~seconds:cfg.H.seconds ~trace:cfg.H.trace tally op;
  let peak_rss_mb = H.peak_rss_mb "self" in
  {
    H.setup_s;
    start;
    tallies = [ tally ];
    peak_rss_mb;
    checks_ok = views_match s;
    sums;
    layer_ops = tally.H.traced_ops;
    spans = [ tr ];
  }
