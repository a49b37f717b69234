(* Paged-storage bench: simulated and measured page I/O side by side.

   With storage attached, base tables live in slotted-page heap files
   behind a buffer pool smaller than the dataset. Two counters are
   reported and never added together: the simulated [page_reads] of the
   paper's cost model (the same as for an in-memory table) and the pool's
   measured misses. Three parts:

   Part 1 — the joins bench's skewed 3-way join, disk-backed, with the
   pool sized to a quarter of the dataset. The cold run's simulated
   page_reads are compared against the planner's cost estimate (the CI
   gate: within 2x) and a warm re-run must not miss more often; a table
   that fits in the pool must re-scan with zero misses.

   Part 2 — the magic-sets ancestor LFP over a disk-backed parent
   relation: the per-iteration scratch tables stay purely in memory (the
   session's persist filter), only the base relation pages through the
   pool, and the answers equal an all-in-memory run.

   Part 3 — capacity: the dataset is at least 4x the pool, the whole
   bench ran through that pool (load, ANALYZE, joins, LFP), and nothing
   was kept resident beyond the pool's frame count. *)

module Session = Core.Session
module Engine = Rdbms.Engine
module Stats = Rdbms.Stats
module Pool = Rdbms.Buffer_pool

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dkb_storage_bench_%d_%s" (Unix.getpid ()) tag)
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let dataset_pages engine =
  List.fold_left (fun acc (_, h) -> acc + Rdbms.Heap.page_count h) 0 (Engine.storage_heaps engine)

(* ------------------------------------------------------------------ *)
(* Part 1: skewed 3-way join, disk-backed *)

type join_run = {
  jr_rows : int;
  jr_reads : int; (* simulated: the Stats page_reads delta *)
  jr_misses : int; (* measured: the pool's miss delta *)
  jr_est : float; (* planner cost estimate for the same statement *)
}

let run_join engine sql last_est =
  let stats = Engine.stats engine in
  let pool = Option.get (Engine.buffer_pool engine) in
  let before = Stats.copy stats in
  let m0 = Pool.misses pool in
  let rows =
    match Engine.exec engine sql with
    | Engine.Rows { rows; _ } -> List.length rows
    | _ -> 0
  in
  let delta = Stats.diff stats before in
  {
    jr_rows = rows;
    jr_reads = delta.Stats.page_reads;
    jr_misses = Pool.misses pool - m0;
    jr_est = (match !last_est with Some e -> e.Rdbms.Cost.cost | None -> 0.0);
  }

let skewed_part ~n () =
  let dir = fresh_dir "skewed" in
  (* baseline: the same data and query all in memory *)
  let mem_engine = Joins.skewed_setup n () in
  let mem_rows =
    match Engine.exec mem_engine Joins.skewed_sql with
    | Engine.Rows { rows; _ } -> List.length rows
    | _ -> 0
  in
  (* disk-backed: build in memory, then attach to learn the dataset's
     page footprint, then re-attach with a pool a quarter of it — the
     second attach rewrites every heap through that small pool, which is
     already the capacity check working *)
  let engine = Joins.skewed_setup n () in
  Engine.attach_storage engine ~dir ~pool_pages:256 ();
  let pages = dataset_pages engine in
  Engine.close_storage engine;
  let pool_pages = max 1 (pages / 4) in
  Engine.attach_storage engine ~dir ~pool_pages ();
  ignore (Engine.exec engine "ANALYZE" : Engine.result);
  let last_est = ref None in
  Engine.set_trace_hook engine
    (Some
       (function
       | Engine.Tr_stmt_end { est = Some e; _ } -> last_est := Some e
       | _ -> ()));
  Engine.drop_page_cache engine;
  let cold = run_join engine Joins.skewed_sql last_est in
  let warm = run_join engine Joins.skewed_sql last_est in
  (* a relation that fits in the pool re-scans without a single miss
     (a scan that projects a column: COUNT(star) would answer from the
     cardinality without reading the heap) *)
  let small_cold = run_join engine "SELECT sv FROM small" last_est in
  let small_warm = run_join engine "SELECT sv FROM small" last_est in
  Engine.set_trace_hook engine None;
  Engine.close_storage engine;
  remove_dir dir;
  (mem_rows, pages, pool_pages, cold, warm, small_cold, small_warm)

(* ------------------------------------------------------------------ *)
(* Part 2: magic-sets ancestor LFP over a disk-backed parent *)

type lfp_run = {
  lr_answers : int;
  lr_reads : int;
  lr_misses : int;
}

let lfp_query s ~optimize head =
  let options = { Session.default_options with optimize } in
  Common.ok (Session.query_goal s ~options (Workload.Queries.ancestor_goal head))

(* One LFP evaluation against a cold cache, with the pool-miss delta. *)
let lfp_measure s ~optimize head =
  let engine = Session.engine s in
  let pool = Option.get (Engine.buffer_pool engine) in
  Engine.drop_page_cache engine;
  let stats = Engine.stats engine in
  let before = Stats.copy stats in
  let m0 = Pool.misses pool in
  let answer = lfp_query s ~optimize head in
  let delta = Stats.diff stats before in
  {
    lr_answers = List.length answer.Session.run.Core.Runtime.rows;
    lr_reads = delta.Stats.page_reads;
    lr_misses = Pool.misses pool - m0;
  }

let lfp_part ~scale () =
  let dir = fresh_dir "lfp" in
  let rng = Dkb_util.Rng.create 77 in
  let count, avg_length =
    match scale with Common.Full -> (120, 12) | Common.Quick -> (40, 8)
  in
  let ls = Workload.Graphgen.lists ~rng ~count ~avg_length in
  let head = List.hd ls.Workload.Graphgen.l_heads in
  (* in-memory baseline *)
  let s0 = Common.bench_session () in
  Common.ok (Workload.Queries.setup_parent s0 ls.Workload.Graphgen.l_edges);
  Common.ok (Session.load_rules s0 Workload.Queries.ancestor_rules);
  let baseline =
    List.length (lfp_query s0 ~optimize:Core.Compiler.Opt_off head).Session.run.Core.Runtime.rows
  in
  (* disk-backed runs through a small pool: the full ancestor LFP
     seq-scans parent from the heap every iteration; the magic-sets
     rewrite reaches it only through the (in-memory) hash index *)
  let s = Common.bench_session () in
  Common.ok (Session.attach_storage s ~dir ~pool_pages:8 ());
  Common.ok (Workload.Queries.setup_parent s ls.Workload.Graphgen.l_edges);
  Common.ok (Session.load_rules s Workload.Queries.ancestor_rules);
  let full = lfp_measure s ~optimize:Core.Compiler.Opt_off head in
  let magic = lfp_measure s ~optimize:Core.Compiler.Opt_on head in
  let engine = Session.engine s in
  let heaps = List.map fst (Engine.storage_heaps engine) in
  Engine.close_storage engine;
  remove_dir dir;
  (ls, baseline, full, magic, heaps)

(* ------------------------------------------------------------------ *)

let run ?(json_path = "BENCH_storage.json") ~scale () =
  Common.section "Paged-storage bench (heap files + buffer pool)"
    "Simulated page_reads (the cost model) beside measured buffer-pool\n\
     misses, with the pool a quarter of the dataset: cold vs warm on the\n\
     skewed 3-way join (cold simulated page_reads within 2x of the cost\n\
     estimate is the CI gate), the magic-sets ancestor LFP over a\n\
     disk-backed base relation, and the dataset >= 4x pool capacity\n\
     check. Writes BENCH_storage.json.";
  let n = match scale with Common.Full -> 3000 | Common.Quick -> 750 in

  (* --- part 1: skewed 3-way join ------------------------------------ *)
  let mem_rows, pages, pool_pages, cold, warm, small_cold, small_warm = skewed_part ~n () in
  Printf.printf "  skewed 3-way join (big=%d rows, %d heap pages, %d-frame pool)\n" n pages
    pool_pages;
  Common.print_table
    ~header:[ "run"; "rows"; "simulated page_reads"; "measured misses"; "est cost" ]
    [
      [ "cold"; string_of_int cold.jr_rows; string_of_int cold.jr_reads;
        string_of_int cold.jr_misses; Printf.sprintf "%.1f" cold.jr_est ];
      [ "warm"; string_of_int warm.jr_rows; string_of_int warm.jr_reads;
        string_of_int warm.jr_misses; Printf.sprintf "%.1f" warm.jr_est ];
    ];
  let est_ratio = if cold.jr_est > 0.0 then float_of_int cold.jr_reads /. cold.jr_est else 0.0 in
  let gate_estimate = est_ratio >= 0.5 && est_ratio <= 2.0 in
  let gate_capacity = pages >= 4 * pool_pages && cold.jr_rows = mem_rows in
  ignore (Common.shape "disk-backed join returns the in-memory rows" (cold.jr_rows = mem_rows));
  ignore
    (Common.shape
       (Printf.sprintf "cold simulated page_reads within 2x of the cost estimate (%.2fx)" est_ratio)
       gate_estimate);
  ignore (Common.shape "warm run misses no more than cold" (warm.jr_misses <= cold.jr_misses));
  ignore
    (Common.shape "pool-resident table re-scans with zero misses"
       (small_cold.jr_misses >= 0 && small_warm.jr_misses = 0));
  ignore
    (Common.shape
       (Printf.sprintf "dataset >= 4x pool (%d pages vs %d frames)" pages pool_pages)
       gate_capacity);

  (* --- part 2: LFP over disk-backed base ---------------------------- *)
  let ls, baseline, full, magic, heaps = lfp_part ~scale () in
  Printf.printf "\n  ancestor LFP on lists (%d edges, 8-frame pool)\n"
    (List.length ls.Workload.Graphgen.l_edges);
  Common.print_table
    ~header:[ "variant"; "answers"; "simulated page_reads"; "measured misses" ]
    [
      [ "full"; string_of_int full.lr_answers; string_of_int full.lr_reads;
        string_of_int full.lr_misses ];
      [ "magic"; string_of_int magic.lr_answers; string_of_int magic.lr_reads;
        string_of_int magic.lr_misses ];
    ];
  let mangled name =
    let n = String.length name in
    let rec go i = i + 1 < n && ((name.[i] = '_' && name.[i + 1] = '_') || go (i + 1)) in
    go 0
  in
  let gate_lfp = full.lr_answers = baseline && magic.lr_answers = baseline in
  ignore (Common.shape "both LFP variants return the in-memory answers" gate_lfp);
  ignore (Common.shape "full LFP reads the base relation from disk" (full.lr_misses > 0));
  ignore
    (Common.shape "magic-sets avoids base-table misses (index probes only)"
       (magic.lr_misses <= full.lr_misses));
  ignore
    (Common.shape "no LFP scratch table got a heap file" (not (List.exists mangled heaps)));

  (* --- BENCH_storage.json ------------------------------------------- *)
  let json =
    Printf.sprintf
      {|{
  "experiment": "storage",
  "skewed_3way": {
    "big_rows": %d,
    "dataset_pages": %d,
    "pool_pages": %d,
    "cold": { "rows": %d, "page_reads": %d, "pool_misses": %d, "est_cost": %.1f },
    "warm": { "rows": %d, "page_reads": %d, "pool_misses": %d },
    "small_rescan_misses": %d,
    "est_ratio": %.3f
  },
  "lfp": {
    "edges": %d,
    "full": { "answers": %d, "page_reads": %d, "pool_misses": %d },
    "magic": { "answers": %d, "page_reads": %d, "pool_misses": %d },
    "heaps": %d
  },
  "gate_cold_within_2x": %b,
  "gate_capacity_4x": %b,
  "gate_lfp_answers": %b
}
|}
      n pages pool_pages cold.jr_rows cold.jr_reads cold.jr_misses cold.jr_est warm.jr_rows
      warm.jr_reads warm.jr_misses small_warm.jr_misses est_ratio
      (List.length ls.Workload.Graphgen.l_edges)
      full.lr_answers full.lr_reads full.lr_misses magic.lr_answers magic.lr_reads
      magic.lr_misses (List.length heaps) gate_estimate gate_capacity gate_lfp
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n" json_path
