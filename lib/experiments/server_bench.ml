(* Server bench: the wire protocol under concurrent clients.

   Three questions about the multi-session server, answered with wall
   clocks on one in-process server and real TCP clients:

   - throughput scaling: N clients of mixed point-SELECT/INSERT traffic
     against one client of the same traffic — the cooperative loop must
     amortize its select/dispatch overhead across connections, not
     serialize clients behind each other;

   - reader/writer interference: a snapshot reader's SELECT latency
     while another connection runs back-to-back LFP derivations and base
     churn, against the same reader on an idle server — the query pump
     must keep pinned readers flowing between LFP iterations;

   - snapshot consistency: every read the loaded reader performs must
     see the exact row count pinned at BEGIN SNAPSHOT, writer churn
     notwithstanding.

   Writes BENCH_server.json. *)

module Server = Dkb_server.Server
module Client = Dkb_server.Client
module Engine = Rdbms.Engine
module Session = Core.Session
module P = Dkb_util.Percentile
module Timer = Dkb_util.Timer
module D = Rdbms.Datatype

let ok = function Ok v -> v | Error msg -> failwith msg
let cok = function Ok v -> v | Error msg -> failwith ("client: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Server lifecycle *)

let with_server ~seed f =
  let engine = Engine.create () in
  seed (Session.of_engine engine);
  let server = Server.create engine in
  let th = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join th)
    (fun () -> f (Server.port server))

let connect port = cok (Client.connect ~port ())

(* ------------------------------------------------------------------ *)
(* Mixed-traffic client: prepared point SELECTs with an INSERT every
   [wstride] ops (auto-commit, so concurrent clients never hold the
   writer gate). Closed-loop with a fixed think time between requests —
   the standard interactive-session load model: aggregate throughput
   then measures how many such sessions the server multiplexes, not how
   fast one core ping-pongs, so the scaling gate is meaningful on any
   host. Latency samples cover only the request round trip. *)

let think_s = 0.001

(* cycle the point-select key over a hot set of ids. Each EXEC binds its
   key to the connection's template, parsed and planned once, so every
   key reuses that plan; the set only bounds the rows the reads touch *)
let hot_keys = 64

let worker ~rows ~ops ~wstride ~base c =
  let keyspace = min rows hot_keys in
  let samples = ref [] in
  for k = 0 to ops - 1 do
    let t0 = Timer.now_ms () in
    (if k mod wstride = wstride - 1 then
       let uid = base + k in
       ignore (cok (Client.sql c (Printf.sprintf "INSERT INTO acct VALUES (%d, %d)" uid uid)))
     else ignore (cok (Client.exec c "pt" [ string_of_int (k mod keyspace) ])));
    samples := (Timer.now_ms () -. t0) :: !samples;
    Thread.delay think_s
  done;
  !samples

type phase = {
  ph_ops : int;
  ph_elapsed_ms : float;
  ph_ops_per_sec : float;
  ph_latency : P.summary;
}

let phase_of ~ops ~elapsed_ms samples =
  {
    ph_ops = ops;
    ph_elapsed_ms = elapsed_ms;
    ph_ops_per_sec = (if elapsed_ms > 0.0 then float_of_int ops /. (elapsed_ms /. 1000.0) else 0.0);
    ph_latency = P.summarize samples;
  }

(* connect/prepare/warm up outside the timed window, then time the ops *)
let run_clients ~port ~rows ~ops ~wstride ~tag n =
  let clients = List.init n (fun _ -> connect port) in
  Fun.protect ~finally:(fun () -> List.iter Client.close clients) @@ fun () ->
  List.iter
    (fun c ->
      ignore (cok (Client.prepare c "pt" "SELECT bal FROM acct WHERE id = ?1"));
      ignore (cok (Client.exec c "pt" [ "0" ])))
    clients;
  let results = Array.make n [] in
  let t0 = Timer.now_ms () in
  let threads =
    List.mapi
      (fun id c ->
        let base = tag + (id * ops) in
        Thread.create (fun () -> results.(id) <- worker ~rows ~ops ~wstride ~base c) ())
      clients
  in
  List.iter Thread.join threads;
  let elapsed = Timer.now_ms () -. t0 in
  phase_of ~ops:(n * ops) ~elapsed_ms:elapsed
    (Array.fold_left (fun acc s -> s @ acc) [] results)

(* ------------------------------------------------------------------ *)
(* Interference: a snapshot reader measured idle, then with a writer
   connection running LFP derivations and base churn back to back. *)

(* the reader's analytical query: a self-equijoin count — ids are unique,
   so the count equals the pinned row count, which doubles as the
   snapshot-consistency probe *)
let reader_sql = "SELECT COUNT(*) FROM acct a1, acct a2 WHERE a1.id = a2.id"

let reader_pass reader ~reads ~expect =
  let consistent = ref true in
  let samples = ref [] in
  for _ = 1 to reads do
    let t0 = Timer.now_ms () in
    let r = cok (Client.sql reader reader_sql) in
    samples := (Timer.now_ms () -. t0) :: !samples;
    (match Client.rows r with
    | [ [ n ] ] -> if n <> expect then consistent := false
    | _ -> consistent := false)
  done;
  (!samples, !consistent)

let interference ~port ~reads ~chain:_ =
  let reader = connect port in
  let writer = connect port in
  Fun.protect
    ~finally:(fun () ->
      Client.close writer;
      Client.close reader)
  @@ fun () ->
  ignore (cok (Client.begin_snapshot reader));
  let expect =
    match Client.rows (cok (Client.sql reader reader_sql)) with
    | [ [ n ] ] -> n
    | _ -> failwith "bad COUNT shape"
  in
  (* idle: nobody else is talking to the server *)
  let idle_t0 = Timer.now_ms () in
  let idle_samples, idle_ok = reader_pass reader ~reads ~expect in
  let idle_elapsed = Timer.now_ms () -. idle_t0 in
  (* loaded: the writer churns the base and runs the ancestor LFP in a
     loop until the reader finishes its pass *)
  let stop = Atomic.make false in
  let queries = Atomic.make 0 in
  let churn = Atomic.make 0 in
  let wth =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let uid = 2_000_000 + Atomic.get churn in
          Atomic.incr churn;
          ignore (cok (Client.sql writer (Printf.sprintf "INSERT INTO acct VALUES (%d, 0)" uid)));
          ignore (cok (Client.query writer "ancestor(0, W)"));
          Atomic.incr queries
        done)
      ()
  in
  (* wait until at least one derivation is running before measuring *)
  while Atomic.get queries = 0 do
    Thread.yield ()
  done;
  let load_t0 = Timer.now_ms () in
  let load_samples, load_ok = reader_pass reader ~reads ~expect in
  let load_elapsed = Timer.now_ms () -. load_t0 in
  Atomic.set stop true;
  Thread.join wth;
  cok (Client.commit reader);
  ( phase_of ~ops:reads ~elapsed_ms:idle_elapsed idle_samples,
    phase_of ~ops:reads ~elapsed_ms:load_elapsed load_samples,
    idle_ok && load_ok,
    Atomic.get queries )

(* ------------------------------------------------------------------ *)

let phase_row label p =
  [
    label;
    string_of_int p.ph_ops;
    Printf.sprintf "%.0f" p.ph_ops_per_sec;
    Common.fmt_ms p.ph_latency.P.p50_ms;
    Common.fmt_ms p.ph_latency.P.p95_ms;
    Common.fmt_ms p.ph_latency.P.p99_ms;
  ]

let run ?(json_path = "BENCH_server.json") ~scale () =
  Common.section "Server bench (concurrent sessions over the wire)"
    "One in-process dkbd server, real TCP clients: mixed-traffic\n\
     throughput at 1 and N clients, and a snapshot reader's latency\n\
     with and without a concurrent LFP writer. Writes BENCH_server.json.";
  let rows, ops, reads, chain, clients =
    match scale with
    | Common.Full -> (2000, 600, 400, 80, 8)
    | Common.Quick -> (500, 150, 120, 40, 8)
  in
  let seed s =
    ok (Session.sql s "CREATE TABLE acct (id integer, bal integer)" |> Result.map ignore);
    let rec batches lo =
      if lo < rows then begin
        let hi = min rows (lo + 256) in
        let vals =
          String.concat ", " (List.init (hi - lo) (fun i -> Printf.sprintf "(%d, %d)" (lo + i) (lo + i)))
        in
        ok (Session.sql s ("INSERT INTO acct VALUES " ^ vals) |> Result.map ignore);
        batches hi
      end
    in
    batches 0;
    ok (Session.sql s "CREATE INDEX idx_acct_id ON acct (id)" |> Result.map ignore);
    ok (Workload.Queries.setup_parent s (List.init chain (fun i -> (i, i + 1))));
    ok (Session.load_rules s Workload.Queries.ancestor_rules);
    (* persist the rules so every connection's fresh session sees them *)
    ignore (ok (Session.update_stored s ()))
  in
  with_server ~seed @@ fun port ->
  (* throughput: same per-client op count in both phases *)
  let single = run_clients ~port ~rows ~ops ~wstride:8 ~tag:1_000_000 1 in
  let multi = run_clients ~port ~rows ~ops ~wstride:8 ~tag:3_000_000 clients in
  let scaling =
    if single.ph_ops_per_sec > 0.0 then multi.ph_ops_per_sec /. single.ph_ops_per_sec else 0.0
  in
  let idle, loaded, consistent, writer_queries = interference ~port ~reads ~chain in
  let p95_ratio =
    if idle.ph_latency.P.p95_ms > 0.0 then loaded.ph_latency.P.p95_ms /. idle.ph_latency.P.p95_ms
    else 0.0
  in
  Common.print_table
    ~header:[ "phase"; "ops"; "ops/s"; "p50"; "p95"; "p99" ]
    [
      phase_row "1 client" single;
      phase_row (Printf.sprintf "%d clients" clients) multi;
      phase_row "reader idle" idle;
      phase_row "reader + LFP writer" loaded;
    ];
  Printf.printf "  scaling %.2fx at %d clients; reader p95 ratio %.2fx (%d writer derivations)\n"
    scaling clients p95_ratio writer_queries;
  let scaling_target = 2.0 in
  let ratio_target = 3.0 in
  let g_scaling = scaling >= scaling_target in
  let g_ratio = p95_ratio <= ratio_target in
  ignore
    (Common.shape
       (Printf.sprintf "%d-client throughput >= %.0fx single client" clients scaling_target)
       g_scaling);
  ignore
    (Common.shape
       (Printf.sprintf "reader p95 under writer load <= %.0fx idle" ratio_target)
       g_ratio);
  ignore (Common.shape "snapshot reads pinned and consistent throughout" consistent);
  let json =
    Printf.sprintf
      {|{
  "bench": "server",
  "scale": "%s",
  "traffic": { "select_rows": %d, "ops_per_client": %d, "insert_every": 8, "think_ms": 1.0 },
  "single_client": { "ops": %d, "elapsed_ms": %.1f, "ops_per_sec": %.1f, "latency": %s },
  "multi_client": { "clients": %d, "ops": %d, "elapsed_ms": %.1f, "ops_per_sec": %.1f, "latency": %s,
    "scaling": %.2f, "target_scaling": %.1f, "met": %b },
  "interference": { "reader_ops": %d, "chain_edges": %d, "writer_queries": %d,
    "idle_latency": %s,
    "loaded_latency": %s,
    "p95_ratio": %.2f, "target_ratio": %.1f, "met": %b, "consistent": %b }
}
|}
      (match scale with Common.Full -> "full" | Common.Quick -> "quick")
      rows ops single.ph_ops single.ph_elapsed_ms single.ph_ops_per_sec
      (P.json single.ph_latency) clients multi.ph_ops multi.ph_elapsed_ms
      multi.ph_ops_per_sec (P.json multi.ph_latency) scaling scaling_target g_scaling
      reads chain writer_queries (P.json idle.ph_latency) (P.json loaded.ph_latency)
      p95_ratio ratio_target g_ratio consistent
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n" json_path
