(* wire: the shipped dkbd in its own process, started with --wal and a
   --script that seeds acct(id, bal) with 200,000 rows and an index on
   id. Two connections each send, with no think time, seven EXEC point
   SELECTs (keys Zipf with s = 1 over all ids) per autocommitted
   single-row INSERT.

   Protocol parsing, the select loop, SQL parse and plan, the statement
   cache and WAL appends do the work and the LFP none: the bypass case
   for derive. Each EXEC key is its own statement text, so this working
   set overflows the engine's 512-entry statement cache while derive's
   fits. The WAL is flushed to the OS on every commit and never fsync'd,
   the only flush policy the server has. *)

module Client = Dkb_server.Client
module Rng = Dkb_util.Rng
module H = Harness

let rows = 200_000
let connections = 2
let reads_per_write = 7
let insert_base = 1_000_000
let read_template = "SELECT bal FROM acct WHERE id = ?1"
let write_template = "INSERT INTO acct VALUES (?1, ?2)"

type input = {
  balance : int array;  (** seeded balance of every id *)
  zipf_cdf : float array;  (** cumulative weight of ranks 1..rows *)
  key_of_rank : int array;  (** rank -> id, a seed permutation *)
  script : string;  (** path of the --script file *)
}

let generate (cfg : H.config) =
  let rng = Rng.create cfg.H.seed in
  let balance = Array.init rows (fun _ -> Rng.int rng 1_000_000) in
  let key_of_rank = Array.init rows Fun.id in
  Rng.shuffle rng key_of_rank;
  let zipf_cdf = Array.make rows 0.0 in
  let acc = ref 0.0 in
  for r = 0 to rows - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    zipf_cdf.(r) <- !acc
  done;
  let script = Filename.concat cfg.H.dir "seed.sql" in
  Out_channel.with_open_text script (fun oc ->
      output_string oc "CREATE TABLE acct (id integer, bal integer);\n";
      let batch = 1000 in
      for b = 0 to (rows / batch) - 1 do
        output_string oc "INSERT INTO acct VALUES ";
        for i = b * batch to ((b + 1) * batch) - 1 do
          Printf.fprintf oc "%s(%d, %d)" (if i = b * batch then "" else ", ") i balance.(i)
        done;
        output_string oc ";\n"
      done;
      output_string oc "CREATE INDEX idx_acct_id ON acct (id);\n");
  { balance; zipf_cdf; key_of_rank; script }

let zipf_key input rng =
  let cdf = input.zipf_cdf in
  let u = Rng.float rng cdf.(rows - 1) in
  (* first rank whose cumulative weight exceeds u *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) > u then search lo mid else search (mid + 1) hi
  in
  input.key_of_rank.(search 0 (rows - 1))

(* ------------------------------------------------------------------ *)
(* The server process *)

type server = {
  pid : int;
  banner : in_channel;  (** dkbd's stdout *)
  wal : string;
  conns : Client.t array;
  mutable running : bool;
}

let request c line = H.ok line (Client.command c line)

let start_server (cfg : H.config) input replica =
  let wal = Filename.concat cfg.H.dir (Printf.sprintf "wal-%d.log" replica) in
  H.rm_rf wal;
  (* the sanitizer would be timed instead of the engine *)
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"DKB_SANITIZE=" kv))
         (Array.to_list (Unix.environment ())))
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process_env cfg.H.dkbd
      [| cfg.H.dkbd; "--port"; "0"; "--wal"; wal; "--script"; input.script |]
      env devnull out_w Unix.stderr
  in
  Unix.close out_w;
  Unix.close devnull;
  let banner = Unix.in_channel_of_descr out_r in
  let srv = { pid; banner; wal; conns = [||]; running = true } in
  match
    let port = Scanf.sscanf (input_line banner) "dkbd listening on %d" Fun.id in
    Array.init connections (fun _ ->
        let c = H.ok "connect" (Client.connect ~port ()) in
        ignore (request c ("PREPARE rd " ^ read_template));
        ignore (request c ("PREPARE wr " ^ write_template));
        c)
  with
  | conns -> { srv with conns }
  | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e

(* SHUTDOWN, then wait for the process to exit; kill it if the request
   cannot be delivered *)
let stop_server srv =
  if srv.running then begin
    srv.running <- false;
    let delivered =
      Array.length srv.conns > 0
      && match Client.request srv.conns.(0) "SHUTDOWN" with Ok _ -> true | Error _ -> false
    in
    Array.iter Client.close srv.conns;
    if not delivered then Unix.kill srv.pid Sys.sigkill;
    ignore (Unix.waitpid [] srv.pid);
    close_in srv.banner
  end

(* ------------------------------------------------------------------ *)
(* Traffic *)

(* the request of op [k] on a connection: every eighth an INSERT of a
   fresh id, the rest point SELECTs; returns the line and a check *)
let make_op input rng ~conn k =
  if k mod (reads_per_write + 1) = reads_per_write then begin
    let id = insert_base + (conn * 100_000_000) + k in
    let bal = id mod 1_000_003 in
    ( Printf.sprintf "EXEC wr %d %d" id bal,
      `Write (id, bal) )
  end
  else
    let id = zipf_key input rng in
    (Printf.sprintf "EXEC rd %d" id, `Read (string_of_int input.balance.(id)))

let answered check (r : (Client.response, string) result) =
  match (check, r) with
  | `Read bal, Ok resp -> resp.Client.ok && Client.rows resp = [ [ bal ] ]
  | `Write _, Ok resp -> resp.Client.ok && Client.field resp "affected" = Some "1"
  | _, Error _ -> false

type worker = {
  w_tally : H.tally;
  w_spans : H.Spans.t;
  w_reads : H.Samples.t;  (** traced read latencies, ms *)
  w_writes : H.Samples.t;
  mutable w_acked : (int * int) list;  (** acknowledged inserts *)
}

let worker ~start ~seconds ~trace input conn c seed =
  let rng = Rng.create seed in
  let w =
    {
      w_tally = H.tally ();
      w_spans = H.Spans.create ~base:(conn * 1_000_000_000) ();
      w_reads = H.Samples.create ();
      w_writes = H.Samples.create ();
      w_acked = [];
    }
  in
  let op ~traced k =
    let line, check = make_op input rng ~conn k in
    let r, ms =
      if not traced then begin
        let t0 = H.now () in
        let r = Client.request c line in
        (r, H.ms_between t0 (H.now ()))
      end
      else begin
        (* the request is the op's only layer boundary the client sees,
           so its span is the op's root *)
        let kind = match check with `Read _ -> "client.read" | `Write _ -> "client.write" in
        let call = H.Spans.root w.w_spans ~op:((k * connections) + conn) kind in
        let r = Client.request c line in
        H.Spans.close call;
        let ms = H.Spans.dur call in
        H.Samples.add (match check with `Read _ -> w.w_reads | `Write _ -> w.w_writes) ms;
        (r, ms)
      end
    in
    let ok = answered check r in
    (match check with `Write ack when ok -> w.w_acked <- ack :: w.w_acked | _ -> ());
    (ms, ok)
  in
  H.run_loop ~start ~seconds ~trace w.w_tally op;
  w

(* warm-up traffic on its own id range: the statement cache reaches its
   steady state before timing *)
let warm_up input srv =
  Array.iteri
    (fun conn c ->
      let rng = Rng.create (conn + 7) in
      for k = 1 to 4000 do
        let line, check = make_op input rng ~conn:(conn + connections) k in
        if not (answered check (Client.request c line)) then failwith ("warm-up failed: " ^ line)
      done)
    srv.conns

(* per-connection STATS counters, summed *)
let engine_counters srv =
  let fields = [ "stmts"; "cache_hits"; "cache_misses" ] in
  let totals = Array.make (List.length fields) 0 in
  Array.iter
    (fun c ->
      (* the body is the single Stats.to_string line *)
      match (request c "STATS").Client.body with
      | [ [ line ] ] ->
          List.iter
            (fun kv ->
              match String.split_on_char '=' kv with
              | [ k; v ] ->
                  List.iteri
                    (fun i f -> if f = k then totals.(i) <- totals.(i) + int_of_string v)
                    fields
              | _ -> ())
            (String.split_on_char ' ' line)
      | _ -> failwith "malformed STATS response")
    srv.conns;
  totals

let wal_size srv =
  (List.length (Rdbms.Wal.read_records srv.wal), (Unix.stat srv.wal).Unix.st_size)

(* every acknowledged insert is in the log, with its balance *)
let wal_holds_acked srv acked =
  let logged = Hashtbl.create 65536 in
  List.iter
    (fun record ->
      List.iter
        (function
          | Rdbms.Sql_ast.Insert_values { rows; _ } ->
              List.iter
                (function
                  | [ Rdbms.Sql_ast.L_int id; Rdbms.Sql_ast.L_int bal ] when id >= insert_base ->
                      Hashtbl.replace logged id bal
                  | _ -> ())
                rows
          | _ -> ())
        (Rdbms.Sql_parser.parse_many record))
    (Rdbms.Wal.read_records srv.wal);
  List.for_all (fun (id, bal) -> Hashtbl.find_opt logged id = Some bal) acked

let run (cfg : H.config) =
  let input = generate cfg in
  let srv, setup_s = H.replicated_setup ~teardown:stop_server (start_server cfg input) in
  Fun.protect ~finally:(fun () -> stop_server srv) @@ fun () ->
  warm_up input srv;
  let wal0 = wal_size srv in
  let stats0 = if cfg.H.trace then engine_counters srv else [||] in
  let start = H.now () in
  let workers = Array.make connections None in
  let threads =
    List.init connections (fun conn ->
        Thread.create
          (fun () ->
            workers.(conn) <-
              Some
                (worker ~start ~seconds:cfg.H.seconds ~trace:cfg.H.trace input conn
                   srv.conns.(conn) (cfg.H.seed + 1 + conn)))
          ())
  in
  List.iter Thread.join threads;
  let workers = List.map Option.get (Array.to_list workers) in
  let sums = H.Sums.create () in
  let tallies = List.map (fun w -> w.w_tally) workers in
  let ops = List.fold_left (fun acc t -> acc + t.H.ok + t.H.failed) 0 tallies in
  let acked = List.concat_map (fun w -> w.w_acked) workers in
  if cfg.H.trace then begin
    let stats1 = engine_counters srv in
    let delta i = stats1.(i) - stats0.(i) in
    H.Sums.addi sums "engine.statements" (delta 0);
    H.Sums.addi sums "engine.plan_hits" (delta 1);
    H.Sums.addi sums "engine.plans_built" (delta 2);
    let p50 f =
      Dkb_util.Percentile.percentile 50.0 (List.concat_map (fun w -> H.Samples.to_list (f w)) workers)
    in
    H.Sums.add sums "client.read_ms" (p50 (fun w -> w.w_reads));
    H.Sums.add sums "client.write_ms" (p50 (fun w -> w.w_writes))
  end;
  let peak_rss_mb = H.peak_rss_mb (string_of_int srv.pid) in
  stop_server srv;
  if cfg.H.trace then begin
    let records0, bytes0 = wal0 and records1, bytes1 = wal_size srv in
    H.Sums.addi sums "wal.records" (records1 - records0);
    H.Sums.addi sums "wal.bytes" (bytes1 - bytes0);
    H.Sums.addi sums "wal.writes" (List.length acked)
  end;
  {
    H.setup_s;
    start;
    tallies;
    peak_rss_mb;
    checks_ok = wal_holds_acked srv acked;
    sums;
    layer_ops = ops;
    spans = List.map (fun w -> w.w_spans) workers;
  }
