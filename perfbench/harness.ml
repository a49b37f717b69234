(* Plumbing shared by the three workloads: the wall clock, the layered
   DAG generator, latency samples, peak RSS, set-up replicates, the
   closed loop, the in-memory span recorder of traced runs, per-layer
   counter sums, and the result line. *)

let now = Unix.gettimeofday
let ms_between t0 t1 = (t1 -. t0) *. 1000.0

let ok what = function
  | Ok v -> v
  | Error msg -> failwith (what ^ ": " ^ msg)

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  dkbd : string;  (** path of the dkbd executable (wire) *)
  dir : string;  (** scratch directory for this workload's files *)
}

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* A layered DAG in which the node at position j of a layer has edges to
   positions 2j and 2j+1 (mod [width]) of the next, under a seed-drawn
   relabelling of every layer. Every node has in- and out-degree 2 and
   reaches 2, 4, 8, ... nodes of the following layers until it reaches
   whole layers, so all start nodes of a layer cost the same and the seed
   changes labels, never costs. Layers list their nodes by position. *)
let shuffle_dag ~rng ~layers ~width ~first_node =
  let label =
    Array.init layers (fun l ->
        let a = Array.init width (fun i -> first_node + (l * width) + i) in
        Dkb_util.Rng.shuffle rng a;
        a)
  in
  let edges = ref [] in
  for l = layers - 2 downto 0 do
    for j = width - 1 downto 0 do
      List.iter
        (fun k -> edges := (label.(l).(j), label.(l + 1).(k mod width)) :: !edges)
        [ 2 * j; (2 * j) + 1 ]
    done
  done;
  {
    Workload.Graphgen.d_edges = !edges;
    d_sources = Array.to_list label.(0);
    d_sinks = Array.to_list label.(layers - 1);
    d_layers = Array.to_list (Array.map Array.to_list label);
  }

(* ------------------------------------------------------------------ *)
(* Files *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

(* VmHWM of a process ("self" or a pid), in MiB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith ("no VmHWM in " ^ path)

(* ------------------------------------------------------------------ *)
(* Latency samples, unboxed so that a wire run's ~10^5 samples per
   thread do not load the client's GC while it is being timed. *)

module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.create 4096; n = 0 }

  let add t x =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.set t.a t.n x;
    t.n <- t.n + 1

  let to_list t = List.init t.n (Float.Array.get t.a)
end

(* ------------------------------------------------------------------ *)
(* Set-up replicates *)

let setup_replicates = 5

(* Set-up is timed [setup_replicates] times: in forked children, which
   build the state, tear it down, report their time over a pipe and exit,
   and last in this process, which keeps its state for the timed window. The
   children keep the replicates' memory out of this process's VmHWM, and
   the median damps the host's multi-second speed swings. Returns the
   kept state and the median set-up time in seconds. *)
let replicated_setup ~teardown build =
  let replicate i =
    flush_all ();
    let r, w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        let code =
          match
            let t0 = now () in
            let st = build i in
            let s = now () -. t0 in
            teardown st;
            s
          with
          | s ->
              let msg = Printf.sprintf "%.17g\n" s in
              ignore (Unix.write_substring w msg 0 (String.length msg));
              0
          | exception e ->
              prerr_endline ("set-up replicate failed: " ^ Printexc.to_string e);
              1
        in
        Unix._exit code
    | pid -> (
        Unix.close w;
        let ic = Unix.in_channel_of_descr r in
        let line = In_channel.input_line ic in
        close_in ic;
        match (Unix.waitpid [] pid, Option.bind line float_of_string_opt) with
        | (_, Unix.WEXITED 0), Some s -> s
        | _ -> failwith "set-up replicate failed")
  in
  let replicas = List.init (setup_replicates - 1) replicate in
  let t0 = now () in
  let state = build (setup_replicates - 1) in
  (state, Dkb_util.Percentile.median ((now () -. t0) :: replicas))

(* ------------------------------------------------------------------ *)
(* Spans of the traced run: recorded in memory around the benchmark's
   calls into each layer, written out when the workload ends. *)

module Spans = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** -1 for an op's root span *)
    op : int;
    start : float;
    mutable stop : float;
  }

  (* one recorder per client thread; [base] keeps ids distinct *)
  type t = { mutable spans : span list; mutable next : int }

  let create ?(base = 0) () = { spans = []; next = base }

  let record t ~name ~parent ~op ~start ~stop =
    let s = { id = t.next; name; parent; op; start; stop } in
    t.next <- t.next + 1;
    t.spans <- s :: t.spans;
    s

  let root t ~op name =
    let n = now () in
    record t ~name ~parent:(-1) ~op ~start:n ~stop:n

  let child t (parent : span) name =
    let n = now () in
    record t ~name ~parent:parent.id ~op:parent.op ~start:n ~stop:n

  let close s = s.stop <- now ()

  (* A child for a duration the callee reported (compiler phases, runtime
     buckets, Incremental.apply_report.total_ms) rather than one timed
     from outside. Callees report durations, not instants, so reported
     children are laid back to back from [at] inside their parent. *)
  let reported t (parent : span) ~at name ms =
    record t ~name ~parent:parent.id ~op:parent.op ~start:at ~stop:(at +. (ms /. 1000.0))

  (* reported children of [parent], one per (name, ms) phase, in order *)
  let reported_phases t parent ~prefix phases =
    ignore
      (List.fold_left
         (fun at (name, ms) -> (reported t parent ~at (prefix ^ name) ms).stop)
         parent.start phases)

  let dur s = ms_between s.start s.stop

  let write ts path =
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun t ->
            List.iter
              (fun s ->
                Printf.fprintf oc
                  "{\"id\": %d, \"name\": %S, \"parent\": %d, \"op\": %d, \"start_s\": %.6f, \"end_s\": %.6f}\n"
                  s.id s.name s.parent s.op s.start s.stop)
              (List.rev t.spans))
          ts)

  (* Per span name: count, total ms and self ms (a span's duration minus
     the durations of its children), by self time descending. *)
  let table ts =
    let children = Hashtbl.create 1024 in
    let all = List.concat_map (fun t -> t.spans) ts in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace children s.parent
            (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
      all;
    let rows = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let self = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
        let n, total, selfs = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows s.name) in
        Hashtbl.replace rows s.name (n + 1, total +. dur s, selfs +. self))
      all;
    List.sort
      (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)
      (Hashtbl.fold (fun name row acc -> (name, row) :: acc) rows [])
end

(* ------------------------------------------------------------------ *)
(* Per-layer sums of the traced run *)

module Sums = struct
  type t = (string, float ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add t k v =
    match Hashtbl.find_opt t k with Some r -> r := !r +. v | None -> Hashtbl.add t k (ref v)

  let addi t k v = add t k (float_of_int v)
  let get t k = match Hashtbl.find_opt t k with Some r -> !r | None -> 0.0
end

(* The per-layer metrics, in BENCHMARK.json order. A workload that does
   not exercise a layer leaves its sums at 0. *)
let per_layer =
  [
    ("compiler.compile_ms", "ms");
    ("compiler.extract_ms", "ms");
    ("compiler.semantic_ms", "ms");
    ("compiler.codegen_ms", "ms");
    ("runtime.exec_ms", "ms");
    ("runtime.eval_ms", "ms");
    ("runtime.termination_ms", "ms");
    ("runtime.copy_ms", "ms");
    ("runtime.create_drop_ms", "ms");
    ("runtime.iterations", "count");
    ("runtime.rows_inserted", "count");
    ("runtime.new_tuples", "count");
    ("engine.statements", "count");
    ("engine.plans_built", "count");
    ("engine.plan_hit_ratio", "ratio");
    ("incremental.apply_ms", "ms");
    ("incremental.maintained_ratio", "ratio");
    ("incremental.view_changes", "count");
    ("incremental.rederived", "count");
    ("incremental.waste_ratio", "ratio");
    ("buffer_pool.hits", "count");
    ("buffer_pool.misses", "count");
    ("buffer_pool.writebacks", "count");
    ("wal.records", "count");
    ("wal.bytes", "B");
    ("client.read_ms", "ms");
    ("client.write_ms", "ms");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("trace.overhead_ops_per_s", "1/s");
  ]

(* Sums are totals over [ops] ops and, for the WAL, over the committed
   writes summed under "wal.writes"; the helper sums "engine.plan_hits",
   "incremental.maintained" and "incremental.view_deletions" feed the
   ratios. Client p50s and the overhead are stored as final values. *)
let layer_values sums ~ops =
  let get = Sums.get sums in
  let per d k = if d > 0.0 then get k /. d else 0.0 in
  let share a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
  let ops = float_of_int ops in
  List.map
    (fun (name, unit_) ->
      let v =
        match name with
        | "engine.plan_hit_ratio" -> share (get "engine.plan_hits") (get "engine.plans_built")
        | "incremental.maintained_ratio" -> per ops "incremental.maintained"
        | "incremental.waste_ratio" ->
            share (get "incremental.rederived") (get "incremental.view_deletions")
        | "wal.records" | "wal.bytes" -> per (get "wal.writes") name
        | "client.read_ms" | "client.write_ms" | "trace.overhead_ops_per_s" -> get name
        | _ -> per ops name
      in
      (name, unit_, v))
    per_layer

(* ------------------------------------------------------------------ *)
(* The closed loop *)

type tally = {
  lat : Samples.t;  (** per-op latency, ms, every op *)
  mutable ok : int;
  mutable failed : int;
  mutable traced_ops : int;
  mutable untraced_ops : int;
  mutable last_end : float;
}

let tally () =
  { lat = Samples.create (); ok = 0; failed = 0; traced_ops = 0; untraced_ops = 0; last_end = 0.0 }

(* Traced runs alternate untraced and traced blocks, untraced first, so
   the tracing overhead is measured in one process on the same data and
   averages over the host's drift. *)
let blocks = 10

(* Start ops until [seconds] have passed since [start]; each next op is
   sent only once the previous one has returned. [op ~traced i] runs op
   [i] and returns its latency in ms and whether its answer verified. *)
let run_loop ~start ~seconds ~trace tally op =
  let deadline = start +. seconds in
  let block = seconds /. float_of_int blocks in
  let rec go i =
    let t = now () in
    if t < deadline then begin
      let traced = trace && int_of_float ((t -. start) /. block) mod 2 = 1 in
      let ms, ok = op ~traced i in
      Samples.add tally.lat ms;
      if ok then tally.ok <- tally.ok + 1 else tally.failed <- tally.failed + 1;
      if traced then tally.traced_ops <- tally.traced_ops + 1
      else tally.untraced_ops <- tally.untraced_ops + 1;
      tally.last_end <- now ();
      go (i + 1)
    end
  in
  go 0

(* (traced, untraced) ops/s; each kind of block covers half the window *)
let block_rates ~seconds tallies =
  let half = seconds /. 2.0 in
  let sum f = float_of_int (List.fold_left (fun acc t -> acc + f t) 0 tallies) in
  (sum (fun t -> t.traced_ops) /. half, sum (fun t -> t.untraced_ops) /. half)

(* ------------------------------------------------------------------ *)
(* What a workload hands back *)

type outcome = {
  setup_s : float;
  start : float;  (** start of the timed window *)
  tallies : tally list;  (** one per client thread *)
  peak_rss_mb : float;
  checks_ok : bool;  (** end-of-run answer checks (views, WAL) *)
  sums : Sums.t;  (** traced run only *)
  layer_ops : int;  (** ops the sums cover *)
  spans : Spans.t list;
}

let e2e_metrics o =
  let ok = List.fold_left (fun acc t -> acc + t.ok) 0 o.tallies in
  let last = List.fold_left (fun acc t -> Float.max acc t.last_end) o.start o.tallies in
  let lat = List.concat_map (fun t -> Samples.to_list t.lat) o.tallies in
  [
    ("setup_s", "s", o.setup_s);
    ("ops_per_s", "1/s", float_of_int ok /. (last -. o.start));
    ("op_p50_ms", "ms", Dkb_util.Percentile.percentile 50.0 lat);
    ("op_p95_ms", "ms", Dkb_util.Percentile.percentile 95.0 lat);
    ("peak_rss_mb", "MiB", o.peak_rss_mb);
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
          metrics))
