(* The dkb benchmark: one workload per process, closed loop, every answer
   verified.

     dkbbench.exe --workload derive|maintain|wire --seed N --seconds S
                  --trace 0|1 --dkbd PATH

   With --trace 0 the result line carries the end-to-end metrics; with
   --trace 1 it carries the per-layer metrics of a traced run, whose
   spans are written to .bench_run/<workload>-<seed>.spans.jsonl. The
   last line on stdout is the JSON result; a failure exits non-zero
   without printing one. *)

module H = Harness

let workloads = [ ("derive", Derive.run); ("maintain", Maintain.run); ("wire", Wire.run) ]
let run_dir = ".bench_run"

let usage () =
  prerr_endline
    "usage: dkbbench.exe --workload derive|maintain|wire --seed N --seconds S --trace 0|1 --dkbd PATH";
  exit 2

let report_traced (cfg : H.config) name (o : H.outcome) =
  let path = Filename.concat run_dir (Printf.sprintf "%s-%d.spans.jsonl" name cfg.H.seed) in
  H.Spans.write o.H.spans path;
  Printf.printf "spans (self time = duration minus children), written to %s\n" path;
  let traced_ops = max 1 (List.fold_left (fun a t -> a + t.H.traced_ops) 0 o.H.tallies) in
  Dkb_util.Ascii_table.print ~header:[ "span"; "count"; "total ms"; "self ms"; "self ms/op" ]
    (List.map
       (fun (span, (n, total, self)) ->
         [
           span;
           string_of_int n;
           Printf.sprintf "%.1f" total;
           Printf.sprintf "%.1f" self;
           Printf.sprintf "%.4f" (self /. float_of_int traced_ops);
         ])
       (H.Spans.table o.H.spans));
  let traced, untraced = H.block_rates ~seconds:cfg.H.seconds o.H.tallies in
  let overhead = traced -. untraced in
  Printf.printf "tracing overhead: %+.1f ops/s (%+.1f%% of %.1f untraced ops/s)\n" overhead
    (100.0 *. overhead /. untraced) untraced;
  H.Sums.add o.H.sums "trace.overhead_ops_per_s" overhead;
  H.layer_values o.H.sums ~ops:o.H.layer_ops

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let dkbd = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--dkbd" :: v :: rest -> dkbd := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
      let dir = Filename.concat run_dir !workload in
      H.fresh_dir dir;
      let cfg = { H.seed; seconds; trace; dkbd = !dkbd; dir } in
      let o = run cfg in
      let failed = List.fold_left (fun a t -> a + t.H.failed) 0 o.H.tallies in
      let attempted = failed + List.fold_left (fun a t -> a + t.H.ok) 0 o.H.tallies in
      let metrics = if trace then report_traced cfg !workload o else H.e2e_metrics o in
      H.rm_rf dir;
      Printf.printf "%s seed=%d seconds=%g trace=%b: %d ops, %d failed, end checks %s\n" !workload
        seed seconds trace attempted failed
        (if o.H.checks_ok then "passed" else "FAILED");
      Dkb_util.Ascii_table.print ~header:[ "metric"; "value"; "unit" ]
        (List.map (fun (n, u, v) -> [ n; Printf.sprintf "%.4f" v; u ]) metrics);
      print_endline
        (H.result_line ~correct:(failed = 0 && o.H.checks_ok) ~attempted ~failed metrics)
  | _ -> usage ()
