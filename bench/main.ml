(* Benchmark harness regenerating every table and figure of the paper's
   evaluation section (SIGMOD'88, §5), plus ablation benches for design
   choices called out in DESIGN.md.

   Usage:
     dune exec bench/main.exe                 -- all paper experiments, full scale
     dune exec bench/main.exe -- quick        -- all, small scale
     dune exec bench/main.exe -- test4 test7  -- selected experiments
     dune exec bench/main.exe -- ablation     -- ablation benches
     dune exec bench/main.exe -- cache        -- statement-cache ablation (writes BENCH_cache.json)
     dune exec bench/main.exe -- wal          -- write-ahead-log ablation (writes BENCH_wal.json)
     dune exec bench/main.exe -- profile      -- observability bench (writes BENCH_profile.json)
     dune exec bench/main.exe -- joins        -- join-order/cost-model bench (writes BENCH_joins.json)
     dune exec bench/main.exe -- updates      -- incremental-maintenance bench (writes BENCH_updates.json)
     dune exec bench/main.exe -- storage      -- paged-storage/buffer-pool bench (writes BENCH_storage.json)
     dune exec bench/main.exe -- server       -- concurrent-session server bench (writes BENCH_server.json)
     dune exec bench/main.exe -- bechamel     -- bechamel microbenchmarks *)

let known =
  [
    ("test1", fun scale -> ignore (Experiments.Test1.run ~scale ()));
    ("test2", fun scale -> ignore (Experiments.Test2.run ~scale ()));
    ("test3", fun scale -> ignore (Experiments.Test3.run ~scale ()));
    ("test4", fun scale -> ignore (Experiments.Test4.run ~scale ()));
    ("test5", fun scale -> ignore (Experiments.Test5.run ~scale ()));
    ("test6", fun scale -> ignore (Experiments.Test6.run ~scale ()));
    ("test7", fun scale -> ignore (Experiments.Test7.run ~scale ()));
    ("test8", fun scale -> ignore (Experiments.Test8.run ~scale ()));
    ("test9", fun scale -> ignore (Experiments.Test9.run ~scale ()));
    ("ablation", fun scale -> Experiments.Ablation.run ~scale ());
    ("cache", fun scale -> Experiments.Ablation.run_cache ~scale ());
    ("wal", fun scale -> Experiments.Ablation.run_wal ~scale ());
    ("profile", fun scale -> Experiments.Observe.run ~scale ());
    ("joins", fun scale -> Experiments.Joins.run ~scale ());
    ("updates", fun scale -> Experiments.Updates.run ~scale ());
    ("storage", fun scale -> Experiments.Storage.run ~scale ());
    ("server", fun scale -> Experiments.Server_bench.run ~scale ());
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one per paper table, timing the hot kernels
   behind them on a fixed small workload. *)

let bechamel_benches () =
  let open Bechamel in
  let tree_session () = Experiments.Common.tree_session ~depth:7 in
  let table4 =
    (* Table 4 kernel: full query compilation *)
    let rb = Workload.Rulegen.chains ~clusters:10 ~rules_per_cluster:7 () in
    let s = Experiments.Common.rulebase_session rb in
    let goal = Workload.Rulegen.cluster_query rb 0 in
    Test.make ~name:"table4/compile"
      (Staged.stage (fun () ->
           match
             Core.Compiler.compile
               ~stored:(Core.Session.stored s)
               ~workspace:(Core.Session.workspace s)
               ~goal ()
           with
           | Ok _ -> ()
           | Error e -> failwith e))
  in
  let lfp name strategy =
    let s, tree = tree_session () in
    let goal = Workload.Queries.ancestor_goal tree.Workload.Graphgen.t_root in
    Test.make ~name
      (Staged.stage (fun () ->
           let options = { Core.Session.default_options with strategy } in
           match Core.Session.query_goal s ~options goal with
           | Ok _ -> ()
           | Error e -> failwith e))
  in
  let table5_naive = lfp "table5/naive-lfp" Core.Runtime.Naive in
  let table5_semi = lfp "table5/seminaive-lfp" Core.Runtime.Seminaive in
  let table8 =
    Test.make ~name:"table8/update-stored"
      (Staged.stage (fun () ->
           let rb = Workload.Rulegen.chains ~clusters:15 ~rules_per_cluster:3 () in
           let s = Experiments.Common.rulebase_session rb in
           (match Core.Session.add_rule s "freshx(X, Y) :- b0(X, Y)." with
           | Ok () -> ()
           | Error e -> failwith e);
           match Core.Session.update_stored s () with
           | Ok _ -> ()
           | Error e -> failwith e))
  in
  [ table4; table5_naive; table5_semi; table8 ]

let run_bechamel () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 10) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
      in
      Hashtbl.iter
        (fun name raw ->
          match
            Analyze.one (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock raw
          with
          | ols -> (
              match Analyze.OLS.estimates ols with
              | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/run\n" name est
              | _ -> Printf.printf "  %-28s (no estimate)\n" name)
          | exception _ -> Printf.printf "  %-28s (analysis failed)\n" name)
        results)
    (List.map (fun t -> Test.make_grouped ~name:"dkb" [ t ]) (bechamel_benches ()));
  ignore ignore

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "quick" args in
  let scale = if quick then Experiments.Common.Quick else Experiments.Common.Full in
  let selected = List.filter (fun a -> a <> "quick") args in
  if List.mem "bechamel" selected then run_bechamel ()
  else begin
    let to_run =
      match selected with
      | [] | [ "all" ] ->
          List.filter
            (fun (n, _) ->
              not
                (List.mem n
                   [ "ablation"; "cache"; "wal"; "profile"; "joins"; "updates"; "storage"; "server" ]))
            known
      | names ->
          List.map
            (fun n ->
              match List.assoc_opt n known with
              | Some f -> (n, f)
              | None ->
                  Printf.eprintf "unknown experiment %s; known: %s\n" n
                    (String.concat " " (List.map fst known));
                  exit 2)
            names
    in
    let t0 = Unix.gettimeofday () in
    List.iter (fun (_, f) -> f scale) to_run;
    Printf.printf "\nall selected experiments done in %.1f s\n" (Unix.gettimeofday () -. t0)
  end
