module Session = Core.Session

type scale =
  | Quick
  | Full

let median = Dkb_util.Percentile.median

let measure ~repeat f = median (List.init repeat (fun _ -> f ()))

(* Every experiment starts here. Experiments run back to back in one
   process, and the sub-millisecond runs of the quick-scale shapes are
   easily doubled by a major-GC slice working off an earlier experiment's
   garbage, so start each one from a collected heap. *)
let section id description =
  Gc.full_major ();
  Printf.printf "\n=== %s ===\n%s\n\n" id description

let shape label holds =
  Printf.printf "  [%s] %s\n" (if holds then "PASS" else "FAIL") label;
  holds

let spread samples =
  match List.filter (fun x -> x > 0.0) samples with
  | [] | [ _ ] -> 1.0
  | xs ->
      let mx = List.fold_left max neg_infinity xs in
      let mn = List.fold_left min infinity xs in
      mx /. mn

let monotone_increasing ?(slack = 0.34) = function
  | [] | [ _ ] -> true
  | first :: _ as xs ->
      let last = List.nth xs (List.length xs - 1) in
      let rec decreases acc = function
        | a :: (b :: _ as rest) -> decreases (if b < a then acc + 1 else acc) rest
        | [ _ ] | [] -> acc
      in
      let steps = List.length xs - 1 in
      last >= first
      && float_of_int (decreases 0 xs) <= slack *. float_of_int steps

let fmt_ms = Dkb_util.Ascii_table.fmt_ms
let fmt_pct = Dkb_util.Ascii_table.fmt_pct
let print_table ~header rows = Dkb_util.Ascii_table.print ~header rows

let ok = function
  | Ok v -> v
  | Error msg -> failwith msg

(* Experiments measure where time goes; the per-statement invariant
   sanitizer (DKB_SANITIZE) would perturb exactly that, so benchmark
   sessions opt out. *)
let bench_session () =
  let s = Session.create () in
  Rdbms.Engine.set_sanitize (Session.engine s) false;
  s

let tree_session ~depth =
  let s = bench_session () in
  let tree = Workload.Graphgen.full_binary_tree ~depth () in
  ok (Workload.Queries.setup_parent s tree.Workload.Graphgen.t_edges);
  ok (Session.load_rules s Workload.Queries.ancestor_rules);
  (s, tree)

let rulebase_session (rb : Workload.Rulegen.t) =
  let s = bench_session () in
  ok
    (Session.define_base s rb.Workload.Rulegen.base_pred
       [ ("x", Rdbms.Datatype.TInt); ("y", Rdbms.Datatype.TInt) ]
       ~indexes:[ "x" ] ());
  let facts = List.init 8 (fun i -> [ Rdbms.Value.Int i; Rdbms.Value.Int (i + 1) ]) in
  ignore (ok (Session.add_facts s rb.Workload.Rulegen.base_pred facts));
  List.iter
    (fun c -> ok (Core.Workspace.add_clause (Session.workspace s) c))
    rb.Workload.Rulegen.clauses;
  ignore (ok (Session.update_stored s ~clear:true ()));
  s
