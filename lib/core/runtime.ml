module Engine = Rdbms.Engine
module Names = Datalog.Names
module Timer = Dkb_util.Timer

type strategy =
  | Naive
  | Seminaive

let strategy_to_string = function
  | Naive -> "naive"
  | Seminaive -> "semi-naive"

(* One LFP iteration of one clique, as observed by the profiler. *)
type iteration_profile = {
  ip_label : string;
  ip_index : int;  (* 1-based iteration number within the clique *)
  ip_deltas : (string * int) list;  (* per-member new-tuple cardinality *)
  ip_phase_io : (string * int) list;  (* simulated I/O per step bucket *)
  ip_io : Rdbms.Stats.t;  (* full counter delta of the iteration *)
  ip_ms : float;
}

type report = {
  rows : Rdbms.Tuple.t list;
  columns : string list;
  boolean : bool option;
  iterations : (string * int) list;
  profile : iteration_profile list;
  phases : Timer.Phases.t;
  entry_ms : (string * float) list;
  exec_ms : float;
  io : Rdbms.Stats.t;
}

type ctx = {
  engine : Engine.t;
  prepare : string -> Engine.prepared;
  phases : Timer.Phases.t;
  index_derived : bool;
  max_iterations : int;
  iter_phase_io : (string, int ref) Hashtbl.t;  (* current iteration, per bucket *)
  observer : iteration_profile -> unit;
}

let phase_buckets = [ "create_drop"; "eval"; "termination"; "copy" ]

(* Attribute the simulated I/O a thunk causes to [bucket] of the current
   iteration. Cheap enough to leave on unconditionally: two counter reads
   and one hashtable probe per statement. *)
let with_phase_io ctx bucket f =
  let stats = Engine.stats ctx.engine in
  let before = Rdbms.Stats.total_io stats in
  let result = f () in
  let moved = Rdbms.Stats.total_io stats - before in
  (match Hashtbl.find_opt ctx.iter_phase_io bucket with
  | Some cell -> cell := !cell + moved
  | None -> Hashtbl.add ctx.iter_phase_io bucket (ref moved));
  result

let begin_iteration ctx =
  Hashtbl.reset ctx.iter_phase_io;
  (Timer.now_ms (), Rdbms.Stats.copy (Engine.stats ctx.engine))

let end_iteration ctx ~label ~index ~deltas (t0, io_before) =
  ctx.observer
    {
      ip_label = label;
      ip_index = index;
      ip_deltas = deltas;
      ip_phase_io =
        List.map
          (fun b ->
            (b, match Hashtbl.find_opt ctx.iter_phase_io b with Some c -> !c | None -> 0))
          phase_buckets;
      ip_io = Rdbms.Stats.diff (Engine.stats ctx.engine) io_before;
      ip_ms = Timer.now_ms () -. t0;
    }

(* Run [f] as a step of [bucket]: its wall time and simulated I/O are
   charged there. *)
let in_bucket ctx bucket f =
  Timer.Phases.record ctx.phases bucket (fun () -> with_phase_io ctx bucket f)

let exec ctx bucket sql = in_bucket ctx bucket (fun () -> ignore (Engine.exec ctx.engine sql))

(* The LFP inner loop executes the same handful of SQL texts every
   iteration; each is parsed and planned exactly once, before the loop. *)
let prep ctx sql = ctx.prepare sql

let run_prep ctx bucket p =
  in_bucket ctx bucket (fun () -> ignore (Engine.exec_prepared ctx.engine p))

(* [target <- source EXCEPT current], naive evaluation's termination
   check. *)
let prep_except ctx ~target ~source ~current =
  prep ctx
    (Printf.sprintf "INSERT INTO %s (SELECT * FROM %s) EXCEPT (SELECT * FROM %s)" target source
       current)

(* Run a [prep_except] statement into an empty table: its affected count
   is the number of genuinely new tuples, so no separate COUNT( * ) probe
   is needed. *)
let fill_prep ctx p =
  in_bucket ctx "termination" (fun () ->
      match Engine.exec_prepared ctx.engine p with
      | Engine.Affected n -> n
      | _ -> failwith "INSERT ... EXCEPT did not report an affected count")

let create_table ctx ?(with_index = false) name types =
  exec ctx "create_drop" (Datalog.Sqlgen.create_table ~name ~types ());
  if with_index && ctx.index_derived && types <> [] then
    exec ctx "create_drop" (Printf.sprintf "CREATE INDEX idx__%s__c1 ON %s (c1)" name name)

let drop_table ctx name = exec ctx "create_drop" ("DROP TABLE IF EXISTS " ^ name)

let insert_select ctx bucket target select =
  exec ctx bucket (Printf.sprintf "INSERT INTO %s %s" target select)

let copy_into ctx target source =
  exec ctx "copy" (Printf.sprintf "INSERT INTO %s SELECT * FROM %s" target source)

(* ------------------------------------------------------------------ *)
(* Non-recursive predicate entry *)

let eval_pred ctx ~pred ~types ~fact_inserts ~rules =
  create_table ctx ~with_index:true pred types;
  List.iter (fun ins -> exec ctx "eval" (Codegen.insert_sql ins)) fact_inserts;
  List.iter
    (fun r -> insert_select ctx "eval" pred r.Codegen.cr_select)
    rules

(* ------------------------------------------------------------------ *)
(* Clique evaluation: naive *)

(* The per-member statements of one naive iteration, prepared up front. *)
type naive_member = {
  nm_pred : string;
  nm_truncate_next : Engine.prepared;
  nm_truncate_diff : Engine.prepared;
  nm_fill_diff : Engine.prepared;  (** diff <- next EXCEPT current *)
  nm_absorb : Engine.prepared;  (** current <- diff *)
}

let eval_clique_naive ctx ~label ~members ~fact_inserts ~exit_rules ~rec_rules =
  (* member tables start empty; each iteration recomputes F from scratch
     into next tables and absorbs what is new. Scratch tables are created
     once and truncated between iterations instead of dropped and
     recreated. *)
  List.iter (fun (p, types) -> create_table ctx ~with_index:true p types) members;
  List.iter
    (fun (p, types) ->
      create_table ctx (Names.next p) types;
      create_table ctx (Names.diff p) types)
    members;
  let fact_preps =
    List.concat_map
      (fun (p, inserts) ->
        (* redirect each fact insert at the member's next-table *)
        List.map (fun ins -> prep ctx (Codegen.retarget ins (Names.next p))) inserts)
      fact_inserts
  in
  let rule_preps =
    List.map
      (fun (head, r) ->
        prep ctx (Printf.sprintf "INSERT INTO %s %s" (Names.next head) r.Codegen.cr_select))
      (exit_rules @ rec_rules)
  in
  let member_preps =
    List.map
      (fun (p, _) ->
        let next = Names.next p and diff = Names.diff p in
        {
          nm_pred = p;
          nm_truncate_next = prep ctx ("TRUNCATE TABLE " ^ next);
          nm_truncate_diff = prep ctx ("TRUNCATE TABLE " ^ diff);
          nm_fill_diff = prep_except ctx ~target:diff ~source:next ~current:p;
          nm_absorb = prep ctx (Printf.sprintf "INSERT INTO %s SELECT * FROM %s" p diff);
        })
      members
  in
  let iterations = ref 0 in
  let changed = ref true in
  while !changed do
    incr iterations;
    if !iterations > ctx.max_iterations then failwith "naive evaluation exceeded max iterations";
    changed := false;
    let snap = begin_iteration ctx in
    List.iter (fun nm -> run_prep ctx "create_drop" nm.nm_truncate_next) member_preps;
    List.iter (fun p -> run_prep ctx "eval" p) fact_preps;
    List.iter (fun p -> run_prep ctx "eval" p) rule_preps;
    (* termination: next EXCEPT current, per member. Clique members occur
       only positively in their own rules (stratification), so F is
       monotone and current is a subset of next: absorbing the difference
       leaves current = next without the paper's full-table swap. *)
    let deltas =
      List.map
        (fun nm ->
          run_prep ctx "create_drop" nm.nm_truncate_diff;
          let n = fill_prep ctx nm.nm_fill_diff in
          run_prep ctx "copy" nm.nm_absorb;
          if n > 0 then changed := true;
          (nm.nm_pred, n))
        member_preps
    in
    end_iteration ctx ~label ~index:!iterations ~deltas snap
  done;
  List.iter
    (fun (p, _) ->
      drop_table ctx (Names.next p);
      drop_table ctx (Names.diff p))
    members;
  !iterations

(* ------------------------------------------------------------------ *)
(* Clique evaluation: semi-naive *)

(* A rule variant fused with the set difference: only rows new to
   [member] reach its candidate table, whose cardinality is then the
   number of new tuples. *)
let insert_new member select =
  Printf.sprintf "INSERT INTO %s (%s) EXCEPT (SELECT * FROM %s)" (Names.new_delta member) select
    member

type seminaive_member = {
  sm_pred : string;
  sm_cand : string;
  sm_delta : string;
  sm_truncate_cand : Engine.prepared;
  sm_absorb : Engine.prepared;  (** current <- candidates *)
  sm_accumulate : Engine.prepared option;  (** optional: sink <- candidates *)
}

(* The per-member statements of the semi-naive inner loop, over the given
   table name. The member table and its [delta]/[new_delta] scratch
   tables must already exist. *)
let seminaive_member ctx ?accumulate p =
  let cand = Names.new_delta p in
  let copy_cand_into target =
    prep ctx (Printf.sprintf "INSERT INTO %s SELECT * FROM %s" target cand)
  in
  {
    sm_pred = p;
    sm_cand = cand;
    sm_delta = Names.delta p;
    sm_truncate_cand = prep ctx ("TRUNCATE TABLE " ^ cand);
    sm_absorb = copy_cand_into p;
    sm_accumulate = Option.map copy_cand_into accumulate;
  }

(* The member step. The candidate table holds only tuples new to the
   member, so its cardinality is the termination test and runs no
   statement. The new tuples go into the member (and the sink), then the
   delta and candidate tables trade rows: the new tuples are the next
   delta, and the old delta is what the next iteration truncates. *)
let member_step ctx sm =
  let n =
    Timer.Phases.record ctx.phases "termination" (fun () ->
        Engine.table_cardinality ctx.engine sm.sm_cand)
  in
  if n > 0 then begin
    run_prep ctx "copy" sm.sm_absorb;
    Option.iter (run_prep ctx "copy") sm.sm_accumulate
  end;
  in_bucket ctx "create_drop" (fun () -> Engine.swap_tables ctx.engine sm.sm_delta sm.sm_cand);
  (sm.sm_pred, n)

(* The semi-naive inner loop itself, shared between full LFP evaluation
   and incremental propagation (Core.Incremental): assumes each member's
   delta table holds the seed (already absorbed into the member table)
   and iterates to the fixpoint. Every rule variant runs before any member
   absorbs its candidates, so all of them read the previous iteration's
   deltas and members. *)
let seminaive_loop ctx ~label ~rule_preps ~member_preps =
  let iterations = ref 0 in
  let changed = ref true in
  while !changed do
    incr iterations;
    if !iterations > ctx.max_iterations then failwith "semi-naive evaluation exceeded max iterations";
    let snap = begin_iteration ctx in
    List.iter (fun sm -> run_prep ctx "create_drop" sm.sm_truncate_cand) member_preps;
    List.iter (fun p -> run_prep ctx "eval" p) rule_preps;
    let deltas = List.map (member_step ctx) member_preps in
    changed := List.exists (fun (_, n) -> n > 0) deltas;
    end_iteration ctx ~label ~index:!iterations ~deltas snap
  done;
  !iterations

let eval_clique_seminaive ctx ~label ~members ~fact_inserts ~exit_rules ~rec_rules =
  (* init: facts and exit rules, delta = everything so far *)
  List.iter (fun (p, types) -> create_table ctx ~with_index:true p types) members;
  List.iter
    (fun (_, inserts) ->
      List.iter (fun ins -> exec ctx "eval" (Codegen.insert_sql ins)) inserts)
    fact_inserts;
  List.iter (fun (head, r) -> insert_select ctx "eval" head r.Codegen.cr_select) exit_rules;
  List.iter
    (fun (p, types) ->
      create_table ctx (Names.delta p) types;
      create_table ctx (Names.new_delta p) types;
      copy_into ctx (Names.delta p) p)
    members;
  let rule_preps =
    List.concat_map
      (fun (head, r) ->
        let variants =
          match r.Codegen.cr_delta_selects with
          | [] -> [ r.Codegen.cr_select ] (* defensive: no clique occurrence *)
          | variants -> variants
        in
        List.map (fun sel -> prep ctx (insert_new head sel)) variants)
      rec_rules
  in
  let member_preps = List.map (fun (p, _) -> seminaive_member ctx p) members in
  let iterations = seminaive_loop ctx ~label ~rule_preps ~member_preps in
  List.iter
    (fun (p, _) ->
      drop_table ctx (Names.delta p);
      drop_table ctx (Names.new_delta p))
    members;
  iterations

(* ------------------------------------------------------------------ *)

(* drop every table this program could have created, including the
   scratch tables of an interrupted LFP loop *)
let drop_all_program_tables ctx (program : Codegen.t) =
  List.iter
    (fun (name, _) -> List.iter (drop_table ctx) (name :: Names.scratch_tables name))
    program.Codegen.derived_tables

let execute engine ?(strategy = Seminaive) ?(index_derived = false) ?(max_iterations = 100_000)
    ?(cleanup = true) ?observer (program : Codegen.t) =
  (* Derived and scratch tables live and die within this evaluation, so
     none of their churn belongs in the WAL. Undo logging stays active. *)
  Engine.suspend_logging engine @@ fun () ->
  let phases = Timer.Phases.create () in
  (* iteration profiles always accumulate into the report; the optional
     observer additionally sees each one live (the trace sink) *)
  let profile_rev = ref [] in
  let observe ip =
    profile_rev := ip :: !profile_rev;
    match observer with
    | Some f -> f ip
    | None -> ()
  in
  let ctx =
    {
      engine;
      (* the program's scratch tables are dropped when it ends, so its
         plans die with the call: caller-held, not cached *)
      prepare = Engine.prepare engine;
      phases;
      index_derived;
      max_iterations;
      iter_phase_io = Hashtbl.create 8;
      observer = observe;
    }
  in
  let io_before = Rdbms.Stats.copy (Engine.stats engine) in
  let t0 = Timer.now_ms () in
  (* accumulated in reverse; reversed once when the report is built *)
  let iterations = ref [] in
  let entry_ms = ref [] in
  try
  List.iter
    (fun entry ->
      let label, run =
        match entry with
        | Codegen.E_pred { pred; types; fact_inserts; rules } ->
            (pred, fun () -> eval_pred ctx ~pred ~types ~fact_inserts ~rules)
        | Codegen.E_clique { label; members; fact_inserts; exit_rules; rec_rules } ->
            ( label,
              fun () ->
                let iters =
                  match strategy with
                  | Naive ->
                      eval_clique_naive ctx ~label ~members ~fact_inserts ~exit_rules ~rec_rules
                  | Seminaive ->
                      eval_clique_seminaive ctx ~label ~members ~fact_inserts ~exit_rules
                        ~rec_rules
                in
                iterations := (label, iters) :: !iterations )
      in
      let (), ms = Timer.time run in
      entry_ms := (label, ms) :: !entry_ms)
    program.Codegen.entries;
  (* final answer *)
  let result =
    Timer.Phases.record phases "eval" (fun () -> Engine.exec engine program.Codegen.query_sql)
  in
  let rows, columns =
    match result with
    | Engine.Rows { rows; columns } -> (rows, columns)
    | Engine.Affected _ | Engine.Done -> failwith "query program did not produce rows"
  in
  let boolean =
    match program.Codegen.query_shape with
    | Codegen.Q_boolean -> (
        match rows with
        | [ [| Rdbms.Value.Int n |] ] -> Some (n > 0)
        | _ -> Some false)
    | Codegen.Q_rows _ -> None
  in
  if cleanup then
    List.iter (fun (name, _) -> drop_table ctx name) program.Codegen.derived_tables;
  let exec_ms = Timer.now_ms () -. t0 in
  let io = Rdbms.Stats.diff (Engine.stats engine) io_before in
  {
    rows;
    columns;
    boolean;
    iterations = List.rev !iterations;
    profile = List.rev !profile_rev;
    phases;
    entry_ms = List.rev !entry_ms;
    exec_ms;
    io;
  }
  with e ->
    (* never leak temp tables out of a failed evaluation *)
    drop_all_program_tables ctx program;
    raise e

(* ------------------------------------------------------------------ *)
(* Re-entering the semi-naive loop over existing tables (incremental
   view maintenance). The caller owns table lifecycle: each member table
   holds the current state, its candidate table the seed (tuples new to
   the member, not yet absorbed), and the delta scratch table exists. The
   seed goes through the loop's own member step, then the loop runs.
   Those tables outlive the call and the statement texts are fixed per
   view, so the statements come from the engine's statement cache and
   keep their plans from one call to the next. *)

let resume_seminaive engine ?(max_iterations = 100_000) ?observer ~label ~members ~rules
    ?accumulate () =
  Engine.suspend_logging engine @@ fun () ->
  let ctx =
    {
      engine;
      prepare = Engine.prepare_cached engine;
      phases = Timer.Phases.create ();
      index_derived = false;
      max_iterations;
      iter_phase_io = Hashtbl.create 8;
      observer = (match observer with Some f -> f | None -> fun _ -> ());
    }
  in
  let accumulate = match accumulate with Some f -> f | None -> fun _ -> None in
  let member_preps = List.map (fun p -> seminaive_member ctx ?accumulate:(accumulate p) p) members in
  let seeded = List.exists (fun (_, n) -> n > 0) (List.map (member_step ctx) member_preps) in
  if seeded && rules <> [] then
    let rule_preps = List.map (fun (target, select) -> prep ctx (insert_new target select)) rules in
    seminaive_loop ctx ~label ~rule_preps ~member_preps
  else 0
