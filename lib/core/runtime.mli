(** The Run Time Library (paper §3.3): interprets the generated program
    against the DBMS, computing least fixed points bottom-up with either
    naive or semi-naive iteration, entirely through SQL — including the
    temp-table churn and termination checks whose cost the paper analyses
    in Test 6.

    A semi-naive iteration truncates each member's candidate table, runs
    every rule variant fused with the set difference ([INSERT INTO
    cand__h (variant) EXCEPT (SELECT * FROM h)], see {!insert_new}), and
    then, per member, reads the candidate table's cardinality (the number
    of new tuples), copies a non-empty one into the member, and swaps the
    delta and candidate tables' rows ({!Rdbms.Engine.swap_tables}). A
    derived tuple is written twice: as a candidate and into its member. A
    naive iteration recomputes every rule into [next__h] and fills
    [diff__h] with [next EXCEPT current].

    Wall-clock time is accumulated into four step buckets matching the
    paper's breakdown:
    - ["create_drop"] — creating, truncating and dropping temporary
      tables, and the semi-naive delta/candidate swap;
    - ["eval"] — evaluating rule right-hand sides (INSERT ... SELECT);
      under semi-naive this includes the set difference fused into each
      variant;
    - ["termination"] — the test that decides termination: naive's EXCEPT
      statement, whose affected count is the number of new tuples, or
      semi-naive's candidate-table cardinality, which runs no statement;
    - ["copy"] — table-to-table copies (absorbing new tuples). *)

type strategy =
  | Naive
  | Seminaive

type iteration_profile = {
  ip_label : string;  (** clique label (as in [iterations]) *)
  ip_index : int;  (** 1-based iteration number within the clique *)
  ip_deltas : (string * int) list;
      (** per member predicate, the number of genuinely new tuples this
          iteration produced (the EXCEPT difference cardinality) *)
  ip_phase_io : (string * int) list;
      (** simulated I/O ({!Rdbms.Stats.total_io}) per step bucket, all
          four buckets always present in documentation order *)
  ip_io : Rdbms.Stats.t;  (** full counter delta of the iteration *)
  ip_ms : float;  (** wall time of the iteration *)
}

type report = {
  rows : Rdbms.Tuple.t list;
  columns : string list;
  boolean : bool option;  (** [Some b] for a ground (yes/no) goal *)
  iterations : (string * int) list;  (** per-clique iteration counts *)
  profile : iteration_profile list;
      (** one entry per LFP iteration, in execution order across cliques *)
  phases : Dkb_util.Timer.Phases.t;  (** the four step buckets *)
  entry_ms : (string * float) list;  (** wall time per evaluation-order entry *)
  exec_ms : float;  (** total execution wall time, [t_e] *)
  io : Rdbms.Stats.t;  (** simulated I/O counters for the execution *)
}

val execute :
  Rdbms.Engine.t ->
  ?strategy:strategy ->
  ?index_derived:bool ->
  ?max_iterations:int ->
  ?cleanup:bool ->
  ?observer:(iteration_profile -> unit) ->
  Codegen.t ->
  report
(** Runs the program. [index_derived] creates a hash index on the first
    column of every derived table (the paper's "dynamically adaptable
    indexing" future-work idea; off by default). [cleanup] (default true)
    drops all derived tables afterwards. [observer] sees each
    {!iteration_profile} as its iteration completes (the trace sink
    attaches here); the full list is also returned in the report. Raises
    [Failure] if a clique exceeds [max_iterations] (default 100_000). *)

val strategy_to_string : strategy -> string

val insert_new : string -> string -> string
(** [insert_new m select] is the SQL text that inserts the rows of
    [select] not already in member table [m] into its candidate table
    [Names.new_delta m]: the form of every semi-naive rule variant, and of
    the seed statements {!resume_seminaive} expects. *)

val resume_seminaive :
  Rdbms.Engine.t ->
  ?max_iterations:int ->
  ?observer:(iteration_profile -> unit) ->
  label:string ->
  members:string list ->
  rules:(string * string) list ->
  ?accumulate:(string -> string option) ->
  unit ->
  int
(** Re-enters the semi-naive inner loop over {e existing} tables, for
    incremental view maintenance (Core.Incremental). [members] are table
    names; for each member [m] the tables [m], [Names.delta m] and
    [Names.new_delta m] must already exist, with [new_delta m] holding the
    seed: tuples not in [m] (written by {!insert_new} statements, or into
    an empty [m]), not yet absorbed. The loop's member step absorbs the
    seed into each member, and when some member gained a tuple and
    [rules] is non-empty, iterates to the fixpoint. [rules] are
    [(member, select_sql)] pairs whose SELECT reads the delta tables; each
    runs as [insert_new member select_sql]. [accumulate m = Some sink]
    additionally copies every genuinely-new tuple of [m], the seed's
    included, into [sink] as it is discovered. Every member's delta and
    candidate tables must be unindexed and unbacked
    ({!Rdbms.Engine.swap_tables}); on return the candidate table holds
    stale rows, which the next seed must truncate first. The loop's
    statements come from the engine's statement cache
    ({!Rdbms.Engine.prepare_cached}), so a later call over the same tables
    reuses their plans. Runs with WAL logging suspended; returns the
    iteration count (0 when the seed added nothing or [rules] is empty). *)
