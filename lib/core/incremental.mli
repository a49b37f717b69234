(** Incremental view maintenance over the semi-naive runtime.

    Derived predicates are kept materialized in [mat__p] tables and
    maintained under base-fact INSERT / DELETE traffic without re-running
    the LFP, by DRed (delete-rederive; Gupta, Mumick & Subrahmanian,
    SIGMOD 1993). Each node of the evaluation order is a clique; a
    non-recursive predicate is a clique of one member with no recursive
    rules. Delta rules have one variant per nonempty subset of the
    changed body occurrences, the subset reading the per-update delta
    tables and the rest the current state.

    - {b Deletions}: over-delete everything a deleted tuple could have
      supported (seeded by the subset variants, then, in a recursive
      clique, propagated with {!Runtime.resume_seminaive} over [odel__m]
      tables), remove that set from each [mat__m] with one
      [DELETE ... WHERE (c1, ..., cn) IN (SELECT * FROM odel__m)],
      rederive the survivors semi-naively (the rules guarded by the
      over-deleted set of their head run once, then the guarded delta
      variants of the recursive rules resume the loop), and emit the
      difference.
    - {b Insertions}: seed the new derivations and resume the semi-naive
      loop over the materializations themselves.

    Every statement text is fixed per view, so it is planned once and
    then served from the engine's statement cache. Both phases walk the
    affected nodes in dependency order with the deltas applied to the
    base relations first, and skip a node none of whose body predicates
    changed in that phase. Every delta rule lists its delta (or
    over-deletion) occurrences first in FROM and then each literal
    sharing a variable with those before it, so the left-to-right join
    starts at the delta; the tables also hash-index the base and [mat__]
    columns those joins probe, making each join an index or member join.
    Maintenance work runs with WAL logging suspended (undo stays active,
    so ROLLBACK restores the views); recovery re-evaluates instead. *)

(** Session-level maintenance mode. [Auto] maintains every view by DRed,
    except predicates whose rules use negation, which fall back to
    recomputation; [Off] recomputes every view after each update. *)
type mode =
  | Off
  | Auto

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

(** Per-predicate strategy, persisted in the [matviews] dictionary. A
    registration this module does not know (such as an older dump's
    [counting]) reads as [S_recompute] until the view is materialized
    again. *)
type strategy =
  | S_dred
  | S_recompute

val strategy_to_string : strategy -> string
val strategy_of_string : string -> strategy option

type t

val create : Stored_dkb.t -> t

val registered : t -> (string * string) list
(** The persisted (predicate, strategy) registrations. *)

val is_maintained : t -> bool

val materialize : t -> mode:mode -> string -> ((string * strategy) list, string) result
(** Materializes a derived predicate and everything it depends on:
    assigns and persists a strategy per predicate; for each view whose
    registration this adds or changes, creates the maintenance tables,
    hash-indexes the base and view columns its delta joins probe
    (skipping columns already indexed), and evaluates it. Views already
    registered with the same strategy keep their tables and rows.
    Returns the assignments. *)

val refresh : t -> (unit, string) result
(** Truncate and fully re-evaluate every registered view (the fallback
    path, charged like any LFP run). *)

val ensure : t -> (unit, string) result
(** Rebuild the plan, recreate all maintenance tables and re-evaluate —
    after recovery, or after the stored rule base changed. *)

val invalidate : t -> unit
(** Drops the cached plan; the next operation rebuilds it. *)

type apply_report = {
  base_inserted : int;  (** base rows actually inserted (no-ops dropped) *)
  base_deleted : int;  (** base rows actually deleted *)
  derived_changes : (string * int * int) list;
      (** per affected derived predicate: (pred, tuples inserted into its
          view, tuples deleted from it) *)
  rederived : int;  (** tuples DRed over-deleted and then rederived *)
  fallback : bool;  (** maintenance fell back to full recomputation *)
  maintained : bool;  (** deltas were propagated incrementally *)
  total_ms : float;
}

val apply :
  t ->
  mode:mode ->
  inserts:(string * Rdbms.Value.t list) list ->
  deletes:(string * Rdbms.Value.t list) list ->
  unit ->
  (apply_report, string) result
(** Applies a batch of base-fact changes — deletions first, then
    insertions — and maintains every registered view. Rows are
    canonicalized against the current state (deleting an absent row or
    re-inserting a present one is a no-op; a delete plus re-insert of the
    same row nets out). Runs in the caller's transaction when one is
    open, otherwise in its own. Falls back to {!refresh} (counted in
    {!Rdbms.Stats.t.maint_fallbacks}) when an affected predicate has the
    recompute strategy, the delta is large relative to the changed base
    relations, or a rule has too many changed body occurrences. Mode
    [Off] applies the changes and refreshes without counting a
    fallback. Each deleted base fact is removed by its own
    [DELETE ... WHERE] text, because those statements are the WAL's redo
    records (the delta tables are never logged). *)

val view_rows : t -> string -> (Rdbms.Tuple.t list, string) result
(** Current contents of a materialized view. *)
