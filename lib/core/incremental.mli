(** Incremental view maintenance over the semi-naive runtime.

    Derived predicates are kept materialized in [mat__p] tables and
    maintained under base-fact INSERT / DELETE traffic without re-running
    the LFP:

    - {b counting} (non-recursive predicates): a companion [matcnt__p]
      table stores a per-tuple derivation count. Delta rules — one per
      nonempty subset of the changed body occurrences, the subset reading
      the per-update delta tables and the rest the current state — are
      evaluated as {e bags} ([SELECT] without [DISTINCT]); each result row
      decrements (deletion phase) or, with inclusion-exclusion signs,
      increments (insertion phase) its tuple's count. Tuples enter the
      view when their count rises from zero and leave when it reaches
      zero.
    - {b DRed} (recursive cliques): over-delete everything a deleted
      tuple could have supported (seeded by the subset variants, then
      propagated with {!Runtime.resume_seminaive} over [odel__m] tables),
      rederive the survivors with over-delete-guarded rules, and emit the
      difference; insertions seed the new derivations and resume the
      semi-naive loop over the materializations themselves.

    Both phases walk the affected nodes in dependency order with the
    deltas applied to the base relations first, so the deletion-phase
    variants partition the removed derivations exactly and the
    insertion-phase variants are subsets of the new state. Every delta
    rule lists its delta (or over-deletion) occurrences first in FROM and
    then each literal sharing a variable with those before it, so the
    left-to-right join starts at the delta; the tables also hash-index
    the base and [mat__] columns those joins probe, making each join an
    index or member join. Maintenance
    work runs with WAL logging suspended (undo stays active, so ROLLBACK
    restores views and counts); recovery re-evaluates instead. *)

(** Session-level maintenance mode. [Auto] picks counting for
    non-recursive predicates and DRed for recursive cliques; predicates
    whose rules use negation always fall back to recomputation. *)
type mode =
  | Off
  | Counting
  | Dred
  | Auto

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

(** Per-predicate strategy, persisted in the [matviews] dictionary. *)
type strategy =
  | S_counting
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
    assigns and persists a strategy per predicate, creates the
    maintenance tables, hash-indexes the base and view columns the delta
    joins probe (skipping columns already indexed), and evaluates the
    views. Returns the assignments. *)

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
    relations, a rule has too many changed body occurrences, or a
    derivation-count invariant is violated. Mode [Off] applies the
    changes and refreshes without counting a fallback. *)

val view_rows : t -> string -> (Rdbms.Tuple.t list, string) result
(** Current contents of a materialized view. *)
