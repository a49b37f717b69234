(** A stored relation: set semantics (duplicate inserts are no-ops), stable
    iteration in insertion order, byte/page accounting, and support points
    for hash indexes ({!Index}).

    Rows have integer ids in insertion order; deletion leaves a
    tombstone, so ids stay valid for index maintenance between inserts.
    An insert that finds the id slots full and at least half of them
    tombstones first renumbers the live rows densely, in the same order:
    observers then see a clear followed by one insert per live row, which
    rebuilds indexes. So memory follows the live rows, not every row a
    relation under churn ever held. *)

type t

val create : Schema.t -> t
val schema : t -> Schema.t

val cardinal : t -> int
(** Number of live rows. *)

val byte_size : t -> int
(** Simulated on-disk byte footprint of live rows. *)

val pages : t -> int
(** Simulated page count, {!Stats.pages_of_bytes} of the live bytes, for
    every relation: a heap backing does not change it (the heap's own
    page count, with slot overhead and dead space, is {!Heap.page_count}).
    An empty relation occupies zero pages. *)

val backed : t -> bool
(** Whether a heap backing is attached. No charge depends on it. *)

val heap : t -> Heap.t option

val attach : t -> Heap.t -> [ `Load | `Overwrite ] -> unit
(** Attach a heap backing. [`Load] populates the (empty) relation from
    the heap's rows — insert observers fire, so indexes build; raises
    [Invalid_argument] on a non-empty relation. [`Overwrite] truncates
    the heap and writes the relation's live rows out (the recovery path:
    the restored catalog is authoritative). Raises [Invalid_argument] if
    already backed. *)

val detach : t -> unit
(** Drop the backing, keeping the mirrored in-memory rows. The heap
    itself is the caller's to flush/close. *)

val mem : t -> Tuple.t -> bool

val insert : t -> Tuple.t -> bool
(** [insert r row] validates the row against the schema and adds it.
    Returns [true] iff the row is new. Raises [Invalid_argument] on a
    schema violation. *)

val insert_unchecked : t -> Tuple.t -> bool
(** {!insert} without the per-row schema check. The caller must have
    proven the row's types elsewhere (the engine type-checks an
    INSERT ... SELECT source plan against the target schema once, which
    covers every row the plan can produce). *)

val delete : t -> Tuple.t -> bool
(** Removes a row if present; [true] iff it was present. *)

val clear : t -> unit
(** Removes all rows (and resets row ids). *)

val swap : t -> t -> unit
(** [swap a b] exchanges the rows of [a] and [b] in O(1): each takes the
    other's rows, row ids and byte count, after both have captured their
    snapshot version. Schemas, observers, backings and version chains stay
    put, so the caller must ensure the two schemas carry the same column
    types and that neither relation has observers (indexes) or a heap
    backing. *)

val iter : (Tuple.t -> unit) -> t -> unit
val iteri : (int -> Tuple.t -> unit) -> t -> unit
(** [iteri] passes the row id. *)

val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Tuple.t list
(** Rows in insertion order. *)

val get_row : t -> int -> Tuple.t option
(** Row by id; [None] for tombstones and out-of-range ids. *)

val on_insert : t -> (int -> Tuple.t -> unit) -> unit
(** Registers an observer invoked after each successful insert (used by
    indexes). Registration is O(1). The notification order of multiple
    observers is unspecified (currently most-recently-registered first);
    observers must not depend on one another. *)

val on_delete : t -> (int -> Tuple.t -> unit) -> unit
(** Same contract as {!on_insert}, for deletions. *)

val on_clear : t -> (unit -> unit) -> unit
(** Same contract as {!on_insert}, for {!clear}. *)

(** {1 Copy-on-write snapshot versions (MVCC-lite)}

    A versioned relation pins frozen copies of its live state so snapshot
    readers keep seeing the state as of their begin timestamp while
    writers mutate freely. The control block is injected from above (the
    engine's snapshot registry, through the catalog): [vc_demand] reports
    the highest active snapshot timestamp ([min_int] when none),
    [vc_chained] is called when a relation grows its first chain entry
    (so the registry can find it for pruning), [vc_captured] on every
    freeze (Stats accounting). Every mutator checks the demand before
    touching the rows and freezes one copy per (relation, snapshot
    generation) — the cost is bounded by snapshot churn, not row churn. *)

type version_ctl = {
  vc_demand : unit -> int;
  vc_chained : t -> unit;
  vc_captured : unit -> unit;
}

val set_version_ctl : t -> version_ctl option -> unit
(** Wire (or unwire) the snapshot control block. [None] (the default)
    disables versioning — mutators pay one match on the field. *)

val freeze : t -> t
(** A detached, immutable copy of the live state: shares tuples, drops
    backing/observers/versioning. *)

val as_of : t -> int -> t option
(** The frozen version a snapshot that began at the given timestamp must
    read, or [None] when the live state still serves it. *)

val versions : t -> int
(** Chain length (0 = no pinned versions). *)

val prune_versions : t -> needed:(lo:int -> hi:int -> bool) -> bool
(** Drop chain entries for which [needed ~lo ~hi] is false — no active
    snapshot began in the half-open interval [(lo, hi]] the entry
    serves. Returns [true] when the chain is now empty. *)

val check : t -> string list
(** Structural audit for the sanitizer: live rows agree with the
    tuple -> id table (count and per-row round-trip), every live row
    satisfies the schema, no slot is populated beyond the id watermark,
    and the byte accounting matches. For a backed relation, additionally
    audits every heap page and checks that each live row round-trips
    through its heap location. Returns violation descriptions ([[]] when
    consistent). *)
