(** Open-addressing tuple -> int map with cached hashes: one
    {!Tuple.hash} per operation, no per-insert allocation, and resizing
    that never rehashes or re-compares tuples. Backs {!Relation}'s
    tuple -> row-id table and the compiled executor's row sets — the
    structures the LFP inner loop fills and probes hundreds of
    thousands of times per query. Values are non-negative ints
    ([-1] is the not-found return). *)

type t

val create : unit -> t
val length : t -> int
(** Live entries. *)

val find : t -> Tuple.t -> int
(** The value bound to the key, or [-1] if absent. *)

val mem : t -> Tuple.t -> bool

val insert_if_absent : t -> Tuple.t -> int -> bool
(** [insert_if_absent t key v] binds [key -> v] and returns [true] iff
    the key was absent; existing bindings are left untouched. *)

val remove : t -> Tuple.t -> int
(** Removes the binding and returns its value, or [-1] if absent. *)

val reset : t -> unit

val map_values : t -> (int -> int) -> unit
(** Rebinds every live key to [f] of its value, in place (no rehashing). *)

val copy : t -> t
(** An independent table holding the same bindings (O(capacity) array
    copies, no rehashing). *)

val add : t -> Tuple.t -> bool
(** Set view: [insert_if_absent t key 0]. [true] iff newly added. *)

val check : t -> string list
(** Structural audit: occupancy counters match the slot states, every
    cached hash equals the recomputed tuple hash, every live key is
    reachable by probing, and the load-factor bound holds. Returns
    violation descriptions ([[]] when consistent). *)
