(** Paged-storage bench: simulated [page_reads] beside measured
    buffer-pool misses, with the pool a quarter of the dataset — cold and
    warm runs of the skewed 3-way join (the cold simulated charge against
    the planner's cost estimate), the magic-sets ancestor LFP over a
    disk-backed base relation, and a dataset >= 4x pool capacity check.
    Writes [BENCH_storage.json] with the CI gate booleans. *)

val run : ?json_path:string -> scale:Common.scale -> unit -> unit
