(** Incremental-maintenance bench: a live graph under mixed single-edge
    insert/delete traffic, views maintained by DRed (a non-recursive
    two-hop and the recursive ancestor/tc cliques) against full
    re-evaluation of the same views. Checks that the maintained relations stay tuple-identical to
    a from-scratch LFP, that maintenance beats recomputation on
    single-edge deltas, and (at full scale) that the speedup is at least
    5x on the ancestor/tc workloads. Reports deletes and re-inserts
    apart as well as combined. Writes [BENCH_updates.json]. *)

val run : ?json_path:string -> scale:Common.scale -> unit -> unit
