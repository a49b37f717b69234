(** Central naming conventions for generated predicates and the DBMS
    tables that materialize them. Keeping these in one place guarantees the
    optimizer, code generator and runtime agree and never collide with
    user predicates (user predicates cannot contain [__]). *)

val check_user_pred : string -> (unit, string) result
(** User predicate names must be lowercase identifiers without [__]. *)

val adorned : string -> string -> string
(** [adorned "p" "bf"] is the adorned predicate [p__bf]. *)

val magic : string -> string -> string
(** [magic "p" "bf"] is the magic predicate [m__p__bf]. *)

val delta : string -> string
(** Semi-naive delta table for a predicate. *)

val new_delta : string -> string
(** Scratch table holding the candidate tuples of one iteration. *)

val next : string -> string
(** Naive evaluation's "next iteration" table. *)

val diff : string -> string
(** Naive evaluation's termination-check set difference ([next] minus the
    member table). *)

val facts_base : string -> string
(** Auxiliary base predicate for a derived predicate that also has facts
    (the paper's Set1/Set2 normalization). *)

val scratch_tables : string -> string list
(** Every scratch-table name the LFP runtime may allocate for a clique
    member: [next] and [diff] (naive), [delta] and [new_delta]
    (semi-naive). Used to drop them after an interrupted loop and to
    verify cleanup leaves none behind. *)

(** {2 Incremental view maintenance} *)

val mat : string -> string
(** Persistent materialization of a derived predicate ([mat__p]). *)

val ins_delta : string -> string
(** Per-update scratch: tuples inserted into a relation this update. *)

val del_delta : string -> string
(** Per-update scratch: tuples deleted from a relation this update. *)

val overdel : string -> string
(** DRed scratch: the over-deleted candidate set of a predicate. *)

val strip_decorations : string -> string
(** Best-effort inverse: [strip_decorations "m__p__bf"] is ["p"]. *)

val supplementary : string -> string -> int -> int -> string
(** [supplementary "p" "bf" r i] is the supplementary predicate
    [sup__p__bf__r<r>__<i>] holding the join prefix through the first [i]
    body literals of the [r]-th adorned rule of [p__bf]. *)
