(** Per-operator execution counters: one node per physical plan operator,
    populated live by {!Exec_compiled.run_profiled} and rendered by
    [EXPLAIN ANALYZE].

    Counter semantics: [reads]/[writes]/[probes] are the simulated-I/O
    charges the operator itself made (children's charges live on the child
    nodes, so the sums over a tree equal the engine-global {!Stats} deltas
    of the statement); [rows] is the operator's output cardinality; [ms]
    is inclusive wall time (operator plus its subtree). *)

type t = {
  op : string;  (** one-line operator description, as in {!Plan.describe} *)
  mutable rows : int;
  mutable reads : int;
  mutable writes : int;
  mutable probes : int;
  mutable ms : float;
  mutable rev_children : t list;
      (** newest first — appending a child is an O(1) cons; read through
          {!children} for plan order *)
}

val make : string -> t
(** Fresh node with zeroed counters and no children. *)

val add_child : t -> t -> unit
(** Append a child (constant time; children are stored newest-first). *)

val children : t -> t list
(** Children in plan (append) order. *)

val set_children : t -> t list -> unit
(** Replace the children with the given plan-order list. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over the whole tree. *)

val total_reads : t -> int
val total_writes : t -> int
val total_probes : t -> int
(** Tree-wide counter sums; equal to the statement's engine-global
    {!Stats.diff} components. *)

val render : t -> string
(** Multi-line annotated operator tree (the EXPLAIN ANALYZE body). *)

val to_json : t -> string
(** Nested JSON object mirroring the tree. *)

val json_escape : string -> string
(** JSON string-body escaping, shared with the trace sink. *)
