(** Shared measurement harness for the paper-reproduction experiments. *)

type scale =
  | Quick  (** small sizes, used by the test suite *)
  | Full  (** the sizes reported in EXPERIMENTS.md *)

val median : float list -> float

val measure : repeat:int -> (unit -> float) -> float
(** Median of [repeat] runs of a thunk returning one sample (ms). *)

val section : string -> string -> unit
(** Prints an experiment banner (id and description) after a full major
    collection, so no experiment pays for the garbage an earlier one in
    the same process left behind. *)

val shape : string -> bool -> bool
(** Prints a PASS/FAIL line for a qualitative shape claim from the paper;
    returns the outcome. *)

val spread : float list -> float
(** max/min of positive samples (1.0 when fewer than two samples). *)

val monotone_increasing : ?slack:float -> float list -> bool
(** Does the series increase overall? Requires last >= first and at most
    [slack] fraction of adjacent decreases (default 0.34). *)

val fmt_ms : float -> string
val fmt_pct : float -> string
val print_table : header:string list -> string list list -> unit

(** {1 Session builders} *)

val tree_session : depth:int -> Core.Session.t * Workload.Graphgen.tree
(** Fresh session with a [parent] relation holding one full binary tree,
    and the ancestor rules loaded in the workspace. *)

val rulebase_session : Workload.Rulegen.t -> Core.Session.t
(** Fresh session with [b0(x,y)] defined (a handful of facts) and the
    generated rule base persisted in the Stored D/KB (workspace left
    empty). *)

val ok : ('a, string) result -> 'a
(** Unwraps or fails loudly. *)

val bench_session : unit -> Core.Session.t
(** A fresh session with the invariant sanitizer off: experiments measure
    where time goes, and per-statement audits would perturb exactly that. *)
