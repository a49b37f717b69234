(** A growable buffer of rows — the unit of data flow between compiled
    operators ({!Exec_compiled}). Compared to [Tuple.t list] plumbing (as
    in the tuple-at-a-time reference interpreter the tests keep), a batch
    appends in amortized O(1) with no per-row cons cell and never needs a
    [List.rev] to restore order.

    Batches hold references to the same [Tuple.t] arrays the storage layer
    does; they are per-execution buffers, never aliased between operators
    (except deliberate pass-through), so producers may fill and consumers
    may sort them in place. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty batch; [capacity] presizes the buffer (default 16). *)

val length : t -> int
val get : t -> int -> Tuple.t

val push : t -> Tuple.t -> unit
(** Append a row, growing by doubling when full. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a

val to_list : t -> Tuple.t list
(** Rows in append order. *)

val of_list : Tuple.t list -> t

val to_array : t -> Tuple.t array
(** Trimmed copy of the live prefix. *)

val of_array : Tuple.t array -> t
(** Wraps the array as a full batch; takes ownership. *)
