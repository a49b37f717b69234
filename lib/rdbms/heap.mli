(** A slotted-page heap file backing one relation. All page access goes
    through the shared {!Buffer_pool}, so cold reads and dirty-page
    writebacks show in the pool's measured counters (the simulated
    {!Stats} charges do not depend on them). Rows are addressed by a stable
    location ([page_no * 2^16 + slot]); freed space is not reused in
    place (TRUNCATE and checkpoint rebuilds compact). *)

type t

val create : pool:Buffer_pool.t -> string -> t
(** Open (or create) the heap file at a path, registering it with the
    pool. An existing file's pages become readable immediately. *)

val path : t -> string

val page_count : t -> int
(** Pages in the file, counting resident pages not yet written back. *)

val append : t -> Tuple.t -> int
(** Append a row (last page, else a fresh page); returns its location.
    Raises [Invalid_argument] if the tuple cannot fit on one page. *)

val get : t -> int -> Tuple.t option
(** Row at a location; [None] if it was deleted. *)

val delete : t -> int -> bool
(** Mark the row at a location dead; [true] iff it was live. *)

val iter : (int -> Tuple.t -> unit) -> t -> unit
(** Live rows in location order (= append order), one page pinned at a
    time. *)

val live : t -> int
(** Live row count (scans the file). *)

val clear : t -> unit
(** Drop the pool frames (no writeback) and truncate the file to zero. *)

val flush : t -> unit
(** Write back this file's dirty frames. *)

val resident : t -> int
(** Pool frames currently holding this file's pages. *)

val evict : t -> unit
(** Write back the heap's dirty frames and drop all its resident frames,
    so the next access runs against a cold cache (benchmark support; the
    file contents are untouched). Raises [Failure] if a frame is pinned. *)

val close : t -> unit
(** Flush, unregister from the pool, and close the descriptor. *)

val destroy : t -> unit
(** Drop frames without flushing, close, and delete the file. *)

val check : t -> string list
(** {!Page.check} over every page. ([[]] when consistent.) *)
