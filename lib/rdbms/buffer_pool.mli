(** A shared buffer pool over page files: clock (second-chance) eviction,
    pin counts, dirty-page writeback. Its {!hits}, {!misses} and
    {!writebacks} are the engine's measured I/O. They are separate from
    the simulated page charges of {!Stats}, which the cost model makes
    for every relation whether or not it lives in a heap. *)

type t

type backend = {
  read : int -> Bytes.t -> unit;
      (** [read page_no buf] fills [buf] ({!Page.size} bytes) with the
          page's on-disk image (zero-filled past end of file). *)
  write : int -> Bytes.t -> unit;
}

val create : ?pages:int -> unit -> t
(** A pool of [pages] frames (default 64, minimum 1). *)

val size : t -> int
(** Frame count. *)

val register : t -> backend -> int
(** Register a page file; returns its file id. *)

val unregister : t -> int -> unit
(** Flush the file's dirty frames, drop them, and forget the backend. *)

val pin : t -> int -> int -> Bytes.t
(** [pin t file page_no] returns the frame holding the page, reading it
    through the backend on a miss (counting one miss), and pins it:
    it cannot be evicted until {!unpin}. Raises [Failure] when every
    frame is pinned. *)

val pin_fresh : t -> int -> int -> Bytes.t
(** Like {!pin} for a newly allocated page: loads an empty page image
    instead of reading disk, and marks the frame dirty. *)

val unpin : t -> int -> int -> unit
val mark_dirty : t -> int -> int -> unit

val flush_file : t -> int -> unit
(** Write back the file's dirty frames (they stay resident and clean). *)

val flush_all : t -> unit

val invalidate_file : t -> int -> unit
(** Drop the file's frames without writeback (TRUNCATE/DROP). Raises
    [Failure] if one is pinned. *)

val suspended : t -> (unit -> 'a) -> 'a
(** Run a thunk, then restore {!hits}, {!misses} and {!writebacks} to
    their values before it (sanitizer audits must not pollute the
    measured counters). Frame residency is not restored: pages the thunk
    read may have evicted others. *)

val resident : t -> int -> int
(** Frames currently holding pages of the file. *)

val pinned : t -> int
(** Total pin count across frames (0 between statements). *)

val hits : t -> int
val misses : t -> int
val writebacks : t -> int

val check : t -> string list
(** Structural audit: map/frame agreement, no negative or leaked pins,
    no frames for unregistered files. ([[]] when consistent.) *)
