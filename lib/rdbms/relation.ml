(* Heap backing: rows are mirrored into a slotted-page heap file, and
   scans read through it (so the buffer pool counts their page hits and
   misses). The in-memory side stays authoritative for ids and the tuple
   table — those model the in-memory hash indexes of the simulated
   engine. [bk_locs] maps a row id to its heap location (-1 = none). *)
type backing = { bk_heap : Heap.t; mutable bk_locs : int array }

(* MVCC-lite: a versioned relation keeps a copy-on-write chain of frozen
   versions so snapshot readers can see the state as of their begin
   timestamp while writers keep mutating the live side. The control block
   is injected by whoever owns the snapshot clock (the engine, through the
   catalog) — this module never learns about sessions or transactions.

   [vc_demand] answers "the highest snapshot timestamp currently active"
   ([min_int] when none). The chain invariant: a frozen entry [(ts, copy)]
   holds the live state as it was for every snapshot that began at or
   before [ts] and after the next-older entry's tag. [vfloor] is the
   highest timestamp already covered — a mutation only freezes a copy when
   a newer snapshot has appeared since the last freeze. *)
type version_ctl = {
  vc_demand : unit -> int;  (* max active snapshot ts; min_int if none *)
  vc_chained : t -> unit;  (* first entry pushed: register for pruning *)
  vc_captured : unit -> unit;  (* each freeze, for Stats accounting *)
}

and t = {
  schema : Schema.t;
  mutable rows : Tuple.t option array; (* slot per row id; None = tombstone *)
  mutable next_id : int;
  mutable ids : Tuple_tbl.t; (* live tuple -> row id *)
  mutable bytes : int;
  mutable backing : backing option;
  mutable insert_obs : (int -> Tuple.t -> unit) list;
  mutable delete_obs : (int -> Tuple.t -> unit) list;
  mutable clear_obs : (unit -> unit) list;
  mutable vctl : version_ctl option;
  mutable vchain : (int * t) list; (* (ts tag, frozen copy), newest first *)
  mutable vfloor : int; (* highest snapshot ts already covered *)
}

let create schema =
  {
    schema;
    rows = Array.make 16 None;
    next_id = 0;
    ids = Tuple_tbl.create ();
    bytes = 0;
    backing = None;
    insert_obs = [];
    delete_obs = [];
    clear_obs = [];
    vctl = None;
    vchain = [];
    vfloor = min_int;
  }

let schema t = t.schema
let cardinal t = Tuple_tbl.length t.ids
let byte_size t = t.bytes
let backed t = t.backing <> None
let heap t = Option.map (fun b -> b.bk_heap) t.backing

(* The cost model's page count, from live bytes, whether or not a heap
   backs the relation. An empty relation occupies zero pages. *)
let pages t = Stats.pages_of_bytes t.bytes

let mem t row = Tuple_tbl.mem t.ids row

let iteri f t =
  for id = 0 to t.next_id - 1 do
    match t.rows.(id) with
    | Some row -> f id row
    | None -> ()
  done

(* Renumber the live rows densely, in their order. Without it a relation
   under delete and insert churn (a maintained view) keeps a slot for
   every row it ever held, so its memory and its scans grow with every
   update it has seen. The tuple table and the heap locations are
   renumbered in place; the observers (indexes) rebuild through their
   clear and insert hooks in id order, so scans and probes return rows
   in the same order as before. *)
let compact t =
  let remap = Array.make t.next_id (-1) in
  let n = ref 0 in
  for id = 0 to t.next_id - 1 do
    match t.rows.(id) with
    | None -> ()
    | Some _ as slot ->
        remap.(id) <- !n;
        t.rows.(!n) <- slot;
        (* every live row of a backed relation has a location below
           [Array.length bk_locs], and [!n <= id] *)
        (match t.backing with Some b -> b.bk_locs.(!n) <- b.bk_locs.(id) | None -> ());
        incr n
  done;
  Array.fill t.rows !n (t.next_id - !n) None;
  (match t.backing with
  | Some b -> Array.fill b.bk_locs !n (Array.length b.bk_locs - !n) (-1)
  | None -> ());
  t.next_id <- !n;
  Tuple_tbl.map_values t.ids (fun id -> remap.(id));
  List.iter (fun f -> f ()) t.clear_obs;
  iteri (fun id row -> List.iter (fun f -> f id row) t.insert_obs) t

(* Room for the next row id: a full slot array is compacted when at
   least half of it is tombstones, else doubled. Compaction leaves it at
   most half full, so its O(slots) cost is spread over the inserts that
   filled it. *)
let ensure_capacity t =
  if t.next_id >= Array.length t.rows then
    if 2 * cardinal t <= Array.length t.rows then compact t
    else begin
      let bigger = Array.make (2 * Array.length t.rows) None in
      Array.blit t.rows 0 bigger 0 (Array.length t.rows);
      t.rows <- bigger
    end

(* The insert body without the schema check: the engine uses this for
   INSERT ... SELECT rows, whose types were already proven against the
   target schema when the source plan was type-checked. *)
let ensure_locs b id =
  if id >= Array.length b.bk_locs then begin
    let bigger = Array.make (max (2 * Array.length b.bk_locs) (id + 1)) (-1) in
    Array.blit b.bk_locs 0 bigger 0 (Array.length b.bk_locs);
    b.bk_locs <- bigger
  end

(* A detached, immutable copy of the live state: no backing (scans read
   the in-memory mirror), no observers, no version machinery of its own.
   Tuples are shared — they are never mutated in place anywhere in the
   engine — so the copy costs three array copies plus the tuple table. *)
let freeze t =
  {
    schema = t.schema;
    rows = Array.copy t.rows;
    next_id = t.next_id;
    ids = Tuple_tbl.copy t.ids;
    bytes = t.bytes;
    backing = None;
    insert_obs = [];
    delete_obs = [];
    clear_obs = [];
    vctl = None;
    vchain = [];
    vfloor = min_int;
  }

(* Called at the top of every mutator, before the mutation lands: if a
   snapshot began after the last freeze, the current live state is exactly
   what that snapshot must keep seeing — pin it. One freeze covers every
   active snapshot up to the demand timestamp, so the cost is bounded by
   one copy per (relation, snapshot generation), not per row. *)
let maybe_capture t =
  match t.vctl with
  | None -> ()
  | Some ctl ->
      let d = ctl.vc_demand () in
      if d > t.vfloor then begin
        if t.vchain = [] then ctl.vc_chained t;
        t.vchain <- (d, freeze t) :: t.vchain;
        t.vfloor <- d;
        ctl.vc_captured ()
      end

let set_version_ctl t ctl = t.vctl <- ctl

(* The frozen version a snapshot that began at [ts] must read: the entry
   with the smallest tag >= ts (the chain is newest-first, so the last
   qualifying entry wins). [None] = the snapshot reads the live state —
   nothing has been mutated since it began. *)
let as_of t ts =
  let rec go best = function
    | [] -> best
    | (tag, copy) :: rest -> if tag >= ts then go (Some copy) rest else best
  in
  go None t.vchain

let versions t = List.length t.vchain

(* Drop chain entries no active snapshot can reach. [needed ~lo ~hi] asks
   the snapshot registry whether any active snapshot began in (lo, hi] —
   the half-open interval an entry serves (its own tag down to, exclusive,
   the next-older entry's tag). Dropping a middle entry is safe: the
   timestamps it served are exactly the ones no longer active, and the
   clock never reissues them. Returns [true] when the chain emptied (the
   registry unlinks the relation). [vfloor] stays put — it tracks the
   highest timestamp ever covered, pruned or not. *)
let prune_versions t ~needed =
  let rec go = function
    | [] -> []
    | (tag, copy) :: rest ->
        let lo = match rest with [] -> min_int | (prev, _) :: _ -> prev in
        let rest' = go rest in
        if needed ~lo ~hi:tag then (tag, copy) :: rest' else rest'
  in
  t.vchain <- go t.vchain;
  t.vchain = []

let insert_unchecked t row =
  maybe_capture t;
  (* before the id is taken: compaction renumbers *)
  ensure_capacity t;
  let id = t.next_id in
  if not (Tuple_tbl.insert_if_absent t.ids row id) then false
  else begin
    t.rows.(id) <- Some row;
    t.next_id <- id + 1;
    t.bytes <- t.bytes + Tuple.byte_size row;
    (match t.backing with
    | Some b ->
        ensure_locs b id;
        b.bk_locs.(id) <- Heap.append b.bk_heap row
    | None -> ());
    List.iter (fun f -> f id row) t.insert_obs;
    true
  end

let insert t row =
  (match Schema.validate t.schema row with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Relation.insert: " ^ msg));
  insert_unchecked t row

let delete t row =
  maybe_capture t;
  match Tuple_tbl.remove t.ids row with
  | -1 -> false
  | id ->
      t.rows.(id) <- None;
      t.bytes <- t.bytes - Tuple.byte_size row;
      (match t.backing with
      | Some b when id < Array.length b.bk_locs && b.bk_locs.(id) >= 0 ->
          ignore (Heap.delete b.bk_heap b.bk_locs.(id));
          b.bk_locs.(id) <- -1
      | _ -> ());
      List.iter (fun f -> f id row) t.delete_obs;
      true

let clear t =
  maybe_capture t;
  t.rows <- Array.make 16 None;
  t.next_id <- 0;
  Tuple_tbl.reset t.ids;
  t.bytes <- 0;
  (match t.backing with
  | Some b ->
      (* the heap and its pool frames are freed with the rows: byte and
         frame accounting shrink through the backing store uniformly *)
      Heap.clear b.bk_heap;
      b.bk_locs <- Array.make 16 (-1)
  | None -> ());
  List.iter (fun f -> f ()) t.clear_obs

(* Exchange the rows of two relations in O(1): the slot arrays, tuple
   tables, id watermarks and byte counts trade places. Both capture their
   snapshot version first, as every mutator does. Observers and backings
   stay where they are, so the caller must refuse relations that have
   either. *)
let swap a b =
  maybe_capture a;
  maybe_capture b;
  let rows = a.rows and next_id = a.next_id and ids = a.ids and bytes = a.bytes in
  a.rows <- b.rows;
  a.next_id <- b.next_id;
  a.ids <- b.ids;
  a.bytes <- b.bytes;
  b.rows <- rows;
  b.next_id <- next_id;
  b.ids <- ids;
  b.bytes <- bytes

(* Whole-relation scans on a backed relation go through the heap, so
   the buffer pool sees their page traffic. Id-addressed access
   ([iteri], [get_row]) stays on the in-memory mirror — it models the
   in-memory index plumbing. *)
let iter f t =
  match t.backing with
  | Some b -> Heap.iter (fun _ row -> f row) b.bk_heap
  | None -> iteri (fun _ row -> f row) t
let fold f init t =
  let acc = ref init in
  iter (fun row -> acc := f !acc row) t;
  !acc

let to_list t = List.rev (fold (fun acc row -> row :: acc) [] t)

let get_row t id = if id < 0 || id >= t.next_id then None else t.rows.(id)

(* O(1) registration: observers are consed, so they run most-recently
   registered first. The order is unspecified in the interface; observers
   must be mutually independent (indexes are). *)
(* Attach a heap backing. [`Load] requires an empty relation and
   populates it from the heap's rows (observers fire, so indexes build);
   [`Overwrite] truncates the heap and writes the relation's live rows
   out (the recovery path: the restored catalog is authoritative and the
   heap is rebuilt, compacted, from it). *)
let attach t bk_heap mode =
  (match t.backing with
  | Some _ -> invalid_arg "Relation.attach: relation already backed"
  | None -> ());
  let b = { bk_heap; bk_locs = Array.make (max 16 (Array.length t.rows)) (-1) } in
  (match mode with
  | `Load ->
      if cardinal t > 0 then invalid_arg "Relation.attach: `Load into a non-empty relation";
      Heap.iter
        (fun l row ->
          if insert_unchecked t row then begin
            let id = t.next_id - 1 in
            ensure_locs b id;
            b.bk_locs.(id) <- l
          end)
        bk_heap
  | `Overwrite ->
      Heap.clear bk_heap;
      iteri
        (fun id row ->
          ensure_locs b id;
          b.bk_locs.(id) <- Heap.append bk_heap row)
        t);
  t.backing <- Some b

(* Drop the backing, keeping the (mirrored) in-memory rows. The heap
   itself is the caller's to flush/close. *)
let detach t = t.backing <- None

let on_insert t f = t.insert_obs <- f :: t.insert_obs
let on_delete t f = t.delete_obs <- f :: t.delete_obs
let on_clear t f = t.clear_obs <- f :: t.clear_obs

(* Structural audit for the sanitizer: the rows array, the tuple -> id
   table, and the byte accounting must tell the same story. *)
let rec check t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter (fun m -> err "tuple table: %s" m) (Tuple_tbl.check t.ids);
  let live = ref 0 and bytes = ref 0 in
  for id = 0 to t.next_id - 1 do
    match t.rows.(id) with
    | None -> ()
    | Some row ->
        incr live;
        bytes := !bytes + Tuple.byte_size row;
        (match Schema.validate t.schema row with
        | Ok () -> ()
        | Error m -> err "row %d violates the schema: %s" id m);
        let id' = Tuple_tbl.find t.ids row in
        if id' <> id then err "row %d does not round-trip through the tuple table (find -> %d)" id id'
  done;
  for id = t.next_id to Array.length t.rows - 1 do
    if t.rows.(id) <> None then err "row slot %d is populated beyond next_id %d" id t.next_id
  done;
  if !live <> Tuple_tbl.length t.ids then
    err "%d live rows but the tuple table holds %d entries" !live (Tuple_tbl.length t.ids);
  if !bytes <> t.bytes then err "byte accounting drifted: rows sum to %d, recorded %d" !bytes t.bytes;
  (match t.backing with
  | None -> ()
  | Some b ->
      List.iter (fun m -> err "heap: %s" m) (Heap.check b.bk_heap);
      let heap_live = Heap.live b.bk_heap in
      if heap_live <> cardinal t then
        err "heap holds %d live rows but the relation holds %d" heap_live (cardinal t);
      for id = 0 to t.next_id - 1 do
        match t.rows.(id) with
        | None -> ()
        | Some row ->
            let l = if id < Array.length b.bk_locs then b.bk_locs.(id) else -1 in
            if l < 0 then err "row %d has no heap location" id
            else (
              match Heap.get b.bk_heap l with
              | Some row' when Tuple.equal row row' -> ()
              | Some _ -> err "row %d disagrees with its heap image at %d" id l
              | None -> err "row %d's heap location %d is dead" id l)
      done);
  (* version chain: tags strictly decreasing (newest first), every tag
     covered by the floor, and each frozen copy internally consistent *)
  (match t.vchain with
  | [] -> ()
  | (newest, _) :: _ ->
      if t.vfloor < newest then
        err "version floor %d is below the newest chain tag %d" t.vfloor newest;
      let rec tags = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            if a <= b then err "version chain tags not strictly decreasing (%d then %d)" a b;
            tags rest
        | _ -> ()
      in
      tags t.vchain;
      List.iter
        (fun (tag, copy) ->
          List.iter (fun m -> err "frozen version %d: %s" tag m) (check copy))
        t.vchain);
  List.rev !errs
