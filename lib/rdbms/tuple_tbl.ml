(* Open-addressing tuple -> int map with cached hashes, shared by
   Relation (its tuple -> row-id table) and the compiled executor (as a
   row set, ignoring the value). Design points, all driven by the LFP
   hot loop, which funnels hundreds of thousands of rows through these
   tables per query:

   - one Tuple.hash computation per operation, present or absent (the
     stdlib Hashtbl pays two per insert: mem + add);
   - linear probing over three parallel arrays — no allocation per
     insert, where chained buckets cons an entry;
   - the hash is cached per slot, so probe collisions compare two ints
     before ever walking tuple structure, and growing the table
     redistributes slots without recomputing a single tuple hash (the
     stdlib rehashes every key on every resize);
   - load factor <= 1/2, capacity a power of two. *)

(* Slot states are carried by the key array itself: physical equality
   against two private one-element sentinel arrays. Zero-length arrays
   can't serve — OCaml shares the empty-array atom, so distinct [||]
   sentinels would be physically equal to each other and to user rows. *)
let empty_slot : Tuple.t = [| Value.Int 0 |]
let tomb_slot : Tuple.t = [| Value.Int 0 |]

type t = {
  mutable hashes : int array; (* valid only where keys.(i) is live *)
  mutable keys : Tuple.t array;
  mutable vals : int array;
  mutable size : int; (* live entries *)
  mutable fill : int; (* live + tombstones: what probe chains see *)
}

let initial_capacity = 16

let create () =
  {
    hashes = Array.make initial_capacity 0;
    keys = Array.make initial_capacity empty_slot;
    vals = Array.make initial_capacity 0;
    size = 0;
    fill = 0;
  }

let length t = t.size

let find t key =
  let h = Tuple.hash key in
  let mask = Array.length t.keys - 1 in
  let rec probe i =
    let k = Array.unsafe_get t.keys i in
    if k == empty_slot then -1
    else if k != tomb_slot && Array.unsafe_get t.hashes i = h && Tuple.equal k key then
      Array.unsafe_get t.vals i
    else probe ((i + 1) land mask)
  in
  probe (h land mask)

let mem t key = find t key >= 0

(* Rebuild at a capacity fitting the live entries (at least double the
   current occupancy pressure); tombstones are purged in passing. Slots
   are placed off the cached hashes — no Tuple.hash, no Tuple.equal
   (live keys are distinct by construction), no allocation beyond the
   three arrays. *)
let resize t =
  let cap = ref initial_capacity in
  while !cap < 4 * (t.size + 1) do cap := 2 * !cap done;
  let cap = !cap in
  let mask = cap - 1 in
  let nh = Array.make cap 0 in
  let nk = Array.make cap empty_slot in
  let nv = Array.make cap 0 in
  let old_keys = t.keys and old_hashes = t.hashes and old_vals = t.vals in
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k != empty_slot && k != tomb_slot then begin
      let h = Array.unsafe_get old_hashes i in
      let j = ref (h land mask) in
      while Array.unsafe_get nk !j != empty_slot do
        j := (!j + 1) land mask
      done;
      Array.unsafe_set nh !j h;
      Array.unsafe_set nk !j k;
      Array.unsafe_set nv !j (Array.unsafe_get old_vals i)
    end
  done;
  t.hashes <- nh;
  t.keys <- nk;
  t.vals <- nv;
  t.fill <- t.size

(* [insert_if_absent t key v] binds [key -> v] and returns [true] iff the
   key was absent. The first tombstone on the probe path is reused. *)
let insert_if_absent t key v =
  if 2 * (t.fill + 1) > Array.length t.keys then resize t;
  let h = Tuple.hash key in
  let mask = Array.length t.keys - 1 in
  let rec probe i tomb =
    let k = Array.unsafe_get t.keys i in
    if k == empty_slot then begin
      let j = if tomb >= 0 then tomb else i in
      Array.unsafe_set t.hashes j h;
      Array.unsafe_set t.keys j key;
      Array.unsafe_set t.vals j v;
      t.size <- t.size + 1;
      if tomb < 0 then t.fill <- t.fill + 1;
      true
    end
    else if k == tomb_slot then probe ((i + 1) land mask) (if tomb >= 0 then tomb else i)
    else if Array.unsafe_get t.hashes i = h && Tuple.equal k key then false
    else probe ((i + 1) land mask) tomb
  in
  probe (h land mask) (-1)

(* Returns the removed binding's value, or -1 if the key was absent. *)
let remove t key =
  let h = Tuple.hash key in
  let mask = Array.length t.keys - 1 in
  let rec probe i =
    let k = Array.unsafe_get t.keys i in
    if k == empty_slot then -1
    else if k != tomb_slot && Array.unsafe_get t.hashes i = h && Tuple.equal k key then begin
      Array.unsafe_set t.keys i tomb_slot;
      t.size <- t.size - 1;
      Array.unsafe_get t.vals i
    end
    else probe ((i + 1) land mask)
  in
  probe (h land mask)

(* An independent table with the same bindings: used by [Relation.freeze]
   to pin a copy-on-write snapshot version. Slot states survive a plain
   array copy — the sentinels are recognized physically, and [Array.copy]
   shares the very same sentinel values. *)
let copy t =
  {
    hashes = Array.copy t.hashes;
    keys = Array.copy t.keys;
    vals = Array.copy t.vals;
    size = t.size;
    fill = t.fill;
  }

let reset t =
  t.hashes <- Array.make initial_capacity 0;
  t.keys <- Array.make initial_capacity empty_slot;
  t.vals <- Array.make initial_capacity 0;
  t.size <- 0;
  t.fill <- 0

let map_values t f =
  for i = 0 to Array.length t.keys - 1 do
    let k = Array.unsafe_get t.keys i in
    if k != empty_slot && k != tomb_slot then
      Array.unsafe_set t.vals i (f (Array.unsafe_get t.vals i))
  done

(* Set view: membership-only use, as the compiled executor's dedup sets. *)
let add t key = insert_if_absent t key 0

(* Structural audit for the sanitizer: occupancy counters, cached hashes,
   and probe-chain reachability of every live key. *)
let check t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let cap = Array.length t.keys in
  if cap <> Array.length t.hashes || cap <> Array.length t.vals then
    err "parallel arrays disagree: keys=%d hashes=%d vals=%d" cap (Array.length t.hashes)
      (Array.length t.vals);
  let live = ref 0 and occupied = ref 0 in
  for i = 0 to cap - 1 do
    let k = t.keys.(i) in
    if k != empty_slot then begin
      incr occupied;
      if k != tomb_slot then begin
        incr live;
        let h = Tuple.hash k in
        if t.hashes.(i) <> h then err "slot %d: cached hash %d <> recomputed %d" i t.hashes.(i) h;
        if find t k <> t.vals.(i) then err "key at slot %d is not reachable by probing" i
      end
    end
  done;
  if !live <> t.size then err "size is %d but %d live slots exist" t.size !live;
  if !occupied <> t.fill then err "fill is %d but %d occupied slots exist" t.fill !occupied;
  if 2 * t.fill > cap then err "load factor exceeded: fill %d of capacity %d" t.fill cap;
  List.rev !errs
