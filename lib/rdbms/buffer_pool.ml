(* A shared buffer pool over page files, with clock (second-chance)
   eviction, pin counts, and dirty-page writeback.

   Page files register a read/write backend and get a file id; pages are
   addressed as (file id, page number). A miss reads the page through the
   backend; evicting or flushing a dirty frame writes it back. The pool's
   own hit, miss and writeback counters are the engine's measured I/O.
   They are a separate family from the simulated [Stats] charges of the
   paper's cost model, and the two are never added together. *)

type frame = {
  mutable key : (int * int) option; (* (file_id, page_no); None = free *)
  data : Bytes.t;
  mutable dirty : bool;
  mutable pin : int;
  mutable ref_bit : bool;
}

type backend = {
  read : int -> Bytes.t -> unit; (* fill the buffer with the page's bytes *)
  write : int -> Bytes.t -> unit;
}

type t = {
  frames : frame array;
  map : (int * int, int) Hashtbl.t; (* resident key -> frame index *)
  mutable hand : int;
  files : (int, backend) Hashtbl.t;
  mutable next_file : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let create ?(pages = 64) () =
  let pages = max 1 pages in
  {
    frames =
      Array.init pages (fun _ ->
          { key = None; data = Bytes.create Page.size; dirty = false; pin = 0; ref_bit = false });
    map = Hashtbl.create (2 * pages);
    hand = 0;
    files = Hashtbl.create 8;
    next_file = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let size t = Array.length t.frames
let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let register t backend =
  let id = t.next_file in
  t.next_file <- id + 1;
  Hashtbl.replace t.files id backend;
  id

let backend_exn t fid =
  match Hashtbl.find_opt t.files fid with
  | Some b -> b
  | None -> failwith (Printf.sprintf "Buffer_pool: unregistered file %d" fid)

let write_back t fr =
  match fr.key with
  | Some (fid, pno) when fr.dirty ->
      (backend_exn t fid).write pno fr.data;
      fr.dirty <- false;
      t.writebacks <- t.writebacks + 1
  | _ -> ()

(* Clock sweep: skip pinned frames; a set ref bit buys one more lap. Two
   full laps without a victim means every frame is pinned — a pool
   misconfiguration (pool smaller than the scan nesting depth). *)
let victim t =
  let n = Array.length t.frames in
  let rec go steps =
    if steps > 2 * n then failwith "Buffer_pool: all frames pinned"
    else begin
      let i = t.hand in
      t.hand <- (t.hand + 1) mod n;
      let fr = t.frames.(i) in
      if fr.pin > 0 then go (steps + 1)
      else if fr.ref_bit then begin
        fr.ref_bit <- false;
        go (steps + 1)
      end
      else i
    end
  in
  go 0

let frame_for t key ~fresh =
  match Hashtbl.find_opt t.map key with
  | Some i ->
      let fr = t.frames.(i) in
      t.hits <- t.hits + 1;
      fr.ref_bit <- true;
      fr
  | None ->
      let i = victim t in
      let fr = t.frames.(i) in
      write_back t fr;
      (match fr.key with
      | Some old -> Hashtbl.remove t.map old
      | None -> ());
      fr.key <- Some key;
      fr.ref_bit <- true;
      Hashtbl.replace t.map key i;
      if fresh then begin
        (* a newly allocated page: no disk image to read *)
        Bytes.fill fr.data 0 Page.size '\000';
        Page.init fr.data;
        fr.dirty <- true
      end
      else begin
        let fid, pno = key in
        (backend_exn t fid).read pno fr.data;
        fr.dirty <- false;
        t.misses <- t.misses + 1
      end;
      fr

let pin t fid pno =
  let fr = frame_for t (fid, pno) ~fresh:false in
  fr.pin <- fr.pin + 1;
  fr.data

let pin_fresh t fid pno =
  let fr = frame_for t (fid, pno) ~fresh:true in
  fr.pin <- fr.pin + 1;
  fr.data

let find t key =
  match Hashtbl.find_opt t.map key with
  | Some i -> t.frames.(i)
  | None -> failwith "Buffer_pool: page not resident"

let unpin t fid pno =
  let fr = find t (fid, pno) in
  if fr.pin <= 0 then failwith "Buffer_pool: unpin of an unpinned page";
  fr.pin <- fr.pin - 1

let mark_dirty t fid pno = (find t (fid, pno)).dirty <- true

let flush_file t fid =
  Array.iter
    (fun fr -> match fr.key with Some (f, _) when f = fid -> write_back t fr | _ -> ())
    t.frames

let flush_all t = Array.iter (fun fr -> write_back t fr) t.frames

(* Drop a file's frames without writeback (TRUNCATE / DROP: the on-disk
   pages are gone, so flushing them would resurrect freed space). *)
let invalidate_file t fid =
  Array.iter
    (fun fr ->
      match fr.key with
      | Some (f, _) when f = fid ->
          if fr.pin > 0 then failwith "Buffer_pool: invalidating a pinned page";
          Hashtbl.remove t.map (Option.get fr.key);
          fr.key <- None;
          fr.dirty <- false;
          fr.ref_bit <- false
      | _ -> ())
    t.frames

let unregister t fid =
  flush_file t fid;
  invalidate_file t fid;
  Hashtbl.remove t.files fid

(* Run [f] with the counters saved and restored afterwards: the
   sanitizer's heap audits read pages through the pool without polluting
   the measured counters. *)
let suspended t f =
  let hits = t.hits and misses = t.misses and writebacks = t.writebacks in
  Fun.protect
    ~finally:(fun () ->
      t.hits <- hits;
      t.misses <- misses;
      t.writebacks <- writebacks)
    f

let resident t fid =
  Array.fold_left
    (fun acc fr -> match fr.key with Some (f, _) when f = fid -> acc + 1 | _ -> acc)
    0 t.frames

let pinned t =
  Array.fold_left (fun acc fr -> acc + fr.pin) 0 t.frames

(* Structural audit for the sanitizer: the residency map and the frame
   array must tell the same story, and no frame may be left pinned or
   belong to an unregistered file between statements. *)
let check t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Array.iteri
    (fun i fr ->
      if fr.pin < 0 then err "frame %d has a negative pin count %d" i fr.pin;
      if fr.pin > 0 then err "frame %d still pinned (%d) between statements" i fr.pin;
      match fr.key with
      | None -> ()
      | Some ((fid, pno) as key) ->
          if not (Hashtbl.mem t.files fid) then
            err "frame %d holds page %d of unregistered file %d" i pno fid;
          (match Hashtbl.find_opt t.map key with
          | Some j when j = i -> ()
          | Some j -> err "frame %d's key maps to frame %d" i j
          | None -> err "frame %d resident but missing from the map" i))
    t.frames;
  Hashtbl.iter
    (fun key i ->
      if i < 0 || i >= Array.length t.frames || t.frames.(i).key <> Some key then
        err "map entry (%d, %d) -> %d does not match its frame" (fst key) (snd key) i)
    t.map;
  List.rev !errs
