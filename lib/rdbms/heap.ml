(* A slotted-page heap file: the on-disk backing store for one relation.

   All page access goes through the shared buffer pool, so every cold
   read and every dirty-page writeback shows in the pool's counters. Rows
   are addressed by a location [page_no * 2^16 + slot]; appends fill the
   last page and extend the file one page at a time. Freed space is not
   reused in place — TRUNCATE and checkpoint-recovery rebuilds compact
   the file. *)

type t = {
  path : string;
  fd : Unix.file_descr;
  pool : Buffer_pool.t;
  file_id : int;
  mutable npages : int;
}

let loc_page loc = loc lsr 16
let loc_slot loc = loc land 0xffff
let loc ~page ~slot = (page lsl 16) lor slot

let really_read fd buf len =
  let rec go off =
    if off < len then begin
      let n = Unix.read fd buf off (len - off) in
      if n = 0 then Bytes.fill buf off (len - off) '\000' else go (off + n)
    end
  in
  go 0

let really_write fd buf len =
  let rec go off =
    if off < len then begin
      let n = Unix.write fd buf off (len - off) in
      go (off + n)
    end
  in
  go 0

let create ~pool path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let read pno buf =
    ignore (Unix.lseek fd (pno * Page.size) Unix.SEEK_SET);
    really_read fd buf Page.size
  in
  let write pno buf =
    ignore (Unix.lseek fd (pno * Page.size) Unix.SEEK_SET);
    really_write fd buf Page.size
  in
  let file_id = Buffer_pool.register pool { Buffer_pool.read; write } in
  { path; fd; pool; file_id; npages = (size + Page.size - 1) / Page.size }

let path t = t.path
let page_count t = t.npages

let with_page t pno f =
  let data = Buffer_pool.pin t.pool t.file_id pno in
  Fun.protect ~finally:(fun () -> Buffer_pool.unpin t.pool t.file_id pno) (fun () -> f data)

let append t row =
  let insert_in pno ~fresh =
    let data =
      if fresh then Buffer_pool.pin_fresh t.pool t.file_id pno
      else Buffer_pool.pin t.pool t.file_id pno
    in
    Fun.protect
      ~finally:(fun () -> Buffer_pool.unpin t.pool t.file_id pno)
      (fun () ->
        match Page.insert data row with
        | Some slot ->
            Buffer_pool.mark_dirty t.pool t.file_id pno;
            Some (loc ~page:pno ~slot)
        | None -> None)
  in
  let fresh_page () =
    let pno = t.npages in
    t.npages <- pno + 1;
    match insert_in pno ~fresh:true with
    | Some l -> l
    | None -> invalid_arg "Heap.append: tuple larger than a page"
  in
  if t.npages = 0 then fresh_page ()
  else
    match insert_in (t.npages - 1) ~fresh:false with
    | Some l -> l
    | None -> fresh_page ()

let get t l =
  with_page t (loc_page l) (fun data -> Page.get data (loc_slot l))

let delete t l =
  let pno = loc_page l in
  with_page t pno (fun data ->
      if Page.delete data (loc_slot l) then begin
        Buffer_pool.mark_dirty t.pool t.file_id pno;
        true
      end
      else false)

(* Decode a page's rows under the pin, then call [f] unpinned: a scan
   holds at most one pin at a time, so nested scans never exhaust even a
   tiny pool. *)
let iter f t =
  for pno = 0 to t.npages - 1 do
    let rows =
      with_page t pno (fun data ->
          let acc = ref [] in
          Page.iter (fun slot row -> acc := (loc ~page:pno ~slot, row) :: !acc) data;
          List.rev !acc)
    in
    List.iter (fun (l, row) -> f l row) rows
  done

let live t =
  let n = ref 0 in
  for pno = 0 to t.npages - 1 do
    n := !n + with_page t pno Page.live
  done;
  !n

let clear t =
  Buffer_pool.invalidate_file t.pool t.file_id;
  Unix.ftruncate t.fd 0;
  t.npages <- 0

let flush t = Buffer_pool.flush_file t.pool t.file_id
let resident t = Buffer_pool.resident t.pool t.file_id

(* Write back and drop every resident frame: the next access runs cold.
   For benchmarks; the file itself is untouched. *)
let evict t =
  Buffer_pool.flush_file t.pool t.file_id;
  Buffer_pool.invalidate_file t.pool t.file_id

let close t =
  Buffer_pool.unregister t.pool t.file_id;
  Unix.close t.fd

(* Close without flushing and delete the file (DROP TABLE). *)
let destroy t =
  Buffer_pool.invalidate_file t.pool t.file_id;
  Buffer_pool.unregister t.pool t.file_id;
  Unix.close t.fd;
  if Sys.file_exists t.path then Sys.remove t.path

let check t =
  let errs = ref [] in
  for pno = 0 to t.npages - 1 do
    List.iter
      (fun m -> errs := Printf.sprintf "%s page %d: %s" t.path pno m :: !errs)
      (with_page t pno Page.check)
  done;
  List.rev !errs
