(* A concurrent multi-session D/KB server: one engine, K sessions, a
   line-oriented wire protocol over TCP.

   The loop is single-threaded and cooperative — connections multiplex
   through [Unix.select], and each request runs to completion on the
   shared engine (statement-granularity atomicity). Two mechanisms keep
   sessions from trampling each other:

   - Writers serialize: the engine has one transaction slot, so while a
     connection holds an explicit BEGIN, other connections' writes (and
     Datalog queries, whose scratch-table churn would join the open
     transaction's undo log) are refused with "ERR busy". Plain SELECTs
     stay allowed.

   - Readers never wait: BEGIN SNAPSHOT pins a copy-on-write snapshot,
     and snapshot SELECTs are served even while another connection's
     long LFP derivation is running — the query pump drains them between
     LFP iterations (via the runtime's iteration observer), reading
     frozen relation versions the writer cannot perturb. *)

module Engine = Rdbms.Engine
module Session = Core.Session

type conn = {
  c_fd : Unix.file_descr;
  c_session : Session.t;
  c_inbuf : Buffer.t; (* the incomplete line read so far *)
  mutable c_pending : string list; (* complete request lines, oldest first *)
  c_prepared : (string, string) Hashtbl.t; (* PREPARE templates *)
  mutable c_snapshot : int option; (* open snapshot timestamp *)
  mutable c_open : bool;
}

type t = {
  s_listen : Unix.file_descr;
  s_port : int;
  s_engine : Engine.t;
  mutable s_conns : conn list;
  mutable s_writer : conn option; (* holder of the engine's write txn *)
  mutable s_active : conn option; (* conn whose request is executing *)
  mutable s_pumping : bool; (* inside the LFP pump: safe requests only *)
  mutable s_running : bool;
}

let port t = t.s_port
let engine t = t.s_engine

let create ?(host = "127.0.0.1") ?(port = 0) engine =
  (* a client dropping mid-response must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 16;
  let actual =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  {
    s_listen = fd;
    s_port = actual;
    s_engine = engine;
    s_conns = [];
    s_writer = None;
    s_active = None;
    s_pumping = false;
    s_running = true;
  }

(* ------------------------------------------------------------------ *)
(* Connection I/O *)

let send conn lines =
  let payload = String.concat "\n" lines ^ "\n" in
  let bytes = Bytes.of_string payload in
  let len = Bytes.length bytes in
  let rec write off =
    if off < len then
      match Unix.write conn.c_fd bytes off (len - off) with
      | n -> write (off + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          conn.c_open <- false
  in
  write 0

let respond conn status body = send conn ((status :: body) @ [ Protocol.terminator ])

(* The longest request line accepted. A client that sends more without a
   newline is answered "ERR request line too long" and disconnected, so
   it can neither grow the server's memory nor keep it busy. *)
let max_line_bytes = 1 lsl 20

(* Read what arrived and queue the lines it completes. Only the new bytes
   are scanned for newlines; the incomplete tail waits in [c_inbuf]. *)
let read_conn conn =
  let buf = Bytes.create 4096 in
  match Unix.read conn.c_fd buf 0 4096 with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> conn.c_open <- false
  | 0 -> conn.c_open <- false
  | n -> (
      (* add buf[start, stop) to the pending line, unless that passes the cap *)
      let append start stop =
        Buffer.length conn.c_inbuf + (stop - start) <= max_line_bytes
        && (Buffer.add_subbytes conn.c_inbuf buf start (stop - start);
            true)
      in
      let rec newline i =
        if i >= n then None else if Bytes.get buf i = '\n' then Some i else newline (i + 1)
      in
      let rec scan start lines =
        match newline start with
        | None -> if append start n then Some lines else None
        | Some i ->
            if not (append start i) then None
            else begin
              let line = Buffer.contents conn.c_inbuf in
              Buffer.clear conn.c_inbuf;
              (* tolerate CRLF clients *)
              let len = String.length line in
              let line =
                if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1) else line
              in
              scan (i + 1) (line :: lines)
            end
      in
      match scan 0 [] with
      | Some lines -> conn.c_pending <- conn.c_pending @ List.rev lines
      | None ->
          Buffer.reset conn.c_inbuf;
          respond conn (Protocol.status_err "request line too long") [];
          conn.c_open <- false)

(* ------------------------------------------------------------------ *)
(* Request execution *)

let first_keyword sql =
  let sql = String.trim sql in
  let i = ref 0 in
  let n = String.length sql in
  while
    !i < n
    && (match sql.[!i] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  do
    incr i
  done;
  let kw = String.uppercase_ascii (String.sub sql 0 !i) in
  if kw = "BEGIN" && String.uppercase_ascii sql = "BEGIN SNAPSHOT" then "BEGIN SNAPSHOT"
  else kw

let is_select sql = first_keyword sql = "SELECT"

let rows_response columns rows =
  ( Protocol.status_ok [ ("rows", string_of_int (List.length rows)) ],
    Protocol.encode_line columns :: List.map (fun r -> Protocol.encode_line (Protocol.row_fields r)) rows
  )

(* what a connection may run while another connection's LFP derivation
   is executing (the pump): requests that cannot touch live relations *)
let safe_during_query conn = function
  | Protocol.Ping | Protocol.Stats | Protocol.Begin_snapshot -> true
  | Protocol.Sql sql -> conn.c_snapshot <> None && is_select sql
  | Protocol.Exec _ -> conn.c_snapshot <> None (* resolved text re-checked below *)
  | Protocol.Commit | Protocol.Rollback -> conn.c_snapshot <> None
  | Protocol.Query _ | Protocol.Rule _ | Protocol.Prepare _ | Protocol.Base _
  | Protocol.Begin | Protocol.Quit | Protocol.Shutdown ->
      false

type action = Keep | Close | Stop

let engine_result conn = function
  | Ok (Engine.Rows { columns; rows }) ->
      let status, body = rows_response columns rows in
      respond conn status body
  | Ok (Engine.Affected n) ->
      respond conn (Protocol.status_ok [ ("affected", string_of_int n) ]) []
  | Ok Engine.Done -> respond conn (Protocol.status_ok []) []
  | Error msg -> respond conn (Protocol.status_err msg) []

let rec handle t conn req =
  match req with
  | Protocol.Ping ->
      respond conn (Protocol.status_ok []) [];
      Keep
  | Protocol.Stats ->
      let sid = string_of_int (Session.session_id conn.c_session) in
      respond conn
        (Protocol.status_ok [ ("sid", sid) ])
        [ Protocol.encode_line [ Rdbms.Stats.to_string (Session.db_stats conn.c_session) ] ];
      Keep
  | Protocol.Prepare (name, template) ->
      Hashtbl.replace conn.c_prepared name template;
      respond conn (Protocol.status_ok []) [];
      Keep
  | Protocol.Exec (name, args) -> (
      match Hashtbl.find_opt conn.c_prepared name with
      | None ->
          respond conn (Protocol.status_err (Printf.sprintf "no prepared template: %s" name)) [];
          Keep
      | Some template -> (
          match Protocol.substitute template args with
          | Error msg ->
              respond conn (Protocol.status_err msg) [];
              Keep
          | Ok sql -> handle t conn (Protocol.Sql sql)))
  | Protocol.Sql sql -> (
      match first_keyword sql with
      (* route transaction-control SQL through the protocol handlers so
         the writer gate always sees it *)
      | "BEGIN" -> handle t conn Protocol.Begin
      | "COMMIT" -> handle t conn Protocol.Commit
      | "ROLLBACK" -> handle t conn Protocol.Rollback
      | "BEGIN SNAPSHOT" -> handle t conn Protocol.Begin_snapshot
      | kw -> (
          match conn.c_snapshot with
          | Some ts ->
              if kw <> "SELECT" then begin
                respond conn
                  (Protocol.status_err "snapshot transactions are read-only: only SELECT is allowed")
                  [];
                Keep
              end
              else begin
                (match Session.snapshot_query conn.c_session ~ts sql with
                | Ok (columns, rows) ->
                    let status, body = rows_response columns rows in
                    respond conn status body
                | Error msg -> respond conn (Protocol.status_err msg) []);
                Keep
              end
          | None ->
              let blocked =
                kw <> "SELECT"
                &&
                match t.s_writer with Some w -> w != conn | None -> false
              in
              if blocked then begin
                respond conn
                  (Protocol.status_err "busy: another connection holds the write transaction")
                  [];
                Keep
              end
              else begin
                engine_result conn (Session.sql conn.c_session sql);
                Keep
              end))
  | Protocol.Begin ->
      if conn.c_snapshot <> None then begin
        respond conn
          (Protocol.status_err "a snapshot transaction is open; COMMIT or ROLLBACK it first")
          [];
        Keep
      end
      else if (match t.s_writer with Some w -> w != conn | None -> false) then begin
        respond conn
          (Protocol.status_err "busy: another connection holds the write transaction")
          [];
        Keep
      end
      else begin
        (match Session.sql conn.c_session "BEGIN" with
        | Ok _ ->
            t.s_writer <- Some conn;
            respond conn (Protocol.status_ok []) []
        | Error msg -> respond conn (Protocol.status_err msg) []);
        Keep
      end
  | Protocol.Begin_snapshot -> (
      match conn.c_snapshot with
      | Some _ ->
          respond conn (Protocol.status_err "a snapshot transaction is already open") [];
          Keep
      | None -> (
          match Session.begin_snapshot conn.c_session with
          | Ok ts ->
              conn.c_snapshot <- Some ts;
              respond conn (Protocol.status_ok [ ("ts", string_of_int ts) ]) [];
              Keep
          | Error msg ->
              respond conn (Protocol.status_err msg) [];
              Keep))
  | Protocol.Commit | Protocol.Rollback -> (
      match conn.c_snapshot with
      | Some ts ->
          conn.c_snapshot <- None;
          (match Session.end_snapshot conn.c_session ts with
          | Ok () -> respond conn (Protocol.status_ok [ ("released", string_of_int ts) ]) []
          | Error msg -> respond conn (Protocol.status_err msg) []);
          Keep
      | None ->
          let stmt = if req = Protocol.Commit then "COMMIT" else "ROLLBACK" in
          (match Session.sql conn.c_session stmt with
          | Ok _ ->
              (match t.s_writer with
              | Some w when w == conn -> t.s_writer <- None
              | _ -> ());
              respond conn (Protocol.status_ok []) []
          | Error msg -> respond conn (Protocol.status_err msg) []);
          Keep)
  | Protocol.Base (name, cols) ->
      if (match t.s_writer with Some w -> w != conn | None -> false) then begin
        respond conn
          (Protocol.status_err "busy: another connection holds the write transaction")
          [];
        Keep
      end
      else begin
        (match Session.define_base conn.c_session name cols () with
        | Ok () -> respond conn (Protocol.status_ok []) []
        | Error msg -> respond conn (Protocol.status_err msg) []);
        Keep
      end
  | Protocol.Rule text -> (
      match Session.add_rule conn.c_session text with
      | Ok () -> respond conn (Protocol.status_ok []) []
      | Error msg -> respond conn (Protocol.status_err msg) []);
      Keep
  | Protocol.Query goal ->
      if conn.c_snapshot <> None then begin
        respond conn
          (Protocol.status_err
             "snapshot transactions are read-only: QUERY evaluates against live state")
          [];
        Keep
      end
      else if t.s_writer <> None then begin
        (* LFP scratch-table churn would join the open transaction's undo
           log (even the holder's: a rolled-back BEGIN must not undo a
           query's internal bookkeeping) *)
        respond conn
          (Protocol.status_err "busy: a write transaction is open; COMMIT it before QUERY")
          [];
        Keep
      end
      else begin
        let pump _ip = pump_safe t in
        (match Session.query conn.c_session ~on_iteration:pump goal with
        | Ok answer ->
            let columns, rows = Session.answer_rows answer in
            let status, body = rows_response columns rows in
            respond conn status body
        | Error msg -> respond conn (Protocol.status_err msg) []);
        Keep
      end
  | Protocol.Quit ->
      respond conn (Protocol.status_ok []) [];
      Close
  | Protocol.Shutdown ->
      respond conn (Protocol.status_ok []) [];
      Stop

(* Serve a connection's queued requests. Inside the pump only requests
   that cannot observe (or perturb) the running derivation are drained;
   anything else stays queued for the main loop. *)
and drain t conn =
  let rec go () =
    if conn.c_open && t.s_running then
      match conn.c_pending with
      | [] -> ()
      | line :: rest -> (
          match Protocol.parse_request line with
          | Error msg ->
              conn.c_pending <- rest;
              respond conn (Protocol.status_err msg) [];
              go ()
          | Ok req ->
              if t.s_pumping && not (safe_during_query conn req) then ()
              else begin
                conn.c_pending <- rest;
                t.s_active <- Some conn;
                (match handle t conn req with
                | Keep -> ()
                | Close -> conn.c_open <- false
                | Stop -> t.s_running <- false);
                t.s_active <- None;
                go ()
              end)
  in
  go ()

(* Between LFP iterations: pick up whatever arrived on the wire and
   serve the snapshot-read traffic immediately — the writer's long
   derivation never blocks pinned readers. *)
and pump_safe t =
  if not t.s_pumping then begin
    t.s_pumping <- true;
    Fun.protect
      ~finally:(fun () -> t.s_pumping <- false)
      (fun () ->
        poll t 0.0;
        List.iter
          (fun c ->
            match t.s_active with
            | Some active when active == c -> () (* the querying conn itself *)
            | _ ->
                let saved = t.s_active in
                drain t c;
                t.s_active <- saved)
          t.s_conns)
  end

and poll t timeout =
  let fds = t.s_listen :: List.map (fun c -> c.c_fd) t.s_conns in
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
      if List.mem t.s_listen readable then accept_conn t;
      List.iter (fun c -> if List.mem c.c_fd readable then read_conn c) t.s_conns

and accept_conn t =
  match Unix.accept t.s_listen with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ ->
      let conn =
        {
          c_fd = fd;
          c_session = Session.of_engine t.s_engine;
          c_inbuf = Buffer.create 256;
          c_pending = [];
          c_prepared = Hashtbl.create 8;
          c_snapshot = None;
          c_open = true;
        }
      in
      t.s_conns <- t.s_conns @ [ conn ]

(* ------------------------------------------------------------------ *)
(* Main loop *)

let cleanup t =
  let closed, live = List.partition (fun c -> not c.c_open) t.s_conns in
  t.s_conns <- live;
  List.iter
    (fun c ->
      (* a dropped connection must not leak its transaction or pin its
         snapshot's versions forever *)
      (match t.s_writer with
      | Some w when w == c ->
          (try ignore (Session.sql c.c_session "ROLLBACK") with _ -> ());
          t.s_writer <- None
      | _ -> ());
      (match c.c_snapshot with
      | Some ts ->
          c.c_snapshot <- None;
          ignore (Session.end_snapshot c.c_session ts)
      | None -> ());
      try Unix.close c.c_fd with Unix.Unix_error _ -> ())
    closed

(* cleanup runs between poll and drain so a disconnected writer's
   transaction is rolled back before other connections' queued requests
   hit the busy gate *)
let step t ~timeout =
  poll t timeout;
  cleanup t;
  List.iter (fun c -> drain t c) t.s_conns

let run t =
  while t.s_running do
    step t ~timeout:0.2
  done;
  List.iter (fun c -> c.c_open <- false) t.s_conns;
  cleanup t;
  (try Unix.close t.s_listen with Unix.Unix_error _ -> ())

let stop t = t.s_running <- false
let connections t = List.length t.s_conns
