(* The wire-protocol server driven end to end: an in-process server
   thread, real TCP clients, concurrent sessions on one engine. *)

module E = Rdbms.Engine
module Server = Dkb_server.Server
module Client = Dkb_server.Client
module Protocol = Dkb_server.Protocol

let ok = function Ok v -> v | Error msg -> Alcotest.fail msg

let with_server f =
  let engine = E.create () in
  let server = Server.create engine in
  let th = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join th)
    (fun () -> f engine (Server.port server))

let connect port = ok (Client.connect ~port ())

let test_protocol_basics () =
  with_server (fun _engine port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      ok (Client.ping c);
      ignore (ok (Client.base c "parent" [ ("p", "str"); ("c", "str") ]));
      let r = ok (Client.sql c "INSERT INTO parent VALUES ('john', 'mary'), ('mary', 'sue')") in
      Alcotest.(check (option string)) "affected" (Some "2") (Client.field r "affected");
      let r = ok (Client.sql c "SELECT c FROM parent WHERE p = 'john'") in
      Alcotest.(check (option string)) "rows field" (Some "1") (Client.field r "rows");
      Alcotest.(check (list (list string))) "row payload" [ [ "mary" ] ] (Client.rows r);
      (* parameterized statements *)
      ignore (ok (Client.prepare c "q" "SELECT c FROM parent WHERE p = ?1"));
      let r = ok (Client.exec c "q" [ "mary" ]) in
      Alcotest.(check (list (list string))) "exec rows" [ [ "sue" ] ] (Client.rows r);
      let r = ok (Client.exec c "q" [ "nobody" ]) in
      Alcotest.(check (list (list string))) "exec no rows" [] (Client.rows r);
      (* datalog over the wire *)
      ignore (ok (Client.rule c "anc(X,Y) :- parent(X,Y)."));
      ignore (ok (Client.rule c "anc(X,Y) :- parent(X,Z), anc(Z,Y)."));
      let r = ok (Client.query c "anc(john, W)") in
      Alcotest.(check (option string)) "query answers" (Some "2") (Client.field r "rows");
      (* per-session stats come back with the session id *)
      let r = ok (Client.command c "STATS") in
      Alcotest.(check bool) "sid field present" true (Client.field r "sid" <> None);
      (* protocol-level errors *)
      (match Client.sql c "SELECT nope FROM nothing" with
      | Error msg -> Alcotest.(check bool) "err mentions table" true
          (Astring.String.is_infix ~affix:"nothing" msg)
      | Ok _ -> Alcotest.fail "bad SQL accepted");
      (match Client.command c "FROBNICATE" with
      | Error msg -> Alcotest.(check bool) "unknown keyword refused" true
          (Astring.String.is_infix ~affix:"unknown" msg)
      | Ok _ -> Alcotest.fail "unknown request accepted"))

(* A placeholder index too large for an int is a typed error, not an
   exception: the server answers ERR and keeps serving the connection. *)
let test_placeholder_overflow () =
  let huge = "SELECT ?99999999999999999999" in
  (match Protocol.substitute huge [ "1" ] with
  | Error _ -> ()
  | Ok sql -> Alcotest.fail ("substituted " ^ sql));
  with_server (fun _engine port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      ignore (ok (Client.prepare c "p" huge));
      (match Client.exec c "p" [ "1" ] with
      | Error msg ->
          Alcotest.(check bool) "err names the placeholder" true
            (Astring.String.is_infix ~affix:"?99999999999999999999" msg)
      | Ok _ -> Alcotest.fail "overflowing placeholder accepted");
      ok (Client.ping c))

let test_writer_gating () =
  with_server (fun _engine port ->
      let c1 = connect port in
      let c2 = connect port in
      Fun.protect
        ~finally:(fun () -> Client.close c1; Client.close c2)
        (fun () ->
          ignore (ok (Client.sql c1 "CREATE TABLE t (a integer)"));
          ignore (ok (Client.command c1 "BEGIN"));
          ignore (ok (Client.sql c1 "INSERT INTO t VALUES (1)"));
          (* a second writer is refused, not blocked *)
          (match Client.sql c2 "INSERT INTO t VALUES (2)" with
          | Error msg -> Alcotest.(check bool) "busy" true
              (Astring.String.is_infix ~affix:"busy" msg)
          | Ok _ -> Alcotest.fail "second writer not gated");
          (match Client.command c2 "BEGIN" with
          | Error msg -> Alcotest.(check bool) "busy begin" true
              (Astring.String.is_infix ~affix:"busy" msg)
          | Ok _ -> Alcotest.fail "second BEGIN not gated");
          (* plain reads stay allowed *)
          ignore (ok (Client.sql c2 "SELECT a FROM t"));
          ignore (ok (Client.command c1 "COMMIT"));
          (* gate released *)
          let r = ok (Client.sql c2 "INSERT INTO t VALUES (2)") in
          Alcotest.(check (option string)) "write ok after commit" (Some "1")
            (Client.field r "affected")))

let test_snapshot_over_wire () =
  with_server (fun engine port ->
      let writer = connect port in
      let reader = connect port in
      Fun.protect
        ~finally:(fun () -> Client.close writer; Client.close reader)
        (fun () ->
          ignore (ok (Client.sql writer "CREATE TABLE t (a integer)"));
          ignore (ok (Client.sql writer "INSERT INTO t VALUES (1), (2), (3)"));
          let _ts = ok (Client.begin_snapshot reader) in
          ignore (ok (Client.sql writer "INSERT INTO t VALUES (4)"));
          ignore (ok (Client.sql writer "DELETE FROM t WHERE a = 1"));
          let r = ok (Client.sql reader "SELECT a FROM t") in
          Alcotest.(check (option string)) "snapshot pinned at 3 rows" (Some "3")
            (Client.field r "rows");
          (* snapshots are read-only *)
          (match Client.sql reader "INSERT INTO t VALUES (9)" with
          | Error msg -> Alcotest.(check bool) "read-only" true
              (Astring.String.is_infix ~affix:"read-only" msg)
          | Ok _ -> Alcotest.fail "snapshot write accepted");
          let r = ok (Client.sql writer "SELECT a FROM t") in
          Alcotest.(check (option string)) "writer sees live state" (Some "3")
            (Client.field r "rows");
          ok (Client.commit reader);
          Alcotest.(check int) "versions pruned after release" 0
            (E.snapshot_versions engine)))

let test_disconnect_cleans_up () =
  with_server (fun engine port ->
      let c1 = connect port in
      ignore (ok (Client.sql c1 "CREATE TABLE t (a integer)"));
      ignore (ok (Client.command c1 "BEGIN"));
      ignore (ok (Client.sql c1 "INSERT INTO t VALUES (1)"));
      (* drop the writer mid-transaction: the server must roll it back *)
      Client.close c1;
      let c2 = connect port in
      Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
      (* the rollback happens when the server notices the EOF; retry
         briefly rather than racing it *)
      let rec begin_retry attempts =
        match Client.command c2 "BEGIN" with
        | Ok _ -> ()
        | Error _ when attempts > 0 ->
            Thread.delay 0.05;
            begin_retry (attempts - 1)
        | Error msg -> Alcotest.fail ("BEGIN after writer disconnect: " ^ msg)
      in
      begin_retry 40;
      ignore (ok (Client.command c2 "ROLLBACK"));
      Alcotest.(check int) "uncommitted insert rolled back" 0
        (E.scalar_int engine "SELECT COUNT(*) FROM t");
      (* a dropped snapshot must not pin versions forever *)
      let c3 = connect port in
      ignore (ok (Client.begin_snapshot c3));
      ignore (ok (Client.sql c2 "INSERT INTO t VALUES (5)"));
      Alcotest.(check bool) "snapshot holds a version" true (E.snapshot_versions engine > 0);
      Client.close c3;
      let rec release_retry attempts =
        if E.snapshot_versions engine = 0 then ()
        else if attempts = 0 then Alcotest.fail "disconnected snapshot leaked versions"
        else begin
          ignore (Client.ping c2); (* keep the loop spinning *)
          Thread.delay 0.05;
          release_retry (attempts - 1)
        end
      in
      release_retry 40)

let test_reader_not_blocked_by_lfp () =
  with_server (fun _engine port ->
      let writer = connect port in
      let reader = connect port in
      Fun.protect
        ~finally:(fun () -> Client.close writer; Client.close reader)
        (fun () ->
          ignore (ok (Client.base writer "parent" [ ("p", "str"); ("c", "str") ]));
          let rows =
            String.concat ", "
              (List.init 60 (fun i -> Printf.sprintf "('n%d', 'n%d')" i (i + 1)))
          in
          ignore (ok (Client.sql writer ("INSERT INTO parent VALUES " ^ rows)));
          ignore (ok (Client.rule writer "anc(X,Y) :- parent(X,Y)."));
          ignore (ok (Client.rule writer "anc(X,Y) :- parent(X,Z), anc(Z,Y)."));
          ignore (ok (Client.begin_snapshot reader));
          (* churn so the snapshot holds a frozen version *)
          ignore (ok (Client.sql writer "INSERT INTO parent VALUES ('x', 'y')"));
          (* run the derivation from a second thread, reading from the
             reader connection while it is in flight *)
          let answer = ref None in
          let th =
            Thread.create
              (fun () -> answer := Some (Client.query writer "anc(n0, W)"))
              ()
          in
          let served = ref 0 in
          while !answer = None do
            match Client.sql reader "SELECT COUNT(*) FROM parent" with
            | Ok r ->
                Alcotest.(check (list (list string)))
                  "pinned count mid-derivation" [ [ "60" ] ] (Client.rows r);
                incr served
            | Error msg -> Alcotest.fail ("reader during LFP: " ^ msg)
          done;
          Thread.join th;
          (match !answer with
          | Some (Ok r) ->
              Alcotest.(check (option string)) "derivation answers" (Some "60")
                (Client.field r "rows")
          | Some (Error msg) -> Alcotest.fail msg
          | None -> assert false);
          Alcotest.(check bool) "reader was served while the writer ran" true (!served > 0);
          ok (Client.commit reader)))

(* A client that sends more than the 1 MiB line cap with no newline is
   answered ERR and disconnected promptly, and other connections keep
   being served; a line under the cap that spans many reads is still one
   request. The raw socket has send and receive timeouts, so a server
   that never answers fails the test instead of hanging it. *)
let test_line_cap () =
  with_server (fun _engine port ->
      let other = connect port in
      ignore (ok (Client.sql other "CREATE TABLE t (a integer)"));
      let rows = String.concat ", " (List.init 3000 (fun i -> Printf.sprintf "(%d)" i)) in
      let r = ok (Client.sql other ("INSERT INTO t VALUES " ^ rows)) in
      Alcotest.(check (option string)) "a 20 KB line is one request" (Some "3000")
        (Client.field r "affected");
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Client.close other;
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let t0 = Unix.gettimeofday () in
          let chunk = Bytes.make 65536 'x' in
          (* 2 MiB with no newline; the server hangs up part way *)
          (try
             for _ = 1 to 32 do
               let rec write off =
                 if off < Bytes.length chunk then
                   write (off + Unix.write fd chunk off (Bytes.length chunk - off))
               in
               write 0
             done
           with Unix.Unix_error _ -> ());
          let reply = Buffer.create 64 and buf = Bytes.create 4096 in
          let rec read () =
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes reply buf 0 n;
                read ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                Alcotest.fail "no reply to an over-long line within 5 s"
          in
          read ();
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "ERR reply: %S" (Buffer.contents reply))
            true
            (Astring.String.is_prefix ~affix:"ERR request line too long\n"
               (Buffer.contents reply));
          Alcotest.(check bool) (Printf.sprintf "closed within a second (%.2f s)" elapsed) true
            (elapsed < 1.0);
          ok (Client.ping other)))

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "protocol basics" `Quick test_protocol_basics;
          Alcotest.test_case "placeholder overflow" `Quick test_placeholder_overflow;
          Alcotest.test_case "writer gating" `Quick test_writer_gating;
          Alcotest.test_case "snapshot over wire" `Quick test_snapshot_over_wire;
          Alcotest.test_case "disconnect cleanup" `Quick test_disconnect_cleans_up;
          Alcotest.test_case "reader not blocked by LFP" `Quick test_reader_not_blocked_by_lfp;
          Alcotest.test_case "request line cap" `Quick test_line_cap;
        ] );
    ]
