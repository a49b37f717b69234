(* The line-oriented wire protocol shared by the server and the client.

   Requests are single lines, keyword first (case-insensitive):

     SQL <statement>            execute one SQL statement
     PREPARE <name> <template>  register a parameterized template (?1..?N)
     EXEC <name> [arg ...]      run a template with SQL-quoted arguments
     BASE <name> <col:type ...> define a base relation (types int | str)
     QUERY <goal>               compile and evaluate a Datalog goal
     RULE <clause>              add a workspace rule
     BEGIN                      open an explicit write transaction
     BEGIN SNAPSHOT             open a snapshot-isolated read transaction
     COMMIT | ROLLBACK          close the open transaction (either kind)
     STATS                      this session's execution counters
     PING                       liveness probe
     QUIT                       close this connection
     SHUTDOWN                   stop the whole server

   Responses are a status line — "OK" with optional "key=value" fields,
   or "ERR <message>" — followed by zero or more body lines (a
   tab-separated header then rows, for row-producing requests), and
   always terminated by a line holding a single ".". A "." inside a body
   line is escaped by the row encoding, so the terminator is
   unambiguous. *)

type request =
  | Sql of string
  | Prepare of string * string
  | Exec of string * string list
  | Base of string * (string * Rdbms.Datatype.t) list
  | Query of string
  | Rule of string
  | Begin
  | Begin_snapshot
  | Commit
  | Rollback
  | Stats
  | Ping
  | Quit
  | Shutdown

let terminator = "."

(* ------------------------------------------------------------------ *)
(* Request parsing *)

let split_keyword line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

(* EXEC argument tokenizer: whitespace-separated words, with single
   quotes grouping (and '' inside quotes meaning one literal quote, the
   SQL convention). *)
let tokenize s =
  let n = String.length s in
  let out = ref [] and buf = Buffer.create 16 in
  let started = ref false in
  let flush_word () =
    if !started then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf;
      started := false
    end
  in
  let rec word i =
    if i >= n then (flush_word (); Ok ())
    else
      match s.[i] with
      | ' ' | '\t' -> flush_word (); word (i + 1)
      | '\'' -> started := true; quoted (i + 1)
      | c -> started := true; Buffer.add_char buf c; word (i + 1)
  and quoted i =
    if i >= n then Error "unterminated quoted argument"
    else if s.[i] = '\'' then
      if i + 1 < n && s.[i + 1] = '\'' then begin
        Buffer.add_char buf '\'';
        quoted (i + 2)
      end
      else word (i + 1)
    else begin
      Buffer.add_char buf s.[i];
      quoted (i + 1)
    end
  in
  match word 0 with Ok () -> Ok (List.rev !out) | Error _ as e -> e

let parse_request line =
  let line = String.trim line in
  let kw, rest = split_keyword line in
  let need what v = if v = "" then Error (what ^ " expects an argument") else Ok v in
  match String.uppercase_ascii kw with
  | "SQL" -> Result.map (fun s -> Sql s) (need "SQL" rest)
  | "PREPARE" -> (
      let name, template = split_keyword rest in
      if name = "" || template = "" then Error "PREPARE expects a name and a template"
      else Ok (Prepare (name, template)))
  | "EXEC" -> (
      let name, args = split_keyword rest in
      if name = "" then Error "EXEC expects a template name"
      else match tokenize args with
        | Ok toks -> Ok (Exec (name, toks))
        | Error _ as e -> e)
  | "BASE" -> (
      let name, cols = split_keyword rest in
      if name = "" || cols = "" then Error "BASE expects a name and col:type pairs"
      else
        let parse_col acc spec =
          match acc with
          | Error _ as e -> e
          | Ok cols -> (
              match String.split_on_char ':' spec with
              | [ col; ty ] -> (
                  match Rdbms.Datatype.of_string ty with
                  | Some t -> Ok ((col, t) :: cols)
                  | None -> Error (Printf.sprintf "unknown column type: %s" ty))
              | _ -> Error (Printf.sprintf "malformed column spec: %s (want col:type)" spec))
        in
        let specs =
          List.filter (fun s -> s <> "") (String.split_on_char ' ' cols)
        in
        (match List.fold_left parse_col (Ok []) specs with
        | Ok cols -> Ok (Base (name, List.rev cols))
        | Error _ as e -> e))
  | "QUERY" -> Result.map (fun s -> Query s) (need "QUERY" rest)
  | "RULE" -> Result.map (fun s -> Rule s) (need "RULE" rest)
  | "BEGIN" -> (
      match String.uppercase_ascii rest with
      | "" -> Ok Begin
      | "SNAPSHOT" -> Ok Begin_snapshot
      | _ -> Error "BEGIN takes no argument (or SNAPSHOT)")
  | "COMMIT" -> if rest = "" then Ok Commit else Error "COMMIT takes no argument"
  | "ROLLBACK" -> if rest = "" then Ok Rollback else Error "ROLLBACK takes no argument"
  | "STATS" -> Ok Stats
  | "PING" -> Ok Ping
  | "QUIT" -> Ok Quit
  | "SHUTDOWN" -> Ok Shutdown
  | "" -> Error "empty request"
  | other -> Error (Printf.sprintf "unknown request: %s" other)

(* ------------------------------------------------------------------ *)
(* Parameter substitution *)

(* An integer-looking argument becomes an SQL integer literal; anything
   else a quoted string. The substituted text is ordinary SQL, so
   repeated EXECs with the same arguments hit the engine's prepared-
   statement cache on the exact text. *)
let sql_literal arg =
  match int_of_string_opt arg with
  | Some n -> string_of_int n
  | None ->
      let buf = Buffer.create (String.length arg + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
        arg;
      Buffer.add_char buf '\'';
      Buffer.contents buf

let substitute template args =
  let args = Array.of_list args in
  let n = String.length template in
  let buf = Buffer.create (n + 16) in
  let used = Array.make (Array.length args) false in
  (* the index just past the quote closing a literal whose body starts at
     [j] ('' is an escaped quote, not the end); an unclosed literal runs
     to the end of the template *)
  let rec literal_end j =
    if j >= n then n
    else if template.[j] <> '\'' then literal_end (j + 1)
    else if j + 1 < n && template.[j + 1] = '\'' then literal_end (j + 2)
    else j + 1
  in
  let rec go i =
    if i >= n then Ok ()
    else if template.[i] = '\'' then begin
      (* a quoted literal is copied as is: a ?N inside it is text *)
      let j = literal_end (i + 1) in
      Buffer.add_substring buf template i (j - i);
      go j
    end
    else if template.[i] = '?' && i + 1 < n && template.[i + 1] >= '1' && template.[i + 1] <= '9'
    then begin
      (* multi-digit placeholder indexes *)
      let j = ref (i + 1) in
      while !j < n && template.[!j] >= '0' && template.[!j] <= '9' do incr j done;
      let digits = String.sub template (i + 1) (!j - i - 1) in
      match int_of_string_opt digits with
      | Some idx when idx <= Array.length args ->
          used.(idx - 1) <- true;
          Buffer.add_string buf (sql_literal args.(idx - 1));
          go !j
      | _ ->
          (* an index past the argument list, or too large for an int *)
          Error
            (Printf.sprintf "placeholder ?%s but only %d arguments" digits (Array.length args))
    end
    else begin
      Buffer.add_char buf template.[i];
      go (i + 1)
    end
  in
  match go 0 with
  | Error _ as e -> e
  | Ok () ->
      let rec unused i =
        if i >= Array.length used then None
        else if not used.(i) then Some (i + 1)
        else unused (i + 1)
      in
      (match unused 0 with
      | Some i -> Error (Printf.sprintf "argument %d not used by the template" i)
      | None -> Ok (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Response encoding *)

let status_ok fields =
  match fields with
  | [] -> "OK"
  | _ -> "OK " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

let status_err msg =
  (* the status must stay one line whatever the engine said *)
  let flat = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) msg in
  "ERR " ^ flat

(* Body lines are tab-separated fields with backslash, tab, newline and
   a leading "." escaped, so the "." terminator and the framing survive
   any value. *)
let encode_field s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let encode_line fields =
  let line = String.concat "\t" (List.map encode_field fields) in
  if line = terminator then "\\." else line

let decode_field s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '\\' && i + 1 < n then begin
        (match s.[i + 1] with
        | 't' -> Buffer.add_char buf '\t'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | c -> Buffer.add_char buf c);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let decode_line line =
  if line = "\\." then [ terminator ]
  else List.map decode_field (String.split_on_char '\t' line)

let row_fields row = Array.to_list (Array.map Rdbms.Value.to_string row)
