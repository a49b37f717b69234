(* A thin blocking client for the wire protocol: one request out, one
   framed response back. *)

type response = {
  ok : bool;
  fields : (string * string) list; (* key=value pairs off the status line *)
  message : string; (* ERR text when [ok] is false *)
  body : string list list; (* decoded body lines (header + rows) *)
}

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
  | () -> Ok { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let parse_status line =
  if line = "OK" then (true, [], "")
  else if String.length line >= 3 && String.sub line 0 3 = "OK " then
    let rest = String.sub line 3 (String.length line - 3) in
    let fields =
      List.filter_map
        (fun part ->
          match String.index_opt part '=' with
          | Some i ->
              Some
                ( String.sub part 0 i,
                  String.sub part (i + 1) (String.length part - i - 1) )
          | None -> None)
        (String.split_on_char ' ' rest)
    in
    (true, fields, "")
  else if String.length line >= 4 && String.sub line 0 4 = "ERR " then
    (false, [], String.sub line 4 (String.length line - 4))
  else (false, [], "malformed status line: " ^ line)

let request t line =
  match
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc
  with
  | exception Sys_error msg -> Error msg
  | () -> (
      match input_line t.ic with
      | exception End_of_file -> Error "connection closed by server"
      | exception Sys_error msg -> Error msg
      | status ->
          let ok, fields, message = parse_status status in
          let rec body acc =
            match input_line t.ic with
            | exception End_of_file -> Error "connection closed mid-response"
            | exception Sys_error msg -> Error msg
            | line ->
                if line = Protocol.terminator then Ok (List.rev acc)
                else body (Protocol.decode_line line :: acc)
          in
          (match body [] with
          | Error _ as e -> e
          | Ok body -> Ok { ok; fields; message; body }))

(* a convenience that folds protocol-level ERR into the error channel *)
let command t line =
  match request t line with
  | Error _ as e -> e
  | Ok r -> if r.ok then Ok r else Error r.message

let field r key = List.assoc_opt key r.fields

let rows r = match r.body with [] -> [] | _header :: rows -> rows

let sql t stmt = command t ("SQL " ^ stmt)

let base t name cols =
  command t
    ("BASE " ^ name ^ " " ^ String.concat " " (List.map (fun (c, ty) -> c ^ ":" ^ ty) cols))
let query t goal = command t ("QUERY " ^ goal)
let rule t clause = command t ("RULE " ^ clause)
let ping t = match command t "PING" with Ok _ -> Ok () | Error msg -> Error msg

let begin_snapshot t =
  match command t "BEGIN SNAPSHOT" with
  | Error _ as e -> e
  | Ok r -> (
      match field r "ts" with
      | Some ts -> ( match int_of_string_opt ts with Some n -> Ok n | None -> Error "bad ts")
      | None -> Error "missing ts field")

let commit t = match command t "COMMIT" with Ok _ -> Ok () | Error msg -> Error msg
let rollback t = match command t "ROLLBACK" with Ok _ -> Ok () | Error msg -> Error msg

let prepare t name template = command t (Printf.sprintf "PREPARE %s %s" name template)

let exec t name args =
  let quoted =
    List.map
      (fun a ->
        if a <> "" && String.for_all (fun c -> c <> ' ' && c <> '\t' && c <> '\'') a then a
        else Protocol.quote_arg a)
      args
  in
  command t (String.concat " " (("EXEC " ^ name) :: quoted))
