(** The line-oriented wire protocol shared by {!Server} and {!Client}.

    One request per line, keyword first; one response per request: a
    status line ([OK] with optional [key=value] fields, or
    [ERR <message>]), optional tab-separated body lines (header then
    rows), and a terminating ["."] line. See the implementation header
    for the full grammar. *)

type request =
  | Sql of string  (** [SQL <statement>] *)
  | Prepare of string * string  (** [PREPARE <name> <template with ?1..?N>] *)
  | Exec of string * string list  (** [EXEC <name> [arg ...]] *)
  | Base of string * (string * Rdbms.Datatype.t) list
      (** [BASE <name> <col:type ...>] — define a base relation and
          register it in the EDB dictionary (types [int] | [str]) *)
  | Query of string  (** [QUERY <goal>] — Datalog evaluation *)
  | Rule of string  (** [RULE <clause>] — add a workspace rule *)
  | Begin  (** [BEGIN] — explicit write transaction *)
  | Begin_snapshot  (** [BEGIN SNAPSHOT] — snapshot-isolated reads *)
  | Commit
  | Rollback
  | Stats  (** this session's counters *)
  | Ping
  | Quit
  | Shutdown

val parse_request : string -> (request, string) result

val terminator : string
(** ["."] — every response's final line. *)

val substitute : string -> string list -> (string, string) result
(** [substitute template args] replaces [?1]..[?N] with the arguments as
    SQL literals (integers bare, everything else quoted). Single-quoted
    literals in the template, [''] escapes included, are left alone: a
    [?N] inside one is text. Errors on a placeholder past the argument
    list or an argument no placeholder uses. *)

val sql_literal : string -> string
(** The SQL literal form substitution uses for one argument. *)

val status_ok : (string * string) list -> string
val status_err : string -> string

val encode_line : string list -> string
(** Tab-join fields, escaping tabs/newlines/backslashes and a bare ["."]
    so framing survives any value. *)

val decode_line : string -> string list
(** Inverse of {!encode_line}. *)

val row_fields : Rdbms.Tuple.t -> string list
(** A result row as displayable fields. *)
