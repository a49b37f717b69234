(** Column data types of the testbed DBMS (paper: [integer] and [char]). *)

type t =
  | TInt
  | TStr

val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** SQL spelling: ["integer"] or ["char"]. *)

val of_string : string -> t option
(** Parses [integer]/[int] and [char]/[varchar]/[string] (case-insensitive). *)

val of_value : Value.t -> t
(** The type a value inhabits. *)

val check : t -> Value.t -> bool
(** Does the value inhabit the type? *)

val parse : t -> string -> (Value.t, string) result
(** The value a text denotes as this type: for [TInt] the SQL integer
    syntax (an optional [-] and decimal digits, within [int] range), for
    [TStr] the text itself. The error says what was expected. *)
