type t =
  | TInt
  | TStr

let equal a b = a = b
let compare = Stdlib.compare

let to_string = function
  | TInt -> "integer"
  | TStr -> "char"

let of_string s =
  match String.lowercase_ascii s with
  | "integer" | "int" -> Some TInt
  | "char" | "varchar" | "string" | "str" | "text" -> Some TStr
  | _ -> None

let of_value = function
  | Value.Int _ -> TInt
  | Value.Str _ -> TStr

let check t v = equal t (of_value v)

(* Integers in the SQL lexer's syntax only: int_of_string alone would
   also read "0x1", "0_1" and "+1". *)
let parse t text =
  match t with
  | TStr -> Ok (Value.Str text)
  | TInt -> (
      let digits =
        if String.starts_with ~prefix:"-" text then String.sub text 1 (String.length text - 1)
        else text
      in
      if digits = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') digits) then
        Error (Printf.sprintf "expected integer, got %s" text)
      else
        match int_of_string_opt text with
        | Some v -> Ok (Value.Int v)
        | None -> Error (Printf.sprintf "integer %s out of range" text))
