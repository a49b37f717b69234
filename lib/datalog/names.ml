let contains_double_underscore s =
  let n = String.length s in
  let rec loop i = i + 1 < n && ((s.[i] = '_' && s.[i + 1] = '_') || loop (i + 1)) in
  loop 0

let check_user_pred name =
  if name = "" then Error "empty predicate name"
  else if not (name.[0] >= 'a' && name.[0] <= 'z') then
    Error (Printf.sprintf "predicate %s must start with a lowercase letter" name)
  else if contains_double_underscore name then
    Error (Printf.sprintf "predicate %s may not contain '__' (reserved)" name)
  else if
    not
      (String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_')
         name)
  then Error (Printf.sprintf "predicate %s contains invalid characters" name)
  else Ok ()

let adorned p ad = p ^ "__" ^ ad
let magic p ad = "m__" ^ p ^ "__" ^ ad
let delta p = "dlt__" ^ p
let new_delta p = "cand__" ^ p
let next p = "next__" ^ p
let diff p = "diff__" ^ p
let facts_base p = p ^ "__facts"

let scratch_tables p = [ next p; delta p; new_delta p; diff p ]

(* Incremental view maintenance (Core.Incremental): the persistent
   materialization of a derived predicate and the per-update delta and
   over-deletion scratch tables. *)
let mat p = "mat__" ^ p
let ins_delta p = "insd__" ^ p
let del_delta p = "deld__" ^ p
let overdel p = "odel__" ^ p

let strip_prefix prefix s =
  let lp = String.length prefix in
  if String.length s >= lp && String.sub s 0 lp = prefix then String.sub s lp (String.length s - lp)
  else s

let strip_decorations s =
  let s = strip_prefix "m__" s in
  let s = strip_prefix "dlt__" s in
  let s = strip_prefix "cand__" s in
  let s = strip_prefix "next__" s in
  let s = strip_prefix "diff__" s in
  let s = strip_prefix "mat__" s in
  let s = strip_prefix "insd__" s in
  let s = strip_prefix "deld__" s in
  let s = strip_prefix "odel__" s in
  (* drop a trailing __adornment or __facts suffix *)
  let n = String.length s in
  let rec find i = if i + 1 >= n then None else if s.[i] = '_' && s.[i + 1] = '_' then Some i else find (i + 1) in
  match find 0 with
  | Some i -> String.sub s 0 i
  | None -> s

let supplementary p ad r i = Printf.sprintf "sup__%s__%s__r%d__%d" p ad r i
