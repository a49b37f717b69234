open Ast
module Sql = Rdbms.Sql_ast

exception Codegen_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Codegen_error s)) fmt

let default_columns n = List.init n (fun i -> Printf.sprintf "c%d" (i + 1))

let lit_of_value = Sql.literal_of_value

(* Column reference for argument k of the literal aliased [alias] holding
   predicate [pred]. *)
let col_ref ~columns alias pred k =
  let cols = columns pred in
  (match List.nth_opt cols k with
  | Some _ -> ()
  | None -> err "predicate %s used with arity > its table's %d columns" pred (List.length cols));
  { Sql.qualifier = Some alias; column = List.nth cols k }

let select_for_rule ~columns ?table_of ?head_columns clause =
  if clause.body = [] then err "cannot compile a bodiless clause to SQL: %s" (clause_to_string clause);
  let table_of = Option.value table_of ~default:(fun _ -> "") in
  let body = Array.of_list clause.body in
  let n = Array.length body in
  Array.iter
    (fun l ->
      match l with
      | Pos a | Neg a ->
          let width = List.length (columns a.pred) in
          if List.length a.args <> width then
            err "predicate %s used with arity %d but its table has %d columns" a.pred
              (List.length a.args) width
      | Cmp _ -> ())
    body;
  (* aliases: positives t<i+1>, negatives n<i+1> (by body position) *)
  let alias i = match body.(i) with
    | Pos _ -> Printf.sprintf "t%d" (i + 1)
    | Neg _ -> Printf.sprintf "n%d" (i + 1)
    | Cmp _ -> err "internal: comparison literal has no alias"
  in
  let table i =
    let named = table_of i in
    if named = "" then
      match body.(i) with
      | Pos a | Neg a -> a.pred
      | Cmp _ -> err "internal: comparison literal has no table"
    else named
  in
  (* first positive occurrence of each variable *)
  let first_occ : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i l ->
      match l with
      | Pos a ->
          List.iteri
            (fun k arg ->
              match arg with
              | Var v -> if not (Hashtbl.mem first_occ v) then Hashtbl.add first_occ v (i, k)
              | Const _ -> ())
            a.args
      | Neg _ | Cmp _ -> ())
    body;
  let outer_ref v =
    match Hashtbl.find_opt first_occ v with
    | Some (i, k) -> Sql.Col (col_ref ~columns (alias i) (atom_of_literal body.(i)).pred k)
    | None -> err "variable %s is not bound by a positive literal in %s" v (clause_to_string clause)
  in
  (* FROM: positive literals in order *)
  let from =
    List.filter_map
      (fun i ->
        match body.(i) with
        | Pos _ -> Some { Sql.table = table i; alias = Some (alias i) }
        | Neg _ | Cmp _ -> None)
      (List.init n (fun i -> i))
  in
  if from = [] then err "rule body has no positive literal: %s" (clause_to_string clause);
  (* WHERE conjuncts *)
  let conds = ref [] in
  let add c = conds := !conds @ [ c ] in
  Array.iteri
    (fun i l ->
      match l with
      | Pos a ->
          List.iteri
            (fun k arg ->
              let here = Sql.Col (col_ref ~columns (alias i) a.pred k) in
              match arg with
              | Const v -> add (Sql.Cmp (here, Sql.Eq, Sql.Lit (lit_of_value v)))
              | Var v -> (
                  match Hashtbl.find_opt first_occ v with
                  | Some (fi, fk) when fi = i && fk = k -> () (* the defining occurrence *)
                  | Some (fi, fk) ->
                      let first =
                        Sql.Col (col_ref ~columns (alias fi) (atom_of_literal body.(fi)).pred fk)
                      in
                      add (Sql.Cmp (here, Sql.Eq, first))
                  | None -> assert false))
            a.args
      | Neg a ->
          let inner_alias = alias i in
          let inner_conds =
            List.mapi
              (fun k arg ->
                let here = Sql.Col (col_ref ~columns inner_alias a.pred k) in
                match arg with
                | Const v -> Sql.Cmp (here, Sql.Eq, Sql.Lit (lit_of_value v))
                | Var v -> Sql.Cmp (here, Sql.Eq, outer_ref v))
              a.args
          in
          let where =
            match inner_conds with
            | [] -> None
            | c :: rest -> Some (List.fold_left (fun acc x -> Sql.And (acc, x)) c rest)
          in
          add
            (Sql.Not_exists
               {
                 Sql.distinct = false;
                 items = [ Sql.Sel_star ];
                 from = [ { Sql.table = table i; alias = Some inner_alias } ];
                 where;
                 group_by = [];
               })
      | Cmp (x, op, y) ->
          let sql_op =
            match op with
            | C_eq -> Sql.Eq
            | C_neq -> Sql.Neq
            | C_lt -> Sql.Lt
            | C_le -> Sql.Le
            | C_gt -> Sql.Gt
            | C_ge -> Sql.Ge
          in
          let side = function
            | Const v -> Sql.Lit (lit_of_value v)
            | Var v -> outer_ref v
          in
          add (Sql.Cmp (side x, sql_op, side y)))
    body;
  let where =
    match !conds with
    | [] -> None
    | c :: rest -> Some (List.fold_left (fun acc x -> Sql.And (acc, x)) c rest)
  in
  (* SELECT items from the head *)
  let head_cols =
    match head_columns with
    | Some cols ->
        if List.length cols <> arity clause.head then
          err "head_columns arity mismatch for %s" (clause_to_string clause);
        cols
    | None -> default_columns (arity clause.head)
  in
  let items =
    List.map2
      (fun arg name ->
        let e =
          match arg with
          | Const v -> Sql.Lit (lit_of_value v)
          | Var v -> outer_ref v
        in
        Sql.Sel_expr (e, Some name))
      clause.head.args head_cols
  in
  Sql.Q_select { Sql.distinct = true; items; from; where; group_by = [] }

let insert_for_rule ~columns ?table_of ~target clause =
  let q = select_for_rule ~columns ?table_of clause in
  Printf.sprintf "INSERT INTO %s %s" target (Rdbms.Sql_printer.query q)

let fact_values clause =
  if not (is_fact clause) then err "not a fact: %s" (clause_to_string clause);
  let values =
    List.map
      (function
        | Const v -> Rdbms.Value.to_sql v
        | Var _ -> assert false)
      clause.head.args
  in
  Printf.sprintf "VALUES (%s)" (String.concat ", " values)

let insert_fact ~target clause = Printf.sprintf "INSERT INTO %s %s" target (fact_values clause)

let create_table ~name ~types ?columns () =
  let cols = Option.value columns ~default:(default_columns (List.length types)) in
  if List.length cols <> List.length types then err "create_table: column/type count mismatch";
  Printf.sprintf "CREATE TABLE %s (%s)" name
    (String.concat ", "
       (List.map2 (fun c ty -> c ^ " " ^ Rdbms.Datatype.to_string ty) cols types))
