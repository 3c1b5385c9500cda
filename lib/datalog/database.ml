type t = (string, Relation.t) Hashtbl.t

let create () : t = Hashtbl.create 16

let add_relation db pred rel =
  (match Hashtbl.find_opt db pred with
   | Some existing when Relation.arity existing <> Relation.arity rel ->
     invalid_arg
       (Printf.sprintf "Database.add_relation: %s arity mismatch" pred)
   | _ -> ());
  Hashtbl.replace db pred rel

let declare db pred arity =
  match Hashtbl.find_opt db pred with
  | Some rel ->
    if Relation.arity rel <> arity then
      invalid_arg
        (Printf.sprintf
           "Database.declare: %s has arity %d, requested %d" pred
           (Relation.arity rel) arity)
    else rel
  | None ->
    let rel = Relation.create ~arity () in
    Hashtbl.add db pred rel;
    rel

let find db pred = Hashtbl.find_opt db pred

let get db pred =
  match find db pred with Some r -> r | None -> raise Not_found

let mem db pred = Hashtbl.mem db pred
let arity db pred = Option.map Relation.arity (find db pred)

let add_fact db pred tuple =
  let rel = declare db pred (Tuple.arity tuple) in
  Relation.add rel tuple

let predicates db =
  Hashtbl.fold (fun p _ acc -> p :: acc) db [] |> List.sort String.compare

let cardinal db pred =
  match find db pred with Some r -> Relation.cardinal r | None -> 0

let total_tuples db =
  Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) db 0

let copy db =
  let fresh = create () in
  Hashtbl.iter (fun p r -> Hashtbl.replace fresh p (Relation.copy r)) db;
  fresh

let restrict db preds =
  let fresh = create () in
  List.iter
    (fun p ->
      match find db p with
      | Some r -> Hashtbl.replace fresh p (Relation.copy r)
      | None -> ())
    preds;
  fresh

let merge_into ~dst ~src =
  Hashtbl.fold
    (fun pred rel acc ->
      let target = declare dst pred (Relation.arity rel) in
      acc + Relation.add_all target rel)
    src 0

let merge_disjoint_into ~dst ~src =
  Hashtbl.fold
    (fun pred rel acc ->
      let target = declare dst pred (Relation.arity rel) in
      acc + Relation.add_all_new target rel)
    src 0

let equal a b =
  let preds = List.sort_uniq String.compare (predicates a @ predicates b) in
  List.for_all
    (fun p ->
      match find a p, find b p with
      | Some ra, Some rb -> Relation.equal ra rb
      | Some r, None | None, Some r -> Relation.is_empty r
      | None, None -> true)
    preds

let pp ppf db =
  let pp_one ppf p =
    Format.fprintf ppf "@[<hov 2>%s/%d =@ %a@]" p
      (Option.value ~default:0 (arity db p))
      Relation.pp (get db p)
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_one)
    (predicates db)
