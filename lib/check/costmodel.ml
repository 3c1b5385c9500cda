open Datalog
open Pardatalog

type pstat = {
  cardinality : int;
  max_freq : int array;
}

type profile = (string * pstat) list

let profile_of_db db =
  List.map
    (fun pred ->
      let rel = Database.get db pred in
      let arity = Relation.arity rel in
      let counts = Array.init arity (fun _ -> Hashtbl.create 64) in
      Relation.iter
        (fun t ->
          for col = 0 to arity - 1 do
            let tbl = counts.(col) in
            let c = Tuple.get t col in
            let n = try Hashtbl.find tbl c with Not_found -> 0 in
            Hashtbl.replace tbl c (n + 1)
          done)
        rel;
      let max_freq =
        Array.map
          (fun tbl -> Hashtbl.fold (fun _ n acc -> max n acc) tbl 0)
          counts
      in
      (pred, { cardinality = Relation.cardinal rel; max_freq }))
    (Database.predicates db)

let default_volume = 100.

(* The volume proxy [T]: how many tuples a round moves around. With a
   profile, the base relations feeding the recursive rules bound the
   first round's joins and (for the linear schemes) every later round's
   join fan-in; without one, a nominal constant — candidates are scored
   against each other on the same program, so only ratios matter. *)
let tuple_volume ?profile (p : Program.t) =
  match profile with
  | None -> default_volume
  | Some prof ->
    let derived = Program.derived_predicates p in
    let recursive_rules =
      List.filter (Analysis.is_recursive_rule p) p.Program.rules
    in
    let rules = if recursive_rules = [] then p.Program.rules else recursive_rules in
    let preds =
      List.sort_uniq String.compare
        (List.concat_map
           (fun (r : Rule.t) ->
             List.filter_map
               (fun (a : Atom.t) ->
                 if List.mem a.Atom.pred derived then None else Some a.Atom.pred)
               r.Rule.body)
           rules)
    in
    let sum =
      List.fold_left
        (fun acc pred ->
          match List.assoc_opt pred prof with
          | Some st -> acc + st.cardinality
          | None -> acc)
        0 preds
    in
    if sum = 0 then default_volume else float_of_int sum

(* The fraction of routed volume the hash's most loaded bucket must
   receive: the top value of any single routing column is a lower bound
   on the top joint key's frequency — we take the tightest such bound
   over every base occurrence of every routing variable. *)
let top_key_ratio ~profile ~(atoms : Atom.t list) vars =
  match (profile, vars) with
  | None, _ | _, [] -> None
  | Some prof, vars ->
    let ratio_of v =
      List.fold_left
        (fun acc (a : Atom.t) ->
          match List.assoc_opt a.Atom.pred prof with
          | None -> acc
          | Some st when st.cardinality = 0 -> acc
          | Some st ->
            let best = ref acc in
            Array.iteri
              (fun col arg ->
                if arg = Term.Var v then
                  let r =
                    float_of_int st.max_freq.(col)
                    /. float_of_int st.cardinality
                  in
                  match !best with
                  | None -> best := Some r
                  | Some b -> if r < b then best := Some r)
              a.Atom.args;
            !best)
        None atoms
    in
    List.fold_left
      (fun acc v ->
        match (ratio_of v, acc) with
        | None, acc -> acc
        | (Some _ as r), None -> r
        | Some r, Some b -> Some (min r b))
      None vars

let balance_of ~profile ~nprocs routes =
  let worst =
    List.fold_left
      (fun acc (vars, atoms) ->
        match top_key_ratio ~profile ~atoms vars with
        | None -> acc
        | Some ratio -> max acc (ratio *. float_of_int nprocs))
      1.0 routes
  in
  max 1.0 worst

let base_atoms_of derived (r : Rule.t) =
  List.filter (fun (a : Atom.t) -> not (List.mem a.Atom.pred derived)) r.Rule.body

let estimate ?profile ~nprocs ~scheme (p : Program.t) =
  let n = float_of_int nprocs in
  let t = tuple_volume ?profile p in
  let unicast = t *. (1. -. (1. /. n)) in
  let derived = Program.derived_predicates p in
  let sirup = Result.to_option (Analysis.as_sirup p) in
  let exit_routes (s : Analysis.sirup) vars =
    (vars, base_atoms_of derived s.Analysis.exit_rule)
  in
  let rec_routes (s : Analysis.sirup) vars =
    (vars, base_atoms_of derived s.Analysis.rec_rule)
  in
  let messages, redundancy, routes =
    match (scheme, sirup) with
    | Plan.Nocomm { ve; vr }, Some s ->
      (0., 0., [ exit_routes s ve; rec_routes s vr ])
    | Plan.Q { ve; vr }, Some s ->
      let covered =
        Discriminant.covered_positions vr s.Analysis.rec_atom <> None
      in
      let m = if covered then unicast else t *. (n -. 1.) in
      (m, 0., [ exit_routes s ve; rec_routes s vr ])
    | Plan.Wolfson, Some s ->
      (0., 1., [ exit_routes s (Rule.head_vars s.Analysis.exit_rule) ])
    | Plan.Tradeoff { alpha }, Some s ->
      ( (1. -. alpha) *. unicast,
        alpha,
        [ rec_routes s (Array.to_list s.Analysis.rec_vars) ] )
    | (Plan.General, _ | _, None) ->
      let with_derived =
        List.filter
          (fun (r : Rule.t) ->
            List.exists
              (fun (a : Atom.t) -> List.mem a.Atom.pred derived)
              r.Rule.body)
          p.Program.rules
      in
      let m = float_of_int (List.length with_derived) *. unicast in
      let choose = Strategy.default_choice p in
      let routes =
        List.map
          (fun (r : Rule.t) -> (choose r, base_atoms_of derived r))
          p.Program.rules
      in
      (m, 0., routes)
  in
  let balance = balance_of ~profile ~nprocs routes in
  let total =
    messages +. (0.8 *. redundancy *. t) +. (0.5 *. (balance -. 1.) *. t)
  in
  { Plan.messages; redundancy; balance; total }
