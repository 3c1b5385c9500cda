let dependency_graph p =
  let derived = Program.derived_predicates p in
  List.map
    (fun pred ->
      let deps =
        Program.rules_for p pred
        |> List.concat_map (fun (r : Rule.t) ->
               List.map (fun (a : Atom.t) -> a.pred) (r.body @ r.neg))
        |> List.sort_uniq String.compare
      in
      (pred, deps))
    derived

(* Tarjan's algorithm over the derived-predicate dependency graph.
   Output order (components finished first) is bottom-up topological. *)
let sccs p =
  let graph = dependency_graph p in
  let derived = List.map fst graph in
  let succs pred =
    match List.assoc_opt pred graph with
    | Some deps -> List.filter (fun d -> List.mem_assoc d graph) deps
    | None -> []
  in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.add index v !counter;
    Hashtbl.add lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.add on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      let comp = pop [] in
      components := List.sort String.compare comp :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v)
    derived;
  List.rev !components

let scc_of p =
  let comps = sccs p in
  fun pred -> List.find_opt (fun comp -> List.mem pred comp) comps

let mutually_recursive p a b =
  match scc_of p a with
  | Some comp when List.mem b comp ->
    (* Singleton components are recursive only with a self-loop. *)
    (match comp with
     | [ single ] when String.equal a b && String.equal single a ->
       Program.rules_for p a
       |> List.exists (fun (r : Rule.t) ->
              List.exists (fun (at : Atom.t) -> String.equal at.pred a) r.body)
     | _ -> true)
  | _ -> false

let recursive_atoms p (r : Rule.t) =
  List.filter
    (fun (a : Atom.t) -> mutually_recursive p r.head.pred a.pred)
    r.body

let is_recursive_rule p r = recursive_atoms p r <> []

let is_linear p =
  List.for_all
    (fun r -> List.length (recursive_atoms p r) <= 1)
    (Program.rules p)

type sirup = {
  pred : string;
  exit_rule : Rule.t;
  rec_rule : Rule.t;
  head_vars : string array;
  rec_atom : Atom.t;
  rec_vars : string array;
  base_atoms : Atom.t list;
}

let all_vars (a : Atom.t) =
  let exception Not_var in
  try
    Some
      (Array.map
         (function Term.Var v -> v | Term.Const _ -> raise Not_var)
         a.args)
  with Not_var -> None

type not_sirup =
  | Not_single_predicate of string list
  | Ill_formed of string
  | Wrong_rule_count of { recursive : int; exit : int }
  | Nonlinear_recursive_rule of Rule.t
  | Head_has_constants of Rule.t
  | Rec_atom_has_constants of Rule.t

let explain_not_sirup = function
  | Not_single_predicate [] -> "the program has no rules"
  | Not_single_predicate ps ->
    Printf.sprintf
      "a sirup must define exactly one predicate, found %d (%s)"
      (List.length ps) (String.concat ", " ps)
  | Ill_formed msg -> msg
  | Wrong_rule_count { recursive; exit } ->
    Printf.sprintf
      "a sirup must have one recursive and one exit rule (found %d/%d)"
      recursive exit
  | Nonlinear_recursive_rule r ->
    "the recursive rule must contain exactly one recursive atom: "
    ^ Rule.to_string r
  | Head_has_constants r ->
    "the recursive head's arguments must all be variables: "
    ^ Rule.to_string r
  | Rec_atom_has_constants r ->
    "the recursive body atom's arguments must all be variables: "
    ^ Rule.to_string r

let as_sirup p =
  let ( let* ) r f = Result.bind r f in
  let* () =
    match Program.derived_predicates p with
    | [ _ ] -> Ok ()
    | ps -> Error (Not_single_predicate ps)
  in
  let* () = Result.map_error (fun m -> Ill_formed m) (Program.check p) in
  let recs, exits =
    List.partition (is_recursive_rule p) (Program.rules p)
  in
  let* rec_rule, exit_rule =
    match recs, exits with
    | [ r ], [ e ] -> Ok (r, e)
    | _ ->
      Error
        (Wrong_rule_count
           { recursive = List.length recs; exit = List.length exits })
  in
  let* rec_atom =
    match recursive_atoms p rec_rule with
    | [ a ] -> Ok a
    | _ -> Error (Nonlinear_recursive_rule rec_rule)
  in
  let* head_vars =
    match all_vars rec_rule.head with
    | Some vs -> Ok vs
    | None -> Error (Head_has_constants rec_rule)
  in
  let* rec_vars =
    match all_vars rec_atom with
    | Some vs -> Ok vs
    | None -> Error (Rec_atom_has_constants rec_rule)
  in
  let base_atoms =
    List.filter (fun a -> not (Atom.equal a rec_atom)) rec_rule.body
  in
  let* () =
    if
      List.exists
        (fun (a : Atom.t) -> String.equal a.pred rec_rule.head.pred)
        base_atoms
    then Error (Nonlinear_recursive_rule rec_rule)
    else Ok ()
  in
  Ok
    {
      pred = rec_rule.head.pred;
      exit_rule;
      rec_rule;
      head_vars;
      rec_atom;
      rec_vars;
      base_atoms;
    }

let as_sirup_string p = Result.map_error explain_not_sirup (as_sirup p)
