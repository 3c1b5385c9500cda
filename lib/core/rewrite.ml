open Datalog

type policy =
  | Uniform of Discriminant.t
  | Local of {
      vars : string list;
      fn_for : Pid.t -> Hash_fn.t;
    }

type send_spec = {
  ss_pred : string;
  ss_rule : int;
  ss_unicast : bool;
  ss_label : string;
  ss_route : Pid.t -> Tuple.t -> Pid.t list;
}

type t = {
  original : Program.t;
  nprocs : int;
  space : Pid.space;
  derived : string list;
  programs : Program.t array;
  self_routed : string list;
  sends : send_spec list;
  resident : Pid.t -> string -> Tuple.t -> bool;
  fragmented : (string * bool) list;
}

let out_pred p = p ^ "@out"
let in_pred p = p ^ "@in"

let stored_in self p = if List.mem p self then p else out_pred p
let stored_pred t p = stored_in t.self_routed p

let original_pred p =
  match String.index_opt p '@' with
  | Some i -> String.sub p 0 i
  | None -> p

let policy_space = function
  | Uniform d -> d.Discriminant.fn.Hash_fn.space
  | Local { fn_for; _ } -> (fn_for 0).Hash_fn.space

let policy_vars = function
  | Uniform d -> d.Discriminant.vars
  | Local { vars; _ } -> vars

let fail fmt = Format.kasprintf invalid_arg ("Rewrite.make: " ^^ fmt)

let validate_policy program rule policy =
  let vars = policy_vars policy in
  let bvs = Rule.body_vars rule in
  List.iter
    (fun v ->
      if not (List.mem v bvs) then
        fail "variable %s of the discriminating sequence is not in %s" v
          (Rule.to_string rule))
    vars;
  match policy with
  | Uniform d ->
    if List.length d.Discriminant.vars <> d.Discriminant.fn.Hash_fn.arity then
      fail "arity mismatch for %s" d.Discriminant.fn.Hash_fn.name
  | Local { vars; fn_for } ->
    let derived = Program.derived_predicates program in
    let derived_atoms =
      List.filter (fun (a : Atom.t) -> List.mem a.pred derived) rule.body
    in
    if derived_atoms = [] then
      fail "Local policy on a rule without derived body atoms: %s"
        (Rule.to_string rule);
    if (fn_for 0).Hash_fn.arity <> List.length vars then
      fail "arity mismatch for %s" (fn_for 0).Hash_fn.name;
    List.iter
      (fun atom ->
        match Discriminant.covered_positions vars atom with
        | Some _ -> ()
        | None ->
          fail
            "Local policy sequence (%s) not covered by atom %s (Section 6 \
             requires v(r) within the recursive atom)"
            (String.concat ", " vars)
            (Format.asprintf "%a" Atom.pp atom))
      derived_atoms

(* Theorem 3's condition, per derived predicate: every rule producing
   [p] is guarded by one function [h] over the head positions [P], and
   every body atom of [p] is covered by its rule's guard at [P] under
   the same [h]. A tuple [t] derived at [i] then has [h(t[P]) = i], and
   every firing that reads [t] passes its guard at [i] only: [p] is
   routed back to its producer, always. *)
let self_routed program policies =
  let rules = Program.rules program in
  let pairs = List.combine rules policies in
  let guard_at (atom : Atom.t) = function
    | Uniform d ->
      Option.map
        (fun positions -> (d.Discriminant.fn, positions))
        (Discriminant.covered_positions d.Discriminant.vars atom)
    | Local _ -> None
  in
  let same (fn, positions) = function
    | Some (fn', positions') -> fn == fn' && positions = positions'
    | None -> false
  in
  List.filter
    (fun pred ->
      let heads =
        List.filter_map
          (fun ((r : Rule.t), policy) ->
            if String.equal r.head.pred pred then Some (guard_at r.head policy)
            else None)
          pairs
      in
      match heads with
      | Some g :: _ ->
        List.for_all (same g) heads
        && List.for_all
             (fun ((r : Rule.t), policy) ->
               List.for_all
                 (fun (a : Atom.t) ->
                   (not (String.equal a.pred pred)) || same g (guard_at a policy))
                 r.body)
             pairs
      | _ -> false)
    (Program.derived_predicates program)

(* The rewritten rule for processor [i]: head writes [@out], body
   atoms of [routed] (not self-routed) derived predicates read [@in] —
   a self-routed predicate keeps its name on both sides — and Uniform
   policies add the guard [h(v(r)) = i], which filters a self-routed
   head in place. *)
let rewrite_rule ~routed ~self policy pid (rule : Rule.t) =
  let head = Atom.rename_pred (stored_in self rule.head.pred) rule.head in
  let body =
    List.map
      (fun (a : Atom.t) ->
        if List.mem a.pred routed then Atom.rename_pred (in_pred a.pred) a
        else a)
      rule.body
  in
  let guards =
    match policy with
    | Local _ -> []
    | Uniform d ->
      let fn = d.Discriminant.fn in
      [
        Rule.guard ~name:fn.Hash_fn.name ~vars:d.Discriminant.vars
          ~fn:fn.Hash_fn.apply ~expect:pid;
      ]
  in
  Rule.make ?loc:rule.loc ~guards head body

let send_specs_of_rule ~routed nprocs idx policy (rule : Rule.t) =
  let derived_atoms =
    List.filter (fun (a : Atom.t) -> List.mem a.pred routed) rule.body
  in
  let vars = policy_vars policy in
  let label fn_name =
    Printf.sprintf "%s(%s)" fn_name (String.concat "," vars)
  in
  List.map
    (fun (atom : Atom.t) ->
      (* The paper's sending rule is [t_ij(Ȳ) :- t_out(Ȳ), h(v(r)) = j]:
         its body carries the consuming atom's pattern, so tuples that
         cannot match Ȳ (repeated variables, constants) never travel for
         this rule. *)
      let pattern_ok = Atom.matches_tuple atom in
      match policy with
      | Uniform d ->
        let fn = d.Discriminant.fn in
        (match Discriminant.covered_positions vars atom with
         | Some positions ->
           {
             ss_pred = atom.pred;
             ss_rule = idx;
             ss_unicast = true;
             ss_label = label fn.Hash_fn.name;
             ss_route =
               (fun _sender tuple ->
                 if pattern_ok tuple then
                   [ fn.Hash_fn.apply (Tuple.project_key tuple positions) ]
                 else []);
           }
         | None ->
           {
             ss_pred = atom.pred;
             ss_rule = idx;
             ss_unicast = false;
             ss_label = label fn.Hash_fn.name ^ " [broadcast]";
             ss_route =
               (fun _ tuple ->
                 if pattern_ok tuple then List.init nprocs Fun.id else []);
           })
      | Local { vars; fn_for } ->
        let positions =
          match Discriminant.covered_positions vars atom with
          | Some p -> p
          | None -> assert false (* validated *)
        in
        {
          ss_pred = atom.pred;
          ss_rule = idx;
          ss_unicast = true;
          ss_label = label "h_i";
          ss_route =
            (fun sender ->
              let fn = fn_for sender in
              fun tuple ->
                if pattern_ok tuple then
                  [ fn.Hash_fn.apply (Tuple.project_key tuple positions) ]
                else []);
        })
    derived_atoms

(* Base-relation residency, per the end of Sections 3 and 7: an
   occurrence of a base atom is coverable when its rule's policy is a
   guarded (Uniform) one whose discriminating sequence is entirely
   within the atom; then processor [i] needs only the matching
   fragment. A relation is fragmented only if every occurrence is
   coverable; its resident set at [i] is the union of the occurrence
   fragments. *)
let residency program policies =
  let base = Program.base_predicates program in
  let occurrences pred =
    List.concat
      (List.map2
         (fun (rule : Rule.t) policy ->
           List.filter_map
             (fun (a : Atom.t) ->
               if String.equal a.pred pred then Some (a, policy) else None)
             rule.body)
         (Program.rules program) policies)
  in
  let coverage_of (atom, policy) =
    match policy with
    | Local _ -> None
    | Uniform d ->
      (match
         Discriminant.covered_positions d.Discriminant.vars atom
       with
       | Some positions -> Some (d.Discriminant.fn, positions)
       | None -> None)
  in
  let plans =
    List.map
      (fun pred ->
        let occs = occurrences pred in
        let covers = List.map coverage_of occs in
        if occs <> [] && List.for_all Option.is_some covers then
          (pred, Some (List.filter_map Fun.id covers))
        else (pred, None))
      base
  in
  let resident pid pred tuple =
    match List.assoc_opt pred plans with
    | Some (Some covers) ->
      List.exists
        (fun ((fn : Hash_fn.t), positions) ->
          fn.Hash_fn.apply (Tuple.project_key tuple positions) = pid)
        covers
    | _ -> true
  in
  let fragmented =
    List.map (fun (pred, c) -> (pred, Option.is_some c)) plans
  in
  (resident, fragmented)

let make ?space program ~policies =
  (match Program.check program with
   | Ok () -> ()
   | Error msg -> fail "%s" msg);
  let rules = Program.rules program in
  if List.length policies <> List.length rules then
    fail "%d policies for %d rules" (List.length policies)
      (List.length rules);
  List.iter2 (fun r p -> validate_policy program r p) rules policies;
  let spaces = List.map policy_space policies in
  let nprocs =
    match spaces with
    | [] -> fail "program has no rules"
    | s :: rest ->
      List.iter
        (fun s' ->
          if Pid.size s' <> Pid.size s then
            fail "policies disagree on the processor count (%d vs %d)"
              (Pid.size s) (Pid.size s'))
        rest;
      Pid.size s
  in
  let space =
    match space with Some s -> s | None -> List.hd spaces
  in
  if Pid.size space <> nprocs then
    fail "label space size %d does not match processor count %d"
      (Pid.size space) nprocs;
  let derived = Program.derived_predicates program in
  let self = self_routed program policies in
  let routed = List.filter (fun p -> not (List.mem p self)) derived in
  let programs =
    Array.init nprocs (fun pid ->
        Program.make
          (List.map2
             (fun r p -> rewrite_rule ~routed ~self p pid r)
             rules policies))
  in
  let sends =
    List.concat
      (List.mapi
         (fun idx (rule, policy) ->
           send_specs_of_rule ~routed nprocs idx policy rule)
         (List.combine rules policies))
  in
  let resident, fragmented = residency program policies in
  {
    original = program;
    nprocs;
    space;
    derived;
    programs;
    self_routed = self;
    sends;
    resident;
    fragmented;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i prog ->
      Format.fprintf ppf "--- processor %s ---@,%a@,"
        (Pid.label t.space i) Program.pp prog)
    t.programs;
  Format.fprintf ppf "--- sends ---@,";
  List.iter
    (fun s ->
      Format.fprintf ppf "%s via rule %d: %s (%s)@," s.ss_pred s.ss_rule
        s.ss_label
        (if s.ss_unicast then "unicast" else "broadcast"))
    t.sends;
  Format.fprintf ppf "--- base relations ---@,";
  List.iter
    (fun (pred, frag) ->
      Format.fprintf ppf "%s: %s@," pred
        (if frag then "fragmented" else "shared"))
    t.fragmented;
  Format.fprintf ppf "@]"
