open Datalog
open Pardatalog

type candidate = {
  scheme : Plan.scheme;
  cost : Plan.cost;
  communication_free : bool;
}

type outcome = {
  plan : Plan.t option;
  ranked : candidate list;
  diagnostics : Diagnostic.t list;
}

(* Ties in predicted cost break towards the non-redundant schemes, then
   towards the lexicographically first sequences — the ranking must be
   a function of the program and profile alone, so the cram-pinned JSON
   output never flaps. *)
let preference = function
  | Plan.Nocomm _ -> 0
  | Plan.Q _ -> 1
  | Plan.General -> 2
  | Plan.Tradeoff _ -> 3
  | Plan.Wolfson -> 4

let seq_key = function
  | Plan.Nocomm { ve; vr } | Plan.Q { ve; vr } ->
    String.concat "," ve ^ "/" ^ String.concat "," vr
  | Plan.Tradeoff { alpha } -> Printf.sprintf "%.3f" alpha
  | Plan.Wolfson | Plan.General -> ""

let compare_candidates a b =
  let c = Float.compare a.cost.Plan.total b.cost.Plan.total in
  if c <> 0 then c
  else
    let c = compare (preference a.scheme) (preference b.scheme) in
    if c <> 0 then c else compare (seq_key a.scheme) (seq_key b.scheme)

(* All non-empty subsets of a (small) position list, each sorted. *)
let subsets positions =
  List.fold_left
    (fun acc p -> acc @ List.map (fun s -> s @ [ p ]) acc)
    [ [] ] positions
  |> List.filter (fun s -> s <> [])

(* Candidate (ve, vr) pairs for scheme Q: for each usable subset of the
   recursive predicate's argument positions, discriminate the exit rule
   on the exit head's variables there and the recursive rule on the
   recursive atom's variables there — the shared hash then routes
   producers and consumers consistently. *)
let q_sequences (s : Analysis.sirup) =
  let exit_head = s.Analysis.exit_rule.Rule.head in
  let arity = Array.length s.Analysis.rec_vars in
  let usable =
    List.filter
      (fun p -> Term.is_var exit_head.Atom.args.(p))
      (List.init arity Fun.id)
  in
  (* Exhaustive up to arity 6 (63 subsets); singletons beyond that. *)
  let position_sets =
    if List.length usable <= 6 then subsets usable
    else List.map (fun p -> [ p ]) usable
  in
  let var_at (a : Atom.t) p =
    match a.Atom.args.(p) with Term.Var v -> v | Term.Const _ -> assert false
  in
  let pairs =
    List.map
      (fun ps ->
        ( List.map (var_at exit_head) ps,
          List.map (fun p -> s.Analysis.rec_vars.(p)) ps ))
      position_sets
  in
  List.sort_uniq compare pairs

let enumerate ?file ~nprocs ~seed program =
  ignore file;
  let schemes =
    match Analysis.as_sirup program with
    | Error _ -> [ Plan.General ]
    | Ok s ->
      let nocomm =
        match Dataflow.communication_free_choice s with
        | Some c ->
          [ Plan.Nocomm { ve = c.Dataflow.ve; vr = c.Dataflow.vr } ]
        | None -> []
      in
      let qs =
        List.filter_map
          (fun (ve, vr) ->
            (* Theorem 2 and Section 6 locality are exactly what the
               scheme checker verifies; any error kills the candidate. *)
            let report = Scheme.check_scheme ~ve ~vr program in
            if Diagnostic.(count Error report.Scheme.diagnostics) > 0 then
              None
            else Some (Plan.Q { ve; vr }))
          (q_sequences s)
      in
      let tradeoffs =
        List.map (fun alpha -> Plan.Tradeoff { alpha }) [ 0.25; 0.5; 0.75 ]
      in
      nocomm @ qs @ [ Plan.Wolfson ] @ tradeoffs @ [ Plan.General ]
  in
  (* Belt and braces: a candidate survives only if its Strategy
     constructor accepts — the same rebuild [Plan.verify] performs when
     the certificate is later presented to a runtime. *)
  List.filter
    (fun scheme -> Result.is_ok (Plan.build ~nprocs ~seed scheme program))
    schemes

let strata_of program ~coordination_free =
  List.map
    (fun preds ->
      let recursive =
        match preds with
        | [ p ] -> Analysis.mutually_recursive program p p
        | _ -> true
      in
      { Plan.preds; recursive; coordination_free })
    (Analysis.sccs program)

let pp_preds ppf preds =
  Format.fprintf ppf "{%s}" (String.concat ", " preds)

let diagnostics_of ?file ~nprocs best ranked strata =
  let info code msg = Diagnostic.make ?file ~code ~severity:Diagnostic.Info msg in
  let chosen =
    info "I110"
      (Format.asprintf
         "plan: %a for %d processors: %.1f messages/round, redundancy %.2f, \
          balance %.2f"
         Plan.pp_scheme best.scheme nprocs best.cost.Plan.messages
         best.cost.Plan.redundancy best.cost.Plan.balance)
  in
  let ranking =
    let runners = match ranked with _ :: tl -> tl | [] -> [] in
    let top =
      List.filteri (fun i _ -> i < 3) runners
      |> List.map (fun c ->
             Format.asprintf "%a (total %.1f)" Plan.pp_scheme c.scheme
               c.cost.Plan.total)
    in
    let detail =
      match top with
      | [] -> "no runner-up verified"
      | tops -> "runners-up: " ^ String.concat ", " tops
    in
    info "I111"
      (Printf.sprintf "plan: %d candidate scheme(s) verified; %s"
         (List.length ranked) detail)
  in
  let per_stratum =
    List.filter_map
      (fun (st : Plan.stratum) ->
        if st.Plan.coordination_free then
          Some
            (info "I112"
               (Format.asprintf
                  "stratum %a: coordination-free under the chosen scheme"
                  pp_preds st.Plan.preds))
        else if st.Plan.recursive then
          Some
            (Diagnostic.make ?file ~code:"W110"
               ~severity:Diagnostic.Warning
               ~suggestion:
                 "every round of this stratum's fixpoint exchanges tuples \
                  between processors; provide --edb statistics or restructure \
                  the recursion if communication dominates"
               (Format.asprintf
                  "stratum %a: needs a cross-processor exchange each round \
                   (barrier) under the chosen scheme"
                  pp_preds st.Plan.preds))
        else None)
      strata
  in
  (chosen :: ranking :: per_stratum)

let suggest ?file ?profile ?(nprocs = 4) ?(seed = 0) program =
  let schemes = enumerate ?file ~nprocs ~seed program in
  let ranked =
    List.map
      (fun scheme ->
        let cost = Costmodel.estimate ?profile ~nprocs ~scheme program in
        { scheme; cost; communication_free = cost.Plan.messages = 0. })
      schemes
    |> List.stable_sort compare_candidates
  in
  match ranked with
  | [] -> { plan = None; ranked = []; diagnostics = [] }
  | best :: _ ->
    let strata =
      strata_of program ~coordination_free:best.communication_free
    in
    let plan =
      Plan.make ~nprocs ~seed ~scheme:best.scheme ~cost:best.cost ~strata
        program
    in
    {
      plan = Some plan;
      ranked;
      diagnostics = diagnostics_of ?file ~nprocs best ranked strata;
    }
