type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type t = {
  code : string;
  severity : severity;
  file : string option;
  loc : int option;
  message : string;
  suggestion : string option;
}

let make ?file ?loc ?suggestion ~code ~severity message =
  { code; severity; file; loc; message; suggestion }

(* The stable code registry: one line per code, with the paper result it
   enforces where there is one. Keep README.md's "Diagnostics" table in
   sync with this list. *)
let registry =
  [
    ("E001", "unsafe rule: head variable not bound in the positive body");
    ("E002", "unsafe rule: negated-atom variable not bound in the positive body");
    ("E003", "unsafe rule: guard variable not bound in the body");
    ("E004", "predicate used with inconsistent arities");
    ("E005", "unstratifiable: predicate depends negatively on itself");
    ("E101", "scheme checking requires a linear sirup (Sections 3-6)");
    ("E102",
     "discriminating-sequence variable not in the rule body \
      (Theorem 2 effectiveness precondition)");
    ("E103", "empty discriminating sequence");
    ("W001", "constants-only rule; no variable to discriminate on");
    ("W002", "duplicate rule (identical up to variable renaming)");
    ("W003", "unused base predicate: facts never read by any rule");
    ("W004", "unreachable derived predicate: feeds no output predicate");
    ("W005", "recursive component has no exit rule: provably empty");
    ("W006", "negation is analysed statically but rejected by the evaluators");
    ("W101",
     "v(r) not covered by the recursive atom: sending must broadcast \
      (Section 6 locality violated)");
    ("W102",
     "chosen scheme communicates although a communication-free choice \
      exists (Theorem 3)");
    ("I001", "program is a linear sirup (Sections 3-6 schemes apply)");
    ("I002", "not a linear sirup; the Section 7 general scheme still applies");
    ("I004", "mutually recursive clique, evaluated as one stratum");
    ("I100", "Theorem 2 preconditions hold: scheme q is non-redundant");
    ("I101", "choice matches a Theorem 3 cycle: communication-free \
              with a symmetric discriminating function");
    ("I102", "dataflow graph is acyclic: no communication-free choice \
              exists (Theorem 3)");
    ("I103", "Section 5 network prediction");
    ("I104", "predicted network has no cross-processor edge");
    ("I105", "network prediction unavailable for this discriminating \
              function");
    ("E201", "stale plan certificate: program hash mismatch");
    ("E202", "plan certificate's scheme no longer verifies against the \
              program");
    ("E203", "malformed plan certificate (bad JSON, schema or fields)");
    ("W110", "stratum needs a cross-processor exchange each round \
              (barrier) under the chosen scheme");
    ("I005", "reachability check (W004) skipped: no --goal given");
    ("I110", "synthesized plan: the chosen scheme and its predicted cost");
    ("I111", "plan candidate ranking (runners-up and their costs)");
    ("I112", "stratum is coordination-free under the chosen scheme");
  ]

let describe code = List.assoc_opt code registry

let severity_of_code code =
  if String.length code = 0 then Info
  else
    match code.[0] with
    | 'E' -> Error
    | 'W' -> Warning
    | _ -> Info

let count severity diags =
  List.length (List.filter (fun d -> d.severity = severity) diags)

let exit_code ~strict diags =
  if count Error diags > 0 then 1
  else if strict && count Warning diags > 0 then 1
  else 0

let pp ppf d =
  (match d.file, d.loc with
   | Some f, Some l -> Format.fprintf ppf "%s:%d: " f l
   | Some f, None -> Format.fprintf ppf "%s: " f
   | None, Some l -> Format.fprintf ppf "line %d: " l
   | None, None -> ());
  Format.fprintf ppf "%s[%s]: %s" (severity_to_string d.severity) d.code
    d.message;
  match d.suggestion with
  | Some s -> Format.fprintf ppf "@,  hint: %s" s
  | None -> ()

let pp_list ppf diags =
  Format.fprintf ppf "@[<v>";
  List.iter (fun d -> Format.fprintf ppf "%a@," pp d) diags;
  Format.fprintf ppf "@]"

let pp_summary ppf diags =
  Format.fprintf ppf "%d error(s), %d warning(s), %d note(s)"
    (count Error diags) (count Warning diags) (count Info diags)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json d =
  let field name value = Printf.sprintf "\"%s\":%s" name value in
  let str s = Printf.sprintf "\"%s\"" (Obs.Json.escape s) in
  let fields =
    [
      field "code" (str d.code);
      field "severity" (str (severity_to_string d.severity));
    ]
    @ (match d.file with Some f -> [ field "file" (str f) ] | None -> [])
    @ (match d.loc with Some l -> [ field "line" (string_of_int l) ] | None -> [])
    @ [ field "message" (str d.message) ]
    @ (match d.suggestion with
       | Some s -> [ field "suggestion" (str s) ]
       | None -> [])
  in
  "{" ^ String.concat "," fields ^ "}"

let list_to_json diags =
  "[" ^ String.concat ",\n " (List.map to_json diags) ^ "]"
