open Datalog

type scheme =
  | Nocomm of { ve : string list; vr : string list }
  | Q of { ve : string list; vr : string list }
  | Wolfson
  | Tradeoff of { alpha : float }
  | General

type cost = {
  messages : float;
  redundancy : float;
  balance : float;
  total : float;
}

type stratum = {
  preds : string list;
  recursive : bool;
  coordination_free : bool;
}

type t = {
  program_hash : string;
  nprocs : int;
  seed : int;
  scheme : scheme;
  cost : cost;
  strata : stratum list;
}

type reject = {
  rcode : string;
  reason : string;
}

exception Rejected of reject

let schema_version = 1
let code_stale = "E201"
let code_unverified = "E202"
let code_malformed = "E203"

let scheme_name = function
  | Nocomm _ -> "nocomm"
  | Q _ -> "q"
  | Wolfson -> "wolfson"
  | Tradeoff _ -> "tradeoff"
  | General -> "general"

let pp_seq ppf vs =
  Format.fprintf ppf "⟨%s⟩" (String.concat "," vs)

let pp_scheme ppf = function
  | Nocomm { ve; vr } ->
    Format.fprintf ppf "nocomm(ve=%a, vr=%a)" pp_seq ve pp_seq vr
  | Q { ve; vr } -> Format.fprintf ppf "q(ve=%a, vr=%a)" pp_seq ve pp_seq vr
  | Wolfson -> Format.pp_print_string ppf "wolfson"
  | Tradeoff { alpha } -> Format.fprintf ppf "tradeoff(alpha=%.2f)" alpha
  | General -> Format.pp_print_string ppf "general"

let pp_reject ppf r =
  Format.fprintf ppf "error[%s]: %s" r.rcode r.reason

(* The hash covers the rules only — canonically rendered, one per line,
   in program order — so a certificate survives EDB changes but not any
   edit to the logic it was issued for. *)
let program_hash (p : Program.t) =
  let canon = String.concat "\n" (List.map Rule.to_string p.Program.rules) in
  Digest.to_hex (Digest.string canon)

let make ~nprocs ~seed ~scheme ~cost ~strata program =
  { program_hash = program_hash program; nprocs; seed; scheme; cost; strata }

(* ---------- JSON writing (deterministic: fixed order, %.3f) ---------- *)

let buf_str b s =
  Buffer.add_char b '"';
  Buffer.add_string b (Obs.Json.escape s);
  Buffer.add_char b '"'

let buf_strs b vs =
  Buffer.add_char b '[';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ", ";
      buf_str b v)
    vs;
  Buffer.add_char b ']'

let buf_float b f = Buffer.add_string b (Printf.sprintf "%.3f" f)

let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": %d,\n" schema_version);
  Buffer.add_string b "  \"kind\": \"datalogp-plan\",\n";
  Buffer.add_string b "  \"program_hash\": ";
  buf_str b t.program_hash;
  Buffer.add_string b ",\n";
  Buffer.add_string b (Printf.sprintf "  \"nprocs\": %d,\n" t.nprocs);
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" t.seed);
  Buffer.add_string b "  \"scheme\": { \"name\": ";
  buf_str b (scheme_name t.scheme);
  (match t.scheme with
  | Nocomm { ve; vr } | Q { ve; vr } ->
    Buffer.add_string b ", \"ve\": ";
    buf_strs b ve;
    Buffer.add_string b ", \"vr\": ";
    buf_strs b vr
  | Tradeoff { alpha } ->
    Buffer.add_string b ", \"alpha\": ";
    buf_float b alpha
  | Wolfson | General -> ());
  Buffer.add_string b " },\n";
  Buffer.add_string b "  \"predicted\": { \"messages_per_round\": ";
  buf_float b t.cost.messages;
  Buffer.add_string b ", \"redundancy\": ";
  buf_float b t.cost.redundancy;
  Buffer.add_string b ", \"balance\": ";
  buf_float b t.cost.balance;
  Buffer.add_string b ", \"total\": ";
  buf_float b t.cost.total;
  Buffer.add_string b " },\n";
  Buffer.add_string b "  \"strata\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "    { \"predicates\": ";
      buf_strs b s.preds;
      Buffer.add_string b
        (Printf.sprintf ", \"recursive\": %b, \"coordination_free\": %b }"
           s.recursive s.coordination_free))
    t.strata;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ---------- JSON reading (minimal recursive descent) ---------- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jlist of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            (* Certificates only carry ASCII; decode BMP escapes to '?'
               rather than pulling in a UTF-8 encoder. *)
            if !pos + 4 > n then fail "bad \\u escape";
            pos := !pos + 4;
            Buffer.add_char b '?'
          | _ -> fail "bad escape"));
        go ()
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numchar c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "bad number"
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then (
      pos := !pos + l;
      v)
    else fail (Printf.sprintf "expected %s" lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (
        advance ();
        Jobj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Jobj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (
        advance ();
        Jlist [])
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Jlist (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let malformed reason = Error { rcode = code_malformed; reason }

let field obj k =
  match obj with
  | Jobj kvs -> List.assoc_opt k kvs
  | _ -> None

let as_int = function
  | Jnum f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let as_float = function Jnum f -> Some f | _ -> None
let as_bool = function Jbool b -> Some b | _ -> None
let as_str = function Jstr s -> Some s | _ -> None

let as_strs = function
  | Jlist vs ->
    List.fold_right
      (fun v acc ->
        match (as_str v, acc) with
        | Some s, Some ss -> Some (s :: ss)
        | _ -> None)
      vs (Some [])
  | _ -> None

let ( let* ) = Result.bind

let req name conv obj =
  match Option.bind (field obj name) conv with
  | Some v -> Ok v
  | None -> malformed (Printf.sprintf "missing or ill-typed field %S" name)

let of_json text =
  match parse_json text with
  | exception Bad_json msg -> malformed ("not valid JSON: " ^ msg)
  | root ->
    let* schema = req "schema" as_int root in
    if schema <> schema_version then
      malformed
        (Printf.sprintf "unsupported schema version %d (expected %d)" schema
           schema_version)
    else
      let* kind = req "kind" as_str root in
      if kind <> "datalogp-plan" then
        malformed (Printf.sprintf "unexpected kind %S" kind)
      else
        let* program_hash = req "program_hash" as_str root in
        let* nprocs = req "nprocs" as_int root in
        if nprocs < 1 then malformed "nprocs must be at least 1"
        else
          let* seed = req "seed" as_int root in
          let* sobj =
            match field root "scheme" with
            | Some (Jobj _ as o) -> Ok o
            | _ -> malformed "missing scheme object"
          in
          let* name = req "name" as_str sobj in
          let* scheme =
            match name with
            | "nocomm" | "q" ->
              let* ve = req "ve" as_strs sobj in
              let* vr = req "vr" as_strs sobj in
              if name = "q" then Ok (Q { ve; vr }) else Ok (Nocomm { ve; vr })
            | "wolfson" -> Ok Wolfson
            | "tradeoff" ->
              let* alpha = req "alpha" as_float sobj in
              if alpha < 0. || alpha > 1. then
                malformed "alpha must lie in [0,1]"
              else Ok (Tradeoff { alpha })
            | "general" -> Ok General
            | other -> malformed (Printf.sprintf "unknown scheme %S" other)
          in
          let* cobj =
            match field root "predicted" with
            | Some (Jobj _ as o) -> Ok o
            | _ -> malformed "missing predicted object"
          in
          let* messages = req "messages_per_round" as_float cobj in
          let* redundancy = req "redundancy" as_float cobj in
          let* balance = req "balance" as_float cobj in
          let* total = req "total" as_float cobj in
          let* strata =
            match field root "strata" with
            | Some (Jlist items) ->
              List.fold_right
                (fun item acc ->
                  let* acc = acc in
                  let* preds = req "predicates" as_strs item in
                  let* recursive = req "recursive" as_bool item in
                  let* coordination_free =
                    req "coordination_free" as_bool item
                  in
                  Ok ({ preds; recursive; coordination_free } :: acc))
                items (Ok [])
            | _ -> malformed "missing strata array"
          in
          Ok
            {
              program_hash;
              nprocs;
              seed;
              scheme;
              cost = { messages; redundancy; balance; total };
              strata;
            }

(* ---------- Re-verification ---------- *)

let unverified reason = Error { rcode = code_unverified; reason }

let subset ~of_:vars vs = List.for_all (fun v -> List.mem v vars) vs

(* Theorem 2 preconditions, restated here (the [check] library's
   [Scheme] module cannot be used from [lib/core] without a dependency
   cycle): every sequence variable must be bound by its rule's positive
   body. *)
let theorem2 (s : Analysis.sirup) ~ve ~vr =
  if ve = [] || vr = [] then
    unverified "empty discriminating sequence (Theorem 2 needs one)"
  else if List.length ve <> List.length vr then
    unverified "ve and vr have different lengths (they share one hash)"
  else if not (subset ~of_:(Rule.body_vars s.Analysis.exit_rule) ve) then
    unverified
      "a variable of ve is not bound in the exit rule's body (Theorem 2)"
  else if not (subset ~of_:(Rule.body_vars s.Analysis.rec_rule) vr) then
    unverified
      "a variable of vr is not bound in the recursive rule's body (Theorem 2)"
  else Ok ()

let build ~nprocs ~seed scheme program =
  match scheme with
  | Nocomm _ -> Strategy.no_communication ~seed ~nprocs program
  | Q { ve; vr } -> Strategy.hash_q ~seed ~nprocs ~ve ~vr program
  | Wolfson -> Strategy.wolfson_redundant ~seed ~nprocs program
  | Tradeoff { alpha } -> Strategy.tradeoff ~seed ~nprocs ~alpha program
  | General -> Strategy.general ~seed ~nprocs program

let verify_scheme t program =
  let sirup_for what =
    match Analysis.as_sirup program with
    | Ok s -> Ok s
    | Error why ->
      unverified
        (Printf.sprintf "%s requires a linear sirup: %s" what
           (Analysis.explain_not_sirup why))
  in
  let* () =
    match t.scheme with
    | Q { ve; vr } ->
      let* s = sirup_for "scheme q" in
      theorem2 s ~ve ~vr
    | Nocomm { ve; vr } -> (
      let* s = sirup_for "scheme nocomm" in
      match Dataflow.communication_free_choice s with
      | None ->
        unverified
          "the dataflow graph has no usable cycle (Theorem 3 does not apply)"
      | Some c ->
        if c.Dataflow.ve <> ve || c.Dataflow.vr <> vr then
          unverified
            "the certified sequences no longer match the dataflow cycle"
        else Ok ())
    | Wolfson -> Result.map (fun _ -> ()) (sirup_for "scheme wolfson")
    | Tradeoff { alpha } ->
      if alpha < 0. || alpha > 1. then unverified "alpha must lie in [0,1]"
      else Result.map (fun _ -> ()) (sirup_for "scheme tradeoff")
    | General -> (
      match Program.check program with
      | Ok () -> Ok ()
      | Error msg -> unverified ("program rejected: " ^ msg))
  in
  (* Belt and braces: the scheme constructor itself must accept. *)
  match build ~nprocs:t.nprocs ~seed:t.seed t.scheme program with
  | Ok _ -> Ok ()
  | Error msg -> unverified msg

let verify ?nprocs t program =
  let actual = program_hash program in
  if not (String.equal actual t.program_hash) then
    Error
      {
        rcode = code_stale;
        reason =
          Printf.sprintf
            "program hash mismatch: certificate was issued for %s but the \
             program hashes to %s (re-run check --suggest)"
            t.program_hash actual;
      }
  else
    let* () =
      match nprocs with
      | Some n when n <> t.nprocs ->
        unverified
          (Printf.sprintf
             "certificate is for %d processors but the run uses %d" t.nprocs n)
      | _ -> Ok ()
    in
    verify_scheme t program

let validate_exn ?nprocs t program =
  match verify ?nprocs t program with
  | Ok () -> ()
  | Error r -> raise (Rejected r)

let to_rewrite t program =
  let* () = verify t program in
  match build ~nprocs:t.nprocs ~seed:t.seed t.scheme program with
  | Ok rw -> Ok rw
  | Error msg -> unverified msg
