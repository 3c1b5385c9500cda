type error = {
  line : int;
  column : int;
  message : string;
}

let pp_error ppf e =
  Format.fprintf ppf "parse error at line %d, column %d: %s" e.line e.column
    e.message

exception Parse_error of error

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string  (* lowercase identifier *)
  | Variable of string  (* uppercase or '_'-leading identifier *)
  | Integer of int
  | Quoted of string
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Arrow  (* :- *)
  | Eof

type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let lexer src = { src; pos = 0; line = 1; bol = 0 }

let fail_at lx pos message =
  raise (Parse_error { line = lx.line; column = pos - lx.bol + 1; message })

let fail lx message = fail_at lx lx.pos message

let peek_char lx =
  if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let advance lx =
  (match peek_char lx with
   | Some '\n' ->
     lx.line <- lx.line + 1;
     lx.bol <- lx.pos + 1
   | _ -> ());
  lx.pos <- lx.pos + 1

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_space lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance lx;
    skip_space lx
  | Some '%' ->
    skip_line lx;
    skip_space lx
  | Some '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '/'
    ->
    skip_line lx;
    skip_space lx
  | _ -> ()

and skip_line lx =
  match peek_char lx with
  | Some '\n' | None -> ()
  | Some _ ->
    advance lx;
    skip_line lx

let lex_while lx pred =
  let start = lx.pos in
  let rec go () =
    match peek_char lx with
    | Some c when pred c ->
      advance lx;
      go ()
    | _ -> ()
  in
  go ();
  String.sub lx.src start (lx.pos - start)

(* The sign is lexed with the digits, so [min_int] can be written. *)
let integer lx start text =
  match int_of_string_opt text with
  | Some i -> Integer i
  | None -> fail_at lx start "integer literal out of range"

let next_token lx =
  skip_space lx;
  match peek_char lx with
  | None -> Eof
  | Some '(' ->
    advance lx;
    Lparen
  | Some ')' ->
    advance lx;
    Rparen
  | Some ',' ->
    advance lx;
    Comma
  | Some '.' ->
    advance lx;
    Dot
  | Some ':' ->
    advance lx;
    (match peek_char lx with
     | Some '-' ->
       advance lx;
       Arrow
     | _ -> fail lx "expected '-' after ':'")
  | Some '\'' ->
    advance lx;
    let s = lex_while lx (fun c -> c <> '\'' && c <> '\n') in
    (match peek_char lx with
     | Some '\'' ->
       advance lx;
       Quoted s
     | _ -> fail lx "unterminated quoted symbol")
  | Some '-' ->
    let start = lx.pos in
    advance lx;
    (match peek_char lx with
     | Some c when is_digit c -> integer lx start ("-" ^ lex_while lx is_digit)
     | _ -> fail lx "expected digits after '-'")
  | Some c when is_digit c ->
    let start = lx.pos in
    integer lx start (lex_while lx is_digit)
  | Some c when is_ident_start c ->
    let word = lex_while lx is_ident_char in
    if c = '_' || (c >= 'A' && c <= 'Z') then Variable word else Ident word
  | Some c -> fail lx (Printf.sprintf "unexpected character %C" c)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type state = {
  lx : lexer;
  mutable tok : token;
}

let state src =
  let lx = lexer src in
  { lx; tok = next_token lx }

let bump st = st.tok <- next_token st.lx

let parse_term st =
  match st.tok with
  | Variable v ->
    bump st;
    Term.var v
  | Integer i ->
    bump st;
    Term.int i
  | Ident s ->
    bump st;
    Term.sym s
  | Quoted s ->
    bump st;
    Term.sym s
  | _ -> fail st.lx "expected a term"

(* The argument list of an atom, after the '(' has been consumed. *)
let parse_args st =
  let rec args acc =
    let t = parse_term st in
    match st.tok with
    | Comma ->
      bump st;
      args (t :: acc)
    | Rparen ->
      bump st;
      List.rev (t :: acc)
    | _ -> fail st.lx "expected ',' or ')'"
  in
  args []

let parse_atom st =
  match st.tok with
  | Ident pred ->
    bump st;
    if st.tok = Lparen then begin
      bump st;
      Atom.make pred (parse_args st)
    end
    else Atom.make pred []
  | _ -> fail st.lx "expected a predicate symbol"

(* A body literal: an atom, optionally negated with the keyword [not].
   [not] followed by '(' or by ',' / '.' keeps its old reading as a
   predicate symbol, so existing programs parse unchanged. *)
let parse_literal st =
  match st.tok with
  | Ident "not" ->
    bump st;
    (match st.tok with
     | Ident _ -> `Neg (parse_atom st)
     | Lparen ->
       bump st;
       `Pos (Atom.make "not" (parse_args st))
     | _ -> `Pos (Atom.make "not" []))
  | _ -> `Pos (parse_atom st)

let parse_clause st =
  (* The current token is the head's predicate symbol; the lexer's line
     counter still points at it. *)
  let loc = st.lx.line in
  let head = parse_atom st in
  match st.tok with
  | Dot ->
    bump st;
    Rule.make ~loc head []
  | Arrow ->
    bump st;
    let rec body pos neg =
      let lit = parse_literal st in
      let pos, neg =
        match lit with
        | `Pos a -> (a :: pos, neg)
        | `Neg a -> (pos, a :: neg)
      in
      match st.tok with
      | Comma ->
        bump st;
        body pos neg
      | Dot ->
        bump st;
        (List.rev pos, List.rev neg)
      | _ -> fail st.lx "expected ',' or '.'"
    in
    let pos, neg = body [] [] in
    Rule.make ~loc ~neg head pos
  | _ -> fail st.lx "expected '.' or ':-'"

let parse_program st =
  let rec go rules facts =
    match st.tok with
    | Eof -> Program.make ~facts:(List.rev facts) (List.rev rules)
    | _ ->
      let clause = parse_clause st in
      if clause.body = [] && clause.neg = [] then
        match Atom.to_tuple clause.head with
        | Some t -> go rules ((clause.head.pred, t) :: facts)
        | None -> fail st.lx "fact must be ground"
      else go (clause :: rules) facts
  in
  go [] []

let run parse src =
  try Ok (parse (state src)) with Parse_error e -> Error e

let finish st v =
  match st.tok with Eof -> v | _ -> fail st.lx "trailing input"

let program src = run (fun st -> finish st (parse_program st)) src
let rule src = run (fun st -> let r = parse_clause st in finish st r) src
let atom src = run (fun st -> let a = parse_atom st in finish st a) src

let tuples src =
  run
    (fun st ->
      let p = finish st (parse_program st) in
      if Program.rules p <> [] then fail st.lx "expected only ground facts"
      else p.facts)
    src

let exn_of = function
  | Ok v -> v
  | Error e -> invalid_arg (Format.asprintf "%a" pp_error e)

let program_exn src = exn_of (program src)
let rule_exn src = exn_of (rule src)
let atom_exn src = exn_of (atom src)
