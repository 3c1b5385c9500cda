type t = {
  pred : string;
  args : Term.t array;
}

let make pred args = { pred; args = Array.of_list args }
let make_a pred args = { pred; args }
let arity a = Array.length a.args

let vars a =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  Array.iter
    (function
      | Term.Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          acc := v :: !acc
        end
      | Term.Const _ -> ())
    a.args;
  List.rev !acc

let is_ground a = Array.for_all (fun t -> not (Term.is_var t)) a.args

let to_tuple a =
  if is_ground a then
    Some
      (Tuple.make
         (Array.map
            (function Term.Const c -> c | Term.Var _ -> assert false)
            a.args))
  else None

let rename_pred pred a = { a with pred }

let subst env a =
  let apply = function
    | Term.Var v as t ->
      (match List.assoc_opt v env with
       | Some c -> Term.Const c
       | None -> t)
    | Term.Const _ as t -> t
  in
  { a with args = Array.map apply a.args }

(* Staged: the pattern compiles to position checks once, because a
   sending rule tests every tuple it routes; an atom of distinct
   variables tests nothing. *)
let rec all_hold tuple = function
  | [] -> true
  | check :: checks -> check tuple && all_hold tuple checks

let matches_tuple a =
  let arity = Array.length a.args in
  let checks = ref [] in
  let check f = checks := f :: !checks in
  Array.iteri
    (fun i term ->
      match term with
      | Term.Const c -> check (fun t -> Const.equal c (Tuple.get t i))
      | Term.Var v ->
        (* Positions sharing a variable must match its first one. *)
        let rec first j =
          if j < i then
            match a.args.(j) with
            | Term.Var w when String.equal v w ->
              check (fun t -> Const.equal (Tuple.get t j) (Tuple.get t i))
            | _ -> first (j + 1)
        in
        first 0)
    a.args;
  let checks = !checks in
  fun tuple ->
    if arity <> Tuple.arity tuple then
      invalid_arg "Atom.matches_tuple: arity mismatch";
    all_hold tuple checks

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c
  else
    let la = Array.length a.args and lb = Array.length b.args in
    if la <> lb then Int.compare la lb
    else
      let rec go i =
        if i = la then 0
        else
          let c = Term.compare a.args.(i) b.args.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let equal a b = compare a b = 0

let pp ppf a =
  if Array.length a.args = 0 then Format.pp_print_string ppf a.pred
  else
    Format.fprintf ppf "%s(@[%a@])" a.pred
      (Format.pp_print_array
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         Term.pp)
      a.args
