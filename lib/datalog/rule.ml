type guard = {
  gname : string;
  gvars : string array;
  gfn : Const.t array -> int;
  gexpect : int;
}

type t = {
  head : Atom.t;
  body : Atom.t list;
  neg : Atom.t list;
  guards : guard list;
  loc : int option;
}

let make ?loc ?(neg = []) ?(guards = []) head body =
  { head; body; neg; guards; loc }

let guard ~name ~vars ~fn ~expect =
  { gname = name; gvars = Array.of_list vars; gfn = fn; gexpect = expect }

let dedup vars =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    vars

let head_vars r = Atom.vars r.head
let body_vars r = dedup (List.concat_map Atom.vars r.body)
let neg_vars r = dedup (List.concat_map Atom.vars r.neg)
let vars r = dedup (head_vars r @ body_vars r)

let is_fact r =
  r.body = [] && r.neg = [] && r.guards = [] && Atom.is_ground r.head

let is_safe r =
  let bvs = body_vars r in
  let in_body v = List.mem v bvs in
  List.for_all in_body (head_vars r)
  && List.for_all in_body (neg_vars r)
  && List.for_all
       (fun g -> Array.for_all in_body g.gvars)
       r.guards

let guard_ok g env =
  let n = Array.length g.gvars in
  let key = Array.make n (Const.Int 0) in
  let rec fill i =
    if i = n then Some (g.gfn key = g.gexpect)
    else
      match List.assoc_opt g.gvars.(i) env with
      | None -> None
      | Some c ->
        key.(i) <- c;
        fill (i + 1)
  in
  fill 0

let pp_guard ppf g =
  Format.fprintf ppf "%s(@[%a@])=%d" g.gname
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_string)
    g.gvars g.gexpect

let pp_neg ppf a = Format.fprintf ppf "not %a" Atom.pp a

let pp ppf r =
  match r.body, r.neg, r.guards with
  | [], [], [] -> Format.fprintf ppf "@[%a.@]" Atom.pp r.head
  | _ ->
    let pp_sep ppf () = Format.fprintf ppf ",@ " in
    let sep_if cond = if cond then ", " else "" in
    Format.fprintf ppf "@[<hov 2>%a :-@ %a%s%a%s%a.@]" Atom.pp r.head
      (Format.pp_print_list ~pp_sep Atom.pp)
      r.body
      (sep_if (r.body <> [] && r.neg <> []))
      (Format.pp_print_list ~pp_sep pp_neg)
      r.neg
      (sep_if ((r.body <> [] || r.neg <> []) && r.guards <> []))
      (Format.pp_print_list ~pp_sep pp_guard)
      r.guards

let to_string r = Format.asprintf "%a" pp r
