type span = {
  sp_rel : Relation.t;
  sp_lo : int;
  sp_hi : int;
  sp_skip : (Tuple.t -> bool) option;
}

type source = Old | Delta | Current | Spans of span list

(* Where a value comes from when instantiating an atom argument or the
   head. *)
type slot =
  | Sconst of Const.t
  | Svar of int  (* index into the environment *)

type key_part = {
  kp_position : int;  (* argument position inside the atom *)
  kp_slot : slot;  (* value known before the atom is scanned *)
}

type binding = {
  b_position : int;
  b_var : int;  (* environment slot receiving the value *)
}

type compiled_guard = {
  cg : Rule.guard;
  cg_slots : int array;
  cg_keybuf : Const.t array;  (* reusable argument buffer, len = slots *)
}

type compiled_atom = {
  ca_pred : string;
  ca_index : int;  (* position in the rule body *)
  ca_key : key_part list;  (* bound positions: the index key *)
  ca_binds : binding list;  (* first occurrences of fresh variables *)
  ca_checks : binding list;  (* repeated fresh variables: equality checks *)
  mutable ca_guards : compiled_guard array;  (* complete after this atom *)
  (* Hot-path precomputation: the index positions, the key slots, the
     bind/check position-variable pairs — all flat arrays fixed at
     compile time — plus a reusable key buffer so a probe writes
     constants into place instead of allocating per-invocation lists
     and arrays. The buffer is sound to share across the recursive
     scan because each atom owns its own and fills it completely
     before its index lookup. *)
  ca_positions : int array;
  ca_slots : slot array;
  ca_keybuf : Const.t array;
  ca_bind_pos : int array;
  ca_bind_var : int array;
  ca_check_pos : int array;
  ca_check_var : int array;
}

type plan = {
  rule : Rule.t;
  nvars : int;
  head : slot array;
  head_pred : string;
  pre_guards : compiled_guard list;  (* guards with no variables *)
  atoms : compiled_atom list;
  nbody : int;
  mutable probes : int;  (* candidate tuples scanned across all runs *)
  (* Reusable head-instantiation buffers for the raw-word duplicate
     filter: the head constants and their [Const.to_raw] words, filled
     completely on every firing before use. *)
  head_vals : Const.t array;
  head_raws : int array;
}

let rule_of p = p.rule
let var_count p = p.nvars
let probes p = p.probes

(* Greedy scan-order heuristic: repeatedly pick the atom with the most
   already-bound argument positions (then the fewest unbound variables,
   then textual order). Avoids accidental cross products in rules
   written join-variable-last. [start] is the already-chosen prefix of
   the order (its variables count as bound). *)
let greedy_order ~start remaining =
  let bound = Hashtbl.create 8 in
  List.iter
    (fun (_, a) ->
      List.iter (fun v -> Hashtbl.replace bound v ()) (Atom.vars a))
    start;
  let score (a : Atom.t) =
    let bound_positions = ref 0 and unbound_vars = Hashtbl.create 4 in
    Array.iter
      (fun term ->
        match term with
        | Term.Const _ -> incr bound_positions
        | Term.Var v ->
          if Hashtbl.mem bound v then incr bound_positions
          else Hashtbl.replace unbound_vars v ())
      a.args;
    (!bound_positions, -Hashtbl.length unbound_vars)
  in
  let rec pick acc remaining =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let best =
        List.fold_left
          (fun best ((_, a) as item) ->
            match best with
            | None -> Some (item, score a)
            | Some (_, best_score) ->
              let s = score a in
              if s > best_score then Some (item, s) else best)
          None remaining
      in
      (match best with
       | None -> assert false
       | Some (((_, a) as item), _) ->
         List.iter (fun v -> Hashtbl.replace bound v ()) (Atom.vars a);
         pick (item :: acc)
           (List.filter (fun other -> not (other == item)) remaining))
  in
  pick (List.rev start) remaining

(* The body atoms, paired with their textual positions, in scan order:
   [first] (when given) leads, and the others follow in textual order
   or, under [reorder], in the greedy order computed from that start. *)
let scan_order ~reorder ?first (body : Atom.t list) =
  let items = List.mapi (fun i a -> (i, a)) body in
  let start, rest =
    match first with
    | None -> ([], items)
    | Some f ->
      if f < 0 || f >= List.length body then
        invalid_arg "Joiner.compile: first is not a body position";
      List.partition (fun (i, _) -> i = f) items
  in
  if reorder then greedy_order ~start rest else start @ rest

let compile ?(pushdown = true) ?(reorder = false) ?first (rule : Rule.t) =
  if not (Rule.is_safe rule) then
    invalid_arg ("Joiner.compile: unsafe rule " ^ Rule.to_string rule);
  let scan_order = scan_order ~reorder ?first rule.body in
  let var_ids = Hashtbl.create 16 in
  let nvars = ref 0 in
  let var_id v =
    match Hashtbl.find_opt var_ids v with
    | Some i -> i
    | None ->
      let i = !nvars in
      incr nvars;
      Hashtbl.add var_ids v i;
      i
  in
  (* Body-first numbering: a variable's id is assigned at its first
     body occurrence, so every id is bound by the time it is used. *)
  let bound = Hashtbl.create 16 in
  let compile_atom idx (a : Atom.t) =
    let key = ref [] and binds = ref [] and checks = ref [] in
    let fresh_here = Hashtbl.create 4 in
    Array.iteri
      (fun pos term ->
        match term with
        | Term.Const c ->
          key := { kp_position = pos; kp_slot = Sconst c } :: !key
        | Term.Var v ->
          if Hashtbl.mem bound v then
            key :=
              { kp_position = pos; kp_slot = Svar (var_id v) } :: !key
          else if Hashtbl.mem fresh_here v then
            checks := { b_position = pos; b_var = var_id v } :: !checks
          else begin
            Hashtbl.add fresh_here v ();
            binds := { b_position = pos; b_var = var_id v } :: !binds
          end)
      a.args;
    Hashtbl.iter (fun v () -> Hashtbl.replace bound v ()) fresh_here;
    let key = List.rev !key in
    let binds = List.rev !binds and checks = List.rev !checks in
    {
      ca_pred = a.pred;
      ca_index = idx;
      ca_key = key;
      ca_binds = binds;
      ca_checks = checks;
      ca_guards = [||];
      ca_positions =
        Array.of_list (List.map (fun kp -> kp.kp_position) key);
      ca_slots = Array.of_list (List.map (fun kp -> kp.kp_slot) key);
      ca_keybuf = Array.make (List.length key) (Const.Int 0);
      ca_bind_pos = Array.of_list (List.map (fun b -> b.b_position) binds);
      ca_bind_var = Array.of_list (List.map (fun b -> b.b_var) binds);
      ca_check_pos = Array.of_list (List.map (fun b -> b.b_position) checks);
      ca_check_var = Array.of_list (List.map (fun b -> b.b_var) checks);
    }
  in
  let atoms = List.map (fun (idx, a) -> compile_atom idx a) scan_order in
  (* Guard placement: after the first atom at which all guard variables
     are bound (with pushdown), or after the last atom otherwise. *)
  let compiled_guards =
    List.map
      (fun (g : Rule.guard) ->
        let slots = Array.map var_id g.gvars in
        ( {
            cg = g;
            cg_slots = slots;
            cg_keybuf = Array.make (Array.length slots) (Const.Int 0);
          },
          g ))
      rule.guards
  in
  let nbody = List.length rule.body in
  let last_scanned =
    match List.rev scan_order with
    | (idx, _) :: _ -> idx
    | [] -> nbody - 1
  in
  (* The original index of the atom in SCAN order by which all the
     guard's variables are bound. *)
  let guard_position (g : Rule.guard) =
    if not pushdown then last_scanned
    else begin
      let remaining =
        ref
          (List.filter
             (fun v -> Array.exists (String.equal v) g.gvars)
             (Rule.body_vars rule)
          |> List.sort_uniq String.compare)
      in
      let position = ref last_scanned in
      List.iter
        (fun ((idx, a) : int * Atom.t) ->
          if !remaining <> [] then begin
            remaining :=
              List.filter (fun v -> not (List.mem v (Atom.vars a))) !remaining;
            if !remaining = [] then position := idx
          end)
        scan_order;
      !position
    end
  in
  let pre_guards =
    List.filter_map
      (fun (cg, (g : Rule.guard)) ->
        if Array.length g.gvars = 0 then Some cg else None)
      compiled_guards
  in
  let atoms =
    List.map
      (fun ca ->
        let mine =
          List.filter_map
            (fun (cg, (g : Rule.guard)) ->
              if Array.length g.gvars > 0 && guard_position g = ca.ca_index
              then Some cg
              else None)
            compiled_guards
        in
        { ca with ca_guards = Array.of_list mine })
      atoms
  in
  let head =
    Array.map
      (function
        | Term.Const c -> Sconst c
        | Term.Var v ->
          (match Hashtbl.find_opt var_ids v with
           | Some i -> Svar i
           | None -> assert false (* safety guarantees body occurrence *)))
      rule.head.args
  in
  {
    rule;
    nvars = !nvars;
    head;
    head_pred = rule.head.pred;
    pre_guards;
    atoms;
    nbody;
    probes = 0;
    head_vals = Array.make (Array.length head) (Const.Int 0);
    head_raws = Array.make (Array.length head) 0;
  }

(* A window over one append-only relation: positions [0, w_old) are
   the pre-iteration state, [w_old, w_cur) the delta, [0, w_cur) their
   union. Tuples at positions >= w_cur (appended by emits during the
   run) are invisible to every source — they are the next delta. *)
type window = {
  w_rel : Relation.t;
  w_old : int;
  w_cur : int;
}

type relations = { window_of : string -> window option }

let window_all rel =
  let n = Relation.bound rel in
  { w_rel = rel; w_old = n; w_cur = n }

let current_of find = { window_of = (fun pred -> Option.map window_all (find pred)) }

(* The guard's argument buffer is reused across calls: it is filled
   completely before [gfn] runs, and no [gfn] retains its argument
   (the memo table in Hash_fn copies the key before storing it). *)
let guard_holds env cg =
  let key = cg.cg_keybuf in
  let slots = cg.cg_slots in
  for i = 0 to Array.length slots - 1 do
    Array.unsafe_set key i env.(Array.unsafe_get slots i)
  done;
  cg.cg.gfn key = cg.cg.gexpect

(* Loops rather than local recursive functions here and in the scan
   below: a local closure over the environment would be allocated on
   every candidate tuple. *)
let guards_ok env guards =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length guards do
    ok := guard_holds env (Array.unsafe_get guards !i);
    incr i
  done;
  !ok

(* The probe of one atom: the windows its source names, each with its
   index already resolved ([Relation.matcher]) and the candidate
   callback [f] bound, so the per-candidate inner loop never touches a
   string-keyed database lookup or an index-table lookup — both are
   invariant across the probes of a single run — and a span without a
   [sp_skip] filter adds no per-candidate work. *)
let nil_probe _key = ()

let rec probe_all probes key =
  match probes with
  | [] -> ()
  | probe :: rest ->
    probe key;
    probe_all rest key

let stage_span ca f sp =
  if sp.sp_lo >= sp.sp_hi then None
  else begin
    let m = Relation.matcher sp.sp_rel ~positions:ca.ca_positions in
    let f =
      match sp.sp_skip with
      | None -> f
      | Some skip -> fun t -> if not (skip t) then f t
    in
    let lo = sp.sp_lo and hi = sp.sp_hi in
    Some (fun key -> m key ~lo ~hi f)
  end

let staged_probe ca ~sources rels f =
  let spans =
    match sources.(ca.ca_index) with
    | Spans spans -> spans
    | (Old | Delta | Current) as source -> (
      match rels.window_of ca.ca_pred with
      | None -> []
      | Some w ->
        let sp_lo, sp_hi =
          match source with
          | Old -> (0, w.w_old)
          | Delta -> (w.w_old, w.w_cur)
          | Current | Spans _ -> (0, w.w_cur)
        in
        [ { sp_rel = w.w_rel; sp_lo; sp_hi; sp_skip = None } ])
  in
  match List.filter_map (stage_span ca f) spans with
  | [] -> nil_probe
  | [ probe ] -> probe
  | probes -> fun key -> probe_all probes key

let run plan ~sources ?fast_dedup rels ~emit =
  if Array.length sources <> plan.nbody then
    invalid_arg "Joiner.run: sources length mismatch";
  let env = Array.make (max plan.nvars 1) (Const.Int 0) in
  let nhead = Array.length plan.head in
  let emit_head =
    match fast_dedup with
    | None ->
      fun () ->
        let data = Array.make nhead (Const.Int 0) in
        for i = 0 to nhead - 1 do
          Array.unsafe_set data i
            (match Array.unsafe_get plan.head i with
            | Sconst c -> c
            | Svar v -> env.(v))
        done;
        emit (Tuple.make data)
    | Some fd ->
      (* Instantiate the head into the plan's reusable buffers, folding
         the tuple hash (the same fold as [Tuple.hash_key]) and the raw
         words as we go, and ask the filter before allocating anything.
         A [`Dup] verdict costs zero allocations; [`New] builds the
         tuple with the hash it already has. *)
      let vals = plan.head_vals and raws = plan.head_raws in
      fun () ->
        let h = ref nhead in
        for i = 0 to nhead - 1 do
          let c =
            match Array.unsafe_get plan.head i with
            | Sconst c -> c
            | Svar v -> env.(v)
          in
          Array.unsafe_set vals i c;
          Array.unsafe_set raws i (Const.to_raw c);
          h := (!h * 0x01000193) lxor Const.hash c
        done;
        let h = !h land max_int in
        (match fd ~hash:h raws with
        | `Dup -> ()
        | `New ->
          let data = Array.make nhead (Const.Int 0) in
          Array.blit vals 0 data 0 nhead;
          emit (Tuple.make_with_hash data h))
  in
  (* Build the scan as a chain of closures, innermost (the head emit)
     first: each atom's candidate callback is allocated once per run,
     not once per enumerated substitution prefix as a naive recursive
     scan would. *)
  let rec build atoms =
    match atoms with
    | [] -> emit_head
    | ca :: rest ->
      let continue_k = build rest in
      let key = ca.ca_keybuf in
      let slots = ca.ca_slots in
      let bind_pos = ca.ca_bind_pos and bind_var = ca.ca_bind_var in
      let check_pos = ca.ca_check_pos and check_var = ca.ca_check_var in
      let nchecks = Array.length check_pos in
      let guards = ca.ca_guards in
      let try_tuple t =
        plan.probes <- plan.probes + 1;
        for i = 0 to Array.length bind_pos - 1 do
          env.(Array.unsafe_get bind_var i) <-
            Tuple.get t (Array.unsafe_get bind_pos i)
        done;
        let ok = ref true and i = ref 0 in
        while !ok && !i < nchecks do
          ok :=
            Const.equal
              (Tuple.get t (Array.unsafe_get check_pos !i))
              env.(Array.unsafe_get check_var !i);
          incr i
        done;
        if !ok && guards_ok env guards then continue_k ()
      in
      let probe = staged_probe ca ~sources rels try_tuple in
      fun () ->
        (* Instantiate the index key in the atom's reusable buffer: the
           positions were fixed at compile time, so a probe costs only
           the constant writes, no list or array allocation. *)
        for i = 0 to Array.length key - 1 do
          key.(i) <-
            (match Array.unsafe_get slots i with
            | Sconst c -> c
            | Svar v -> env.(v))
        done;
        probe key
  in
  let start = build plan.atoms in
  let rec pre_ok gs =
    match gs with
    | [] -> true
    | cg :: rest -> guard_holds env cg && pre_ok rest
  in
  if pre_ok plan.pre_guards then start ()
