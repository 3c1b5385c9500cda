(* ------------------------------------------------------------------ *)
(* Incremental maintenance (Stratified.Live) support machinery.

   The batch-update algorithms cannot reuse {!Joiner}: maintaining a
   model under deletions needs, for one body atom, the {e union} of
   several windows over several physical relations — the post-patch
   main store plus a scratch relation of just-removed tuples is the
   only faithful representation of the pre-batch state once the
   append-only store has been rebuilt. So the incremental layer runs
   its own backtracking join over per-atom {e source lists}: each
   source is a windowed, optionally filtered view of one relation, and
   a body atom matches against the concatenation of its sources. Index
   probes still go through {!Relation.matcher} on the positions bound
   by the environment, so the inner loop stays bucketed. *)

module Tset = Hashtbl.Make (Tuple)

module Lkey = struct
  type t = string * Tuple.t

  let equal (p1, t1) (p2, t2) = String.equal p1 p2 && Tuple.equal t1 t2
  let hash (p, t) = (Hashtbl.hash p * 0x01000193) lxor Tuple.hash t
end

module Ltbl = Hashtbl.Make (Lkey)

type src = {
  sr_rel : Relation.t;
  sr_lo : int;
  sr_hi : int;  (* window [sr_lo, sr_hi) *)
  sr_skip : (Tuple.t -> bool) option;  (* drop candidates, post-window *)
}

let src_all rel =
  { sr_rel = rel; sr_lo = 0; sr_hi = Relation.cardinal rel; sr_skip = None }

let unify_tuple (args : Term.t array) env t =
  let n = Array.length args in
  let rec go k env =
    if k = n then Some env
    else
      match args.(k) with
      | Term.Const c ->
        if Const.equal c (Tuple.get t k) then go (k + 1) env else None
      | Term.Var v -> (
        let c = Tuple.get t k in
        match List.assoc_opt v env with
        | Some c' -> if Const.equal c c' then go (k + 1) env else None
        | None -> go (k + 1) ((v, c) :: env))
  in
  go 0 env

let instantiate_head (head : Atom.t) env =
  Tuple.make
    (Array.map
       (function
         | Term.Const c -> c
         | Term.Var v -> (
           match List.assoc_opt v env with
           | Some c -> c
           | None ->
             invalid_arg "Stratified: unsafe rule head variable"))
       head.Atom.args)

(* Probe one source for candidates compatible with [atom] under [env]:
   positions already bound (constants or bound variables) become an
   index key, the rest scan. *)
let probe_src s (atom : Atom.t) env f =
  let args = atom.Atom.args in
  let bound = ref [] in
  Array.iteri
    (fun k term ->
      match term with
      | Term.Const c -> bound := (k, c) :: !bound
      | Term.Var v -> (
        match List.assoc_opt v env with
        | Some c -> bound := (k, c) :: !bound
        | None -> ()))
    args;
  let each =
    match s.sr_skip with
    | None -> f
    | Some skip -> fun t -> if not (skip t) then f t
  in
  match List.rev !bound with
  | [] -> Relation.iter_range s.sr_rel ~lo:s.sr_lo ~hi:s.sr_hi each
  | bl ->
    let positions = Array.of_list (List.map fst bl) in
    let key = Array.of_list (List.map snd bl) in
    Relation.matcher s.sr_rel ~positions key ~lo:s.sr_lo ~hi:s.sr_hi each

(* Enumerate the ground substitutions of [rule]'s body where each atom
   draws from its own source list; [on_firing] sees the full
   environment of each success. [env] pre-binds variables (used by
   rederivation, which unifies the head with a concrete tuple). *)
let eval_body ?(env = []) (rule : Rule.t) (sources : src list array)
    ~on_firing =
  let body = Array.of_list rule.body in
  let n = Array.length body in
  let rec go i env =
    if i = n then on_firing env
    else
      let atom = body.(i) in
      List.iter
        (fun s ->
          probe_src s atom env (fun t ->
              match unify_tuple atom.Atom.args env t with
              | Some env' -> go (i + 1) env'
              | None -> ()))
        sources.(i)
  in
  go 0 env

exception Sat

let satisfiable ~env rule sources =
  match eval_body ~env rule sources ~on_firing:(fun _ -> raise Sat) with
  | () -> false
  | exception Sat -> true

let evaluate ?pushdown ?reorder program edb =
  (match Program.check program with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Stratified.evaluate: " ^ msg));
  let components = Analysis.sccs program in
  let db = Database.copy edb in
  ignore (Database.merge_into ~dst:db ~src:(Program.facts_db program));
  let totals =
    ref
      {
        Seminaive.iterations = 0;
        firings = 0;
        new_tuples = 0;
        duplicate_firings = 0;
      }
  in
  List.iter
    (fun component ->
      let rules =
        List.filter
          (fun (r : Rule.t) -> List.mem r.head.Atom.pred component)
          (Program.rules program)
      in
      if rules <> [] then begin
        (* Lower components' results are already in [db] and look
           extensional to this stratum. *)
        let engine =
          Seminaive.create ?pushdown ?reorder (Program.make rules) ~edb:db
        in
        Seminaive.run_to_fixpoint engine;
        let produced = Seminaive.store engine in
        List.iter
          (fun pred ->
            match Database.find produced pred with
            | Some rel ->
              let target =
                Database.declare db pred (Relation.arity rel)
              in
              ignore (Relation.add_all target rel)
            | None -> ())
          component;
        let s = Seminaive.stats engine in
        totals :=
          {
            Seminaive.iterations =
              !totals.Seminaive.iterations + s.Seminaive.iterations;
            firings = !totals.Seminaive.firings + s.Seminaive.firings;
            new_tuples = !totals.Seminaive.new_tuples + s.Seminaive.new_tuples;
            duplicate_firings =
              !totals.Seminaive.duplicate_firings
              + s.Seminaive.duplicate_firings;
          }
      end)
    components;
  (db, !totals)

(* ================================================================== *)
(* Live incremental maintenance                                       *)

module Live = struct
  type stratum = {
    st_preds : string list;  (* one SCC, sorted *)
    st_rules : Rule.t list;
    st_recursive : bool;  (* DRed; otherwise counting *)
  }

  type t = {
    lv_program : Program.t;
    lv_db : Database.t;  (* the live model: base + every derived tuple *)
    lv_strata : stratum list;  (* bottom-up *)
    lv_derived : string list;
    (* Non-recursive strata: exact derivation counts per head tuple.
       A tuple lives iff its count is positive; deletion decrements by
       the telescoped lost-firing enumeration, insertion increments. *)
    lv_counts : (string, int Tset.t) Hashtbl.t;
    (* Derived program facts: permanent external support. Counting
       strata bake them in as a +1 baseline; DRed rederivation treats
       them as self-justifying. *)
    lv_pfacts : unit Ltbl.t;
    lv_log : Delta.Log.t;  (* net model changes, per predicate *)
    lv_track : bool;  (* record into lv_log? *)
    mutable lv_batches : int;
    mutable lv_totals : Delta.summary;
  }

  type change = {
    c_summary : Delta.summary;
    c_added : (string * Tuple.t) list;  (* net, base + derived, sorted *)
    c_removed : (string * Tuple.t) list;
  }

  let no_change =
    { c_summary = Delta.empty_summary; c_added = []; c_removed = [] }

  let build_strata program =
    List.filter_map
      (fun component ->
        let rules =
          List.filter
            (fun (r : Rule.t) -> List.mem r.head.Atom.pred component)
            (Program.rules program)
        in
        if rules = [] then None
        else
          let recursive =
            match component with
            | [ _ ] ->
              List.exists
                (fun (r : Rule.t) ->
                  List.exists
                    (fun (a : Atom.t) -> List.mem a.Atom.pred component)
                    r.body)
                rules
            | _ -> true
          in
          Some { st_preds = component; st_rules = rules; st_recursive = recursive })
      (Analysis.sccs program)

  let counts_of live pred =
    match Hashtbl.find_opt live.lv_counts pred with
    | Some c -> c
    | None ->
      let c = Tset.create 64 in
      Hashtbl.add live.lv_counts pred c;
      c

  let bump counts tuple by =
    let c = (match Tset.find_opt counts tuple with Some c -> c | None -> 0) + by in
    if c <= 0 then Tset.remove counts tuple else Tset.replace counts tuple c;
    c

  let rel_opt live pred = Database.find live.lv_db pred

  (* Count every current firing of the counting strata once, plus a +1
     baseline per externally supported tuple: the telescoped
     maintenance identities keep these exact from here on. *)
  let init_counts live =
    List.iter
      (fun st ->
        if not st.st_recursive then begin
          let counts = counts_of live (List.hd st.st_preds) in
          List.iter
            (fun (rule : Rule.t) ->
              let sources =
                Array.of_list
                  (List.map
                     (fun (a : Atom.t) ->
                       match rel_opt live a.Atom.pred with
                       | Some rel -> [ src_all rel ]
                       | None -> [])
                     rule.body)
              in
              eval_body rule sources ~on_firing:(fun env ->
                  ignore (bump counts (instantiate_head rule.head env) 1)))
            st.st_rules
        end)
      live.lv_strata;
    let counting =
      List.concat_map
        (fun st -> if st.st_recursive then [] else st.st_preds)
        live.lv_strata
    in
    Ltbl.iter
      (fun (pred, tuple) () ->
        if List.mem pred counting then ignore (bump (counts_of live pred) tuple 1))
      live.lv_pfacts

  let create ?pushdown ?reorder ?(track = true) program ~edb =
    (match Program.check program with
     | Ok () -> ()
     | Error msg -> invalid_arg ("Stratified.Live.create: " ^ msg));
    let db, _ = evaluate ?pushdown ?reorder program edb in
    let derived = Program.derived_predicates program in
    let live =
      {
        lv_program = program;
        lv_db = db;
        lv_strata = build_strata program;
        lv_derived = derived;
        lv_counts = Hashtbl.create 8;
        lv_pfacts = Ltbl.create 16;
        lv_log = Delta.Log.create ();
        lv_track = track;
        lv_batches = 0;
        lv_totals = Delta.empty_summary;
      }
    in
    (* Externally supported tuples of derived predicates — program facts
       and edb seeds — are self-justifying: counting gives them a +1
       baseline, DRed rederives them unconditionally. *)
    List.iter
      (fun (pred, tuple) ->
        if List.mem pred derived then Ltbl.replace live.lv_pfacts (pred, tuple) ())
      program.Program.facts;
    List.iter
      (fun pred ->
        if List.mem pred derived then
          match Database.find edb pred with
          | None -> ()
          | Some rel ->
            Relation.iter
              (fun tuple -> Ltbl.replace live.lv_pfacts (pred, tuple) ())
              rel)
      (Database.predicates edb);
    init_counts live;
    live

  (* ---------------------------------------------------------------- *)
  (* Deletion phase                                                   *)

  (* Counting stratum: enumerate exactly the lost firings — position
     [j] reads the removed tuples, earlier atoms the post-deletion
     state, later atoms the pre-deletion state (main ∪ removed) — and
     decrement; a head whose count reaches zero dies. *)
  let delete_counting live st ~rem ~rem_of ~note_removed ~firings =
    let head_pred = List.hd st.st_preds in
    let counts = counts_of live head_pred in
    let rem_opt p =
      match Hashtbl.find_opt rem p with
      | Some r when not (Relation.is_empty r) -> Some r
      | _ -> None
    in
    let dead = Tset.create 16 in
    List.iter
      (fun (rule : Rule.t) ->
        let body = Array.of_list rule.body in
        let n = Array.length body in
        for j = 0 to n - 1 do
          match rem_opt body.(j).Atom.pred with
          | None -> ()
          | Some rem_j ->
            let sources =
              Array.init n (fun i ->
                  let p = body.(i).Atom.pred in
                  let main =
                    match rel_opt live p with
                    | Some r -> [ src_all r ]
                    | None -> []
                  in
                  if i < j then main
                  else if i = j then [ src_all rem_j ]
                  else
                    match rem_opt p with
                    | Some r -> main @ [ src_all r ]
                    | None -> main)
            in
            eval_body rule sources ~on_firing:(fun env ->
                incr firings;
                let h = instantiate_head rule.head env in
                if bump counts h (-1) = 0 then Tset.replace dead h ())
        done)
      st.st_rules;
    if Tset.length dead > 0 then begin
      match rel_opt live head_pred with
      | None -> ()
      | Some main ->
        let rm = rem_of head_pred (Relation.arity main) in
        ignore (Relation.remove_all main (Tset.mem dead));
        Tset.iter
          (fun t () ->
            ignore (Relation.add rm t);
            note_removed (head_pred, t))
          dead
    end

  (* Recursive stratum: DRed. Overdelete every tuple with a firing
     over the old state that touches a removed or overdeleted tuple;
     rederive the overdeleted tuples still derivable from survivors;
     the difference is the net deletion. *)
  let delete_dred live st ~rem ~rem_of ~note_removed ~firings ~overdeleted
      ~rederived =
    let in_stratum p = List.mem p st.st_preds in
    let rem_opt p =
      match Hashtbl.find_opt rem p with
      | Some r when not (Relation.is_empty r) -> Some r
      | _ -> None
    in
    let od : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
    let od_lo : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let od_of pred arity =
      match Hashtbl.find_opt od pred with
      | Some r -> r
      | None ->
        let r = Relation.create ~arity () in
        Hashtbl.add od pred r;
        Hashtbl.replace od_lo pred 0;
        r
    in
    (* Old state: for lower predicates main ∪ removed (they are already
       patched); for stratum predicates main (untouched until the net
       deletion is installed below). *)
    let old_sources p =
      let main =
        match rel_opt live p with Some r -> [ src_all r ] | None -> []
      in
      if in_stratum p then main
      else
        match rem_opt p with Some r -> main @ [ src_all r ] | None -> main
    in
    let emit_od (rule : Rule.t) env =
      incr firings;
      let hpred = rule.head.Atom.pred in
      let h = instantiate_head rule.head env in
      match rel_opt live hpred with
      | Some main when Relation.mem main h ->
        ignore (Relation.add (od_of hpred (Tuple.arity h)) h)
      | _ -> ()
    in
    (* Seed: firings lost to lower-stratum removals. *)
    List.iter
      (fun (rule : Rule.t) ->
        let body = Array.of_list rule.body in
        let n = Array.length body in
        for j = 0 to n - 1 do
          let pj = body.(j).Atom.pred in
          if not (in_stratum pj) then
            match rem_opt pj with
            | None -> ()
            | Some rem_j ->
              let sources =
                Array.init n (fun i ->
                    if i = j then [ src_all rem_j ]
                    else old_sources body.(i).Atom.pred)
              in
              eval_body rule sources ~on_firing:(emit_od rule)
        done)
      st.st_rules;
    (* Propagate: an overdeleted stratum tuple loses the firings it
       supported. Set semantics — overcounting is harmless here. *)
    let continue = ref true in
    while !continue do
      continue := false;
      let windows =
        Hashtbl.fold
          (fun pred r acc ->
            let lo = Hashtbl.find od_lo pred and hi = Relation.cardinal r in
            if hi > lo then (pred, r, lo, hi) :: acc else acc)
          od []
      in
      if windows <> [] then begin
        continue := true;
        List.iter
          (fun (rule : Rule.t) ->
            let body = Array.of_list rule.body in
            let n = Array.length body in
            for j = 0 to n - 1 do
              let pj = body.(j).Atom.pred in
              match
                List.find_opt (fun (p, _, _, _) -> String.equal p pj) windows
              with
              | None -> ()
              | Some (_, r, lo, hi) ->
                let sources =
                  Array.init n (fun i ->
                      if i = j then
                        [ { sr_rel = r; sr_lo = lo; sr_hi = hi; sr_skip = None } ]
                      else old_sources body.(i).Atom.pred)
                in
                eval_body rule sources ~on_firing:(emit_od rule)
            done)
          st.st_rules;
        List.iter (fun (pred, _, _, hi) -> Hashtbl.replace od_lo pred hi) windows
      end
    done;
    Hashtbl.iter (fun _ r -> overdeleted := !overdeleted + Relation.cardinal r) od;
    (* Rederive: an overdeleted tuple survives if some rule derives it
       from survivors — stratum atoms read main minus the still-dead
       overdeletions, lower atoms the new state. Iterate to fixpoint:
       each save can justify more. *)
    let red : (string, unit Tset.t) Hashtbl.t = Hashtbl.create 4 in
    let red_of pred =
      match Hashtbl.find_opt red pred with
      | Some s -> s
      | None ->
        let s = Tset.create 16 in
        Hashtbl.add red pred s;
        s
    in
    let survivor_sources (a : Atom.t) =
      let p = a.Atom.pred in
      match rel_opt live p with
      | None -> []
      | Some main ->
        if in_stratum p then begin
          match Hashtbl.find_opt od p with
          | Some o ->
            let redset = red_of p in
            [ { sr_rel = main; sr_lo = 0; sr_hi = Relation.cardinal main;
                sr_skip =
                  Some (fun t -> Relation.mem o t && not (Tset.mem redset t)) } ]
          | None -> [ src_all main ]
        end
        else [ src_all main ]
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Hashtbl.iter
        (fun pred o ->
          let redset = red_of pred in
          Relation.iter
            (fun t ->
              if not (Tset.mem redset t) then begin
                let saved =
                  Ltbl.mem live.lv_pfacts (pred, t)
                  || List.exists
                       (fun (rule : Rule.t) ->
                         String.equal rule.head.Atom.pred pred
                         &&
                         match unify_tuple rule.head.Atom.args [] t with
                         | None -> false
                         | Some env ->
                           let sources =
                             Array.of_list
                               (List.map survivor_sources rule.body)
                           in
                           let ok = satisfiable ~env rule sources in
                           if ok then incr firings;
                           ok)
                       st.st_rules
                in
                if saved then begin
                  Tset.replace redset t ();
                  changed := true
                end
              end)
            o)
        od
    done;
    Hashtbl.iter (fun _ s -> rederived := !rederived + Tset.length s) red;
    (* Install the net deletion. *)
    Hashtbl.iter
      (fun pred o ->
        let redset = red_of pred in
        let deadp t = Relation.mem o t && not (Tset.mem redset t) in
        let dead = Relation.fold (fun t acc -> if Tset.mem redset t then acc else t :: acc) o [] in
        if dead <> [] then begin
          match rel_opt live pred with
          | None -> ()
          | Some main ->
            ignore (Relation.remove_all main deadp);
            let rm = rem_of pred (Relation.arity o) in
            List.iter
              (fun t ->
                ignore (Relation.add rm t);
                note_removed (pred, t))
              dead
        end)
      od

  (* ---------------------------------------------------------------- *)
  (* Insertion phase                                                  *)

  (* Counting stratum: the gained firings — position [j] reads the
     added window, earlier atoms the full new state, later atoms the
     pre-addition prefix — increment; a 0→1 head is born. *)
  let insert_counting live st ~add_lo ~note_added ~firings =
    let head_pred = List.hd st.st_preds in
    let counts = counts_of live head_pred in
    let lo_of p =
      match Hashtbl.find_opt add_lo p with
      | Some v -> v
      | None -> (
        match rel_opt live p with Some r -> Relation.cardinal r | None -> 0)
    in
    let head_rel =
      match rel_opt live head_pred with
      | Some r -> r
      | None ->
        (* Head relations exist: the initial evaluation declared every
           derived predicate. *)
        assert false
    in
    List.iter
      (fun (rule : Rule.t) ->
        let body = Array.of_list rule.body in
        let n = Array.length body in
        for j = 0 to n - 1 do
          let pj = body.(j).Atom.pred in
          let lo_j = lo_of pj in
          let cur_j =
            match rel_opt live pj with
            | Some r -> Relation.cardinal r
            | None -> 0
          in
          if cur_j > lo_j then begin
            let rel_j =
              match rel_opt live pj with Some r -> r | None -> assert false
            in
            let sources =
              Array.init n (fun i ->
                  let p = body.(i).Atom.pred in
                  match rel_opt live p with
                  | None -> []
                  | Some r ->
                    if i < j then
                      [ { sr_rel = r; sr_lo = 0; sr_hi = Relation.cardinal r;
                          sr_skip = None } ]
                    else if i = j then
                      [ { sr_rel = rel_j; sr_lo = lo_j; sr_hi = cur_j;
                          sr_skip = None } ]
                    else
                      [ { sr_rel = r; sr_lo = 0; sr_hi = lo_of p;
                          sr_skip = None } ])
            in
            eval_body rule sources ~on_firing:(fun env ->
                incr firings;
                let h = instantiate_head rule.head env in
                if bump counts h 1 = 1 then
                  if Relation.add head_rel h then note_added (head_pred, h))
          end
        done)
      st.st_rules

  (* Recursive stratum: plain semi-naive resumed from the added
     windows, driven over the live store with local watermarks (the
     in-place analogue of [Seminaive.resume]). *)
  let insert_seminaive live st ~add_lo ~note_added ~firings =
    let scope =
      List.sort_uniq String.compare
        (List.concat_map
           (fun (r : Rule.t) ->
             r.head.Atom.pred
             :: List.map (fun (a : Atom.t) -> a.Atom.pred) r.body)
           st.st_rules)
    in
    let card p =
      match rel_opt live p with Some r -> Relation.cardinal r | None -> 0
    in
    let lo : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let cur : (string, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun p ->
        let l =
          match Hashtbl.find_opt add_lo p with
          | Some v -> v
          | None -> card p
        in
        Hashtbl.replace lo p l;
        Hashtbl.replace cur p (card p))
      scope;
    let continue = ref true in
    while !continue do
      continue := false;
      let delta p = Hashtbl.find cur p > Hashtbl.find lo p in
      if List.exists delta scope then begin
        continue := true;
        List.iter
          (fun (rule : Rule.t) ->
            let body = Array.of_list rule.body in
            let n = Array.length body in
            let head_rel =
              match rel_opt live rule.head.Atom.pred with
              | Some r -> r
              | None -> assert false
            in
            for j = 0 to n - 1 do
              let pj = body.(j).Atom.pred in
              if List.mem pj scope && delta pj then begin
                let sources =
                  Array.init n (fun i ->
                      let p = body.(i).Atom.pred in
                      match rel_opt live p with
                      | None -> []
                      | Some r ->
                        let hi =
                          if i < j then Hashtbl.find lo p
                          else if i = j then Hashtbl.find cur p
                          else Hashtbl.find cur p
                        in
                        let lo_w =
                          if i = j then Hashtbl.find lo p else 0
                        in
                        [ { sr_rel = r; sr_lo = lo_w; sr_hi = hi;
                            sr_skip = None } ])
                in
                eval_body rule sources ~on_firing:(fun env ->
                    incr firings;
                    let h = instantiate_head rule.head env in
                    if Relation.add head_rel h then
                      note_added (rule.head.Atom.pred, h))
              end
            done)
          st.st_rules;
        List.iter
          (fun p ->
            Hashtbl.replace lo p (Hashtbl.find cur p);
            Hashtbl.replace cur p (card p))
          scope
      end
    done

  (* ---------------------------------------------------------------- *)

  let apply live batch =
    live.lv_batches <- live.lv_batches + 1;
    List.iter
      (fun (u : Delta.update) ->
        if List.mem u.Delta.u_pred live.lv_derived then
          invalid_arg
            ("Stratified.Live.apply: " ^ u.Delta.u_pred
           ^ " is derived; updates must target base predicates"))
      (Delta.Batch.to_list batch);
    let present pred tuple =
      match rel_opt live pred with
      | Some rel -> Relation.mem rel tuple
      | None -> false
    in
    let adds, rems = Delta.Batch.normalize batch ~present in
    if adds = [] && rems = [] then no_change
    else begin
      let removed_now = Ltbl.create 32 in
      let added_now = Ltbl.create 32 in
      let note_removed key = Ltbl.replace removed_now key () in
      let note_added key =
        if Ltbl.mem removed_now key then Ltbl.remove removed_now key
        else Ltbl.replace added_now key ()
      in
      let firings = ref 0 in
      let overdeleted = ref 0 in
      let rederived = ref 0 in
      (* -------- deletions, bottom-up -------- *)
      if rems <> [] then begin
        let rem : (string, Relation.t) Hashtbl.t = Hashtbl.create 8 in
        let rem_of pred arity =
          match Hashtbl.find_opt rem pred with
          | Some r -> r
          | None ->
            let r = Relation.create ~arity () in
            Hashtbl.add rem pred r;
            r
        in
        let by_pred : (string, Tuple.t list ref) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun (pred, tuple) ->
            match Hashtbl.find_opt by_pred pred with
            | Some l -> l := tuple :: !l
            | None -> Hashtbl.add by_pred pred (ref [ tuple ]))
          rems;
        Hashtbl.iter
          (fun pred tuples ->
            match rel_opt live pred with
            | None -> ()
            | Some rel ->
              let set = Tset.create 16 in
              List.iter (fun t -> Tset.replace set t ()) !tuples;
              ignore (Relation.remove_all rel (Tset.mem set));
              let rm = rem_of pred (Relation.arity rel) in
              List.iter
                (fun t ->
                  ignore (Relation.add rm t);
                  note_removed (pred, t))
                !tuples)
          by_pred;
        List.iter
          (fun st ->
            if st.st_recursive then
              delete_dred live st ~rem ~rem_of ~note_removed ~firings
                ~overdeleted ~rederived
            else delete_counting live st ~rem ~rem_of ~note_removed ~firings)
          live.lv_strata
      end;
      (* -------- insertions, bottom-up -------- *)
      if adds <> [] then begin
        (* Watermark every relation before the first append: the added
           region of predicate [p] is [add_lo(p), cardinal). *)
        let add_lo : (string, int) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun pred ->
            match rel_opt live pred with
            | Some r -> Hashtbl.replace add_lo pred (Relation.cardinal r)
            | None -> ())
          (Database.predicates live.lv_db);
        List.iter
          (fun (pred, tuple) ->
            if not (Hashtbl.mem add_lo pred) then Hashtbl.replace add_lo pred 0;
            if Database.add_fact live.lv_db pred tuple then
              note_added (pred, tuple))
          adds;
        List.iter
          (fun st ->
            if st.st_recursive then
              insert_seminaive live st ~add_lo ~note_added ~firings
            else insert_counting live st ~add_lo ~note_added ~firings)
          live.lv_strata
      end;
      let collect tbl =
        List.sort
          (fun (p1, t1) (p2, t2) ->
            match String.compare p1 p2 with
            | 0 -> Tuple.compare t1 t2
            | c -> c)
          (Ltbl.fold (fun key () acc -> key :: acc) tbl [])
      in
      let added = collect added_now in
      let removed = collect removed_now in
      if live.lv_track then begin
        List.iter
          (fun (pred, t) -> Delta.Log.record live.lv_log pred Delta.Insert t)
          added;
        List.iter
          (fun (pred, t) -> Delta.Log.record live.lv_log pred Delta.Delete t)
          removed
      end;
      let summary =
        {
          Delta.s_inserted = List.length added;
          s_deleted = List.length removed;
          s_overdeleted = !overdeleted;
          s_rederived = !rederived;
          s_firings = !firings;
        }
      in
      live.lv_totals <- Delta.add_summary live.lv_totals summary;
      { c_summary = summary; c_added = added; c_removed = removed }
    end

  let query live pred =
    match rel_opt live pred with
    | Some rel -> Relation.sorted_elements rel
    | None -> []

  let database live = Database.copy live.lv_db
  let batches live = live.lv_batches
  let totals live = live.lv_totals
  let log live = live.lv_log
end
